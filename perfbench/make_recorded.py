"""Regenerate perfbench/recorded.json, the reference values for seed 0.

    python3 perfbench/make_recorded.py

oracle_counts: the count of every planted support the default seed (0)
generates in a run of BENCHMARK.json's run_seconds (plus the layer-floor
jobs), computed with the independent counters of tests/oracles.py, keyed by
check.support_key.

outputs: the JSON output of every quick-workload job of seed 0 (keyed by
check.job_key), as the
program printed it when this file was made, minus free-text fields. The
checker requires each recorded field to be present and equal; fields added
later are ignored.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import check  # noqa: E402
import gen  # noqa: E402
from oracles import count_sets  # noqa: E402

from hdperm.core import Shape, SupportArray  # noqa: E402

JSON_KINDS = {"f", "cd", "theorem5", "sdn_bound", "bound", "count", "verify"}


def oracle_count(d, n, masks):
    a = SupportArray(Shape(d, n), tuple(masks))
    return count_sets(a)


def seed0_jobs(workload, seconds):
    return [job for p in range(gen.passes(workload, seconds))
            for job in gen.make_pass(workload, 0, p)]


def recorded_output(job, workdir):
    for name, text in job["files"].items():
        (workdir / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HDPERM_THREADS", None)
    out = subprocess.run([sys.executable, "-m", "hdperm.cli", *job["argv"]], cwd=workdir,
                         env=env, capture_output=True, text=True, check=True).stdout
    obj = json.loads(out.strip().splitlines()[-1])
    if job["kind"] == "verify":
        obj["suites"] = {name: {"passed": s["passed"]} for name, s in obj["suites"].items()}
    return obj


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    oracle, outputs = {}, {}
    jobs = gen.floor_jobs()
    for workload in gen.WORKLOADS:
        jobs += seed0_jobs(workload, seconds)
    for job in jobs:
        e = job["expect"]
        if "masks" in e:
            key = check.support_key(e["d"], e["n"], e["masks"])
            if key not in oracle:
                oracle[key] = oracle_count(e["d"], e["n"], e["masks"])
    workdir = ROOT / ".perfbench" / "make-recorded"
    workdir.mkdir(parents=True, exist_ok=True)
    for job in seed0_jobs("quick", seconds):
        if job["kind"] in JSON_KINDS:
            outputs[check.job_key(job)] = recorded_output(job, workdir)
    (HERE / "recorded.json").write_text(json.dumps(
        {"oracle_counts": oracle, "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    print(f"{len(oracle)} oracle counts, {len(outputs)} recorded outputs")


if __name__ == "__main__":
    main()

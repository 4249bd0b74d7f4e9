"""The hdperm benchmark: CLI jobs timed end to end, each layer traced.

Run from the repository root:

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0

Workloads (gen.py builds their jobs from the seed): count, enumerate and
quick, which BENCHMARK.json lists, and shade, which it leaves out (see
gen.WHY). Load is a closed loop with one client: one ``python -m hdperm.cli``
process at a time, the next started when the previous one has exited. Jobs
run with PYTHONPATH=src, without HDPERM_THREADS, under this interpreter.

--trace 0 runs round(--seconds / gen.PASS_SECONDS) passes of the workload's
job list and reports the end-to-end metrics:
    jobs_per_s      jobs completed per second of job time
    job_p50_s       median job wall time, process spawn to exit
    job_tail_s      the highest job-time percentile with >= 10 jobs beyond it
    setup_s         median time for a fresh process to import hdperm.cli
    peak_rss_mb     the largest max-RSS among the job processes
error_rate (failed / attempted) is printed with them and carried in the
result's "failed" and "attempted"; it is not a metric because it is 0 when
the program is right.

--trace 1 runs pass 0 three times: as processes, in process without
tracing, and in process with spans around every layer's calls (spans.py).
It then runs the fixed layer-floor jobs traced, and standalone probes (cold
caches, each kernel backend, the thread split). It reports the per-layer
metrics and writes all spans to .perfbench/trace-<workload>-s<seed>.json.
The in-process runs empty the package's caches before each job.

Every output is checked (check.py) after its job ended. The last stdout
line is one JSON object: correct, attempted, failed, metrics. The exit code
is 1 when any job failed, 2 when the program cannot be run at all.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import check
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_ARGS = ["-c", "import hdperm.cli"]
SETUP_RUNS = 10  # fresh-import timings per run; their median is setup_s
JOB_TIMEOUT_S = 60  # a job still running after this is killed and counts as failed
RUN_LIMIT_S = 150  # no job outlives this point of the run, which must end within 180 s
_START = time.monotonic()
TAIL_BEYOND = 10


def job_env():
    env = dict(os.environ)
    env.pop("HDPERM_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, cwd):
    """Run ``python args``; return (wall_s, returncode, stdout, max_rss_mb)."""
    with open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=job_env(),
                                stdout=subprocess.PIPE, stderr=err)
        left = _START + RUN_LIMIT_S - time.monotonic()
        timer = threading.Timer(max(1.0, min(JOB_TIMEOUT_S, left)), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage.ru_maxrss / 1024


def write_files(jobs, workdir):
    for job in jobs:
        for name, text in job["files"].items():
            (workdir / name).write_text(text)


def median_spawn(args, workdir, runs):
    spawn(args, workdir)  # warm the file cache; not counted
    return statistics.median(spawn(args, workdir)[0] for _ in range(runs))


def load_program():
    """Import the package in this process (traced run and count fallback)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hdperm.bounds
    import hdperm.cli
    import hdperm.constructions
    import hdperm.counting
    import hdperm.kernels
    import hdperm.shade
    return hdperm


def count_fallback(d, n, masks):
    hdperm = load_program()
    a = hdperm.core.SupportArray(hdperm.core.Shape(d, n), tuple(masks))
    return hdperm.counting.per_d(a)


def environment():
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count()}
    probe = ("import numpy, hdperm.kernels as k; "
             "print(numpy.__version__, k.BACKEND)")
    out = subprocess.run([sys.executable, "-c", probe], env=job_env(),
                         capture_output=True, text=True, check=True).stdout.split()
    env["numpy"], env["backend"] = out
    try:
        env["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                       text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["commit"] = "unknown (not a git checkout)"
    return env


def tail(walls):
    """(value, percentile, jobs beyond it): the highest job-time percentile
    that still has TAIL_BEYOND jobs above it."""
    ordered = sorted(walls)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


# -- end-to-end run --------------------------------------------------------------


def run_e2e(args, workdir, checker):
    spawn(SETUP_ARGS, workdir)  # warm the file cache; not counted
    setup, walls, rss, failures = [], [], [], []
    passes = [gen.make_pass(args.workload, args.seed, p)
              for p in range(gen.passes(args.workload, args.seconds))]
    jobs_total = sum(map(len, passes))
    for jobs in passes:
        write_files(jobs, workdir)
        results = []
        for job in jobs:
            # set-up samples are spread over the whole run, so that they see
            # the same machine as the jobs
            if len(walls) >= len(setup) * jobs_total / SETUP_RUNS:
                setup.append(spawn(SETUP_ARGS, workdir)[0])
            wall, rc, out, peak = spawn(["-m", "hdperm.cli", *job["argv"]], workdir)
            walls.append(wall)
            rss.append(peak)
            results.append((rc, out))
        for job, reason in zip(jobs, checker.check_all(jobs, results)):
            if reason is not None:
                failures.append((job, reason))
    t_value, t_pct, t_beyond = tail(walls)
    metrics = {
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (t_value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    notes = [f"passes: {len(passes)}, jobs: {len(walls)}, job time: {sum(walls):.2f} s, "
             f"set-up samples: {len(setup)}",
             f"job_tail_s is p{t_pct:.1f} of {len(walls)} jobs ({t_beyond} beyond it)",
             f"error_rate: {len(failures) / len(walls):.4f} ({len(failures)}/{len(walls)})"]
    return metrics, len(walls), failures, notes


# -- traced run ------------------------------------------------------------------


def run_in_process(cli, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            rc = cli.run(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # a crash fails this job, not the whole run
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue().encode()


def cache_resetters(hdperm):
    """Callables that empty the package's in-process caches, so an in-process
    job starts as cold as a fresh process. Missing caches are skipped."""
    out = []
    line_table = getattr(hdperm.counting, "_line_table", None)
    if hasattr(line_table, "cache_clear"):
        out.append(line_table.cache_clear)
    bounds = hdperm.bounds
    if hasattr(bounds, "_rows") and hasattr(bounds, "_rmax"):
        def reset_f():
            bounds._rows, bounds._rmax = [], 0
        out.append(reset_f)
    if hasattr(bounds, "_exact_rows"):
        out.append(bounds._exact_rows.clear)
    return out


def timed(fn, *a, **k):
    t0 = time.perf_counter()
    result = fn(*a, **k)
    return time.perf_counter() - t0, result


def probes(hdperm, resetters, workdir, failures):
    """Standalone layer timings, the same on every workload. Returns the
    metrics, notes and the number of outputs checked."""
    core, counting, kernels = hdperm.core, hdperm.counting, hdperm.kernels
    out, notes, checks = {}, [], 2
    bare = median_spawn(["-c", "pass"], workdir, 5)
    out["cli.import_s"] = median_spawn(SETUP_ARGS, workdir, 5) - bare
    line_table = counting._line_table
    cold = []
    for _ in range(3):
        for reset in resetters:
            reset()
        cold.append(timed(line_table, core.Shape(6, 6))[0])
    out["counting.line_table.cold_s"] = statistics.median(cold)
    cold = []
    for _ in range(3):
        for reset in resetters:
            reset()
        cold.append(timed(hdperm.bounds.f_values, 5, 100000)[0])
    out["bounds.f_values.cold_s"] = statistics.median(cold)

    full = {(d, n): core.all_ones_support(core.Shape(d, n)) for d, n in [(2, 5), (3, 4)]}
    kernel_s = {}
    for backend in ("python", "cython"):
        try:
            kernels.get(backend)
        except (RuntimeError, ImportError):
            notes.append(f"kernels.{backend}: not built")
            continue
        total_s = solutions = 0
        for (d, n), a in full.items():
            t, c = timed(counting.per_d, a, backend=backend)
            if c != gen.full_count(d, n):
                failures.append(({"id": f"probe-{backend}-d{d}n{n}"}, f"count {c}"))
            out[f"kernels.{backend}.d{d}n{n}_s"] = t
            kernel_s[(backend, d, n)] = t
            checks += 1
            total_s += t
            solutions += c
        out[f"kernels.{backend}.solutions_per_s"] = solutions / total_s
    t_split, c = timed(counting.per_d, full[(3, 4)], threads=2)
    if c != gen.full_count(3, 4):
        failures.append(({"id": "probe-split"}, f"count {c}"))
    out["counting.split_speedup"] = kernel_s[(kernels.BACKEND, 3, 4)] / t_split
    notes.append(f"counting.split_speedup base: d=3 n=4 full support, backend "
                 f"{kernels.BACKEND}, threads=1 {kernel_s[(kernels.BACKEND, 3, 4)]:.3f} s "
                 f"/ threads=2 {t_split:.3f} s")
    wall, rc, stdout, _ = spawn(["-m", "hdperm.cli", "shade", "mc", "--d", "3", "--n", "4",
                                 "--samples", "100000"], workdir)
    job = {"id": "probe-shade-mc", "kind": "shade", "argv": [],
           "expect": {"d": 3, "n": 4, "r": 4, "mode": "mc", "samples": 100000}}
    reason = check.Checker().check(job, rc, stdout)
    if reason:
        failures.append((job, reason))
    out["shade.mc_cli_d3n4_s"] = wall
    return out, notes, checks


def layer_metrics(summary):
    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def rate(name, key):
        busy = get(name, "busy_s")
        return get(name, key) / busy if busy > 0 else 0.0

    m = {"cli.run.self_s": get("cli.run", "self_s")}
    for name in ("core.parse_support", "core.parse_perm", "core.serialize_perm",
                 "counting.per_d", "counting.enumerate_perms", "kernels.count_supported",
                 "bounds.bregman_log_bound", "bounds.theorem5_check",
                 "constructions.modular_perm", "constructions.block_lift",
                 "shade.exact", "shade.mc", "shade.random_query"):
        m[f"{name}.busy_s"] = get(name, "busy_s")
    for name in ("core.parse_support", "core.serialize_perm", "counting.per_d",
                 "kernels.count_supported"):
        m[f"{name}.calls"] = get(name, "calls")
    m["core.parse_support.bytes"] = get("core.parse_support", "bytes")
    m["counting.per_d.self_s"] = get("counting.per_d", "self_s")
    m["counting.enumerate_perms.yielded"] = get("counting.enumerate_perms", "yielded")
    m["counting.enumerate_perms.perms_per_s"] = rate("counting.enumerate_perms", "yielded")
    m["kernels.count_supported.solutions"] = get("kernels.count_supported", "solutions")
    m["kernels.count_supported.solutions_per_s"] = rate("kernels.count_supported", "solutions")
    m["shade.exact.orderings"] = get("shade.exact", "orderings")
    m["shade.exact.orderings_per_s"] = rate("shade.exact", "orderings")
    m["shade.mc.samples"] = get("shade.mc", "samples")
    m["shade.mc.samples_per_s"] = rate("shade.mc", "samples")
    return m


def run_traced(args, workdir, checker):
    jobs = gen.make_pass(args.workload, args.seed, 0)
    floor = gen.floor_jobs()
    write_files(jobs + floor, workdir)
    failures = []

    def record(batch, results):
        for job, reason in zip(batch, checker.check_all(batch, results)):
            if reason is not None:
                failures.append((job, reason))

    sub_walls, results = [], []
    for job in jobs:
        wall, rc, out, _ = spawn(["-m", "hdperm.cli", *job["argv"]], workdir)
        sub_walls.append(wall)
        results.append((rc, out))
    record(jobs, results)

    hdperm = load_program()
    resetters = cache_resetters(hdperm)
    backends = {name: sys.modules[f"hdperm.{name}"] for name in ("_kernel_py", "_ckernel")
                if f"hdperm.{name}" in sys.modules}
    modules = {"cli": hdperm.cli, "counting": hdperm.counting, "backends": backends,
               "bounds": hdperm.bounds, "constructions": hdperm.constructions,
               "shade": hdperm.shade}
    tracer = spans.Tracer()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        plain_walls, results = [], []
        for job in jobs:
            for reset in resetters:
                reset()
            wall, res = timed(run_in_process, hdperm.cli, job["argv"])
            plain_walls.append(wall)
            results.append(res)
        record(jobs, results)

        hooks = spans.install(tracer, modules)
        try:
            traced_walls, results = [], []
            for job in jobs + floor:
                for reset in resetters:
                    reset()
                t0 = time.perf_counter()
                with tracer.job(job["id"]):
                    results.append(run_in_process(hdperm.cli, job["argv"]))
                traced_walls.append(time.perf_counter() - t0)
        finally:
            hooks.remove()
        record(jobs + floor, results)
    finally:
        os.chdir(cwd)

    summary = spans.summarize(tracer.spans)
    metrics = layer_metrics(summary)
    metrics["cli.process_overhead_s"] = statistics.median(
        s - p for s, p in zip(sub_walls, plain_walls))
    metrics["trace.overhead_s"] = sum(traced_walls[:len(jobs)]) - sum(plain_walls)
    probe_metrics, notes, probe_checks = probes(hdperm, resetters, workdir, failures)
    metrics.update(probe_metrics)
    notes.insert(0, f"traced pass 0: {len(jobs)} jobs + {len(floor)} layer-floor jobs, "
                    f"{len(tracer.spans)} spans")
    if hooks.missing:
        notes.append("hooks skipped (attribute missing): " + ", ".join(hooks.missing))

    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{args.workload}-s{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "spans": [s.as_dict() for s in tracer.spans], "summary": summary,
    }))
    notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    units = {name: spec["unit"] for name, spec in per_layer_specs().items()}
    shown = {name: (value, units.get(name, "s")) for name, value in metrics.items()}
    return shown, len(jobs) * 3 + len(floor) + probe_checks, failures, notes


def per_layer_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer"]}


# -- entry point -----------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hdperm" / "cli.py").is_file():
        print(f"perfbench: no program to run, {SRC / 'hdperm' / 'cli.py'} is missing",
              file=sys.stderr)
        sys.exit(2)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), file=sys.stderr)

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    checker = check.Checker(count_fallback=count_fallback)
    try:
        runner = run_traced if args.trace else run_e2e
        metrics, attempted, failures, notes = runner(args, workdir, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", file=sys.stderr)
    for note in notes:
        print("  " + note, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}", file=sys.stderr)
    for job, reason in failures:
        print(f"  FAILED {job['id']} {' '.join(job.get('argv', []))}: {reason}", file=sys.stderr)
    wanted = per_layer_specs() if args.trace else None
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                    if wanted is None or name in wanted},
    }
    print(json.dumps(result))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

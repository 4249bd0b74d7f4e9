"""Seeded job generator for the hdperm benchmark.

A workload is a list of passes; pass p of workload w under seed s is built
from its own random stream, so the same (w, s, p) always yields the same argv
lists and byte-identical input files. The generator uses only the standard
library and never imports hdperm: the program under test sees nothing but the
argv and files written here.

A job is a dict:
    argv    CLI arguments after ``python -m hdperm.cli``
    files   {relative path: file text} the job reads
    kind    what the checker verifies (see check.py)
    expect  facts the checker needs (shape, known counts, support masks, ...)
"""

import json
import math
import random
from itertools import product

WORKLOADS = ("count", "enumerate", "shade", "quick")

# Seconds of --seconds that one pass stands for: a run makes
# round(S / PASS_SECONDS) passes (at least one). The job list so depends on
# the seed and S only, never on how fast the machine or the program is, and
# two versions of the program run identical jobs. At the seed commit a 20 s
# run takes 11-25 s of job time on 2 shared cores.
PASS_SECONDS = {"count": 10, "enumerate": 10, "shade": 7, "quick": 5}

# Why each workload exists; mirrored in BENCHMARK.json. shade is left out
# of BENCHMARK.json: its jobs are long CPU-bound loops that follow this
# host's speed swings, and its time spreads over ten seeds reached 0.27-0.41
# in two of seven sets, above the largest bound a metric may have (0.25).
WHY = {
    "count": "count on full d=2 n=5 and d=3 n=4 supports and on planted d=2 n=6 "
             "supports at 1 and 2 threads: the counting kernel dominates, so kernel, "
             "algorithm and split changes show here",
    "enumerate": "stream every tensor of full and planted supports: same search as "
                 "count but every leaf is built and written, so leaf-skipping "
                 "speedups must not cost this path",
    "shade": "shade exact/hist at the largest admitted sizes plus 10^5-sample mc: "
             "shade enumeration and sampling do all the work, the kernel none",
    "quick": "many 0.15-0.25 s jobs dominated by start-up, argparse, parsing, "
             "bounds tables and constructions; kernel changes predict no change",
}

# Counts of full supports (all values allowed everywhere), d >= 2.
FULL_COUNTS = {
    (2, 1): 1, (2, 2): 2, (2, 3): 12, (2, 4): 576, (2, 5): 161280,
    (3, 2): 2, (3, 3): 24, (3, 4): 55296,
}


def full_count(d, n):
    return math.factorial(n) if d == 1 else FULL_COUNTS[(d, n)]


def _rng(workload, seed, pass_index):
    # str seeds hash through sha512, so the stream does not depend on
    # PYTHONHASHSEED or the platform
    return random.Random(f"hdperm-bench:{workload}:{seed}:{pass_index}")


def random_perm(d, n, rng):
    """A scrambled modular permutation: (sum of coordinates) mod n under a
    random value relabelling and a random coordinate map per axis."""
    relabel = rng.sample(range(n), n)
    maps = [rng.sample(range(n), n) for _ in range(d)]
    return [
        relabel[sum(maps[k][c] for k, c in enumerate(coords)) % n]
        for coords in product(range(n), repeat=d)
    ]


def planted_masks(d, n, r, rng, planted=2):
    """Per-cell value masks: the values of ``planted`` random permutations
    plus random others, up to r values per cell (a fractional r gives
    ceil(r) values to that share of the cells, floor(r) to the rest). The
    planted permutations fit the support, so its count is at least 1. Fixing
    r keeps the bound, and so roughly the work, of one instance close to the
    next."""
    perms = [random_perm(d, n, rng) for _ in range(planted)]
    masks = []
    for vals in zip(*perms):
        m = 0
        for v in vals:
            m |= 1 << v
        want = int(r) + (rng.random() < r - int(r))
        others = [v for v in range(n) if not (m >> v) & 1]
        for v in rng.sample(others, max(0, want - m.bit_count())):
            m |= 1 << v
        masks.append(m)
    return masks


def support_text(d, n, masks=None):
    """The package's support JSON schema; None means the all-ones support."""
    if masks is None:
        obj = {"d": d, "n": n, "all_ones": True}
    else:
        ones = []
        for coords, m in zip(product(range(n), repeat=d), masks):
            ones.extend(list(coords) + [v] for v in range(n) if (m >> v) & 1)
        obj = {"d": d, "n": n, "ones": ones}
    return json.dumps(obj, separators=(",", ":")) + "\n"


def perm_text(d, n, values):
    rows = [" ".join(str(v) for v in values[i:i + n]) for i in range(0, len(values), n)]
    return f"{d} {n}\n" + "\n".join(rows) + "\n"


class _Pass:
    """Accumulates one pass's jobs and names its files uniquely."""

    def __init__(self, workload, seed, pass_index):
        self.rng = _rng(workload, seed, pass_index)
        self.prefix = f"{workload}-p{pass_index}"
        self.jobs = []

    def file(self, stem, text):
        path = f"{self.prefix}-{len(self.jobs)}-{stem}"
        return path, {path: text}

    def add(self, argv, kind, expect, files=None):
        self.jobs.append({"argv": [str(a) for a in argv], "kind": kind,
                          "expect": expect, "files": files or {}})

    def support_args(self, d, n, masks):
        """argv selecting a support: planted masks always go through a file,
        a full support through --d/--n or an all_ones file at random."""
        if masks is None and self.rng.random() < 0.5:
            return ["--d", d, "--n", n], {}
        path, files = self.file("support.json", support_text(d, n, masks))
        return ["--support", path], files


# Planted d=2 n=6 supports with 3.6 values per cell count in about 0.06 s
# (a few to a few hundred solutions), so many of them fit in a run and the
# median job is steady; the full supports carry most of the kernel time.
PLANTED = (2, 6, 3.6)


def _count_pass(p, pass_index, seed):
    # one full support per pass: d=2 n=5 on even passes, d=3 n=4 with
    # --threads 2 on odd ones; each planted support runs with --threads 1 and 2
    d, n = [(2, 5), (3, 4)][pass_index % 2]
    args, files = p.support_args(d, n, None)
    p.add(["count", *args, "--threads", 1 + pass_index % 2], "count",
          {"d": d, "n": n, "count": full_count(d, n)}, files)
    d, n, r = PLANTED
    for _ in range(8):
        masks = planted_masks(d, n, r, p.rng)
        args, files = p.support_args(d, n, masks)
        for threads in (1, 2):
            p.add(["count", *args, "--threads", threads], "count",
                  {"d": d, "n": n, "masks": masks}, files)


def _enumerate_pass(p, pass_index, seed):
    # d=2 n=5 (161,280 tensors, 8.7 MB of text) once per run, in pass 0
    fulls = [(2, 5), (2, 4), (3, 3)] if pass_index == 0 else [(2, 4), (3, 3)]
    for d, n in fulls:
        args, files = p.support_args(d, n, None)
        p.add(["enumerate", *args], "enumerate",
              {"d": d, "n": n, "count": full_count(d, n)}, files)
    d, n, r = PLANTED
    for _ in range(10):
        masks = planted_masks(d, n, r, p.rng)
        args, files = p.support_args(d, n, masks)
        p.add(["enumerate", *args], "enumerate", {"d": d, "n": n, "masks": masks}, files)


def _shade_job(p, mode, d, n, samples=None):
    # |W| = n: a query's cost then depends on its size alone; the seed picks
    # the tensor X (given as a file or left to the program) and the target
    qseed = p.rng.randrange(10**6)
    argv = ["shade", mode]
    files = {}
    if p.rng.random() < 0.5:
        path, files = p.file("perm.txt", perm_text(d, n, random_perm(d, n, p.rng)))
        argv += ["--perm", path]
    else:
        argv += ["--d", d, "--n", n]
    argv += ["--r", n, "--seed", qseed]
    if samples is not None:
        argv += ["--samples", samples]
    p.add(argv, "shade", {"d": d, "n": n, "r": n, "mode": mode, "samples": samples}, files)


def _shade_pass(p, pass_index, seed):
    # exact/hist sizes are the largest (n!)^d the enumeration budget 10^7
    # admits. d=1 n=10 (4-5 s, the largest memory) and mc d=5 n=6 run once
    # per run, in pass 0; the seed picks exact or hist for d=1 n=10. The mc
    # d=3 n=4 jobs (~0.9 s each, five a pass) hold both the median and the
    # tail job, away from the edges between groups of jobs of like cost.
    if pass_index == 0:
        _shade_job(p, ("exact", "hist")[seed % 2], 1, 10)
        _shade_job(p, "mc", 5, 6, samples=100000)
    mode, other = ("exact", "hist")[pass_index % 2], ("hist", "exact")[pass_index % 2]
    _shade_job(p, mode, 3, 5)
    _shade_job(p, mode, 2, 6)
    _shade_job(p, other, 4, 4)
    for _ in range(5):
        _shade_job(p, "mc", 3, 4, samples=100000)


def _quick_pass(p, pass_index, seed):
    rng = p.rng
    d = rng.randint(1, 4)
    p.add(["f", "--d", d, "--r", rng.randint(1, 50)], "f", {})
    p.add(["f", "--d", rng.randint(0, 4), "--rmax", rng.randint(50, 500), "--csv"], "f_csv", {})
    p.add(["cd", "--d", rng.randint(1, 6)], "cd", {})
    d = rng.randint(1, 4)
    p.add(["theorem5", "--d", d, "--rmax", rng.randint(100, 5000)], "theorem5", {})
    p.add(["sdn-bound", "--d", rng.randint(1, 4), "--n", rng.randint(2, 12)], "sdn_bound", {})
    d, n = rng.choice([(2, 4), (3, 3), (2, 5), (1, 6)])
    masks = planted_masks(d, n, rng.randint(2, n), rng)
    args, files = p.support_args(d, n, masks)
    p.add(["bound", *args], "bound", {"d": d, "n": n, "masks": masks}, files)
    d, n = rng.randint(1, 4), rng.randint(2, 7)
    p.add(["construct", "modular", "--d", d, "--n", n], "construct", {"d": d, "n": n, "kind": "modular"})
    d, n = rng.randint(1, 3), rng.choice([2, 4, 6])
    p.add(["construct", "block", "--d", d, "--n", n, "--bits", "random", "--seed", rng.randrange(1000)],
          "construct", {"d": d, "n": n, "kind": "block"})
    d, n = rng.choice([(2, 5), (3, 4)])
    limit = rng.randint(1, 40)
    p.add(["enumerate", "--d", d, "--n", n, "--limit", limit], "enumerate",
          {"d": d, "n": n, "limit": limit})
    for d, n in [(2, 4), rng.choice([(1, 4), (2, 3), (1, 3)])]:
        args, files = p.support_args(d, n, None)
        p.add(["count", *args], "count", {"d": d, "n": n, "count": full_count(d, n)}, files)
    d, n = rng.choice([(2, 4), (2, 3)])
    masks = planted_masks(d, n, rng.randint(2, n), rng)
    args, files = p.support_args(d, n, masks)
    p.add(["count", *args], "count", {"d": d, "n": n, "masks": masks}, files)
    for suite in ("bounds", "theorem5", "claim1", "constructions"):
        p.add(["verify", "--suite", suite, "--seed", rng.randrange(1000)], "verify", {})


_BUILDERS = {"count": _count_pass, "enumerate": _enumerate_pass,
             "shade": _shade_pass, "quick": _quick_pass}


def passes(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


def make_pass(workload, seed, pass_index):
    """The jobs of one pass, in the (seeded) order they run."""
    p = _Pass(workload, seed, pass_index)
    _BUILDERS[workload](p, pass_index, seed)
    p.rng.shuffle(p.jobs)
    for i, job in enumerate(p.jobs):
        job["id"] = f"{p.prefix}-j{i}"
    return p.jobs


def floor_jobs():
    """A fixed handful of tiny jobs that touch every traced layer once. The
    traced run adds them to every workload, so a layer the workload itself
    leaves idle still reports a small, nonzero time."""
    p = _Pass("floor", 0, 0)
    masks = planted_masks(2, 3, 2, p.rng)
    path, files = p.file("support.json", support_text(2, 3, masks))
    p.add(["count", "--support", path], "count", {"d": 2, "n": 3, "masks": masks}, files)
    p.add(["enumerate", "--d", 2, "--n", 3], "enumerate", {"d": 2, "n": 3, "count": 12})
    p.add(["bound", "--support", path], "bound", {"d": 2, "n": 3, "masks": masks}, files)
    p.add(["theorem5", "--d", 1, "--rmax", 10], "theorem5", {})
    p.add(["construct", "block", "--d", 2, "--n", 2], "construct", {"d": 2, "n": 2, "kind": "block"})
    path, files = p.file("perm.txt", perm_text(2, 3, random_perm(2, 3, p.rng)))
    p.add(["shade", "exact", "--perm", path, "--r", 2], "shade",
          {"d": 2, "n": 3, "r": 2, "mode": "exact", "samples": None}, files)
    p.add(["shade", "mc", "--d", 2, "--n", 3, "--r", 3, "--samples", 100], "shade",
          {"d": 2, "n": 3, "r": 3, "mode": "mc", "samples": 100})
    for i, job in enumerate(p.jobs):
        job["id"] = f"floor-j{i}"
    return p.jobs

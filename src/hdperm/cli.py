"""Command-line front end.

One JSON object per invocation on stdout (construct/enumerate emit the plain
text tensor format instead, and --csv switches tabular subcommands to CSV).
Exit codes: 0 success, 1 domain error (with a JSON error object), 2 usage
error. Counts are decimal strings, never floats; reals carry at most 15
significant digits. Identical invocations with identical seeds produce
byte-identical output.
"""

import argparse
import csv
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from itertools import product
from typing import Optional

from hdperm import bounds, constructions, shade
from hdperm.core import (
    FormatError,
    Shape,
    ShapeError,
    SupportArray,
    all_ones_support,
    parse_perm,
    parse_support,
    serialize_perm,
    validate_perm,
    write_perms,
)
from hdperm.counting import count_all, enumerate_perms, per_d

TOL_LOG = 1e-9  # bound-vs-exact-count comparisons
TOL_EXACT = 1e-12  # identities that hold to rounding error


def _real(x: float):
    """Clamp a float to 15 significant digits (its shortest repr then never
    exceeds 15 digits, keeping output byte-stable)."""
    if x != x or x in (float("inf"), float("-inf")):
        return str(x)
    return float(format(x, ".15g"))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _fail(subcommand: str, kind: str, message: str) -> int:
    _emit(
        {
            "subcommand": subcommand,
            "status": "error",
            "error": {"kind": kind, "message": message},
        }
    )
    return 1


def _result(subcommand: str, params: dict, payload: dict) -> int:
    out = {"subcommand": subcommand, "params": params, "status": "ok"}
    out.update(payload)
    _emit(out)
    return 0


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_support(args) -> SupportArray:
    if args.support:
        return parse_support(_read_file(args.support))
    if args.d is None or args.n is None:
        raise ValueError("need --support FILE or both --d and --n")
    return all_ones_support(Shape(args.d, args.n))


def _write_csv(rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


def _threads(args) -> int:
    """--threads, else HDPERM_THREADS, else 1; either must be an integer >= 1."""
    if args.threads is not None:
        source, value = "--threads", args.threads
    else:
        source, value = "HDPERM_THREADS", os.environ.get("HDPERM_THREADS")
        if not value:
            return 1
    try:
        threads = int(value)
        if threads >= 1:
            return threads
    except ValueError:
        pass
    raise ValueError(f"{source} must be an integer >= 1, got {value!r}")


# -- subcommand handlers -------------------------------------------------------

def _cmd_count(args) -> int:
    a = _load_support(args)
    threads = _threads(args)
    stats = {}
    c = per_d(a, threads=threads, stats=stats)
    params = {"d": a.shape.d, "n": a.shape.n, "threads": threads}
    if args.support:
        params["support"] = args.support
    return _result("count", params, {"count": str(c), **stats})


def _cmd_enumerate(args) -> int:
    a = _load_support(args)
    write_perms(enumerate_perms(a, limit=args.limit), sys.stdout)
    return 0


def _cmd_bound(args) -> int:
    a = _load_support(args)
    b = bounds.bregman_log_bound(a)
    params = {"d": a.shape.d, "n": a.shape.n}
    if args.support:
        params["support"] = args.support
    if b == float("-inf"):
        return _result("bound", params, {"log_bound": "-inf", "bound": "0"})
    return _result("bound", params, {"log_bound": _real(b)})


def _cmd_f(args) -> int:
    if args.r is None and args.rmax is None:
        raise ValueError("need --r for a single value or --rmax for a table")
    if args.rmax is not None:
        if args.csv:
            _write_csv(bounds.f_table_rows(args.d, args.rmax))
            return 0
        table = [[r, _real(bounds.f_float(args.d, r))] for r in range(1, args.rmax + 1)]
        return _result(
            "f", {"d": args.d, "rmax": args.rmax}, {"table": table}
        )
    return _result(
        "f",
        {"d": args.d, "r": args.r},
        {"f": _real(bounds.f_float(args.d, args.r))},
    )


def _cmd_cd(args) -> int:
    if args.csv:
        _write_csv(bounds.cd_table_rows(args.d))
        return 0
    c = bounds.c_constant(args.d)
    return _result(
        "cd",
        {"d": args.d},
        {
            "c_d": _real(c.c_d),
            "xi": _real(c.xi),
            "gamma": _real(c.gamma),
            "r_d": _real(c.r_d),
            "cap": _real(bounds.c_cap(args.d)),
        },
    )


def _cmd_theorem5(args) -> int:
    rep = bounds.theorem5_check(args.d, args.rmax)
    if args.csv:
        _write_csv(bounds.theorem5_table_rows([rep]))
        return 0
    return _result(
        "theorem5",
        {"d": args.d, "rmax": args.rmax},
        {
            "r_start": rep.r_start,
            "checked": rep.checked,
            "violations": rep.violations,
            "min_margin": _real(rep.min_margin),
            "weak_violations": rep.weak_violations,
            "weak_min_margin": _real(rep.weak_min_margin),
            "c_d": _real(rep.c_d),
            "pass": rep.passed,
        },
    )


def _cmd_sdn_bound(args) -> int:
    rep = bounds.sdn_log_upper_bound(Shape(args.d, args.n))
    payload = {"log_bound": _real(rep.log_bound)}
    payload["ratio"] = None if rep.ratio is None else _real(rep.ratio)
    return _result("sdn-bound", {"d": args.d, "n": args.n}, payload)


def _cmd_construct(args) -> int:
    shape = Shape(args.d, args.n)
    if args.kind == "modular":
        p = constructions.modular_perm(shape)
    else:
        nblocks = (shape.n // 2) ** shape.d if shape.n % 2 == 0 else 0
        if args.bits == "random":
            choice = constructions.BlockChoice.random(shape, seed=args.seed)
        elif args.bits is None:
            choice = constructions.BlockChoice(shape, (0,) * nblocks)
        else:
            choice = constructions.BlockChoice.from_string(shape, args.bits)
        p = constructions.block_lift(shape, choice)
    sys.stdout.write(serialize_perm(p))
    return 0


def _cmd_shade(args) -> int:
    perm = None
    if args.perm:
        perm = parse_perm(_read_file(args.perm))
        shape = perm.shape
    else:
        if args.d is None or args.n is None:
            raise ValueError("need --perm FILE or both --d and --n")
        shape = Shape(args.d, args.n)
    q = shade.random_query(shape, r=args.r, seed=args.seed, perm=perm)
    f_ref = bounds.f_float(shape.d, len(q.w))
    params = {"d": shape.d, "n": shape.n, "r": len(q.w), "seed": args.seed}
    descriptor = {
        "target": list(q.target),
        "w": sorted(q.w),
        "perm": serialize_perm(q.x),
    }
    if args.mode == "mc":
        mean, stderr = shade.mc_expectation_logN(q, args.samples, seed=args.seed)
        payload = {
            "query": descriptor,
            "mode": "mc",
            "samples": args.samples,
            "mean": _real(mean),
            "stderr": _real(stderr),
            "f_reference": _real(f_ref),
            "pass": abs(mean - f_ref) <= 4 * stderr,
        }
        return _result("shade", params, payload)
    total = math.factorial(shape.n) ** shape.d
    if args.mode == "exact":
        mean = shade.exact_expectation_logN(q)
        payload = {
            "query": descriptor,
            "mode": "exact",
            "samples": total,
            "mean": _real(mean),
            "stderr": 0.0,
            "exact": True,
            "f_reference": _real(f_ref),
            "pass": abs(mean - f_ref) <= TOL_EXACT,
        }
        return _result("shade", params, payload)
    dist = shade.shade_histogram(q)
    mean = dist.log_mean()
    payload = {
        "query": descriptor,
        "mode": "hist",
        "samples": total,
        "counts": {str(k): v for k, v in sorted(dist.counts.items())},
        "pmf": {str(k): str(v) for k, v in dist.pmf().items()},
        "mean": _real(mean),
        "stderr": 0.0,
        "exact": True,
        "f_reference": _real(f_ref),
        "pass": abs(mean - f_ref) <= TOL_EXACT,
    }
    return _result("shade", params, payload)


# -- verification suites -------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    passed: bool
    worst: Optional[float]  # the tightest margin or largest deviation seen
    detail: str


def _random_support(rng: random.Random, d: int, n: int) -> SupportArray:
    density = rng.uniform(0.3, 0.9)
    masks = []
    for _ in range(n**d):
        m = 0
        for v in range(n):
            if rng.random() < density:
                m |= 1 << v
        masks.append(m)
    return SupportArray(Shape(d, n), tuple(masks))


def suite_bounds(seed: int = 0, arrays: int = 100) -> SuiteResult:
    """Exact counts never exceed their factorial-type bound, and the d=1
    bound matches the classical reference identically."""
    rng = random.Random(seed)
    min_margin = float("inf")
    violations = 0
    for _ in range(arrays):
        a = _random_support(rng, 2, rng.choice([2, 3, 4]))
        c = per_d(a)
        if c == 0:
            continue  # log 0 = -inf is below any bound
        margin = bounds.bregman_log_bound(a) - math.log(c)
        min_margin = min(min_margin, margin)
        if margin < -TOL_LOG:
            violations += 1
    max_delta = 0.0
    for _ in range(arrays):
        n = rng.randint(1, 7)
        a = _random_support(rng, 1, n)
        if 0 in a.r_values():  # the d=1 reference needs nonempty rows
            masks = [m if m else 1 << rng.randrange(n) for m in a.masks]
            a = SupportArray(a.shape, tuple(masks))
        ref = bounds.bregman_d1_reference(a.r_values())
        max_delta = max(max_delta, abs(bounds.bregman_log_bound(a) - ref))
        c = per_d(a)
        if c > 0:
            margin = ref - math.log(c)
            min_margin = min(min_margin, margin)
            if margin < -TOL_LOG:
                violations += 1
    passed = violations == 0 and max_delta <= TOL_EXACT
    return SuiteResult(
        "bounds",
        passed,
        min_margin,
        f"{2 * arrays} random supports, min bound margin {min_margin:.6g}, "
        f"max d=1 identity delta {max_delta:.3g}",
    )


def suite_theorem5(rmax: int = 100000, ds=None) -> SuiteResult:
    """Asymptotic-bound sweep for d = 1..5 plus the weak bound f ≤ log r
    through d = 6."""
    ds = list(ds) if ds else [1, 2, 3, 4, 5]
    reports = [bounds.theorem5_check(d, rmax) for d in ds]
    weak6 = bounds.weak_min_margin(6, rmax)
    violations = sum(r.violations + r.weak_violations for r in reports)
    if weak6 < 0:
        violations += 1
    worst = min(min(r.min_margin for r in reports), weak6)
    return SuiteResult(
        "theorem5",
        violations == 0,
        worst,
        f"d={ds} to r={rmax}: {violations} violations, "
        f"min margin {worst:.6g} (weak d=6 margin {weak6:.3g})",
    )


def suite_claim1(seed: int = 0, cases=None, queries: int = 10) -> SuiteResult:
    """Exact expectation of log N equals f(d, |W|) for every query."""
    if cases is None:
        cases = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 3)]
    max_delta = 0.0
    checked = 0
    for d, n in cases:
        shape = Shape(d, n)
        for r in range(1, n + 1):
            for idx in range(queries):
                q = shade.random_query(
                    shape, r=r, seed=seed * 1000003 + checked + idx
                )
                delta = abs(shade.exact_expectation_logN(q) - bounds.f_float(d, r))
                max_delta = max(max_delta, delta)
            checked += queries
    return SuiteResult(
        "claim1",
        max_delta <= TOL_EXACT,
        max_delta,
        f"{checked} queries over {cases}: max |E[log N] - f| = {max_delta:.3g}",
    )


def suite_constructions(seed: int = 0) -> SuiteResult:
    """Block lifts are valid and injective; the per-block two-arrangement
    fact holds exhaustively."""
    problems = []
    shape24 = Shape(2, 4)
    seen = {}
    for bits in product((0, 1), repeat=4):
        p = constructions.block_lift(shape24, constructions.BlockChoice(shape24, bits))
        if not validate_perm(p.values, shape24).valid:
            problems.append(f"invalid lift d=2 n=4 bits={bits}")
        if p.values in seen:
            problems.append(f"collision {bits} vs {seen[p.values]}")
        seen[p.values] = bits
    if constructions.block_count(shape24) != 16:
        problems.append("block_count(2,4) != 16")
    rng = random.Random(seed)
    shape34 = Shape(3, 4)
    for _ in range(100):
        choice = constructions.BlockChoice.random(shape34, seed=rng.random())
        p = constructions.block_lift(shape34, choice)
        if not validate_perm(p.values, shape34).valid:
            problems.append(f"invalid lift d=3 n=4 bits={choice.bits}")
            break
    # a [2]^2 block holding two values admits exactly 2 line-valid fillings
    valid_fillings = sum(
        validate_perm(list(vals), Shape(2, 2)).valid
        for vals in product((0, 1), repeat=4)
    )
    if valid_fillings != 2:
        problems.append(f"[2]^2 block has {valid_fillings} valid fillings, not 2")
    for d in range(1, 5):
        for n in range(1, 9):
            p = constructions.modular_perm(Shape(d, n))
            if not validate_perm(p.values, p.shape).valid:
                problems.append(f"modular invalid at d={d} n={n}")
    return SuiteResult(
        "constructions",
        not problems,
        None,
        "; ".join(problems) if problems else
        "16/16 lifts valid+distinct, 100 random d=3 lifts valid, "
        "2 fillings per block, modular valid d<=4 n<=8",
    )


def verify_suite(args) -> int:
    names = ["bounds", "theorem5", "claim1", "constructions"]
    if args.suite != "all":
        names = [args.suite]
    seed = args.seed if args.seed is not None else 0
    results = []
    for name in names:
        if name == "bounds":
            results.append(suite_bounds(seed=seed))
        elif name == "theorem5":
            ds = [args.d] if args.d else None
            results.append(suite_theorem5(rmax=args.rmax, ds=ds))
        elif name == "claim1":
            cases = [(args.d, args.n)] if args.d and args.n else None
            results.append(suite_claim1(seed=seed, cases=cases))
        elif name == "constructions":
            results.append(suite_constructions(seed=seed))
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        worst = "" if res.worst is None else f" worst={res.worst:.6g}"
        sys.stdout.write(f"{status} {res.name}:{worst} {res.detail}\n")
    summary = {
        "subcommand": "verify",
        "status": "ok" if all(r.passed for r in results) else "error",
        "suites": {
            r.name: {
                "passed": r.passed,
                "worst": None if r.worst is None else _real(r.worst),
                "detail": r.detail,
            }
            for r in results
        },
    }
    _emit(summary)
    return 0 if all(r.passed for r in results) else 1


# -- parser --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hdperm",
        description="Exact counting and bound verification for d-dimensional "
        "permutations (Latin hypercubes).",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        return p

    def shape_flags(p, required=False):
        p.add_argument("--d", type=int, required=required, help="dimension")
        p.add_argument("--n", type=int, required=required, help="order")

    p = add("count", help="exact number of supported permutations")
    shape_flags(p)
    p.add_argument("--support", metavar="FILE", help="support JSON file")
    p.add_argument("--threads", type=int,
                   help="accepted and echoed; the count does not use threads")

    p = add("enumerate", help="stream supported permutations as text")
    shape_flags(p)
    p.add_argument("--support", metavar="FILE")
    p.add_argument("--limit", type=int, help="stop after this many")

    p = add("bound", help="log of the factorial-type upper bound")
    shape_flags(p)
    p.add_argument("--support", metavar="FILE")

    p = add("f", help="the recursive bound function f(d,r)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--rmax", type=int, help="emit a table for r=1..rmax")
    p.add_argument("--csv", action="store_true")

    p = add("cd", help="asymptotic-bound constants at dimension d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="table for 0..d")

    p = add("theorem5", help="sweep the asymptotic bound on f")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rmax", type=int, default=100000)
    p.add_argument("--csv", action="store_true")

    p = add("sdn-bound", help="log upper bound on the count of all order-n "
                              "d-dimensional permutations")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("construct", help="emit an explicit permutation (text format)")
    p.add_argument("kind", choices=["modular", "block"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bits", help='block arrangement bits: 0/1 string or "random"'
                                  " (default all zeros)")
    p.add_argument("--seed", type=int, help="seed for --bits random")

    p = add("shade", help="shade-process statistics for a random query")
    p.add_argument("mode", choices=["exact", "mc", "hist"])
    shape_flags(p)
    p.add_argument("--r", type=int, help="|W| (default n)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--perm", metavar="FILE", help="tensor text file for X")

    p = add("verify", help="run the invariant suites")
    p.add_argument(
        "--suite",
        choices=["all", "bounds", "theorem5", "claim1", "constructions"],
        default="all",
    )
    shape_flags(p)
    p.add_argument("--rmax", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    return top


_HANDLERS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "bound": _cmd_bound,
    "f": _cmd_f,
    "cd": _cmd_cd,
    "theorem5": _cmd_theorem5,
    "sdn-bound": _cmd_sdn_bound,
    "construct": _cmd_construct,
    "shade": _cmd_shade,
    "verify": verify_suite,
}

_ERROR_KINDS = (
    (FormatError, "format"),
    (ShapeError, "shape"),
    (OSError, "io"),
    (ValueError, "domain"),
)


def run(argv=None) -> int:
    """Dispatch one invocation; returns the exit code (argparse itself exits
    with 2 on usage errors)."""
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except tuple(k for k, _ in _ERROR_KINDS) as exc:
        for klass, kind in _ERROR_KINDS:
            if isinstance(exc, klass):
                return _fail(args.subcommand, kind, str(exc))
        raise


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()

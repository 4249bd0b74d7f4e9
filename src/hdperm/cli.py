"""Command-line front end.

One JSON object per invocation on stdout (construct/enumerate emit the plain
text tensor format instead, and --csv switches tabular subcommands to CSV).
Exit codes: 0 success, 1 domain error (with a JSON error object), 2 usage
error; a result too large for a float is a domain error. A reader that
closes stdout early (such as head) ends the run with exit code 1 and
nothing on stderr. Counts are decimal strings, never floats, except in
shade: its "samples" total and the "counts" of shade hist are JSON
integers. Reals, in JSON and CSV alike, carry at most 15 significant
digits. Identical invocations with identical seeds produce byte-identical
output, and every --seed defaults to 0.

This module lays out every report, JSON fields and CSV columns alike: the
other modules return numbers and records, and each report's fields are named
once, here. It holds the parser, one handler per subcommand and the dispatch.
Importing it loads only what count and enumerate run (argparse, json, os,
sys, hdperm.core and hdperm.counting). Every other handler imports its own
modules when it runs: hdperm.bounds where f is evaluated,
hdperm.constructions, hdperm.shade, hdperm.suites for verify, and csv for
--csv output.
"""

import argparse
import json
import os
import sys

from hdperm.core import (
    FormatError,
    Shape,
    ShapeError,
    SupportArray,
    all_ones_support,
    parse_perm,
    parse_support,
    serialize_perm,
)
from hdperm.counting import per_d, write_perms


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
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        writer.writerow(format(v, ".15g") if isinstance(v, float) else v for v in row)


def _threads(args) -> int:
    """--threads, an integer >= 1 (default 1)."""
    if args.threads < 1:
        raise ValueError(f"--threads must be an integer >= 1, got {args.threads!r}")
    return args.threads


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
    write_perms(a, sys.stdout, limit=args.limit)
    return 0


def _cmd_bound(args) -> int:
    from hdperm import bounds

    a = _load_support(args)
    b = bounds.bregman_log_bound(a)
    params = {"d": a.shape.d, "n": a.shape.n}
    if args.support:
        params["support"] = args.support
    if b == float("-inf"):
        return _result("bound", params, {"log_bound": "-inf", "bound": "0"})
    return _result("bound", params, {"log_bound": _real(b)})


def _cmd_f(args) -> int:
    from itertools import chain

    from hdperm import bounds

    if args.r is None and args.rmax is None:
        raise ValueError("need --r for a single value or --rmax for a table")
    if args.rmax is None:
        f = bounds.f_float(args.d, args.r)
        return _result("f", {"d": args.d, "r": args.r}, {"f": _real(f)})
    values = bounds.f_values(args.d, args.rmax)
    if args.csv:
        _write_csv(chain([("d", "r", "f_float")],
                         ((args.d, r, f) for r, f in enumerate(values, 1))))
        return 0
    return _result("f", {"d": args.d, "rmax": args.rmax},
                   {"table": [[r, _real(f)] for r, f in enumerate(values, 1)]})


def _cmd_cd(args) -> int:
    from hdperm import bounds

    c = bounds.c_constant(args.d)  # a bad --d fails before any CSV is written
    if args.csv:
        rows = [("d", "c_d", "cap")]
        rows.extend((d, bounds.c_constant(d).c_d, bounds.c_cap(d))
                    for d in range(args.d + 1))
        _write_csv(rows)
        return 0
    payload = {k: _real(v) for k, v in c._asdict().items() if k != "d"}
    payload["cap"] = _real(bounds.c_cap(args.d))
    return _result("cd", {"d": args.d}, payload)


_THEOREM5_COLUMNS = ("d", "r_start", "r_max", "checked", "violations", "min_margin",
                     "weak_violations", "weak_min_margin", "c_d")


def _cmd_theorem5(args) -> int:
    from hdperm import bounds

    rep = bounds.theorem5_check(args.d, args.rmax)
    row = [getattr(rep, c) for c in _THEOREM5_COLUMNS]
    if args.csv:
        _write_csv([_THEOREM5_COLUMNS, row])
        return 0
    payload = {c: _real(v) if isinstance(v, float) else v
               for c, v in zip(_THEOREM5_COLUMNS, row) if c not in ("d", "r_max")}
    payload["pass"] = rep.passed
    return _result("theorem5", {"d": args.d, "rmax": args.rmax}, payload)


def _cmd_sdn_bound(args) -> int:
    from hdperm import bounds

    rep = bounds.sdn_log_upper_bound(Shape(args.d, args.n))
    payload = {"log_bound": _real(rep.log_bound)}
    payload["ratio"] = None if rep.ratio is None else _real(rep.ratio)
    return _result("sdn-bound", {"d": args.d, "n": args.n}, payload)


def _cmd_construct(args) -> int:
    from hdperm import constructions

    shape = Shape(args.d, args.n)
    if args.kind == "modular":
        p = constructions.modular_perm(shape)
    else:
        choice = None  # block_lift's default: every bit 0
        if args.bits == "random":
            choice = constructions.BlockChoice.random(shape, seed=args.seed)
        elif args.bits is not None:
            choice = constructions.BlockChoice.from_string(shape, args.bits)
        p = constructions.block_lift(shape, choice)
    sys.stdout.write(serialize_perm(p))
    return 0


def _cmd_shade(args) -> int:
    from hdperm import bounds, shade

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
    if args.mode == "mc":
        mean, stderr = shade.mc_expectation_logN(q, args.samples, seed=args.seed)
        payload = {"samples": args.samples, "pass": abs(mean - f_ref) <= 4 * stderr}
    else:
        dist = shade.shade_histogram(q)
        mean, stderr = dist.log_mean(), 0.0
        payload = {"samples": dist.total, "exact": True,
                   "pass": abs(mean - f_ref) <= bounds.TOL_EXACT}
        if args.mode == "hist":
            payload["counts"] = {str(k): v for k, v in sorted(dist.counts.items())}
            payload["pmf"] = {str(k): str(v) for k, v in dist.pmf().items()}
    payload.update(
        query={"target": list(q.target), "w": sorted(q.w), "perm": serialize_perm(q.x)},
        mode=args.mode,
        mean=_real(mean),
        stderr=_real(stderr),
        f_reference=_real(f_ref),
    )
    return _result("shade", params, payload)


def verify_suite(args) -> int:
    from hdperm import suites

    names = ["bounds", "theorem5", "claim1", "constructions"]
    if args.suite != "all":
        names = [args.suite]
    if "claim1" in names and (args.d is None) != (args.n is None):
        raise ValueError("claim1 needs both --d and --n, or neither")
    results = []
    for name in names:
        if name == "bounds":
            results.append(suites.suite_bounds(seed=args.seed))
        elif name == "theorem5":
            ds = None if args.d is None else [args.d]
            results.append(suites.suite_theorem5(rmax=args.rmax, ds=ds))
        elif name == "claim1":
            cases = None if args.d is None else [(args.d, args.n)]
            results.append(suites.suite_claim1(seed=args.seed, cases=cases))
        elif name == "constructions":
            results.append(suites.suite_constructions(seed=args.seed))
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

class _Unbuilt:
    """Takes the arguments of a subcommand whose parser is not built."""

    def add_argument(self, *args, **kwargs):
        pass


def _build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with only the parser of subcommand
    only built: a subcommand's parser does not depend on the others. The
    top-level usage line lists them all, so _parse_args falls back to the
    full parser for any error the top level reports."""
    top = argparse.ArgumentParser(
        prog="hdperm",
        description="Exact counting and bound verification for d-dimensional "
        "permutations (Latin hypercubes).",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        if only is None or name == only:
            return sub.add_parser(name, **kwargs)
        return _Unbuilt()

    def shape_flags(p, required=False):
        p.add_argument("--d", type=int, required=required, help="dimension")
        p.add_argument("--n", type=int, required=required, help="order")

    p = add("count", help="exact number of supported permutations")
    shape_flags(p)
    p.add_argument("--support", metavar="FILE", help="support JSON file")
    p.add_argument("--threads", type=int, default=1,
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
    p.add_argument("--seed", type=int, default=0, help="seed for --bits random")

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
    (OverflowError, "domain"),
)


def _parse_args(argv=None) -> argparse.Namespace:
    """_build_parser().parse_args(argv), building only the subcommand argv
    names first where that gives the same result."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _HANDLERS:
        args, extra = _build_parser(argv[0]).parse_known_args(argv)
        if not extra:
            return args
    # the top level's usage errors list every subcommand
    return _build_parser().parse_args(argv)


def run(argv=None) -> int:
    """Dispatch one invocation; returns the exit code (argparse itself exits
    with 2 on usage errors)."""
    args = _parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except BrokenPipeError:
        raise  # an OSError, but the error object has nowhere to go
    except tuple(k for k, _ in _ERROR_KINDS) as exc:
        for klass, kind in _ERROR_KINDS:
            if isinstance(exc, klass):
                return _fail(args.subcommand, kind, str(exc))
        raise


def main(argv=None) -> None:
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit quietly, with fd 1 on devnull so
        # that the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Command-line front end.

One JSON object per invocation on stdout (construct/enumerate emit the plain
text tensor format instead, and --csv switches tabular subcommands to CSV).
Exit codes: 0 success, 1 domain error (with a JSON error object), 2 usage
error, 130 cancelled (Ctrl-C: after whatever was already written, a newline
and a JSON error object of kind "cancelled"; a cancelled enumerate ends on
a whole tensor, since it writes each chunk of its stream with SIGINT held);
a result too large for a float is a domain error. A reader that
closes stdout early (such as head) ends the run with exit code 1 and
nothing on stderr. Counts are decimal strings, never floats, except in
shade: its "samples" total and the "counts" of shade hist are JSON
integers. Reals, in JSON and CSV alike, carry at most 15 significant
digits. Identical invocations with identical seeds produce byte-identical
output, and every --seed defaults to 0.

This module lays out every report, JSON fields and CSV columns alike: the
other modules return numbers and records, and each report's fields are
named once: here, or, where cd, theorem5, sdn-bound and verify print
records, as the records' fields (_fields). Every subcommand is declared
once, in _COMMANDS (its handler, help line and arguments), and every verify
suite, a fixed check in hdperm.suites, in _SUITES. run dispatches from
_COMMANDS, and _parse_args reads argv against it, loading argparse only for
the help, usage errors and argv the table does not take (see _table_args).
Each input rule is checked once, before any work: a flag the mode would
ignore, a FILE given with --d or --n (_file_or_shape), enumerate --limit
below 1 and shade mc --samples below 2 are refused before any file is read,
and theorem5 refuses an --rmax below ⌈e^d⌉ (bounds.theorem5_start) before
it builds any row. Importing this module loads only what count runs (json,
os, sys, hdperm.core and hdperm.counting); every other handler imports its
own modules (hdperm.enumeration, bounds, constructions, shade or suites)
when it runs. --csv output is written line by line, without the csv module.

main, the process entry point of python -m hdperm.cli and of the hdperm
script, freezes the start-up heap (gc.freeze()) before it runs the
invocation. A short run is start-up bound, and without the freeze the
interpreter's shutdown spends several milliseconds collecting the modules
imported above. run, which tests and library callers use, never freezes.
"""

import json
import os
import sys
from types import SimpleNamespace

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
from hdperm.counting import per_d


def _real(x):
    """A float clamped to 15 significant digits (its shortest repr then never
    exceeds 15 digits, keeping output byte-stable); anything else as it is."""
    if not isinstance(x, float):
        return x
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


def _file_or_shape(args, flag: str, parse):
    """parse(the text of the file --flag names), or None where --d and --n give
    the shape; refused before any file is read unless exactly one form is given."""
    path = getattr(args, flag)
    if path:
        if args.d is not None or args.n is not None:
            raise ValueError(f"give --{flag} FILE or --d and --n, not both")
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise FormatError(f"not UTF-8 text: {exc.reason}") from None
        return parse(text)
    if args.d is None or args.n is None:
        raise ValueError(f"need --{flag} FILE or both --d and --n")
    return None


def _load_support(args) -> tuple[SupportArray, dict]:
    """The support of count, enumerate and bound, and the params of its report."""
    a = (_file_or_shape(args, "support", parse_support)
         or all_ones_support(Shape(args.d, args.n)))
    params = {"d": a.shape.d, "n": a.shape.n}
    if args.support:
        params["support"] = args.support
    return a, params


def _write_csv(header, rows) -> None:
    """The header line, then one line per row, floats to 15 significant
    digits. No field needs quoting: every field is an int, a float or an
    identifier header."""
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        fields = (format(v, ".15g") if isinstance(v, float) else str(v) for v in row)
        sys.stdout.write(",".join(fields) + "\n")


def _fields(record, skip=()):
    """A record's fields as a report's JSON fields, reals clamped, less
    those named in skip."""
    return {k: _real(getattr(record, k)) for k in record.__slots__ if k not in skip}


# -- subcommand handlers -------------------------------------------------------

def _cmd_count(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be an integer >= 1, got {args.threads!r}")
    a, params = _load_support(args)
    stats = {}
    c = per_d(a, stats=stats)
    params["threads"] = args.threads
    return _result("count", params, {"count": str(c), **stats})


def _cmd_enumerate(args) -> int:
    from hdperm.enumeration import write_perms

    if args.limit is not None and args.limit <= 0:
        raise ValueError("limit must be positive")
    write_perms(_load_support(args)[0], _whole_writes(sys.stdout), limit=args.limit)
    return 0


def _whole_writes(out):
    """out, each write of which is written and flushed with SIGINT held,
    where the platform has pthread_sigmask. A Ctrl-C then lands between two
    writes, and each write of write_perms ends on a whole tensor."""
    import signal

    if not hasattr(signal, "pthread_sigmask"):
        return out

    def write(text):
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            out.write(text)
            out.flush()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    return SimpleNamespace(write=write)


def _cmd_bound(args) -> int:
    from hdperm import bounds

    a, params = _load_support(args)
    b = bounds.bregman_log_bound(a)
    if b == float("-inf"):
        return _result("bound", params, {"log_bound": "-inf", "bound": "0"})
    return _result("bound", params, {"log_bound": _real(b)})


def _cmd_f(args) -> int:
    from hdperm import bounds

    if args.r is None and args.rmax is None:
        raise ValueError("need --r for a single value or --rmax for a table")
    if args.r is not None and args.rmax is not None:
        raise ValueError("give --r for a single value or --rmax for a table, not both")
    if args.rmax is None:
        if args.csv:
            raise ValueError("--csv needs --rmax: a single value prints as JSON")
        f = bounds.f_float(args.d, args.r)
        return _result("f", {"d": args.d, "r": args.r}, {"f": _real(f)})
    values = bounds.f_values(args.d, args.rmax)
    if args.csv:
        _write_csv(("d", "r", "f_float"), ((args.d, r, f) for r, f in enumerate(values, 1)))
        return 0
    return _result("f", {"d": args.d, "rmax": args.rmax},
                   {"table": [[r, _real(f)] for r, f in enumerate(values, 1)]})


def _cmd_cd(args) -> int:
    from hdperm import bounds

    c = bounds.c_constant(args.d)  # a bad --d fails before any CSV is written
    if args.csv:
        _write_csv(("d", "c_d", "cap"), ((d, bounds.c_constant(d).c_d, bounds.c_cap(d))
                                         for d in range(args.d + 1)))
        return 0
    payload = _fields(c)
    payload["cap"] = _real(bounds.c_cap(args.d))
    return _result("cd", {"d": args.d}, payload)


def _cmd_theorem5(args) -> int:
    from hdperm import bounds

    bounds.theorem5_start(args.d, args.rmax)  # the sweep's domain, before any row
    rep = bounds.theorem5_check(bounds.f_rows(args.d, args.rmax), args.d)
    if args.csv:
        _write_csv(rep.__slots__, [[getattr(rep, c) for c in rep.__slots__]])
        return 0
    payload = _fields(rep, skip=("d", "r_max"))
    payload["pass"] = rep.passed
    return _result("theorem5", {"d": args.d, "rmax": args.rmax}, payload)


def _cmd_sdn_bound(args) -> int:
    from hdperm import bounds

    rep = bounds.sdn_log_upper_bound(Shape(args.d, args.n))
    return _result("sdn-bound", {"d": args.d, "n": args.n}, _fields(rep))


def _cmd_construct(args) -> int:
    from hdperm import constructions

    if args.kind == "modular" and args.bits is not None:
        raise ValueError("--bits needs construct block: a modular tensor has no bits")
    shape = Shape(args.d, args.n)
    if args.kind == "modular":
        p = constructions.modular_perm(shape)
    else:
        bits = None  # block_lift's default: every bit 0
        if args.bits == "random":
            bits = constructions.random_bits(shape, seed=args.seed)
        elif args.bits is not None:
            # any character but 0 and 1 stays itself, which block_lift
            # rejects after its order and length checks
            bits = tuple({"0": 0, "1": 1}.get(ch, ch) for ch in args.bits.strip())
        p = constructions.block_lift(shape, bits)
    sys.stdout.write(serialize_perm(p))
    return 0


def _cmd_shade(args) -> int:
    from hdperm import bounds, shade

    if args.mode != "mc" and args.samples is not None:
        raise ValueError("--samples needs shade mc: exact and hist count every ordering")
    if args.samples is not None and args.samples < 2:
        raise ValueError(f"samples must be an integer >= 2, got {args.samples!r}")
    perm = _file_or_shape(args, "perm", parse_perm)
    shape = Shape(args.d, args.n) if perm is None else perm.shape
    r = shade.query_size(shape, args.r)
    f_ref = bounds.f_float(shape.d, r)  # the f table's caps, before the query is built
    q = shade.random_query(shape, r=r, seed=args.seed, perm=perm)
    params = {"d": shape.d, "n": shape.n, "r": r, "seed": args.seed}
    if args.mode == "mc":
        samples = 10000 if args.samples is None else args.samples
        mean, stderr = shade.mc_expectation_logN(q, samples, seed=args.seed)
        payload = {"samples": samples, "pass": abs(mean - f_ref) <= 4 * stderr}
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


# Every verify suite, in the order --suite all runs them; --seed, accepted
# with every suite, seeds bounds and constructions.
_SUITES = {
    "bounds": lambda suites, args: suites.suite_bounds(seed=args.seed),
    "theorem5": lambda suites, args: suites.suite_theorem5(),
    "claim1": lambda suites, args: suites.suite_claim1(),
    "constructions": lambda suites, args: suites.suite_constructions(seed=args.seed),
}


def verify_suite(args) -> int:
    from hdperm import suites

    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = [_SUITES[name](suites, args) for name in names]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        worst = "" if res.worst is None else f" worst={res.worst:.6g}"
        sys.stdout.write(f"{status} {res.name}:{worst} {res.detail}\n")
    passed = all(r.passed for r in results)
    _emit({"subcommand": "verify", "status": "ok" if passed else "error",
           "suites": {r.name: _fields(r, skip=("name",)) for r in results}})
    return 0 if passed else 1


# -- arguments -----------------------------------------------------------------

# Every subcommand's handler, help line and arguments, in the order --help
# lists them. An argument is (name, type, default, required, choices,
# metavar, help): a name without a leading "-" is the subcommand's one
# positional, type is int, str or bool (a store-true flag), and None leaves
# an entry unset.
_D = ("--d", int, None, False, None, None, "dimension")
_N = ("--n", int, None, False, None, None, "order")
_D_REQUIRED = ("--d", int, None, True, None, None, None)
_N_REQUIRED = ("--n", int, None, True, None, None, None)
_SUPPORT = ("--support", str, None, False, None, "FILE", None)
_CSV = ("--csv", bool, None, False, None, None, None)
_RMAX = ("--rmax", int, 100000, False, None, None, None)

_COMMANDS = {
    "count": (_cmd_count, "exact number of supported permutations", (
        _D, _N,
        ("--support", str, None, False, None, "FILE", "support JSON file"),
        ("--threads", int, 1, False, None, None,
         "accepted and echoed; the count does not use threads"),
    )),
    "enumerate": (_cmd_enumerate, "stream supported permutations as text", (
        _D, _N, _SUPPORT,
        ("--limit", int, None, False, None, None, "stop after this many"),
    )),
    "bound": (_cmd_bound, "log of the factorial-type upper bound", (_D, _N, _SUPPORT)),
    "f": (_cmd_f, "the recursive bound function f(d,r)", (
        _D_REQUIRED,
        ("--r", int, None, False, None, None, None),
        ("--rmax", int, None, False, None, None, "emit a table for r=1..rmax"),
        _CSV,
    )),
    "cd": (_cmd_cd, "asymptotic-bound constants at dimension d", (
        _D_REQUIRED,
        ("--csv", bool, None, False, None, None, "table for 0..d"),
    )),
    "theorem5": (_cmd_theorem5, "sweep the asymptotic bound on f",
                 (_D_REQUIRED, _RMAX, _CSV)),
    "sdn-bound": (_cmd_sdn_bound, "log upper bound on the count of all order-n "
                  "d-dimensional permutations", (_D_REQUIRED, _N_REQUIRED)),
    "construct": (_cmd_construct, "emit an explicit permutation (text format)", (
        ("kind", str, None, False, ("modular", "block"), None, None),
        _D_REQUIRED, _N_REQUIRED,
        ("--bits", str, None, False, None, None,
         'block arrangement bits: (n/2)^d characters, each 0 or 1, or "random" '
         "(default all zeros)"),
        ("--seed", int, 0, False, None, None, "seed for --bits random"),
    )),
    "shade": (_cmd_shade, "shade-process statistics for a random query", (
        ("mode", str, None, False, ("exact", "mc", "hist"), None, None),
        _D, _N,
        ("--r", int, None, False, None, None, "|W| (default n)"),
        ("--seed", int, 0, False, None, None, None),
        ("--samples", int, None, False, None, None, None),
        ("--perm", str, None, False, None, "FILE", "tensor text file for X"),
    )),
    "verify": (verify_suite, "run the invariant suites", (
        ("--suite", str, "all", False, ("all", *_SUITES), None, None),
        ("--seed", int, 0, False, None, None, "seeds bounds and constructions"),
    )),
}


def _build_parser():
    """The argparse parser of every subcommand, built from _COMMANDS. It
    reads every argv _parse_args does not take, and this is the one place
    that imports argparse."""
    import argparse

    top = argparse.ArgumentParser(
        prog="hdperm",
        description="Exact counting and bound verification for d-dimensional "
        "permutations (Latin hypercubes).",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)
    keys = ("default", "required", "choices", "metavar", "help")
    for command, (_, summary, specs) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, kind, *entries in specs:
            kwargs = {k: v for k, v in zip(keys, entries) if v is not None and v is not False}
            if kind is bool:
                kwargs["action"] = "store_true"
            elif kind is int:
                kwargs["type"] = int
            p.add_argument(name, **kwargs)
    return top


_ERROR_KINDS = (
    (FormatError, "format"),
    (ShapeError, "shape"),
    (OSError, "io"),
    (ValueError, "domain"),
    (OverflowError, "domain"),
)


def _table_args(argv):
    """The namespace _build_parser().parse_args(argv) returns, read from
    _COMMANDS; None unless argv has only this form: a subcommand, its exact
    long flags, each but a store-true flag followed by a separate value
    that does not start with "-", ints that int() reads, choices from their
    list, at most one positional and every required argument."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    args = {"subcommand": argv[0]}
    flags, positional, needed = {}, [], set()
    for spec in command[2]:
        name, kind, default, required = spec[:4]
        args[name.lstrip("-")] = False if kind is bool else default
        if name[0] == "-":
            flags[name] = spec
        else:
            positional.append(spec)
            required = True
        if required:
            needed.add(name)
    words = iter(argv[1:])
    for word in words:
        if word.startswith("-"):
            spec = flags.get(word)
            if spec is None:
                return None
            if spec[1] is not bool:
                word = next(words, "-")
        elif positional:
            spec = positional.pop()
        else:
            return None
        name, kind, _, _, choices = spec[:5]
        if kind is bool:
            value = True
        elif word.startswith("-"):
            return None
        elif kind is int:
            try:
                value = int(word)
            except ValueError:
                return None
        else:
            value = word
        if choices is not None and value not in choices:
            return None
        args[name.lstrip("-")] = value
        needed.discard(name)
    return None if needed else SimpleNamespace(**args)


def _parse_args(argv=None):
    """_build_parser().parse_args(argv), read without argparse where
    _table_args takes argv: any other argv, the help, -h, --flag=value,
    abbreviations and every usage error among them, goes to argparse."""
    if argv is None:
        argv = sys.argv[1:]
    args = _table_args(argv)
    return _build_parser().parse_args(argv) if args is None else args


def run(argv=None) -> int:
    """Dispatch one invocation; returns the exit code (argparse itself exits
    with 2 on usage errors)."""
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.subcommand][0](args)
    except BrokenPipeError:
        raise  # an OSError, but the error object has nowhere to go
    except KeyboardInterrupt:
        # SIGINT: one error object in place of a traceback, and the exit
        # code of a process that SIGINT ended, 128 + 2. enumerate ends on a
        # whole tensor (_whole_writes), but a --csv write can still be cut
        # short mid-line, so a newline goes first: the object is always a
        # line of its own
        sys.stdout.write("\n")
        _fail(args.subcommand, "cancelled", "interrupted")
        return 130
    except tuple(k for k, _ in _ERROR_KINDS) as exc:
        kind = next(kind for klass, kind in _ERROR_KINDS if isinstance(exc, klass))
        # an OverflowError's own text can be an errno tuple, "(34, '...')"
        overflow = isinstance(exc, OverflowError)
        return _fail(args.subcommand, kind,
                     "result too large for a float" if overflow else str(exc))


def main(argv=None) -> None:
    """The process entry point: run(argv), flush stdout, exit with its code.

    It first freezes the start-up heap (gc.freeze()). Every object alive at
    that point, the imported modules included, moves to the permanent
    generation, which no later collection walks, not even those the
    interpreter runs at shutdown. Objects the run creates are collected as
    before. run() never freezes, so a longer-lived caller sees no change."""
    import gc

    gc.freeze()
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

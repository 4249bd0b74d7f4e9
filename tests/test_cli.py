import gc
import hashlib
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import NamedTuple

import pytest

from hdperm import bounds, cli, constructions, shade, suites
from hdperm.bounds import f_float
from hdperm.core import PermTensor, Shape, line_repeats, parse_perm


def _env():
    """The environment of a new interpreter that imports the package from src."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


# a planted d=2 n=6 support (two Latin squares plus random values, 3.6 per
# cell): 258 tensors, and at slab 4 most prefixes reach a state seen before
PLANTED_D2N6 = (
    42, 54, 38, 21, 30, 46, 60, 43, 30, 14, 39, 53, 39, 58, 57, 38, 43, 57,
    57, 45, 43, 27, 15, 52, 27, 27, 41, 54, 45, 15, 15, 26, 35, 54, 58, 30,
)

# a planted d=2 n=5 support: 106 tensors, and the search checks the states
# at slabs 1, 2 and 3 against live sets
PLANTED_D2N5 = (
    11, 22, 29, 29, 15, 14, 15, 29, 15, 30, 29, 26, 27, 28, 29, 30, 15, 27,
    25, 23, 19, 21, 21, 26, 27,
)


def _planted(n, masks):
    """The support file of a d=2 support whose cell i allows value v where
    bit v of masks[i] is set."""
    ones = [[i, j, v] for (i, j), mask in zip(Shape(2, n).cells(), masks)
            for v in range(n) if mask >> v & 1]
    return json.dumps({"d": 2, "n": n, "ones": ones})


# The input files of CASES: a word of a case's argv that is a key here
# stands for a file holding its text, written under tmp_path.
FILES = {
    "FULL": '{"d": 2, "n": 4, "all_ones": true}',
    "HUGE": '{"d": 40, "n": 2, "all_ones": true}',  # past the cell cap
    "BOTH": '{"d": 2, "n": 2, "all_ones": true, "ones": [[0, 0, 0]]}',
    "HALF": '{"d": 1}',
    "PLANTED": _planted(6, PLANTED_D2N6),
    "PLANTED5": _planted(5, PLANTED_D2N5),
    "PERM": "2 3\n0 1 2\n1 2 0\n2 0 1\n",
    "REPEATS": "2 2\n0 1\n0 1\n",  # its columns repeat a value
    "BIG": "10000000 3\n0 1 2\n",  # its header is past the cell cap: 3^(10^7) cells
}


class Case(NamedTuple):
    """One invocation of the CLI and what it must do (see CASES)."""

    argv: str
    code: int = 0
    sha256: str | None = None
    error: tuple | None = None
    guard: str | None = None
    process: bool = False
    # the test that ran the case before the table, and still runs it in
    # process under its old id; None for test_case_in_process
    test: str | None = None

    @property
    def id(self):
        return self.argv if self.guard is None else f"{self.guard}: {self.argv}"


def _under(test, *cases):
    """cases, each to run in process by test (see Case.test)."""
    return [case._replace(test=test) for case in cases]


CELLS = "n^d must be at most 1000000, the array's cell cap, got "
DEPTH = "d must be at most 10000, the f table's cap"
LENGTH = "...r must be at most 10000000, the f table's cap"
ENTRIES = "...(d + 1) * r must be at most 100000000, the f table's cap"
OVERFLOW = ("domain", "result too large for a float")
BOTH_FORMS = ("format", 'give "all_ones": true or an "ones" array, not both')
SUPPORT_OR_SHAPE = ("domain", "give --support FILE or --d and --n, not both")
PERM_OR_SHAPE = ("domain", "give --perm FILE or --d and --n, not both")
SAMPLES = ("domain", "--samples needs shade mc: exact and hist count every ordering")
BITS = ("domain", "--bits needs construct block: a modular tensor has no bits")
R_OR_RMAX = ("domain", "give --r for a single value or --rmax for a table, not both")

# The CLI's contract, one case per invocation: its argv, its exit code, and
# either the sha256 of its stdout (each file path in it written as its FILES
# name) or the one JSON error object it prints, as (kind, message); a message
# that starts with "..." need only occur in the printed one, and neither
# given means stdout stays empty. stderr stays empty, but for a usage error
# (exit 2), which prints the usage there. A guard names the GUARDS patches
# under which the case runs in process: each fails the test if work that the
# refusal must come before starts. process marks the cases that also run as
# python -m hdperm.cli. A case's id is its argv, after its guard if it has one.
# A case runs in process under test_case_in_process, or under its test.
CASES = [
    # enumerate's stream, pinned before the search replayed the last two
    # slabs (the last three before it checked live sets): a change to the
    # stream, its order or --limit fails here; as a process, main hands the
    # whole stream to the pipe before it exits
    Case("enumerate --d 2 --n 4",
         sha256="15bedba6764abbc71ea8407c7a708bf7aff6b3b14353a0e6b2eb15dfed1b7f98", process=True),
    Case("enumerate --d 3 --n 3",
         sha256="4d7081e97bc0e5da6e6e7ca404879bc3af5e8d5073ea3592b04f3c32751a5d28"),
    Case("enumerate --d 1 --n 6",
         sha256="964ba7775488e75ee0eedcec69b25d5d3aebd3a91dbd53ac113e9dccd7e1a3f4"),
    Case("enumerate --support PLANTED",
         sha256="98fbe90b86579853cdd8fb448ab70db157eda3588648ca0b9bba5b4df6137826"),
    Case("enumerate --d 3 --n 4 --limit 17",
         sha256="0fabf9b491b1a5eeb9b54b8215b93fbe3c140138ae358d8bc04e006a84ca6ac9"),
    Case("enumerate --d 2 --n 5 --limit 1001",
         sha256="9d1e167f7a3ef4faf6870a136122359d72fd0db63fbb6d007a9602df25356cb2"),
    Case("enumerate --d 2 --n 5",
         sha256="1b808d7933333d7a95a8239525f05e602abd6d1d92a8b718159de3106b081040", process=True),
    Case("enumerate --d 2 --n 6 --limit 5000",
         sha256="363d73b69c594cef01da3ccbd9077660b5aae07b80d77a8d1145c0f94b3a627a"),
    Case("enumerate --support PLANTED5",
         sha256="224f38ba18210413bfab87460d5a55bd1da04e51332e199a833ad25034f15d93"),
    Case("enumerate --d 2 --n 3 --limit 2",
         sha256="4d3f2cfc9d2c0498ac0ef934536548fdbd10c96f3c681219f213425bb8b02ff6"),
    # shade, pinned while it walked all (n!)^d orderings, before the closed
    # form replaced the walk
    Case("shade exact --d 2 --n 3 --r 3 --seed 7",
         sha256="c377f69656f1618c42e756d0e75b35c2518606b9807c2db9cff3b8857ca0597d"),
    Case("shade hist --d 3 --n 3 --seed 1",
         sha256="0a81db747397366dbbd5a26b93e1dd5c40579b0fbc7b68f34cc29318d199730b"),
    Case("shade exact --d 1 --n 7 --r 4 --seed 2",
         sha256="4d668a7ef60ab720238e5872bc25e18cb09b2f4c877cd289a9e03719864bce11"),
    Case("shade hist --d 4 --n 3 --r 2 --seed 5",
         sha256="49bf3a3dc7a93316ba306b53d1d5463ad2a70b1166ae30998f3f2475d2ef877e"),
    Case("shade exact --perm PERM --r 2 --seed 1",
         sha256="307315ae31493166f76d4924b339da79272a6f218f687b4331c0fc09a8c1068f"),
    Case("shade mc --d 3 --n 4 --samples 2000 --seed 0",
         sha256="5b42ad653474c849ad1fbde31890ad52ce69a0d5286b970f7ac50181bc11c102"),
    Case("shade hist --d 3 --n 5 --seed 7",
         sha256="06ccee1e1382eabf0e7c6db5c78eb1a3eab8b270b9fa2d535db6e303e55ad6a6"),
    # the tables, pinned while the bounds module formatted their reals and
    # named their fields; the f table of d=6 crosses a chunk of its build
    Case("f --d 3 --rmax 50 --csv",
         sha256="ac853f399041d637bb356a3d0ed8d27d4f765ed06f10d002dfa7d63002e2aba1"),
    Case("f --d 6 --rmax 20000 --csv",
         sha256="270b67b823b910d5ea94a5d486968487aeec63638d484d51b5415a5b4608f9f1"),
    Case("cd --d 6 --csv",
         sha256="e17d926ad2ce997d5e85018e013206aa18643667b6af58bcd467d2a53cc2d19e"),
    Case("theorem5 --d 2 --rmax 1000 --csv",
         sha256="a929d7be298a93f016511223a92091ad659ced32a511cf6ec0bcd36c61792470"),
    Case("f --d 3 --rmax 50",
         sha256="4538c888a35f3984996c0122b41ee654059eb2b073bda550a33b55b95d6e12f5"),
    Case("theorem5 --d 2 --rmax 1000",
         sha256="4cfbc8b63e96caf63e3816fa7d410a31e6f56417ed05c597f1750e72419b5414"),
    Case("theorem5 --d 5 --rmax 300",
         sha256="bb1e185bd66b80de1d3c158d6db9d8a3835746ec745b2eb88befdb40660cabb7"),
    Case("cd --d 4", sha256="0e000f0e46208cc540b21fb26b42b6444cc94780907cffe464cc059119174bc9"),
    Case("cd --d 0", sha256="06056252ad8289cd4889ea0128ccdc85d8429a5a1f9de85d9e8c4ceb8e9847ed"),
    Case("cd --d 171", sha256="f471ceb5956b7b2f0d3a3d7ec45fa6f7fa8b6814984dbf2c75c4b08f9526a1e9"),
    Case("sdn-bound --d 3 --n 6",
         sha256="552166f5fdd03ceceb95757824db9efc11b60ec939d7fd5d66df57fb5fce0df5"),
    # every verify suite; theorem5 and claim1 take no seed, so --seed 3
    # leaves their output as it is
    Case("verify --suite bounds --seed 3",
         sha256="7aaaf57365bf8d1e79887bbe3ba48fc9f2b8f65c5f2dfb6ea79efbc9f89c6930"),
    Case("verify --suite theorem5",
         sha256="082048de823d87a02ff60523217f96dcda69f570d9a484e2112d0e1daa04e7a6"),
    Case("verify --suite claim1 --seed 3",
         sha256="7a28d5bba6b4a4d7df191354821e163643b91dc6382995cfa21ea9e9c39eb77e"),
    Case("verify --suite constructions",
         sha256="be602ff992194aef84402321b9ae0c1219d9b56d58c09963fa0c84c749c40dfa"),
    Case("construct block --d 2 --n 4 --bits 0110",
         sha256="e2e8a1046849a0c54b350c4d5f19e7ba8d9e0d71b09b6c9878dcfc32a89a4e91"),
    # a support read from a file counts as the shape given by flags, and an
    # abbreviated flag, which only argparse reads, reads the same
    Case("count --support FULL",
         sha256="83cb0a6730daafec30e6213fa15752b3eb0fc1a8eace38fb0db46caa7233b79b"),
    Case("count --sup FULL",
         sha256="83cb0a6730daafec30e6213fa15752b3eb0fc1a8eace38fb0db46caa7233b79b"),

    # usage errors
    Case("bogus", 2, process=True),
    Case("no-such-subcommand", 2),
    Case("", 2),
    Case("f --d not-a-number --r 1", 2),
    Case("verify --samples 5", 2),
    # verify runs fixed suites: it takes no shape and no sweep length
    *_under("test_verify_rejects_bad_or_half_shape",
        Case("verify --suite theorem5 --d 0 --rmax 200", 2),
        Case("verify --suite claim1 --d 2", 2),
        Case("verify --suite claim1 --n 3", 2),
        Case("verify --d 2", 2),
        Case("verify --rmax 7", 2),
    ),

    # missing, unreadable or malformed input
    Case("count", 1, error=("domain", "...need --support FILE or both --d and --n")),
    Case("count --d 2", 1, error=("domain", "...need --support FILE or both --d and --n"),
         process=True),
    Case("f --d 2", 1, error=("domain", "need --r for a single value or --rmax for a table")),
    Case("shade exact --d 2", 1, error=("domain", "need --perm FILE or both --d and --n")),
    Case("count --d 0 --n 3", 1, error=("shape", "...d must be a positive integer")),
    Case("construct block --d 2 --n 3", 1, error=("domain", "...block construction needs even n")),
    Case("count --support /no/such/file.json", 1, error=("io", "...No such file or directory")),
    Case("count --support HALF", 1, error=("format", "...missing field")),
    Case("shade exact --perm /dev/null", 1, error=("format", "...header must carry two integers"),
         process=True),
    Case("shade exact --perm REPEATS", 1, error=("format", "...line constraints violated"),
         process=True),
    Case("count --support BOTH", 1, error=BOTH_FORMS, process=True),
    Case("enumerate --support BOTH", 1, error=BOTH_FORMS, process=True),
    Case("bound --support BOTH", 1, error=BOTH_FORMS, process=True),

    # the JSON table and the CSV rows check their arguments alike
    Case("f --d 2 --rmax 0", 1, error=("domain", "r must be an integer >= 1, got 0")),
    Case("f --d 2 --rmax 0 --csv", 1, error=("domain", "r must be an integer >= 1, got 0")),
    Case("f --d 2 --rmax -5", 1, error=("domain", "r must be an integer >= 1, got -5")),
    Case("f --d 2 --rmax -5 --csv", 1, error=("domain", "r must be an integer >= 1, got -5")),
    Case("cd --d -1", 1, error=("domain", "d must be an integer >= 0, got -1")),
    Case("cd --d -1 --csv", 1, error=("domain", "d must be an integer >= 0, got -1")),

    # a result past the largest double is a domain error, in a sentence
    *_under("test_float_overflow_is_domain_error",
        Case("cd --d 173", 1, error=OVERFLOW),
        Case("cd --d 173 --csv", 1, error=OVERFLOW),
        Case("cd --d 20000", 1, error=OVERFLOW),
        Case("theorem5 --d 710 --rmax 10", 1, error=OVERFLOW),
        Case("sdn-bound --d 1100 --n 2", 1, error=OVERFLOW),
    ),

    # the f table refuses a row past 10^7, more than 10^4 + 1 rows or more
    # than 10^8 entries, whichever command asks, before any row is built
    *_under("test_f_table_refuses_rows_past_its_cap",
        Case("f --d 2 --r 10000000000000", 1, error=("domain", LENGTH), guard="rows"),
        Case("f --d 1 --rmax 10000001 --csv", 1, error=("domain", LENGTH), guard="rows"),
        Case("theorem5 --d 2 --rmax 10000001", 1, error=("domain", LENGTH), guard="rows"),
    ),
    *_under("test_f_table_refuses_too_many_rows_or_entries",
        Case("f --d 1000000 --r 2", 1, error=("domain", "..." + DEPTH), guard="rows"),
        Case("bound --d 1000000 --n 1", 1, error=("domain", "..." + DEPTH), guard="rows"),
        Case("sdn-bound --d 1000000 --n 2", 1, error=("domain", "..." + DEPTH), guard="rows"),
        # the shade query itself takes time linear in d, so this one sits
        # just past the cap
        Case("shade exact --d 10001 --n 1", 1, error=("domain", "..." + DEPTH), guard="rows"),
        Case("theorem5 --d 15 --rmax 10000000", 1, error=("domain", ENTRIES), guard="rows"),
    ),

    # no array past 10^6 cells: refused before n^d is computed for the
    # large d or any cell is built, a tensor file on its header
    *_under("test_arrays_past_the_cell_cap_are_refused",
        Case("count --d 70 --n 2", 1, error=("domain", CELLS + "d=70 n=2"), guard="cells",
             process=True),
        Case("count --d 10000000 --n 3", 1, error=("domain", CELLS + "d=10000000 n=3"),
             guard="cells"),
        Case("count --support HUGE", 1, error=("domain", CELLS + "d=40 n=2"), guard="cells"),
        Case("enumerate --d 70 --n 2", 1, error=("domain", CELLS + "d=70 n=2"), guard="cells"),
        Case("bound --d 40 --n 2", 1, error=("domain", CELLS + "d=40 n=2"), guard="cells",
             process=True),
        Case("construct modular --d 20000 --n 2", 1, error=("domain", CELLS + "d=20000 n=2"),
             guard="cells"),
        Case("construct block --d 40 --n 2", 1, error=("domain", CELLS + "d=40 n=2"),
             guard="cells"),
        Case("construct block --d 40 --n 4 --bits random", 1,
             error=("domain", CELLS + "d=40 n=4"), guard="cells"),
        Case("shade mc --d 25 --n 2", 1, error=("domain", CELLS + "d=25 n=2"), guard="cells"),
        Case("shade exact --perm BIG", 1, error=("domain", CELLS + "d=10000000 n=3"),
             guard="cells", process=True),
    ),

    # shade checks the f table before it builds a query or a tensor; the
    # errors that came before the f table still do
    Case("shade exact --d 10001 --n 2", 1, error=("domain", DEPTH + ", got 10001"), guard="query",
         process=True),
    *_under("test_shade_and_claim1_check_the_f_table_before_the_query",
        Case("shade exact --d 300000 --n 1", 1, error=("domain", DEPTH + ", got 300000"),
             guard="query"),
        Case("shade mc --d 20000 --n 2", 1, error=("domain", DEPTH + ", got 20000"),
             guard="query"),
        Case("shade exact --d 10001 --n 2 --r 5", 1,
             error=("domain", "|W| must be in 1..2, got 5"), guard="query"),
        Case("shade exact --d 10001 --n 2 --r 0", 1,
             error=("domain", "|W| must be in 1..2, got 0"), guard="query"),
    ),

    # a flag the chosen mode would ignore is refused before any input file
    # is read (FILE names no file)
    Case("count --support FULL --d 3 --n 3", 1, error=SUPPORT_OR_SHAPE, guard="inputs"),
    *_under("test_commands_refuse_flags_they_would_ignore",
        Case("count --support FILE --d 5 --n 7", 1, error=SUPPORT_OR_SHAPE, guard="inputs"),
        Case("count --support FILE --d 2", 1, error=SUPPORT_OR_SHAPE, guard="inputs"),
        Case("enumerate --support FILE --n 3", 1, error=SUPPORT_OR_SHAPE, guard="inputs"),
        Case("bound --support FILE --d 2 --n 3", 1, error=SUPPORT_OR_SHAPE, guard="inputs"),
        Case("shade exact --perm FILE --d 2 --n 3", 1, error=PERM_OR_SHAPE, guard="inputs"),
        Case("shade mc --perm FILE --n 3", 1, error=PERM_OR_SHAPE, guard="inputs"),
        Case("construct modular --d 2 --n 3 --bits 000", 1, error=BITS, guard="inputs"),
        Case("construct modular --d 2 --n 3 --bits random", 1, error=BITS, guard="inputs"),
        Case("shade exact --d 2 --n 3 --samples 5", 1, error=SAMPLES, guard="inputs"),
        Case("shade hist --perm FILE --samples 5", 1, error=SAMPLES, guard="inputs"),
        Case("count --support FILE --threads 0", 1,
             error=("domain", "--threads must be an integer >= 1, got 0"), guard="inputs"),
    ),
    # f refuses them before any of its table is built
    *_under("test_f_refuses_flags_it_would_ignore",
        Case("f --d 2 --r 3 --rmax 5", 1, error=R_OR_RMAX, guard="table"),
        Case("f --d 2 --r 3 --rmax 5 --csv", 1, error=R_OR_RMAX, guard="table"),
        Case("f --d 2 --r 3 --csv", 1,
             error=("domain", "--csv needs --rmax: a single value prints as JSON"),
             guard="table"),
    ),

    # Ctrl-C: one error object, exit code 128 + SIGINT
    Case("count --d 2 --n 4", 130, error=("cancelled", "interrupted"), guard="interrupt"),
]


def _refused(*args, **kwargs):
    raise AssertionError("the work a refusal must come before has started")


def _interrupted(*args, **kwargs):
    raise KeyboardInterrupt


# (owner, name, value) patches, each set for the run of a case that names
# its guard
GUARDS = {
    # every row of the f table is built through map
    "rows": [(bounds, "map", _refused)],
    "table": [(bounds, "f_rows", _refused)],
    "cells": [(Shape, "ncells", property(_refused)), (Shape, "cells", _refused),
              (constructions, "_nblocks", _refused)],
    "inputs": [(cli, "_read_file", _refused), (cli, "parse_support", _refused),
               (cli, "parse_perm", _refused)],
    "query": [(shade, "random_query", _refused), (shade, "ShadeQuery", _refused),
              (constructions, "modular_perm", _refused)],
    "interrupt": [(cli, "per_d", _interrupted)],
}


def _argv(case, tmp_path):
    """case.argv as a list, and {name: path} for each word of it that names
    a FILES entry, which stands for a file written under tmp_path."""
    words = case.argv.split()
    files = {}
    for name in FILES.keys() & set(words):
        path = tmp_path / name
        path.write_text(FILES[name])
        files[name] = str(path)
    return [files.get(word, word) for word in words], files


def check(case, files, code, out, err):
    """Assert that a run of case that exited with code, with out on stdout
    and err on stderr, did what the case says."""
    for name, path in files.items():
        out = out.replace(path, name)
    assert code == case.code, (out[-500:], err[-500:])
    assert err.startswith("usage: hdperm") if code == 2 else err == "", err[-500:]
    if case.sha256 is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == case.sha256
    elif case.error is not None:
        kind, message = case.error
        obj = json.loads(out)
        printed = obj["error"]["message"]
        if message.startswith("..."):
            assert message[3:] in printed, printed
            message = printed
        assert obj == {"subcommand": case.argv.split()[0], "status": "error",
                       "error": {"kind": kind, "message": message}}
    else:
        assert out == ""


def _in_process(test, name=lambda i, case: case.argv):
    """The test that runs each case whose test is test (None: no test of
    its own) through cli.run, under its guard; the i-th such case of CASES
    gets the id name(i, case)."""
    cases = [case for case in CASES if case.test == test]

    @pytest.mark.parametrize("case", cases, ids=[name(i, case) for i, case in enumerate(cases)])
    def run_case(capsys, monkeypatch, tmp_path, case):
        argv, files = _argv(case, tmp_path)
        for owner, attr, value in GUARDS.get(case.guard, ()):
            monkeypatch.setattr(owner, attr, value, raising=False)
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        check(case, files, code, out.out, out.err)

    return run_case


def _argv_message(i, case):
    return f"{case.argv}-{case.error[1]}"


def _index(i, case):
    return f"argv{i}"


# the tests that ran cases before the table keep their names and ids
test_case_in_process = _in_process(None, lambda i, case: case.id)
test_arrays_past_the_cell_cap_are_refused = _in_process(
    "test_arrays_past_the_cell_cap_are_refused")
test_float_overflow_is_domain_error = _in_process("test_float_overflow_is_domain_error")
test_commands_refuse_flags_they_would_ignore = _in_process(
    "test_commands_refuse_flags_they_would_ignore", _argv_message)
test_shade_and_claim1_check_the_f_table_before_the_query = _in_process(
    "test_shade_and_claim1_check_the_f_table_before_the_query", _argv_message)
test_f_refuses_flags_it_would_ignore = _in_process(
    "test_f_refuses_flags_it_would_ignore", _argv_message)
test_f_table_refuses_rows_past_its_cap = _in_process(
    "test_f_table_refuses_rows_past_its_cap", _index)
test_verify_rejects_bad_or_half_shape = _in_process(
    "test_verify_rejects_bad_or_half_shape", _index)
test_f_table_refuses_too_many_rows_or_entries = _in_process(
    "test_f_table_refuses_too_many_rows_or_entries", lambda i, case: case.argv.split()[0])


@pytest.mark.parametrize("case", [case for case in CASES if case.process],
                         ids=lambda case: case.id)
def test_case_as_a_process(tmp_path, case):
    # main, the process entry point of python -m hdperm.cli and the hdperm
    # script, keeps the exit codes and stderr, and writes the whole stream
    # before the process ends
    argv, files = _argv(case, tmp_path)
    proc = subprocess.run([sys.executable, "-m", "hdperm.cli", *argv], env=_env(),
                          capture_output=True, timeout=120)
    check(case, files, proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def test_cases_cover_the_cli():
    # a new subcommand, error kind, exit code or guard comes with its cases
    ids = [case.id for case in CASES]
    assert len(set(ids)) == len(ids), sorted(i for i in ids if ids.count(i) > 1)
    # a case whose test is misnamed would run nowhere
    assert all(case.test is None or case.test in globals() for case in CASES)
    assert {case.argv.split()[0] for case in CASES if case.argv} >= set(cli._COMMANDS)
    kinds = {kind for _, kind in cli._ERROR_KINDS} | {"cancelled"}
    assert {case.error[0] for case in CASES if case.error} == kinds
    assert {case.code for case in CASES} == {0, 1, 2, 130}
    assert {case.guard for case in CASES} == {None, *GUARDS}
    assert all(case.sha256 is None or case.error is None for case in CASES)


def test_interrupt_ends_with_one_error_object():
    # SIGINT lands inside run, once the first line is out, while enumerate
    # writes a stream that would take hours. The child starts with SIGINT at
    # its default, which Python turns into KeyboardInterrupt, even where
    # this test runs with SIGINT ignored (as in a background job)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hdperm.cli", "enumerate", "--d", "2", "--n", "6"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        assert proc.stdout.readline() == b"2 6\n"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert err == b""
    # the stream may stop mid-line; the error object is a line of its own
    assert json.loads(out.splitlines()[-1]) == {
        "subcommand": "enumerate", "status": "error",
        "error": {"kind": "cancelled", "message": "interrupted"},
    }


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_text(capsys, argv):
    code = cli.run(argv)
    return code, capsys.readouterr().out


def test_count_full(capsys):
    code, obj = run_json(capsys, ["count", "--d", "2", "--n", "4"])
    assert code == 0
    assert obj["status"] == "ok"
    assert obj["subcommand"] == "count"
    assert obj["count"] == "576"  # decimal string, never a float
    assert obj["params"] == {"d": 2, "n": 4, "threads": 1}
    assert obj["algorithm"] == "meet"
    assert obj["states"] == [24, 90]
    assert obj["states_back"] == [24, 90]


def test_count_output_does_not_depend_on_threads(capsys, tmp_path):
    path = tmp_path / "sup.json"
    ones = [[i, j, (i + j + k) % 4] for i in range(4) for j in range(4) for k in range(3)]
    path.write_text(json.dumps({"d": 2, "n": 4, "ones": ones}))
    outs = []
    for threads in ("1", "2"):
        code, out = run_text(capsys, ["count", "--support", str(path), "--threads", threads])
        assert code == 0
        outs.append(out)
    assert outs[1] == outs[0].replace('"threads": 1', '"threads": 2')
    assert outs[1] != outs[0]


def test_count_support_file(capsys, tmp_path):
    path = tmp_path / "sup.json"
    path.write_text('{"d": 1, "n": 3, "all_ones": true}')
    code, obj = run_json(capsys, ["count", "--support", str(path)])
    assert code == 0
    assert obj["count"] == "6"


def test_count_threads_env(capsys, monkeypatch):
    # --threads must be an integer >= 1; no environment variable stands in
    # for it
    monkeypatch.setenv("HDPERM_THREADS", "junk")
    code, obj = run_json(capsys, ["count", "--d", "2", "--n", "4"])
    assert code == 0
    assert obj["params"]["threads"] == 1
    assert obj["count"] == "576"
    for bad in ("0", "-3"):
        code, obj = run_json(capsys, ["count", "--d", "2", "--n", "3", "--threads", bad])
        assert code == 1
        assert obj["status"] == "error"
        assert obj["error"]["kind"] == "domain"
    code, obj = run_json(capsys, ["count", "--d", "2", "--n", "3", "--threads", "2"])
    assert code == 0
    assert obj["params"]["threads"] == 2


def _fresh_python(script, timeout=60, flags=()):
    """Run script in a new interpreter, given flags, that imports the
    package from src, so sys.modules holds only what the script loads."""
    return subprocess.run(
        [sys.executable, *flags, "-c", script], env=_env(), capture_output=True,
        text=True, timeout=timeout,
    )


def test_counting_subcommands_do_not_import_numpy(tmp_path):
    # count and enumerate start with core and counting alone: their argv is
    # read from the table, so argparse loads only for the help and usage
    # errors, and count never loads the enumerator; only enumerate's search
    # of a d >= 2 support that is not full builds live sets, so none of
    # these full supports does; construct and cd load their own modules,
    # and no subcommand loads numpy
    full = tmp_path / "full.json"
    full.write_text('{"d": 2, "n": 4, "all_ones": true}')
    script = textwrap.dedent(
        f"""
        import sys
        import hdperm.cli

        def loaded(names):
            return sorted(name for name in names if name in sys.modules)

        assert loaded(["argparse", "hdperm.enumeration"]) == []
        for argv in (
            ["count", "--d", "2", "--n", "5"],
            ["count", "--support", {str(full)!r}, "--threads", "2"],
            ["count", "--d", "2", "--n", "3"],
        ):
            assert hdperm.cli.run(argv) == 0, argv
        assert loaded(["argparse", "hdperm.enumeration"]) == []

        from hdperm import enumeration

        built = []
        live = enumeration._live

        def counted(a):
            built.append(a.shape)
            return live(a)

        enumeration._live = counted
        for argv in (
            ["enumerate", "--d", "1", "--n", "5", "--limit", "2"],
            ["enumerate", "--d", "2", "--n", "5", "--limit", "2"],
            ["enumerate", "--d", "3", "--n", "4", "--limit", "2"],
            ["enumerate", "--support", {str(full)!r}, "--limit", "2"],
            ["enumerate", "--d", "2", "--n", "3", "--limit", "2"],
        ):
            assert hdperm.cli.run(argv) == 0, argv
        assert built == [], built
        unused = ["argparse", "dataclasses", "inspect", "fractions", "decimal",
                  "csv", "hdperm.bounds", "hdperm.shade", "hdperm.constructions",
                  "hdperm.suites", "hdperm.kernels"]
        assert loaded(unused) == [], loaded(unused)
        # the help and a usage error go through argparse
        for argv, code in ((["count", "--help"], 0), (["count", "--d", "x"], 2)):
            try:
                hdperm.cli.run(argv)
            except SystemExit as exc:
                assert exc.code == code, (argv, exc.code)
            else:
                raise AssertionError(argv)
        assert loaded(["argparse"]) == ["argparse"]
        for argv in (
            ["construct", "modular", "--d", "2", "--n", "3"],
            ["cd", "--d", "3"],
        ):
            assert hdperm.cli.run(argv) == 0, argv
        heavy = ["dataclasses", "inspect", "numpy"]
        assert loaded(heavy) == [], loaded(heavy)
        assert hdperm.cli.run(["f", "--d", "2", "--r", "5"]) == 0
        """
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert "usage: hdperm count" in proc.stdout
    assert "argument --d: invalid int value: 'x'" in proc.stderr
    f_line = json.loads(proc.stdout.splitlines()[-1])
    assert f_line["f"] == pytest.approx(f_float(2, 5), abs=1e-12)


def test_counting_never_loads_the_enumerator():
    # the counter has one path, the slab DP: neither importing it, nor a
    # count through any backend name it takes, nor the count subcommand
    # loads the enumerator
    script = textwrap.dedent(
        """
        import sys
        from hdperm.core import Shape, all_ones_support
        from hdperm.counting import per_d

        assert "hdperm.enumeration" not in sys.modules
        a = all_ones_support(Shape(2, 4))
        assert per_d(a) == per_d(a, backend="python") == 576
        import hdperm.cli

        assert hdperm.cli.run(["count", "--d", "3", "--n", "3", "--threads", "2"]) == 0
        assert "hdperm.enumeration" not in sys.modules
        """
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == "24"

@pytest.mark.parametrize("flags, argvs, unused", [
    # f, the bounds and the sweeps run on the package's own integer table;
    # numpy is a test-only dependency
    ((), ["f --d 2 --r 5", "f --d 3 --rmax 50 --csv", "bound --d 2 --n 4",
          "sdn-bound --d 3 --n 6", "theorem5 --d 2 --rmax 500", "cd --d 3",
          "shade exact --d 2 --n 3 --seed 7", "shade mc --d 2 --n 3 --samples 200 --seed 1",
          "verify --suite all"], ["numpy"]),
    # --csv output is written line by line
    ((), ["f --d 3 --rmax 50 --csv", "cd --d 5 --csv", "theorem5 --d 2 --rmax 500 --csv"],
     ["csv"]),
    # every record derives from core.Record, so no subcommand pays for typing
    # or for dataclasses and the inspect module it pulls in; -S keeps site,
    # which may load typing itself, out of the interpreter
    (("-S",), ["count --d 2 --n 4", "enumerate --d 2 --n 3 --limit 2", "bound --d 2 --n 4",
               "f --d 2 --r 5", "f --d 3 --rmax 50 --csv", "cd --d 3",
               "theorem5 --d 2 --rmax 500", "sdn-bound --d 3 --n 6",
               "construct block --d 2 --n 4 --bits random",
               "shade exact --d 2 --n 3 --seed 7",
               "shade mc --d 2 --n 3 --samples 200 --seed 1",
               "shade hist --d 3 --n 3 --seed 1", "verify --suite all"],
     ["typing", "dataclasses", "inspect"]),
    ((), ["verify --suite theorem5", "verify --suite bounds"],
     ["hdperm.shade", "hdperm.constructions"]),
    ((), ["verify --suite constructions"], ["hdperm.bounds", "hdperm.shade"]),
], ids=["numpy", "csv", "typing", "bound-suites", "constructions-suite"])
def test_subcommands_leave_modules_unloaded(flags, argvs, unused):
    # each row in a new interpreter, so sys.modules holds only what it ran;
    # the theorem5 suite sweeps to r = 2000
    script = textwrap.dedent(
        f"""
        import sys
        import hdperm.cli
        import hdperm.suites

        hdperm.suites.RMAX = 2000
        for argv in {[argv.split() for argv in argvs]!r}:
            assert hdperm.cli.run(argv) == 0, argv
        loaded = [name for name in {unused!r} if name in sys.modules]
        assert loaded == [], loaded
        """
    )
    proc = _fresh_python(script, timeout=120, flags=flags)
    assert proc.returncode == 0, proc.stderr


def test_enumerate_text(capsys):
    code, out = run_text(capsys, ["enumerate", "--d", "2", "--n", "3", "--limit", "3"])
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        p = parse_perm(block + "\n")
        assert not line_repeats(p.values, Shape(2, 3))


def test_enumerate_limit_stays_lazy():
    # the first tensors come after a few search nodes, so a small --limit
    # returns at start-up speed even where the full stream would never end;
    # a design that lists a slab's fillings first times out instead
    for d, n, limit in ((2, 12, 3), (3, 5, 1), (2, 6, 5000)):
        argv = ["enumerate", "--d", str(d), "--n", str(n), "--limit", str(limit)]
        proc = subprocess.run(
            [sys.executable, "-m", "hdperm.cli", *argv],
            env=_env(), capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        blocks = proc.stdout.split("\n\n")
        assert len(blocks) == limit
        for block in blocks:
            assert parse_perm(block).shape == Shape(d, n)


def test_closed_stdout_ends_quietly():
    # a reader that stops after one line (head -1) closes the pipe while
    # output far larger than the pipe buffer is still being written
    for argv in (["enumerate", "--d", "2", "--n", "5"],
                 ["f", "--d", "2", "--rmax", "200000", "--csv"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "hdperm.cli", *argv],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, argv
        assert err == "", argv


def test_only_main_freezes_the_start_up_heap(capsys):
    # the process entry point moves the start-up heap out of the collector's
    # reach; importing the module and run() leave the collector as it was
    before = gc.get_freeze_count()
    try:
        spec = importlib.util.find_spec("hdperm.cli")
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
        assert cli.run(["cd", "--d", "2"]) == 0
        assert gc.get_freeze_count() == before
        with pytest.raises(SystemExit) as exc:
            cli.main(["cd", "--d", "2"])
        assert exc.value.code == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["status"] == "ok"


def test_bound(capsys):
    code, obj = run_json(capsys, ["bound", "--d", "2", "--n", "4"])
    assert code == 0
    assert obj["log_bound"] == pytest.approx(16 * f_float(2, 4), abs=1e-9)


def test_bound_neg_inf(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"d": 1, "n": 2, "ones": [[0, 0]]}')  # cell 1 allows nothing
    code, obj = run_json(capsys, ["bound", "--support", str(path)])
    assert code == 0
    assert obj["log_bound"] == "-inf"
    assert obj["bound"] == "0"


def test_f_single_and_table(capsys):
    code, obj = run_json(capsys, ["f", "--d", "2", "--r", "3"])
    assert code == 0
    assert obj["f"] == pytest.approx(f_float(2, 3), abs=1e-12)

    code, obj = run_json(capsys, ["f", "--d", "1", "--rmax", "4"])
    assert code == 0
    assert [row[0] for row in obj["table"]] == [1, 2, 3, 4]
    assert obj["table"][3][1] == pytest.approx(math.log(24) / 4, abs=1e-12)


def test_f_csv(capsys):
    code, out = run_text(capsys, ["f", "--d", "1", "--rmax", "3", "--csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,r,f_float"
    assert len(lines) == 4
    assert lines[1].startswith("1,1,")


def test_cd(capsys):
    code, obj = run_json(capsys, ["cd", "--d", "2"])
    assert code == 0
    assert obj["c_d"] == pytest.approx(7.921548404866289, rel=1e-12)
    assert obj["cap"] == 8.0
    assert obj["xi"] == pytest.approx(math.e, rel=1e-12)


def test_cd_csv(capsys):
    code, out = run_text(capsys, ["cd", "--d", "3", "--csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,c_d,cap"
    assert len(lines) == 5  # d = 0..3


def test_cd_is_finite_past_the_largest_factorial(capsys):
    # d! passes the largest double at d = 171, but every field stays finite
    # until gamma does at d = 173
    code, obj = run_json(capsys, ["cd", "--d", "171"])
    assert code == 0
    for key in ("c_d", "cap", "gamma", "r_d", "xi"):
        assert isinstance(obj[key], float) and math.isfinite(obj[key]), key
    assert 0 < obj["cap"] < 1e-295
    code, out = run_text(capsys, ["cd", "--d", "172", "--csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [int(row[0]) for row in rows] == list(range(173))
    assert all(math.isfinite(float(v)) for row in rows for v in row[1:])


def test_theorem5(capsys):
    code, obj = run_json(capsys, ["theorem5", "--d", "2", "--rmax", "1000"])
    assert code == 0
    assert obj["pass"] is True
    assert obj["violations"] == 0
    assert obj["r_start"] == 8
    assert obj["min_margin"] > 0


def test_theorem5_csv(capsys):
    code, out = run_text(capsys, ["theorem5", "--d", "1", "--rmax", "100", "--csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("d,r_start,")
    assert len(lines) == 2


def test_sdn_bound(capsys):
    code, obj = run_json(capsys, ["sdn-bound", "--d", "2", "--n", "5"])
    assert code == 0
    assert obj["log_bound"] == pytest.approx(13.4791927641636, abs=1e-9)
    assert obj["ratio"] is None
    code, obj = run_json(capsys, ["sdn-bound", "--d", "1", "--n", "8"])
    assert obj["ratio"] > 1


def test_construct_modular(capsys):
    code, out = run_text(capsys, ["construct", "modular", "--d", "2", "--n", "3"])
    assert code == 0
    p = parse_perm(out)
    assert p.values == (0, 1, 2, 1, 2, 0, 2, 0, 1)


def test_construct_block(capsys):
    code, out = run_text(
        capsys, ["construct", "block", "--d", "2", "--n", "4", "--bits", "0110"]
    )
    assert code == 0
    assert not line_repeats(parse_perm(out).values, Shape(2, 4))

    # without --bits every block takes bit 0
    for d, n, zeros in ((2, 4, "0000"), (3, 2, "0")):
        shape = ["--d", str(d), "--n", str(n)]
        code, out = run_text(capsys, ["construct", "block", *shape])
        assert code == 0
        assert out == run_text(capsys, ["construct", "block", *shape, "--bits", zeros])[1]

    code, obj = run_json(
        capsys, ["construct", "block", "--d", "2", "--n", "4", "--bits", "01"]
    )
    assert code == 1
    assert obj["status"] == "error"

    # every character but 0 and 1 is refused: letters, inner spaces and
    # digits of other scripts alike (surrounding whitespace is stripped)
    for text in ("01a0", "01 0", "\uff10\uff11\uff11\uff10", "0120"):
        code, obj = run_json(
            capsys, ["construct", "block", "--d", "2", "--n", "4", "--bits", text]
        )
        assert code == 1, text
        assert obj["error"] == {"kind": "domain", "message": "bits must be 0 or 1"}, text
    code, out = run_text(
        capsys, ["construct", "block", "--d", "2", "--n", "4", "--bits", " 0110\n"]
    )
    assert code == 0
    assert out == run_text(
        capsys, ["construct", "block", "--d", "2", "--n", "4", "--bits", "0110"]
    )[1]


def test_construct_block_random_seeded(capsys):
    argv = ["construct", "block", "--d", "2", "--n", "4", "--bits", "random", "--seed", "9"]
    _, a = run_text(capsys, argv)
    _, b = run_text(capsys, argv)
    assert a == b
    assert not line_repeats(parse_perm(a).values, Shape(2, 4))


def test_construct_block_random_unseeded_is_seed_0(capsys):
    argv = ["construct", "block", "--d", "2", "--n", "4", "--bits", "random"]
    _, a = run_text(capsys, argv)
    _, b = run_text(capsys, argv)
    _, seeded = run_text(capsys, argv + ["--seed", "0"])
    assert a == b == seeded


def test_shade_exact(capsys):
    code, obj = run_json(capsys, ["shade", "exact", "--d", "2", "--n", "3", "--r", "2"])
    assert code == 0
    assert obj["pass"] is True
    assert obj["exact"] is True
    assert obj["mean"] == pytest.approx(f_float(2, 2), abs=1e-12)
    assert obj["samples"] == 36
    assert len(obj["query"]["w"]) == 2


def test_shade_exact_past_the_old_budget(capsys):
    # (8!)^3 = 6.6e13 orderings, counted in closed form
    code, obj = run_json(capsys, ["shade", "exact", "--d", "3", "--n", "8"])
    assert code == 0
    assert obj["pass"] is True
    assert obj["samples"] == math.factorial(8) ** 3
    assert "counts" not in obj and "pmf" not in obj


def test_shade_hist(capsys):
    code, obj = run_json(capsys, ["shade", "hist", "--d", "2", "--n", "3", "--r", "3"])
    assert code == 0
    assert obj["counts"] == {"1": 22, "2": 10, "3": 4}
    assert obj["pmf"]["1"] == "11/18"
    assert obj["pass"] is True


def test_shade_mc_deterministic(capsys):
    argv = ["shade", "mc", "--d", "2", "--n", "4", "--seed", "5", "--samples", "300"]
    _, a = run_text(capsys, argv)
    _, b = run_text(capsys, argv)
    assert a == b
    obj = json.loads(a)
    assert obj["samples"] == 300
    assert obj["stderr"] > 0


def test_shade_perm_file(capsys, tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text(FILES["PERM"])
    code, obj = run_json(
        capsys, ["shade", "exact", "--perm", str(path), "--r", "2", "--seed", "1"]
    )
    assert code == 0
    assert obj["query"]["perm"] == FILES["PERM"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        [],
        ["no-such-subcommand"],
        ["count", "--help"],
        ["enumerate", "--d", "2", "--n", "3", "--limit", "2"],
        ["count", "--d", "not-a-number"],
        ["count", "--d", "2", "--n", "3", "extra"],
        ["count", "--no-such-flag"],
        ["f"],
        ["construct", "nope", "--d", "2", "--n", "3"],
        ["verify", "--samples", "5"],
        ["shade", "mc", "--d", "2", "--n", "3"],
        # every subcommand in its usual form
        ["count", "--d", "2", "--n", "5", "--threads", "2"],
        ["count", "--support", "FILE"],
        ["enumerate", "--support", "FILE"],
        ["bound", "--support", "FILE"],
        ["bound", "--d", "2", "--n", "4"],
        ["f", "--d", "2", "--r", "5"],
        ["f", "--d", "3", "--rmax", "50", "--csv"],
        ["cd", "--d", "3"],
        ["cd", "--d", "5", "--csv"],
        ["theorem5", "--d", "2", "--rmax", "500", "--csv"],
        ["sdn-bound", "--d", "3", "--n", "6"],
        ["construct", "modular", "--d", "2", "--n", "3"],
        ["construct", "--d", "2", "--n", "4", "block", "--bits", "random", "--seed", "3"],
        ["shade", "exact", "--perm", "FILE", "--r", "2", "--seed", "1"],
        ["shade", "hist", "--d", "3", "--n", "3", "--samples", "200"],
        ["verify"],
        ["verify", "--suite", "claim1", "--seed", "4"],
        # forms only argparse reads
        ["count", "--sup", "FILE"],
        ["count", "--d=2"],
        ["count", "--d", "-1", "--n", "3"],
        ["count", "--d", "2", "--d", "3"],
        ["cd", "--d", "3", "--csv", "--csv"],
        ["construct", "modular", "block"],
        ["count", "--", "--d", "2"],
        ["count", "--support", "--d"],
        ["count", "--support"],
        ["-h"],
        ["count", "-h"],
        ["verify", "--suite", "nope"],
        ["sdn-bound", "--d", "3"],
        ["construct", "--d", "2", "--n", "3"],
        ["f", "--d", "2", "--r", "5", "--csv", "yes"],
    ],
)
def test_one_subcommand_parser_matches_the_full_parser(capsys, argv):
    # argv read from the argument table, without argparse, gives the
    # namespace of the full argparse parser; argv the table does not take
    # goes to that parser, with its help, usage errors and exit codes
    def outcome(parse):
        try:
            args, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            args, code = None, exc.code
        out = capsys.readouterr()
        return args, code, out.out, out.err

    want = outcome(lambda a: cli._build_parser().parse_args(a))
    assert outcome(cli._parse_args) == want
    assert want[1] in (None, 0, 2)


def test_benchmark_argv_is_read_from_the_table():
    # every argv the benchmark's generator makes, for each workload, seeds
    # 0-2 and every pass of a 20 s run, is read without argparse
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    parser = cli._build_parser()
    jobs = gen.floor_jobs()
    for workload in gen.WORKLOADS:
        for seed in range(3):
            for p in range(gen.passes(workload, 20)):
                jobs += gen.make_pass(workload, seed, p)
    assert len(jobs) > 300
    for job in jobs:
        args = cli._table_args(job["argv"])
        assert args is not None, job["argv"]
        assert vars(args) == vars(parser.parse_args(job["argv"])), job["argv"]


def test_readme_usage_block_runs(capsys, tmp_path):
    # every line of the README's usage block, one per subcommand at least,
    # runs and exits 0, so a dropped flag cannot stay documented; sup.json
    # is a planted support
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [line.split("#")[0].split()[1:] for line in block.splitlines()
             if line.startswith("hdperm ")]
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)
    sup = tmp_path / "sup.json"
    sup.write_text(FILES["PLANTED5"])
    for argv in argvs:
        assert cli.run([str(sup) if w == "sup.json" else w for w in argv]) == 0, argv
        capsys.readouterr()


def test_json_is_key_sorted_and_repeatable(capsys):
    _, a = run_text(capsys, ["cd", "--d", "4"])
    _, b = run_text(capsys, ["cd", "--d", "4"])
    assert a == b
    keys = list(json.loads(a).keys())
    assert keys == sorted(keys)


def test_verify_single_suite(capsys):
    code = cli.run(["verify", "--suite", "claim1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("PASS claim1:")
    summary = json.loads(lines[-1])
    assert summary["status"] == "ok"
    assert summary["suites"]["claim1"]["passed"] is True


def test_verify_all_suites(capsys, monkeypatch):
    monkeypatch.setattr(suites, "RMAX", 3000)
    code = cli.run(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert set(summary["suites"]) == {"bounds", "theorem5", "claim1", "constructions"}
    assert all(s["passed"] for s in summary["suites"].values())


def test_parser_subcommands_are_the_command_table():
    import argparse

    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._COMMANDS)


@pytest.mark.parametrize("suite", [*cli._SUITES, "all"])
def test_verify_runs_and_prints_the_chosen_suites(capsys, monkeypatch, suite):
    # --suite X runs and prints X alone; all runs every suite, in this order
    order = ["bounds", "theorem5", "claim1", "constructions"]
    assert list(cli._SUITES) == order
    ran = []
    for name in order:
        def stub(*args, name=name, **kwargs):
            ran.append(name)
            return suites.SuiteResult(name, True, 0.5, "stub")

        monkeypatch.setattr(suites, f"suite_{name}", stub)
    code = cli.run(["verify", "--suite", suite])
    lines = capsys.readouterr().out.strip().split("\n")
    want = order if suite == "all" else [suite]
    assert code == 0
    assert ran == want
    assert lines[:-1] == [f"PASS {name}: worst=0.5 stub" for name in want]
    assert list(json.loads(lines[-1])["suites"]) == sorted(want)


def test_verify_theorem5_worst_is_the_least_strong_margin(capsys, monkeypatch):
    # the weak margin is exactly 0 at r = 1, so folding it in pinned worst at 0
    monkeypatch.setattr(suites, "RMAX", 3000)
    rows = bounds.f_rows(5, 3000)
    least = min(bounds.theorem5_check(rows, d).min_margin for d in range(1, 6))
    assert least > 0
    assert suites.suite_theorem5().worst == least
    code = cli.run(["verify", "--suite", "theorem5"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert f" worst={least:.6g} " in lines[0]
    assert f"min margin {least:.6g} (weak d=6 margin 0)" in lines[0]
    assert json.loads(lines[-1])["suites"]["theorem5"]["worst"] == float(f"{least:.15g}")


def _f_rows_calls(capsys, monkeypatch, argv):
    """The (d, r) of every bounds.f_rows call one cli.run(argv) makes."""
    calls = []
    build = bounds.f_rows

    def recorded(d, r):
        calls.append((d, r))
        return build(d, r)

    monkeypatch.setattr(bounds, "f_rows", recorded)
    assert cli.run(argv.split()) == 0, argv
    capsys.readouterr()
    return calls


@pytest.mark.parametrize("argv, call", [
    ("f --d 3 --r 5", (3, 5)),
    ("f --d 3 --rmax 50 --csv", (3, 50)),
    ("bound --d 2 --n 4", (2, 4)),
    ("sdn-bound --d 3 --n 6", (3, 6)),
    ("shade exact --d 2 --n 3 --seed 7", (2, 3)),
    ("theorem5 --d 2 --rmax 500", (2, 500)),
])
def test_each_f_command_builds_one_table(capsys, monkeypatch, argv, call):
    # the f table keeps nothing between calls, so each command builds the
    # rows it reads once
    assert _f_rows_calls(capsys, monkeypatch, argv) == [call]


def test_theorem5_suite_builds_one_f_table(capsys, monkeypatch):
    # every sweep of the suite, and the weak check at d = 6, reads one table
    monkeypatch.setattr(suites, "RMAX", 3000)
    assert _f_rows_calls(capsys, monkeypatch, "verify --suite theorem5") == [(6, 3000)]


@pytest.mark.parametrize("argv", ["bound --d 1 --n 64", "shade exact --d 1 --n 7",
                                  "verify --suite bounds", "verify --suite claim1"])
def test_bounds_on_arrays_build_short_f_rows(capsys, monkeypatch, argv):
    # a bound or shade reference reads f(d, r) at r <= n <= 64 only, so its
    # table, built anew on each call, is short
    calls = _f_rows_calls(capsys, monkeypatch, argv)
    assert calls and max(r for _, r in calls) <= 64, calls


def test_verify_reports_failure(capsys, monkeypatch):
    broken = suites.SuiteResult("constructions", False, None, "forced failure")
    monkeypatch.setattr(suites, "suite_constructions", lambda **kw: broken)
    code = cli.run(["verify", "--suite", "constructions"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL constructions:")
    assert json.loads(out.strip().split("\n")[-1])["status"] == "error"


# each suite, fed a fault in what it checks, fails and names the fault

def test_bounds_suite_fails_on_a_count_above_its_bound(monkeypatch):
    monkeypatch.setattr(suites, "per_d", lambda a: 10**9)
    res = suites.suite_bounds()
    assert res.passed is False
    assert res.worst < -10


def test_theorem5_suite_fails_on_a_weak_bound_violation(monkeypatch):
    monkeypatch.setattr(bounds, "weak_min_margin", lambda rows, d: -1.0)
    monkeypatch.setattr(suites, "RMAX", 200)
    res = suites.suite_theorem5()
    assert res.passed is False
    assert "1 violations" in res.detail and "weak d=6 margin -1" in res.detail


def test_claim1_suite_fails_on_a_shifted_f(monkeypatch):
    build = bounds.f_rows  # every entry 1e-9 too high
    monkeypatch.setattr(bounds, "f_rows",
                        lambda d, r: [[f + 1e-9 for f in row] for row in build(d, r)])
    res = suites.suite_claim1()
    assert res.passed is False
    assert res.worst == pytest.approx(1e-9)


@pytest.mark.parametrize("fn, faults", [
    ("modular_perm", ["modular invalid at d=1 n=2"]),
    ("block_lift", ["invalid lift d=2 n=4", "collision", "invalid lift d=3 n=4"]),
])
def test_constructions_suite_fails_on_a_constant_tensor(monkeypatch, fn, faults):
    def constant(shape, *args):
        return PermTensor(shape, (0,) * shape.ncells)

    monkeypatch.setattr(constructions, fn, constant)
    res = suites.suite_constructions()
    assert res.passed is False
    for fault in faults:
        assert fault in res.detail, fault


def test_real_values_capped_at_15_digits(capsys):
    _, obj = run_json(capsys, ["f", "--d", "2", "--r", "7"])
    assert len(repr(obj["f"]).replace("-", "").replace(".", "").lstrip("0")) <= 15

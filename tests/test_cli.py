import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hdperm import bounds, cli, constructions, suites
from hdperm.bounds import f_float
from hdperm.core import PermTensor, Shape, line_repeats, parse_perm

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

# sha256 of enumerate's stdout, taken from the search before it replayed the
# last two slabs (the last three before it checked live sets); a change to
# the stream, its order or --limit fails here
ENUMERATE_SHA256 = {
    "--d 2 --n 4": "15bedba6764abbc71ea8407c7a708bf7aff6b3b14353a0e6b2eb15dfed1b7f98",
    "--d 3 --n 3": "4d7081e97bc0e5da6e6e7ca404879bc3af5e8d5073ea3592b04f3c32751a5d28",
    "--d 1 --n 6": "964ba7775488e75ee0eedcec69b25d5d3aebd3a91dbd53ac113e9dccd7e1a3f4",
    "--support PLANTED": "98fbe90b86579853cdd8fb448ab70db157eda3588648ca0b9bba5b4df6137826",
    "--d 3 --n 4 --limit 17": "0fabf9b491b1a5eeb9b54b8215b93fbe3c140138ae358d8bc04e006a84ca6ac9",
    "--d 2 --n 5 --limit 1001": "9d1e167f7a3ef4faf6870a136122359d72fd0db63fbb6d007a9602df25356cb2",
    "--d 2 --n 5": "1b808d7933333d7a95a8239525f05e602abd6d1d92a8b718159de3106b081040",
    "--d 2 --n 6 --limit 5000": "363d73b69c594cef01da3ccbd9077660b5aae07b80d77a8d1145c0f94b3a627a",
    "--support PLANTED5": "224f38ba18210413bfab87460d5a55bd1da04e51332e199a833ad25034f15d93",
}

# sha256 of shade's stdout, taken from the (n!)^d ordering walk before the
# closed-form histogram replaced it; PERM is the 3x3 square in PERM_D2N3
SHADE_SHA256 = {
    "exact --d 2 --n 3 --r 3 --seed 7": "c377f69656f1618c42e756d0e75b35c2518606b9807c2db9cff3b8857ca0597d",
    "hist --d 3 --n 3 --seed 1": "0a81db747397366dbbd5a26b93e1dd5c40579b0fbc7b68f34cc29318d199730b",
    "exact --d 1 --n 7 --r 4 --seed 2": "4d668a7ef60ab720238e5872bc25e18cb09b2f4c877cd289a9e03719864bce11",
    "hist --d 4 --n 3 --r 2 --seed 5": "49bf3a3dc7a93316ba306b53d1d5463ad2a70b1166ae30998f3f2475d2ef877e",
    "exact --perm PERM --r 2 --seed 1": "307315ae31493166f76d4924b339da79272a6f218f687b4331c0fc09a8c1068f",
    "mc --d 3 --n 4 --samples 2000 --seed 0": "5b42ad653474c849ad1fbde31890ad52ce69a0d5286b970f7ac50181bc11c102",
}
PERM_D2N3 = "2 3\n0 1 2\n1 2 0\n2 0 1\n"


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True,
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

        def counted(a, fills):
            built.append(a.shape)
            return live(a, fills)

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


def test_no_subcommand_imports_numpy():
    # f, the bounds and the sweeps run on the package's own integer table;
    # numpy is a test-only dependency
    script = textwrap.dedent(
        """
        import sys
        import hdperm.cli

        for argv in (
            ["f", "--d", "2", "--r", "5"],
            ["f", "--d", "3", "--rmax", "50", "--csv"],
            ["bound", "--d", "2", "--n", "4"],
            ["sdn-bound", "--d", "3", "--n", "6"],
            ["theorem5", "--d", "2", "--rmax", "500"],
            ["cd", "--d", "3"],
            ["shade", "exact", "--d", "2", "--n", "3", "--seed", "7"],
            ["shade", "mc", "--d", "2", "--n", "3", "--samples", "200", "--seed", "1"],
            ["verify", "--suite", "all", "--rmax", "2000"],
        ):
            assert hdperm.cli.run(argv) == 0, argv
            assert "numpy" not in sys.modules, argv
        """
    )
    proc = _fresh_python(script, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_csv_output_does_not_import_csv():
    script = textwrap.dedent(
        """
        import sys
        import hdperm.cli

        for argv in (
            ["f", "--d", "3", "--rmax", "50", "--csv"],
            ["cd", "--d", "5", "--csv"],
            ["theorem5", "--d", "2", "--rmax", "500", "--csv"],
        ):
            assert hdperm.cli.run(argv) == 0, argv
        assert "csv" not in sys.modules
        """
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("d,r,f_float\n3,1,0\n"), proc.stdout[:40]


def test_no_subcommand_imports_typing():
    # every record derives from core.Record, so no subcommand pays for
    # typing or for dataclasses and the inspect module it pulls in; -S keeps
    # site, which may load typing itself, out of the interpreter
    script = textwrap.dedent(
        """
        import sys
        import hdperm.cli

        for argv in (
            ["count", "--d", "2", "--n", "4"],
            ["enumerate", "--d", "2", "--n", "3", "--limit", "2"],
            ["bound", "--d", "2", "--n", "4"],
            ["f", "--d", "2", "--r", "5"],
            ["f", "--d", "3", "--rmax", "50", "--csv"],
            ["cd", "--d", "3"],
            ["theorem5", "--d", "2", "--rmax", "500"],
            ["sdn-bound", "--d", "3", "--n", "6"],
            ["construct", "block", "--d", "2", "--n", "4", "--bits", "random"],
            ["shade", "exact", "--d", "2", "--n", "3", "--seed", "7"],
            ["shade", "mc", "--d", "2", "--n", "3", "--samples", "200", "--seed", "1"],
            ["shade", "hist", "--d", "3", "--n", "3", "--seed", "1"],
            ["verify", "--suite", "all", "--rmax", "2000"],
        ):
            assert hdperm.cli.run(argv) == 0, argv
        heavy = ["typing", "dataclasses", "inspect"]
        loaded = [name for name in heavy if name in sys.modules]
        assert loaded == [], loaded
        """
    )
    proc = _fresh_python(script, timeout=120, flags=["-S"])
    assert proc.returncode == 0, proc.stderr


def test_enumerate_text(capsys):
    code, out = run_text(capsys, ["enumerate", "--d", "2", "--n", "3", "--limit", "3"])
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        p = parse_perm(block + "\n")
        assert not line_repeats(p.values, Shape(2, 3))


def test_enumerate_stream_is_pinned(capsys, tmp_path):
    paths = {}
    for name, n, masks in (("PLANTED", 6, PLANTED_D2N6), ("PLANTED5", 5, PLANTED_D2N5)):
        paths[name] = tmp_path / f"{name}.json"
        ones = [[i, j, v] for (i, j), mask in zip(Shape(2, n).cells(), masks)
                for v in range(n) if mask >> v & 1]
        paths[name].write_text(json.dumps({"d": 2, "n": n, "ones": ones}))
    for args, want in ENUMERATE_SHA256.items():
        argv = ["enumerate", *args.split()]
        argv = [str(paths.get(arg, arg)) for arg in argv]
        code, out = run_text(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, args


def test_bound_suites_do_not_import_shade_or_constructions():
    script = textwrap.dedent(
        """
        import sys
        import hdperm.cli

        for suite in ("theorem5", "bounds"):
            argv = ["verify", "--suite", suite, "--rmax", "500"]
            assert hdperm.cli.run(argv) == 0, argv
        unused = ["hdperm.shade", "hdperm.constructions"]
        loaded = [name for name in unused if name in sys.modules]
        assert loaded == [], loaded
        """
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr


def test_constructions_suite_does_not_import_bounds_or_shade():
    script = textwrap.dedent(
        """
        import sys
        import hdperm.cli

        assert hdperm.cli.run(["verify", "--suite", "constructions"]) == 0
        unused = ["hdperm.bounds", "hdperm.shade"]
        loaded = [name for name in unused if name in sys.modules]
        assert loaded == [], loaded
        """
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr


def test_enumerate_limit_stays_lazy():
    # the first tensors come after a few search nodes, so a small --limit
    # returns at start-up speed even where the full stream would never end;
    # a design that lists a slab's fillings first times out instead
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for d, n, limit in ((2, 12, 3), (3, 5, 1), (2, 6, 5000)):
        argv = ["enumerate", "--d", str(d), "--n", str(n), "--limit", str(limit)]
        proc = subprocess.run(
            [sys.executable, "-m", "hdperm.cli", *argv],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        blocks = proc.stdout.split("\n\n")
        assert len(blocks) == limit
        for block in blocks:
            assert parse_perm(block).shape == Shape(d, n)


def test_closed_stdout_ends_quietly():
    # a reader that stops after one line (head -1) closes the pipe while
    # output far larger than the pipe buffer is still being written
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (["enumerate", "--d", "2", "--n", "5"],
                 ["f", "--d", "2", "--rmax", "200000", "--csv"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "hdperm.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, argv
        assert err == "", argv


def test_process_writes_the_whole_stream():
    # the pins above run in process through cli.run; here main, the process
    # entry point, must hand the whole stream to the pipe before it exits
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def spawn(*argv):
        return subprocess.run([sys.executable, "-m", "hdperm.cli", *argv],
                              env=env, capture_output=True, timeout=120)

    proc = spawn("enumerate", "--d", "2", "--n", "5")
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == ENUMERATE_SHA256["--d 2 --n 5"]
    proc = spawn("count", "--d", "2")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "domain"
    proc = spawn("bogus")
    assert proc.returncode == 2
    assert proc.stdout == b""


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


@pytest.mark.parametrize("argv", [["f", "--d", "2", "--rmax", "0"],
                                  ["f", "--d", "2", "--rmax", "-5"],
                                  ["cd", "--d", "-1"]])
def test_f_and_cd_reject_alike_as_json_and_csv(capsys, argv):
    # the JSON table and the CSV rows check their arguments the same way
    errors = []
    for extra in ([], ["--csv"]):
        code, obj = run_json(capsys, argv + extra)
        assert code == 1
        assert obj["error"]["kind"] == "domain"
        errors.append(obj)
    assert errors[0] == errors[1]


@pytest.mark.parametrize("argv", [["f", "--d", "2", "--r", "10000000000000"],
                                  ["f", "--d", "1", "--rmax", "10000001", "--csv"],
                                  ["theorem5", "--d", "2", "--rmax", "10000001"],
                                  ["verify", "--suite", "theorem5", "--rmax", "10000001"]])
def test_f_table_refuses_rows_past_its_cap(capsys, monkeypatch, argv):
    # an r or r_max above 10^7 is a domain error naming the cap, raised
    # before any of the table is built
    def refused(d, rmax):
        raise AssertionError(f"f table built to r={rmax}")

    monkeypatch.setattr(bounds, "_f_row", refused)
    code, obj = run_json(capsys, argv)
    assert code == 1
    assert obj["error"]["kind"] == "domain"
    assert "r must be at most 10000000, the f table's cap" in obj["error"]["message"]


@pytest.mark.parametrize("argv, message", [
    (["f", "--d", "1000000", "--r", "2"], "d must be at most 10000, the f table's cap"),
    (["bound", "--d", "1000000", "--n", "1"], "d must be at most 10000, the f table's cap"),
    (["sdn-bound", "--d", "1000000", "--n", "2"], "d must be at most 10000, the f table's cap"),
    # the shade query itself takes time linear in d, so this one sits just past the cap
    (["shade", "exact", "--d", "10001", "--n", "1"], "d must be at most 10000, the f table's cap"),
    (["theorem5", "--d", "15", "--rmax", "10000000"],
     "(d + 1) * r must be at most 100000000, the f table's cap"),
    (["verify", "--suite", "theorem5", "--d", "15", "--rmax", "10000000"],
     "(d + 1) * r must be at most 100000000, the f table's cap"),
], ids=["f", "bound", "sdn-bound", "shade", "theorem5", "verify"])
def test_f_table_refuses_too_many_rows_or_entries(capsys, monkeypatch, argv, message):
    # a table of more than 10^4 + 1 rows or 10^8 entries is a domain error
    # naming the cap, raised before any row of it is built
    def refused(*args):
        raise AssertionError("an f table row was built")

    monkeypatch.setattr(bounds, "_rows", [])
    monkeypatch.setattr(bounds, "_rmax", 0)
    monkeypatch.setattr(bounds, "array", refused)
    code, obj = run_json(capsys, argv)
    assert code == 1
    assert obj["error"]["kind"] == "domain"
    assert message in obj["error"]["message"]


# sha256 of the CSV tables, taken while the bounds module formatted their reals
CSV_SHA256 = {
    "f --d 3 --rmax 50 --csv": "ac853f399041d637bb356a3d0ed8d27d4f765ed06f10d002dfa7d63002e2aba1",
    "cd --d 6 --csv": "e17d926ad2ce997d5e85018e013206aa18643667b6af58bcd467d2a53cc2d19e",
    "theorem5 --d 2 --rmax 1000 --csv": "a929d7be298a93f016511223a92091ad659ced32a511cf6ec0bcd36c61792470",
}


def test_csv_stdout_is_pinned(capsys):
    for args, want in CSV_SHA256.items():
        code, out = run_text(capsys, args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, args


# sha256 of the JSON reports, taken while the bounds module named the fields
# of the f, theorem5 and cd tables
JSON_SHA256 = {
    "f --d 3 --rmax 50": "4538c888a35f3984996c0122b41ee654059eb2b073bda550a33b55b95d6e12f5",
    "theorem5 --d 2 --rmax 1000": "4cfbc8b63e96caf63e3816fa7d410a31e6f56417ed05c597f1750e72419b5414",
    "cd --d 4": "0e000f0e46208cc540b21fb26b42b6444cc94780907cffe464cc059119174bc9",
    "cd --d 0": "06056252ad8289cd4889ea0128ccdc85d8429a5a1f9de85d9e8c4ceb8e9847ed",
    "sdn-bound --d 3 --n 6": "552166f5fdd03ceceb95757824db9efc11b60ec939d7fd5d66df57fb5fce0df5",
}


def test_json_stdout_is_pinned(capsys):
    for args, want in JSON_SHA256.items():
        code, out = run_text(capsys, args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, args


@pytest.mark.parametrize("args", ["cd --d 173",
                                  "cd --d 173 --csv",
                                  "cd --d 20000",
                                  "theorem5 --d 710 --rmax 10",
                                  "verify --suite theorem5 --d 710 --rmax 10",
                                  "sdn-bound --d 1100 --n 2"])
def test_float_overflow_is_domain_error(capsys, monkeypatch, args):
    # a result past the largest double is a JSON domain error, not a traceback;
    # the deep f table sdn-bound builds is dropped afterwards
    monkeypatch.setattr(bounds, "_rows", [])
    monkeypatch.setattr(bounds, "_rmax", 0)
    code, obj = run_json(capsys, args.split())
    assert code == 1
    assert obj["status"] == "error"
    assert obj["error"] == {"kind": "domain", "message": "result too large for a float"}


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
    path.write_text(PERM_D2N3)
    code, obj = run_json(
        capsys, ["shade", "exact", "--perm", str(path), "--r", "2", "--seed", "1"]
    )
    assert code == 0
    assert obj["query"]["perm"] == PERM_D2N3


def test_shade_stdout_is_pinned(capsys, tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text(PERM_D2N3)
    for args, want in SHADE_SHA256.items():
        argv = ["shade", *(str(path) if a == "PERM" else a for a in args.split())]
        code, out = run_text(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, args


def test_missing_file_is_io_error(capsys):
    code, obj = run_json(capsys, ["count", "--support", "/no/such/file.json"])
    assert code == 1
    assert obj["error"]["kind"] == "io"


def test_bad_support_is_format_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 1}')
    code, obj = run_json(capsys, ["count", "--support", str(path)])
    assert code == 1
    assert obj["error"]["kind"] == "format"


def test_missing_shape_is_domain_error(capsys):
    code, obj = run_json(capsys, ["count"])
    assert code == 1
    assert obj["error"]["kind"] == "domain"


def test_missing_inputs_are_domain_errors(capsys):
    cases = [
        (["f", "--d", "2"], "need --r for a single value or --rmax for a table"),
        (["shade", "exact", "--d", "2"], "need --perm FILE or both --d and --n"),
    ]
    for argv, message in cases:
        code, obj = run_json(capsys, argv)
        assert code == 1, argv
        assert obj["error"] == {"kind": "domain", "message": message}, argv


def test_bad_shape_is_shape_error(capsys):
    code, obj = run_json(capsys, ["count", "--d", "0", "--n", "3"])
    assert code == 1
    assert obj["error"]["kind"] == "shape"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-subcommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["f", "--d", "not-a-number", "--r", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--samples", "5"])
    assert exc.value.code == 2


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
        ["verify", "--suite", "claim1", "--d", "2", "--n", "3", "--rmax", "2000", "--seed", "4"],
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


def test_json_is_key_sorted_and_repeatable(capsys):
    _, a = run_text(capsys, ["cd", "--d", "4"])
    _, b = run_text(capsys, ["cd", "--d", "4"])
    assert a == b
    keys = list(json.loads(a).keys())
    assert keys == sorted(keys)


def test_verify_single_suite(capsys):
    code = cli.run(["verify", "--suite", "claim1", "--d", "2", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("PASS claim1:")
    summary = json.loads(lines[-1])
    assert summary["status"] == "ok"
    assert summary["suites"]["claim1"]["passed"] is True


def test_verify_all_suites(capsys):
    code = cli.run(["verify", "--rmax", "3000"])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert set(summary["suites"]) == {"bounds", "theorem5", "claim1", "constructions"}
    assert all(s["passed"] for s in summary["suites"].values())


def test_verify_theorem5_worst_is_the_least_strong_margin(capsys):
    # the weak margin is exactly 0 at r = 1, so folding it in pinned worst at 0
    least = min(bounds.theorem5_check(d, 3000).min_margin for d in range(1, 6))
    assert least > 0
    assert suites.suite_theorem5(rmax=3000).worst == least
    code = cli.run(["verify", "--suite", "theorem5", "--rmax", "3000"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    assert f" worst={least:.6g} " in lines[0]
    assert f"min margin {least:.6g} (weak d=6 margin 0)" in lines[0]
    assert json.loads(lines[-1])["suites"]["theorem5"]["worst"] == float(f"{least:.15g}")


@pytest.mark.parametrize("ds, depth", [(None, 6), ([3], 6), ([7], 7)])
def test_theorem5_suite_builds_the_f_table_once(monkeypatch, ds, depth):
    # every sweep of the suite reads one table, built first to depth
    # max(6, d): no later sweep replaces it
    monkeypatch.setattr(bounds, "_rows", [])
    monkeypatch.setattr(bounds, "_rmax", 0)
    tables = []
    for name in ("theorem5_check", "weak_min_margin"):
        def recorded(d, rmax, sweep=getattr(bounds, name)):
            result = sweep(d, rmax)
            if not any(table is bounds._rows for table in tables):
                tables.append(bounds._rows)
            return result

        monkeypatch.setattr(bounds, name, recorded)
    assert suites.suite_theorem5(rmax=3000, ds=ds).passed
    assert len(tables) == 1
    assert len(tables[0]) == depth + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "theorem5", "--d", "0", "--rmax", "200"],
        ["verify", "--suite", "claim1", "--d", "2"],
        ["verify", "--suite", "claim1", "--n", "3"],
        ["verify", "--d", "2"],
    ],
)
def test_verify_rejects_bad_or_half_shape(capsys, argv):
    code, obj = run_json(capsys, argv)
    assert code == 1
    assert obj["status"] == "error"
    assert obj["error"]["kind"] == "domain"


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
    monkeypatch.setattr(bounds, "weak_min_margin", lambda d, rmax: -1.0)
    res = suites.suite_theorem5(rmax=200)
    assert res.passed is False
    assert "1 violations" in res.detail and "weak d=6 margin -1" in res.detail


def test_claim1_suite_fails_on_a_shifted_f(monkeypatch):
    monkeypatch.setattr(bounds, "f_float", lambda d, r: f_float(d, r) + 1e-9)
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

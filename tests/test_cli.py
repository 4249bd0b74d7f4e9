import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hdperm import cli, suites
from hdperm.bounds import f_float
from hdperm.core import Shape, parse_perm, validate_perm

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
    monkeypatch.setenv("HDPERM_THREADS", "3")
    code, obj = run_json(capsys, ["count", "--d", "2", "--n", "4"])
    assert code == 0
    assert obj["params"]["threads"] == 3
    assert obj["count"] == "576"
    for bad in ("junk", "0"):
        monkeypatch.setenv("HDPERM_THREADS", bad)
        code, obj = run_json(capsys, ["count", "--d", "2", "--n", "3"])
        assert code == 1
        assert obj["status"] == "error"
        assert obj["error"]["kind"] == "domain"
    # the flag obeys the same rule as the variable, and takes precedence
    for bad in ("0", "-3"):
        code, obj = run_json(capsys, ["count", "--d", "2", "--n", "3", "--threads", bad])
        assert code == 1
        assert obj["error"]["kind"] == "domain"
    code, obj = run_json(capsys, ["count", "--d", "2", "--n", "3", "--threads", "2"])
    assert code == 0
    assert obj["params"]["threads"] == 2


def test_counting_subcommands_do_not_import_numpy():
    # count and enumerate start with the parser, core and counting alone,
    # and only enumerate's search of a d >= 2 support that is not a full
    # square loads hdperm.live;
    # construct and cd load their own modules, and no subcommand loads numpy
    script = textwrap.dedent(
        """
        import sys
        import hdperm.cli

        def loaded(names):
            return sorted(name for name in names if name in sys.modules)

        for argv in (
            ["count", "--d", "2", "--n", "5"],
            ["enumerate", "--d", "1", "--n", "5", "--limit", "2"],
            ["enumerate", "--d", "2", "--n", "5", "--limit", "2"],
        ):
            assert hdperm.cli.run(argv) == 0, argv
        assert loaded(["hdperm.live"]) == []
        for argv in (
            ["count", "--d", "2", "--n", "3"],
            ["enumerate", "--d", "2", "--n", "3", "--limit", "2"],
        ):
            assert hdperm.cli.run(argv) == 0, argv
        unused = ["dataclasses", "inspect", "fractions", "decimal", "csv",
                  "hdperm.bounds", "hdperm.shade", "hdperm.constructions",
                  "hdperm.suites"]
        assert loaded(unused) == [], loaded(unused)
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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    f_line = json.loads(proc.stdout.splitlines()[-1])
    assert f_line["f"] == pytest.approx(f_float(2, 5), abs=1e-12)


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_enumerate_text(capsys):
    code, out = run_text(capsys, ["enumerate", "--d", "2", "--n", "3", "--limit", "3"])
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        p = parse_perm(block + "\n")
        assert validate_perm(p.values, Shape(2, 3)).valid


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
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
    assert validate_perm(parse_perm(out).values, Shape(2, 4)).valid

    code, out = run_text(capsys, ["construct", "block", "--d", "2", "--n", "4"])
    assert code == 0  # defaults to all-zero bits

    code, obj = run_json(
        capsys, ["construct", "block", "--d", "2", "--n", "4", "--bits", "01"]
    )
    assert code == 1
    assert obj["status"] == "error"


def test_construct_block_random_seeded(capsys):
    argv = ["construct", "block", "--d", "2", "--n", "4", "--bits", "random", "--seed", "9"]
    _, a = run_text(capsys, argv)
    _, b = run_text(capsys, argv)
    assert a == b
    assert validate_perm(parse_perm(a).values, Shape(2, 4)).valid


def test_shade_exact(capsys):
    code, obj = run_json(capsys, ["shade", "exact", "--d", "2", "--n", "3", "--r", "2"])
    assert code == 0
    assert obj["pass"] is True
    assert obj["exact"] is True
    assert obj["mean"] == pytest.approx(f_float(2, 2), abs=1e-12)
    assert obj["samples"] == 36
    assert len(obj["query"]["w"]) == 2


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
    path.write_text("2 3\n0 1 2\n1 2 0\n2 0 1\n")
    code, obj = run_json(
        capsys, ["shade", "exact", "--perm", str(path), "--r", "2", "--seed", "1"]
    )
    assert code == 0
    assert obj["query"]["perm"] == "2 3\n0 1 2\n1 2 0\n2 0 1\n"


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


def test_real_values_capped_at_15_digits(capsys):
    _, obj = run_json(capsys, ["f", "--d", "2", "--r", "7"])
    assert len(repr(obj["f"]).replace("-", "").replace(".", "").lstrip("0")) <= 15

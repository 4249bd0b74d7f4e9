import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hdperm import cli
from hdperm.bounds import f_float
from hdperm.core import Shape, parse_perm, validate_perm


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
    assert obj["algorithm"] == "slab"
    assert obj["states"] == [24, 90, 24]


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
    # numpy serves only the f table and the bound sweeps; a fresh process
    # that counts, enumerates or constructs must not pay for importing it
    script = textwrap.dedent(
        """
        import sys
        import hdperm.cli
        for argv in (
            ["count", "--d", "2", "--n", "3"],
            ["enumerate", "--d", "2", "--n", "3", "--limit", "2"],
            ["construct", "modular", "--d", "2", "--n", "3"],
            ["cd", "--d", "3"],
        ):
            assert hdperm.cli.run(argv) == 0, argv
        assert "numpy" not in sys.modules, "numpy imported"
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


def test_enumerate_text(capsys):
    code, out = run_text(capsys, ["enumerate", "--d", "2", "--n", "3", "--limit", "3"])
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        p = parse_perm(block + "\n")
        assert validate_perm(p.values, Shape(2, 3)).valid


def test_enumerate_limit_stays_lazy():
    # the first tensors come after a few search nodes, so a small --limit
    # returns at start-up speed even where the full stream would never end;
    # a design that lists a slab's fillings first times out instead
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for d, n, limit in ((2, 12, 3), (3, 5, 1)):
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


def test_verify_reports_failure(capsys, monkeypatch):
    broken = cli.SuiteResult("constructions", False, None, "forced failure")
    monkeypatch.setattr(cli, "suite_constructions", lambda **kw: broken)
    code = cli.run(["verify", "--suite", "constructions"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL constructions:")
    assert json.loads(out.strip().split("\n")[-1])["status"] == "error"


def test_real_values_capped_at_15_digits(capsys):
    _, obj = run_json(capsys, ["f", "--d", "2", "--r", "7"])
    assert len(repr(obj["f"]).replace("-", "").replace(".", "").lstrip("0")) <= 15

"""Self-tests of the benchmark's generator, checker and span arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    for seed in (0, 7):
        for pass_index in (0, 1):
            a = gen.make_pass(workload, seed, pass_index)
            b = gen.make_pass(workload, seed, pass_index)
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert gen.make_pass(workload, 0, 0) != gen.make_pass(workload, 1, 0)


def test_planted_supports_hold_their_permutations():
    rng = gen._rng("test", 0, 0)
    for d, n, r in [(2, 6, 4), (3, 4, 3), (1, 5, 2)]:
        state = rng.getstate()
        perms = [gen.random_perm(d, n, rng) for _ in range(2)]
        rng.setstate(state)
        masks = gen.planted_masks(d, n, r, rng)
        assert all(m.bit_count() == r for m in masks)
        for perm in perms:
            assert all((m >> v) & 1 for m, v in zip(masks, perm))
            check.check_tensors(check.np.array([perm]), d, n, masks)


def _job(kind, expect, argv=()):
    return {"id": "t", "kind": kind, "expect": expect, "argv": list(argv)}


def _json_bytes(obj):
    return (json.dumps(obj) + "\n").encode()


def test_checker_rejects_a_wrong_count():
    checker = check.Checker()
    job = _job("count", {"d": 2, "n": 4, "count": 576})
    out = {"subcommand": "count", "status": "ok", "params": {"d": 2, "n": 4}, "count": "576"}
    assert checker.check(job, 0, _json_bytes(out)) is None
    out["count"] = "575"
    assert checker.check(job, 0, _json_bytes(out)) is not None
    assert checker.check(job, 1, b"") is not None


def test_checker_rejects_counts_that_differ_across_threads():
    checker = check.Checker()
    masks = gen.planted_masks(2, 3, 2, gen._rng("test", 1, 0))
    count = check.small_count(2, 3, masks)
    jobs = [_job("count", {"d": 2, "n": 3, "masks": masks}) for _ in range(2)]
    out = {"status": "ok", "params": {"d": 2, "n": 3}, "count": str(count)}
    results = [(0, _json_bytes(out)), (0, _json_bytes(dict(out, count=str(count + 1))))]
    reasons = checker.check_all(jobs, results)
    assert reasons[0] is None and reasons[1] is not None


def test_checker_rejects_a_shade_mean_off_by_1e9():
    checker = check.Checker()
    f = check.F(2, 3)
    job = _job("shade", {"d": 2, "n": 3, "r": 3, "mode": "exact", "samples": None})
    out = {"status": "ok", "params": {"d": 2, "n": 3, "r": 3}, "mode": "exact",
           "samples": 36, "mean": f, "f_reference": f}
    assert checker.check(job, 0, _json_bytes(out)) is None
    out["mean"] = f + 1e-9
    assert "mean" in checker.check(job, 0, _json_bytes(out))


def _latin_squares(n):
    rows = list(permutations(range(n)))
    out = []
    for square in product(rows, repeat=n):
        if all(len({row[j] for row in square}) == n for j in range(n)):
            out.append([v for row in square for v in row])
    return sorted(out)


def _tensor_text(values, d, n):
    return "\n".join(gen.perm_text(d, n, v) for v in values).encode()


def test_checker_rejects_a_duplicated_tensor():
    checker = check.Checker()
    squares = _latin_squares(3)
    job = _job("enumerate", {"d": 2, "n": 3, "count": 12})
    assert checker.check(job, 0, _tensor_text(squares, 2, 3)) is None
    duplicated = squares[:5] + [squares[4]] + squares[6:]
    assert "repeats" in checker.check(job, 0, _tensor_text(duplicated, 2, 3))
    swapped = squares[:4] + [squares[5], squares[4]] + squares[6:]
    assert "sorted" in checker.check(job, 0, _tensor_text(swapped, 2, 3))


def test_f_table_matches_definition():
    # f(1, r) = log(r!) / r
    for r in range(1, 30):
        assert abs(check.F(1, r) - math.lgamma(r + 1) / r) < 1e-12


def _span(name, start, end, parent):
    s = spans.Span(name, start, parent, "job")
    s.end = end
    return s


def test_self_times_add_up_to_the_root():
    # root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has a child [6, 7]
    # and 0.5 s of aggregated leaf calls
    trace = [_span("root", 0.0, 10.0, None), _span("a", 1.0, 4.0, 0),
             _span("b", 5.0, 9.0, 0), _span("c", 6.0, 7.0, 2)]
    leaf = spans.Span("leaf", 7.5, 2, "job")
    leaf.busy, leaf.end = 0.5, 8.5
    trace[2].leaf_s = 0.5
    trace.append(leaf)
    selfs = spans.self_times(trace)
    assert selfs == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])
    assert sum(selfs) == pytest.approx(trace[0].duration)


def test_overlapping_children_count_once():
    trace = [_span("root", 0.0, 10.0, None), _span("t1", 1.0, 6.0, 0), _span("t2", 2.0, 8.0, 0)]
    assert spans.self_times(trace)[0] == pytest.approx(3.0)


def test_tracer_nests_spans_and_summarizes():
    tracer = spans.Tracer()
    with tracer.job("j1"):
        with tracer.span("inner"):
            tracer.leaf("hot", 1.0, 1.5)
            tracer.leaf("hot", 2.0, 2.25)
    summary = spans.summarize(tracer.spans)
    assert tracer.spans[1].parent == 0 and tracer.spans[1].job == "j1"
    assert summary["hot"]["calls"] == 2
    assert summary["hot"]["busy_s"] == pytest.approx(0.75)
    assert tracer.spans[1].leaf_s == pytest.approx(0.75)
    assert summary["cli.run"]["calls"] == 1

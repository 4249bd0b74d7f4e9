"""Acceptance gate: one test per shipped claim, each printing its own
PASS/FAIL line (run with -v for per-criterion status, -s to see the lines).

Tolerances are part of the claims: 1e-12 for identities that must hold to
rounding error, 1e-9 for inequality slack, 1e-3 for quoted decimals, and
sampling claims use their own standard error. Wall-clock limits are asserted
where the claim includes one.
"""

import json
import math
import random
import time

import pytest

from hdperm import cli

from hdperm.bounds import (
    bregman_d1_reference,
    bregman_log_bound,
    c_cap,
    c_constant,
    f_float,
    f_rows,
    sdn_log_upper_bound,
    theorem5_check,
)
from hdperm.constructions import block_count, block_lift, random_bits
from hdperm.core import Shape, SupportArray, all_ones_support, line_repeats
from hdperm.counting import per_d
from hdperm.shade import mc_expectation_logN, random_query, shade_histogram

from oracles import count_rows_d2, permanent_minors, support_from_matrix


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_support(rng, d, n):
    density = rng.uniform(0.3, 0.9)
    masks = []
    for _ in range(n**d):
        m = 0
        for v in range(n):
            if rng.random() < density:
                m |= 1 << v
        masks.append(m)
    return SupportArray(Shape(d, n), tuple(masks))


def cli_count(capsys, d, n):
    assert cli.run(["count", "--d", str(d), "--n", str(n)]) == 0
    return int(json.loads(capsys.readouterr().out)["count"])


def test_criterion_01_exact_counts_match_oracle(capsys):
    t0 = time.monotonic()
    oracle_s = 0.0
    for k in range(1, 9):
        assert cli_count(capsys, 1, k) == math.factorial(k), k
    latin = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
    for n, want in latin.items():
        assert cli_count(capsys, 2, n) == want, n
        t_oracle = time.monotonic()
        assert count_rows_d2(all_ones_support(Shape(2, n))) == want, n
        oracle_s += time.monotonic() - t_oracle
    assert per_d(all_ones_support(Shape(3, 3))) == 24
    assert per_d(all_ones_support(Shape(3, 4))) == 55296
    for d in (1, 2, 3, 4):
        assert per_d(all_ones_support(Shape(d, 2))) == 2, d
    elapsed = time.monotonic() - t0
    report(
        "criterion 01 exact counts",
        elapsed < 30,
        f"count --d 1 --n k = k! for k<=8; d=2 n=1..5 = (1,2,12,576,161280) "
        f"vs row oracle; (3,3)=24 (3,4)=55296; {elapsed:.1f}s < 30s "
        f"(oracle {oracle_s:.1f}s, package {elapsed - oracle_s:.1f}s)",
    )


def test_criterion_02_d1_bound_and_reference_identity():
    rng = random.Random(20260817)
    worst_slack = float("inf")
    worst_delta = 0.0
    for _ in range(100):
        n = rng.randint(1, 7)
        matrix = [
            [int(rng.random() < 0.65) for _ in range(n)] for _ in range(n)
        ]
        for row in matrix:  # reference needs nonempty rows
            if not any(row):
                row[rng.randrange(n)] = 1
        a = support_from_matrix(matrix)
        count = per_d(a)
        assert count == permanent_minors(matrix)
        ref = bregman_d1_reference(a.r_values())
        delta = abs(bregman_log_bound(a) - ref)
        worst_delta = max(worst_delta, delta)
        if count > 0:
            worst_slack = min(worst_slack, ref - math.log(count))
    ok = worst_slack >= -1e-9 and worst_delta <= 1e-12
    report(
        "criterion 02 d=1 factorial bound",
        ok,
        f"100 random matrices n<=7: min slack {worst_slack:.3g} >= -1e-9, "
        f"max identity delta {worst_delta:.3g} <= 1e-12",
    )


def test_criterion_03_d2_bound_dominates_count():
    rng = random.Random(7)
    worst = float("inf")
    checked = 0
    while checked < 100:
        a = random_support(rng, 2, rng.randint(2, 4))
        count = per_d(a)
        if count == 0:
            continue  # log 0 is below any bound; not informative
        worst = min(worst, bregman_log_bound(a) - math.log(count))
        checked += 1
    report(
        "criterion 03 d=2 bound vs count",
        worst >= -1e-9,
        f"{checked} random supports n<=4: min(log bound - log count) "
        f"= {worst:.3g} >= -1e-9",
    )


def test_criterion_04_exact_log_expectation_equals_f():
    t0 = time.monotonic()
    worst = 0.0
    queries = 0
    for d, n in [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 3)]:
        shape = Shape(d, n)
        for r in range(1, n + 1):
            for i in range(10):
                q = random_query(shape, r=r, seed=10000 * d + 100 * n + 10 * r + i)
                worst = max(worst, abs(shade_histogram(q).log_mean() - f_float(d, r)))
                queries += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10
    report(
        "criterion 04 exact shade expectation",
        ok,
        f"{queries} queries: max |E[log N] - f(d,|W|)| = {worst:.3g} <= 1e-12; "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_05_monte_carlo_estimate():
    q = random_query(Shape(3, 4), r=4, seed=0)
    want = f_float(3, 4)
    mean, stderr = mc_expectation_logN(q, 100000, seed=0)
    again = mc_expectation_logN(q, 100000, seed=0)
    ok = abs(mean - want) <= 3 * stderr and (mean, stderr) == again
    report(
        "criterion 05 monte carlo shade",
        ok,
        f"1e5 samples: |{mean:.6f} - {want:.6f}| = {abs(mean - want):.2g} "
        f"<= 3*{stderr:.2g}; reruns identical",
    )


def test_criterion_06_constants():
    checks = [
        c_constant(0).c_d == 0.0,
        abs(c_constant(1).c_d - (2 + math.e)) <= 1e-12,
        c_constant(1).c_d <= 5,
        abs(c_constant(2).c_d - 7.921548404866289) <= 1e-12,
        c_constant(2).c_d <= 8,
        abs(c_constant(3).xi - 2 * math.e**2) <= 1e-12,
        abs(c_constant(3).gamma - (2 / math.e) ** 2) <= 1e-12,
        abs(c_constant(3).r_d - math.e**3) <= 1e-12,
    ]
    cap_ok = all(c_constant(d).c_d <= c_cap(d) + 1e-9 for d in range(3, 31))
    ok = all(checks) and cap_ok
    report(
        "criterion 06 constants",
        ok,
        f"c_0=0, c_1=2+e <= 5, c_2={c_constant(2).c_d:.15f} <= 8, xi/gamma/r_d "
        f"closed forms, cap d^3 1.1^d/d! holds for 3 <= d <= 30 at 1e-9",
    )


def test_criterion_07_asymptotic_bound_sweep():
    t0 = time.monotonic()
    r_max = 100000
    rows = f_rows(6, r_max)
    reports = [theorem5_check(rows, d) for d in range(1, 6)]
    strong_viol = sum(r.violations for r in reports)
    weak_viol = sum(r.weak_violations for r in reports)
    # the weak bound f <= log r is also claimed one dimension further out
    rep6 = theorem5_check(rows, 6)
    weak_viol += rep6.weak_violations
    elapsed = time.monotonic() - t0
    ok = strong_viol == 0 and weak_viol == 0 and elapsed < 60
    min_margin = min(r.min_margin for r in reports)
    report(
        "criterion 07 asymptotic bound sweep",
        ok,
        f"d=1..5, r in [ceil(e^d), 1e5]: {strong_viol} violations "
        f"(min margin {min_margin:.2e}); weak bound d<=6: {weak_viol} "
        f"violations; {elapsed:.1f}s < 60s",
    )


def test_criterion_08_quoted_bounds_vs_exact():
    # d=2 n=3: bound 9 f(2,3) = 2.8315, exact log 12 = 2.4849
    b3 = sdn_log_upper_bound(Shape(2, 3)).log_bound
    e3 = math.log(12)
    # d=2 n=5: bound 25 f(2,5) = 13.479193, exact log 161280 = 11.991
    b5 = sdn_log_upper_bound(Shape(2, 5)).log_bound
    e5 = math.log(161280)
    ok = (
        abs(b3 - 2.8315) <= 1e-3
        and abs(e3 - 2.4849) <= 1e-3
        and abs(b5 - 13.479193) <= 1e-3
        and abs(e5 - 11.991) <= 1e-3
        and e3 < b3
        and e5 < b5
    )
    report(
        "criterion 08 quoted decimals",
        ok,
        f"n=3: log 12 = {e3:.4f} < bound {b3:.4f}; "
        f"n=5: log 161280 = {e5:.4f} < bound {b5:.6f}; quoted values within 1e-3",
    )


def test_criterion_09_block_constructions():
    shape24 = Shape(2, 4)
    lifts = set()
    for i in range(16):
        bits = tuple((i >> k) & 1 for k in range(4))
        p = block_lift(shape24, bits)
        assert not line_repeats(p.values, shape24), bits
        lifts.add(p.values)
    shape34 = Shape(3, 4)
    rng = random.Random(99)
    for _ in range(100):
        p = block_lift(shape34, random_bits(shape34, seed=rng.random()))
        assert not line_repeats(p.values, shape34)
    from itertools import product as iproduct

    fillings = sum(
        not line_repeats(v, Shape(2, 2)) for v in iproduct((0, 1), repeat=4)
    )
    ok = len(lifts) == 16 and block_count(shape24) == 16 and fillings == 2
    report(
        "criterion 09 block constructions",
        ok,
        f"16/16 d=2 n=4 lifts valid and distinct, block_count = "
        f"{block_count(shape24)}, 100 random d=3 n=4 lifts valid, "
        f"{fillings} fillings per 2x2 block",
    )


def test_criterion_10_ratio_trend():
    rs = [100, 1000, 10000, 100000]
    ratios = [f_float(2, r) / (math.log(r) - 2) for r in rs]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    final = ratios[-1]
    ok = decreasing and 1 < final < 1.5
    report(
        "criterion 10 ratio trend",
        ok,
        f"f(2,r)/(log r - 2) at r=1e2..1e5: "
        f"{', '.join(f'{x:.4f}' for x in ratios)} strictly decreasing, "
        f"final in (1, 1.5)",
    )

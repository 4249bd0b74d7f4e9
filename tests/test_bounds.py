import math
import random
import sys
import tracemalloc
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from hdperm import bounds
from hdperm.bounds import (
    BoundConstants,
    bregman_d1_reference,
    bregman_log_bound,
    c_cap,
    c_constant,
    f_float,
    f_rows,
    f_values,
    sdn_log_upper_bound,
    theorem5_check,
    theorem5_start,
    weak_min_margin,
)
from hdperm.constructions import block_lift
from hdperm.core import Shape, SupportArray, all_ones_support
from hdperm.counting import per_d

from oracles import (
    EXACT_R_LIMIT,
    f_exact,
    f_rows_one_shot,
    f_table_longdouble,
    support_from_matrix,
    theorem5_sweep_numpy,
    theorem5_sweep_stream,
)


def test_f_base_row_is_log():
    for r in (1, 2, 7, 100):
        assert f_float(0, r) == pytest.approx(math.log(r), abs=1e-15)


def test_f_hand_values():
    assert f_float(1, 1) == 0.0
    assert f_float(1, 2) == pytest.approx(math.log(2) / 2, abs=1e-15)
    assert f_float(2, 2) == pytest.approx(math.log(2) / 4, abs=1e-15)
    assert f_float(2, 3) == pytest.approx(math.log(2) / 6 + math.log(6) / 9, abs=1e-15)
    # frozen from the exact rational evaluation
    assert f_float(3, 4) == pytest.approx(0.23062019044304302, abs=1e-14)


def test_f_is_averaged_prefix():
    rng = random.Random(1)
    for _ in range(30):
        d = rng.randint(1, 5)
        r = rng.randint(1, 300)
        want = math.fsum(f_values(d - 1, r)) / r
        assert f_float(d, r) == pytest.approx(want, abs=1e-12)


def test_f_d1_is_log_factorial_over_r():
    row = f_values(1, 10000)
    worst = max(abs(f - math.lgamma(r + 1) / r) for r, f in enumerate(row, 1))
    assert worst <= 1e-12


def test_f_monotone_in_r_and_d():
    for d in range(7):
        vals = np.asarray(f_values(d, 2000))
        assert (np.diff(vals) > 0).all() or d == 0  # strictly increasing, r >= 1
        if d:
            assert (vals <= np.asarray(f_values(d - 1, 2000)) + 1e-15).all()


def test_f_weak_upper_bound():
    rows = f_rows(6, 2000)
    for d in range(7):
        vals = np.asarray(f_values(d, 2000))
        assert (vals <= np.log(np.arange(1, 2001))).all()
        # the margin log r - f(d,r) is 0 at r = 1 and positive beyond
        assert weak_min_margin(rows, d) == 0.0
    # unlike theorem5_check, the weak sweep takes r_max below e^d
    assert weak_min_margin(f_rows(6, 5), 6) == 0.0
    with pytest.raises(ValueError, match="d must be at most 5, the table's depth, got 6"):
        weak_min_margin(f_rows(5, 5), 6)


def test_f_table_is_sized_to_the_request():
    # the table built for f(5000, 2) holds 5001 rows of two entries each;
    # rows padded to hundreds of entries would take over 20 MB here
    tracemalloc.start()
    try:
        f_float(5000, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_chunked_f_table_matches_one_shot_build():
    # every row equals a build over its whole length in one pass, at lengths
    # on either side of a chunk boundary
    chunk = bounds._CHUNK
    for size in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        want = f_rows_one_shot(6, size)
        for d in range(7):
            assert [list(row) for row in f_rows(d, size)] == want[: d + 1], (d, size)


def test_f_table_build_peaks_near_the_finished_table():
    # the build holds a chunk or two of integers beside the table it fills;
    # building each row over its whole length at once peaks near 2.5 times
    # the finished table here
    tracemalloc.start()
    try:
        rows = f_rows(6, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = sys.getsizeof(rows[0]) + sum(map(sys.getsizeof, rows[0]))
    table += sum(map(sys.getsizeof, rows[1:]))
    assert peak < 1.3 * table, (peak, table)


def test_f_values_matches_scalar():
    vals = f_values(3, 50)
    for r in (1, 2, 17, 50):
        assert vals[r - 1] == f_float(3, r)


def test_f_values_match_longdouble_table():
    # the integer table against the extended-precision numpy one it replaced
    for d in range(7):
        got = np.asarray(f_values(d, 10**5))
        assert np.abs(got - f_table_longdouble(d, 10**5)).max() <= 2e-15, d


def _decimal_f_rows(d_max: int, r_max: int) -> list:
    # f from its definition in 40-digit decimal arithmetic
    with localcontext() as ctx:
        ctx.prec = 40
        rows = [[Decimal(k).ln() for k in range(1, r_max + 1)]]
        for _ in range(d_max):
            sums = accumulate(rows[-1])
            rows.append([s / r for r, s in enumerate(sums, 1)])
    return rows


def test_f_within_an_ulp_of_decimal_reference():
    # every r up to 5000, d = 0..6, against the correctly rounded double of a
    # 40-digit reference. The longdouble table is within 1 ulp everywhere;
    # the integer table is within 1 ulp through d = 4. Beyond that, where f
    # is small (f(6,2) = log(2)/64), the floors of the fixed-point rows weigh
    # more than an ulp, and the bound is their absolute d * 2^-56.
    r_max = 5000
    rows = _decimal_f_rows(6, r_max)
    for d, ref in enumerate(rows):
        ours = f_values(d, r_max)
        old = f_table_longdouble(d, r_max)
        for r in range(1, r_max + 1):
            want = float(ref[r - 1])
            ulp = math.ulp(want)
            assert abs(old[r - 1] - want) <= ulp, (d, r)
            slack = 0.0 if d <= 4 else d * 2.0**-bounds.FRAC_BITS
            assert abs(ours[r - 1] - want) <= ulp + slack, (d, r)


def test_f_exact_hand_case():
    comb = f_exact(2, 3)
    assert comb.coefficients == {2: Fraction(5, 18), 3: Fraction(1, 9)}
    assert comb.evaluate() == pytest.approx(f_float(2, 3), abs=1e-15)


def test_f_exact_agrees_with_float():
    rng = random.Random(4)
    for _ in range(25):
        d = rng.randint(0, 3)
        r = rng.randint(1, 60)
        assert f_exact(d, r).evaluate() == pytest.approx(f_float(d, r), abs=1e-12)
    assert f_exact(2, EXACT_R_LIMIT).evaluate() == pytest.approx(
        f_float(2, EXACT_R_LIMIT), abs=1e-12
    )


def test_f_domain_errors():
    with pytest.raises(ValueError):
        f_float(-1, 3)
    with pytest.raises(ValueError):
        f_float(1, 0)
    with pytest.raises(ValueError):
        f_exact(1, EXACT_R_LIMIT + 1)
    # no row of the table is longer than 10^7
    for call in (lambda: f_float(1, 10**7 + 1), lambda: f_values(2, 10**13),
                 lambda: f_rows(6, 10**7 + 1)):
        with pytest.raises(ValueError, match="at most 10000000"):
            call()


def test_f_table_refuses_too_many_rows_or_entries(monkeypatch):
    # past 10^4 + 1 rows or 10^8 entries a request is refused before any row
    # is built, also where no argument check runs first (the bound)
    def refused(*args):
        raise AssertionError("an f table row was built")

    monkeypatch.setattr(bounds, "array", refused)
    deep = all_ones_support(Shape(10**4 + 1, 1))
    for call in (lambda: f_float(10**4 + 1, 1), lambda: bregman_log_bound(deep),
                 lambda: sdn_log_upper_bound(Shape(10**6, 2))):
        with pytest.raises(ValueError, match="d must be at most 10000, the f table's cap"):
            call()
    for call in (lambda: f_values(10, 10**7), lambda: f_rows(5000, 20000),
                 lambda: f_rows(10**4, 10**4)):
        with pytest.raises(ValueError, match=r"\(d \+ 1\) \* r must be at most 100000000"):
            call()
    # the edges of the caps are admitted
    bounds._check_size(10**4, 9999)
    bounds._check_size(9, 10**7)


def test_bregman_full_support_is_log_factorial_at_d1():
    # every row full: the bound is exactly log n!
    for n in (1, 2, 5, 8):
        a = all_ones_support(Shape(1, n))
        assert bregman_log_bound(a) == pytest.approx(math.lgamma(n + 1), abs=1e-12)


def test_bregman_full_d2_is_row_by_row_bregman():
    # f(2,n) = (1/n) Σ_k log(k!)/k, so the n^2 full cells bound log L(n) by
    # Σ_k (n/k) log k!: Brègman's bound taken row by row
    for n in range(2, 9):
        rows = math.fsum(n / k * math.lgamma(k + 1) for k in range(1, n + 1))
        assert abs(bregman_log_bound(all_ones_support(Shape(2, n))) - rows) <= 1e-12, n


def test_bregman_is_attained_on_the_block_lift_support():
    # each cell allows block_lift's value j and j + n/2: the support holds
    # exactly the 2^((n/2)^d) lifts, and with f(d,2) = log 2 / 2^d the bound
    # is log of that count
    for d, n in ((1, 4), (1, 8), (2, 4), (2, 6), (2, 8), (3, 4)):
        shape = Shape(d, n)
        half = n // 2
        masks = [(1 << v % half) | (1 << v % half + half) for v in block_lift(shape).values]
        a = SupportArray(shape, tuple(masks))
        blocks = half**d
        assert per_d(a) == 2**blocks, (d, n)
        assert abs(bregman_log_bound(a) - blocks * math.log(2)) <= 1e-12, (d, n)


def test_bregman_matches_d1_reference():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 7)
        matrix = [[1] + [int(rng.random() < 0.6) for _ in range(n - 1)] for _ in range(n)]
        a = support_from_matrix(matrix)
        ref = bregman_d1_reference(a.r_values())
        assert abs(bregman_log_bound(a) - ref) <= 1e-12


def test_bregman_empty_cell_gives_neg_inf():
    a = SupportArray(Shape(2, 2), (0b11, 0b11, 0b11, 0))
    assert bregman_log_bound(a) == float("-inf")


def test_d1_reference_rejects_zero_rows():
    with pytest.raises(ValueError):
        bregman_d1_reference([2, 0, 1])


def test_c_constants():
    assert c_constant(0).c_d == 0.0
    assert c_constant(1).c_d == pytest.approx(2 + math.e, abs=1e-12)
    assert c_constant(2).c_d == pytest.approx(7.921548404866289, abs=1e-12)
    two = c_constant(2)
    assert two.xi == pytest.approx(math.e, abs=1e-12)
    assert two.gamma == pytest.approx(1 / math.e, abs=1e-12)
    assert two.r_d == pytest.approx(math.e**2, abs=1e-12)
    assert c_constant(1).gamma == 1.0  # 0^0 convention at d=1


def test_c_cap_holds_for_3_to_30():
    for d in range(31):
        assert c_constant(d).c_d <= c_cap(d) + 1e-9, d


def test_c_errors():
    with pytest.raises(ValueError):
        c_constant(-1)
    with pytest.raises(OverflowError):  # gamma, before the loop over k <= d
        c_constant(20000)
    with pytest.raises(ValueError):
        c_cap(-2)


def test_theorem5_sweep_small_dims():
    rows = f_rows(4, 2000)
    for d in (1, 2, 3, 4):
        rep = theorem5_check(rows, d)
        assert rep.passed
        assert rep.violations == 0 and rep.weak_violations == 0
        assert rep.r_start == math.ceil(math.e**d)
        assert rep.checked == 2000 - rep.r_start + 1
        assert rep.min_margin >= 0


def test_theorem5_matches_numpy_sweep_over_longdouble_table():
    r_max = 10**5
    rows = f_rows(5, r_max)
    for d in range(1, 6):
        rep = theorem5_check(rows, d)
        checked, bad, low, weak_checked, weak_bad, weak_low = theorem5_sweep_numpy(
            d, r_max, rep.c_d
        )
        assert (rep.checked, rep.violations) == (checked, bad), d
        assert (rep.r_max, rep.weak_violations) == (weak_checked, weak_bad), d
        assert rep.min_margin == pytest.approx(low, abs=1e-12), d
        assert rep.weak_min_margin == pytest.approx(weak_low, abs=1e-12), d


def test_theorem5_counts_violations_like_numpy_sweep(monkeypatch):
    # with c_d shrunk the strong bound fails for some or all r, which
    # exercises the counting pass the true constants never reach
    rows = f_rows(3, 5000)
    for c in (0.0, 1.0, 3.0):

        def shrunk(d, c=c):
            return BoundConstants(c, 0.0, 0.0, 0.0)

        monkeypatch.setattr(bounds, "c_constant", shrunk)
        for d in (1, 2, 3):
            rep = theorem5_check(rows, d)
            checked, bad, low, *_ = theorem5_sweep_numpy(d, 5000, c)
            assert (rep.checked, rep.violations) == (checked, bad), (c, d)
            assert rep.min_margin == pytest.approx(low, abs=1e-12), (c, d)
            assert rep.passed == (bad == 0)


def _same_report(got, want):
    # repr tells -0.0 from 0.0, and prints every float to the last bit
    assert repr(got) == repr(want)


def test_theorem5_matches_streamed_sweep_bit_for_bit(monkeypatch):
    # r_max at r_start, inside and on either side of the first block edges,
    # and long; then with c_d shrunk so that the counting passes run
    block = bounds._BLOCK
    for d in range(1, 7):
        r_start = math.ceil(math.e**d)
        edges = [r_start + k * block + e for k in (1, 2) for e in (-2, -1, 0)]
        for r_max in (r_start, r_start + 1, *edges, 5000, 10**5):
            rows = f_rows(d, r_max)
            _same_report(theorem5_check(rows, d), theorem5_sweep_stream(rows, d))
    for c in (0.0, 1.0, 3.0):

        def shrunk(d, c=c):
            return BoundConstants(c, 0.0, 0.0, 0.0)

        monkeypatch.setattr(bounds, "c_constant", shrunk)
        for d in (1, 2, 3):
            for r_max in (25, 5000):
                rows = f_rows(d, r_max)
                _same_report(theorem5_check(rows, d), theorem5_sweep_stream(rows, d))


def test_theorem5_finds_a_minimum_inside_a_prunable_block(monkeypatch):
    # on the true table every block but the last is pruned. Raising f at one
    # mid-range r on a copy of the table puts the minimum inside the block
    # that holds r, which the sweep must then evaluate: with a violation of
    # the strong bound, of both bounds, or, at the block's last r, a margin
    # just under the true minimum, which only the block's bound at its last
    # r (not at its first) keeps
    r_max = 10**5
    evaluated = []
    margins = bounds._strong_margins

    def recorded(logs, fs, lo, fd, c):
        evaluated.append(lo)
        return margins(logs, fs, lo, fd, c)

    def strong(d, r):
        log_r = math.log(r)
        return log_r - d + c_constant(d).c_d * log_r**d / r - f_float(d, r)

    monkeypatch.setattr(bounds, "_strong_margins", recorded)
    table = f_rows(5, r_max)
    for d in (1, 3, 5):
        lo = 50_000 - (50_000 - math.ceil(math.e**d)) % bounds._BLOCK
        hi = lo + bounds._BLOCK - 1
        evaluated.clear()
        clean = theorem5_check(table, d)
        assert lo not in evaluated and clean.passed, d
        under = strong(d, hi) - (clean.min_margin - 1e-7)
        cases = (
            (lo + 7, strong(d, lo + 7) + 1e-3, 1, 0),
            (lo + 7, math.log(lo + 7) + 0.25 - f_float(d, lo + 7), 1, 1),
            (hi, under, 0, 0),
        )
        for r, raised, bad, weak_bad in cases:
            rows = list(table)
            rows[d] = array("d", rows[d])
            rows[d][r - 1] += raised
            evaluated.clear()
            rep = theorem5_check(rows, d)
            assert lo in evaluated, (d, r)
            assert (rep.violations, rep.weak_violations) == (bad, weak_bad), (d, r, rep)
            assert rep.min_margin < clean.min_margin
            _same_report(rep, theorem5_sweep_stream(rows, d))


def test_theorem5_errors():
    with pytest.raises(ValueError, match="d must be an integer >= 1, got 0"):
        theorem5_check(f_rows(0, 100), 0)
    with pytest.raises(ValueError, match="r_max must be >= 21 for d=3"):
        theorem5_check(f_rows(3, 10), 3)  # r_max below ceil(e^3)
    with pytest.raises(ValueError, match="d must be at most 2, the table's depth, got 3"):
        theorem5_check(f_rows(2, 100), 3)


def test_theorem5_start_is_the_sweeps_domain():
    # ceil(e^d), refused for a bad d, then an e^d past a double, then an
    # r_max below it: the checks a caller makes before building the table
    assert [theorem5_start(d, 10**5) for d in (1, 3, 11)] == [3, 21, 59875]
    assert theorem5_start(12, 162755) == math.ceil(math.e**12) == 162755
    with pytest.raises(ValueError, match="d must be an integer >= 1, got 0"):
        theorem5_start(0, 0)
    with pytest.raises(OverflowError):
        theorem5_start(710, 0)
    with pytest.raises(ValueError, match="r_max must be >= 162755 for d=12"):
        theorem5_start(12, 162754)


def test_bools_are_not_dimensions_or_sizes():
    # True and False are ints to isinstance, but not values of d or r
    for call in (
        lambda: f_float(True, 3),
        lambda: f_values(2, True),
        lambda: c_constant(True),
        lambda: c_cap(False),
        lambda: theorem5_check(f_rows(1, 10), True),
        lambda: bregman_d1_reference([2, True]),
    ):
        with pytest.raises(ValueError, match="must be (an )?integers?"):
            call()


def test_sdn_log_bound_identity_at_d1():
    # n cells, each contributing f(1,n) = log(n!)/n: the bound is log n!
    rep = sdn_log_upper_bound(Shape(1, 8))
    assert rep.log_bound == pytest.approx(math.lgamma(9), abs=1e-12)
    assert rep.ratio is not None and rep.ratio > 1


def test_sdn_ratio_absent_when_denominator_nonpositive():
    assert sdn_log_upper_bound(Shape(2, 5)).ratio is None  # log 5 < 2
    assert sdn_log_upper_bound(Shape(2, 8)).ratio is not None  # log 8 > 2


def test_sdn_frozen_value():
    rep = sdn_log_upper_bound(Shape(2, 5))
    assert rep.log_bound == pytest.approx(13.4791927641636, abs=1e-9)


def test_ratio_trend_light():
    # f(d,r)/(log r - d) falls toward 1 as r grows (d=2 here)
    rs = [100, 1000, 10000]
    ratios = [f_float(2, r) / (math.log(r) - 2) for r in rs]
    assert ratios[0] > ratios[1] > ratios[2] > 1

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdperm.bounds import f_float
from hdperm.constructions import modular_perm
from hdperm.core import PermTensor, Shape, line_repeats
from hdperm.shade import (
    ShadeQuery,
    _axis_values,
    mc_expectation_logN,
    random_query,
    random_valid_perm,
    shade_histogram,
)

from oracles import ordering_histogram, shade_count

EXACT_CASES = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 3)]
# the largest n per d at which the oracle's (n!)^d walk stays quick
ORACLE_MAX_N = {1: 7, 2: 5, 3: 4, 4: 3}


def identity_ordering(shape):
    return tuple(tuple(range(shape.n)) for _ in range(shape.d))


def test_query_validation():
    p = modular_perm(Shape(2, 3))
    q = ShadeQuery(p, (1, 1), frozenset({0, 2}))  # X(1,1) = 2
    assert q.w == frozenset({0, 2})
    with pytest.raises(ValueError):
        ShadeQuery(p, (1, 1), frozenset({0, 1}))  # misses X(target)
    with pytest.raises(ValueError):
        ShadeQuery(p, (1, 1), frozenset({2, 5}))  # out of range
    with pytest.raises(ValueError):
        ShadeQuery(p, (1, 3), frozenset({2}))  # bad cell


def test_query_w_holds_only_ints():
    # 1.5 would count as a value of W; True and False are ints to isinstance
    p = modular_perm(Shape(1, 3))  # X(0) = 0
    for junk in (1.5, True, "1"):
        with pytest.raises(ValueError, match=rf"^W value {junk!r} out of range 0\.\.2$"):
            ShadeQuery(p, (0,), {0, junk})
    with pytest.raises(ValueError, match=r"^W value False out of range 0\.\.2$"):
        ShadeQuery(p, (0,), {False})  # {0, False} would be {0}


def test_shade_count_identity_ordering():
    # identity ranks: predecessors of t are 0..t-1 along each axis
    p = modular_perm(Shape(2, 3))  # row i: (i, i+1, i+2) mod 3
    q = ShadeQuery(p, (2, 2), frozenset({0, 1, 2}))  # X(2,2) = 1
    # axis 1 predecessors: X(0,2)=2, X(1,2)=0; axis 2: X(2,0)=2, X(2,1)=0
    assert shade_count(q, identity_ordering(p.shape)) == 1


def test_shade_count_d1_identity():
    # X = identity on 3 cells, target last, full W: rows 0 and 1 precede and
    # shade their own values, leaving only X(2)
    p = PermTensor(Shape(1, 3), (0, 1, 2))
    q = ShadeQuery(p, (2,), frozenset({0, 1, 2}))
    assert shade_count(q, identity_ordering(p.shape)) == 1


def test_shade_count_no_predecessors():
    # target first along every axis: nothing shaded, N = |W|
    p = modular_perm(Shape(2, 4))
    q = ShadeQuery(p, (0, 0), frozenset({0, 1, 3}))
    assert shade_count(q, identity_ordering(p.shape)) == 3


def test_shade_count_bounds_and_own_value_survives():
    rng = random.Random(2)
    for _ in range(50):
        shape = Shape(rng.choice([1, 2, 3]), rng.randint(2, 4))
        q = random_query(shape, r=rng.randint(1, shape.n), seed=rng.random())
        sigmas = []
        for _ in range(shape.d):
            s = list(range(shape.n))
            rng.shuffle(s)
            sigmas.append(tuple(s))
        n_left = shade_count(q, tuple(sigmas))
        assert 1 <= n_left <= len(q.w)


def test_d1_shade_is_uniform():
    # at d=1 the surviving count is uniform on {1..|W|}
    p = PermTensor(Shape(1, 5), (3, 0, 4, 1, 2))
    for r in (1, 2, 4, 5):
        q = random_query(Shape(1, 5), r=r, seed=r, perm=p)
        dist = shade_histogram(q)
        assert dist.pmf() == {k: Fraction(1, r) for k in range(1, r + 1)}


def test_histogram_frozen_case_d2_n3():
    # full W on any valid 3x3 square: 36 orderings split 22/10/4
    q = random_query(Shape(2, 3), r=3, seed=0)
    dist = shade_histogram(q)
    assert dist.counts == {1: 22, 2: 10, 3: 4}
    assert dist.total == 36
    assert dist.pmf() == {1: Fraction(11, 18), 2: Fraction(5, 18), 3: Fraction(1, 9)}
    assert dist.log_mean() == pytest.approx(f_float(2, 3), abs=1e-15)


def test_exact_expectation_matches_f():
    for d, n in EXACT_CASES:
        shape = Shape(d, n)
        for r in range(1, n + 1):
            for i in range(10):
                q = random_query(shape, r=r, seed=1000 * d + 100 * n + 10 * r + i)
                delta = abs(shade_histogram(q).log_mean() - f_float(d, r))
                assert delta <= 1e-12, (d, n, r, delta)


def test_expectation_invariant_in_x_cell_and_w_identity():
    # same (d, |W|) must give the same expectation whatever X, i, W
    shape = Shape(2, 3)
    rng = random.Random(6)
    seen = set()
    for _ in range(8):
        x = random_valid_perm(shape, rng)
        target = (rng.randrange(3), rng.randrange(3))
        must = x.value_at(target)
        others = [v for v in range(3) if v != must]
        w = frozenset({must, rng.choice(others)})
        val = shade_histogram(ShadeQuery(x, target, w)).log_mean()
        seen.add(round(val, 13))
    assert len(seen) == 1
    assert seen.pop() == pytest.approx(f_float(2, 2), abs=1e-12)


def test_singleton_w():
    q = random_query(Shape(2, 4), r=1, seed=3)
    assert shade_histogram(q).log_mean() == 0.0
    mean, stderr = mc_expectation_logN(q, 50, seed=3)
    assert mean == 0.0 and stderr == 0.0


def test_histogram_matches_ordering_oracle():
    rng = random.Random(12)
    for _ in range(200):
        d = rng.randint(1, 4)
        n = rng.randint(1, ORACLE_MAX_N[d])
        q = random_query(Shape(d, n), r=rng.randint(1, n), seed=rng.random())
        assert shade_histogram(q).counts == ordering_histogram(q), (d, n, q.w)


@st.composite
def oracle_queries(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, ORACLE_MAX_N[d]))
    r = draw(st.integers(1, n))
    return random_query(Shape(d, n), r=r, seed=draw(st.integers(0, 2**32)))


@settings(max_examples=100, deadline=None)
@given(q=oracle_queries())
def test_histogram_matches_ordering_oracle_property(q):
    dist = shade_histogram(q)
    assert dist.counts == ordering_histogram(q)
    assert dist.total == math.factorial(q.x.shape.n) ** q.x.shape.d


def test_exact_reaches_past_the_old_budget():
    # (n!)^d up to (64!)^2 ~ 1.6e178, far past the 10^7 the ordering walk
    # was held to; Shape(3, 6) was its refused case
    queries = [random_query(Shape(3, 6), seed=0)]
    for d, n in [(3, 8), (5, 7), (2, 64)]:
        queries += [random_query(Shape(d, n), r=r, seed=r) for r in (1, n // 2, n)]
    for q in queries:
        d, n = q.x.shape.d, q.x.shape.n
        dist = shade_histogram(q)
        assert sum(dist.counts.values()) == dist.total == math.factorial(n) ** d
        assert abs(dist.log_mean() - f_float(d, len(q.w))) <= 1e-12, (d, n, len(q.w))


def test_histogram_rejects_a_repeat_on_the_target_lines():
    # rows 0 and 2 repeat a value, so a target there has no query: both the
    # closed form and the Monte Carlo mean assume the lines through it hold
    # every value once
    p = PermTensor(Shape(2, 3), (0, 0, 2, 1, 2, 0, 2, 1, 1))
    message = r"^axis 2 through the target repeats a value$"
    for target in ((0, 0), (2, 1)):
        with pytest.raises(ValueError, match=message):
            ShadeQuery(p, target, frozenset({0, 1, 2}))
    assert ShadeQuery(p, (1, 1), frozenset({2})).target == (1, 1)
    with pytest.raises(ValueError, match=message):
        random_query(Shape(2, 3), seed=1, perm=p)


def test_mc_deterministic_and_converges():
    q = random_query(Shape(2, 4), r=4, seed=9)
    a = mc_expectation_logN(q, 4000, seed=123)
    b = mc_expectation_logN(q, 4000, seed=123)
    assert a == b
    want = f_float(2, 4)
    hits = 0
    for seed in range(50):
        mean, stderr = mc_expectation_logN(q, 2000, seed=seed)
        assert stderr > 0
        if abs(mean - want) <= 4 * stderr:
            hits += 1
    assert hits >= 48  # 4 sigma misses should be very rare


def test_mc_rejects_tiny_sample_counts():
    q = random_query(Shape(2, 3), seed=0)
    with pytest.raises(ValueError):
        mc_expectation_logN(q, 1, seed=0)


def test_random_valid_perm_is_valid_and_varies():
    rng = random.Random(14)
    seen = set()
    for _ in range(20):
        p = random_valid_perm(Shape(2, 4), rng)
        assert not line_repeats(p.values, p.shape)
        seen.add(p.values)
    assert len(seen) > 5


def test_random_valid_perm_is_pinned():
    # the relabel shuffle comes first, then one shuffle per axis
    p = random_valid_perm(Shape(2, 4), random.Random(5))
    assert p.values == (2, 0, 1, 3, 0, 1, 3, 2, 3, 2, 0, 1, 1, 3, 2, 0)


def test_axis_values_are_the_lines_through_the_target():
    for d in range(1, 5):
        for n in range(1, 7):
            for seed in range(3):
                q = random_query(Shape(d, n), seed=seed)
                rows = _axis_values(q.x, q.target)
                assert len(rows) == d
                for k, row in enumerate(rows):
                    assert len(row) == n
                    for t, v in enumerate(row):
                        cell = q.target[:k] + (t,) + q.target[k + 1 :]
                        assert v == q.x.value_at(cell), (d, n, seed, k, t)


def test_random_query_reproducible():
    a = random_query(Shape(3, 4), r=3, seed=77)
    b = random_query(Shape(3, 4), r=3, seed=77)
    assert (a.x, a.target, a.w) == (b.x, b.target, b.w)
    assert len(a.w) == 3 and a.x.value_at(a.target) in a.w
    with pytest.raises(ValueError):
        random_query(Shape(2, 3), r=4, seed=0)
    with pytest.raises(ValueError, match=r"^tensor is for Shape\(d=2, n=4\), not "
                                         r"Shape\(d=2, n=3\)$"):
        random_query(Shape(2, 3), perm=modular_perm(Shape(2, 4)))


def test_histogram_total_is_ordering_count():
    for d, n in [(1, 4), (2, 3)]:
        q = random_query(Shape(d, n), seed=5)
        dist = shade_histogram(q)
        assert dist.total == math.factorial(n) ** d
        assert sum(dist.counts.values()) == dist.total


def test_exact_agrees_with_direct_average_d1():
    # brute-force the d=1 definition independently over all n! orderings
    shape = Shape(1, 4)
    q = random_query(shape, r=3, seed=31)
    logs = []
    for sig in permutations(range(4)):
        logs.append(math.log(shade_count(q, (sig,))))
    assert shade_histogram(q).log_mean() == pytest.approx(
        math.fsum(logs) / len(logs), abs=1e-15
    )

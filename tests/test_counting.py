import math
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdperm.core import Shape, SupportArray, all_ones_support, transpose_support, validate_perm
from hdperm.counting import count_all, enumerate_perms, per_d, supports
from hdperm.kernels import BACKEND, get

from oracles import count_rows_d2, count_sets, permanent_minors, support_from_matrix

# exact values frozen from independent computations
KNOWN_COUNTS = {
    (1, 8): math.factorial(8),
    (2, 1): 1,
    (2, 2): 2,
    (2, 3): 12,
    (2, 4): 576,
    (2, 5): 161280,
    (3, 2): 2,
    (3, 3): 24,
    (3, 4): 55296,
}


def random_support(rng, d, n, density=None):
    density = density if density is not None else rng.uniform(0.3, 0.9)
    masks = []
    for _ in range(n**d):
        m = 0
        for v in range(n):
            if rng.random() < density:
                m |= 1 << v
        masks.append(m)
    return SupportArray(Shape(d, n), tuple(masks))


def test_known_counts():
    for (d, n), want in KNOWN_COUNTS.items():
        assert count_all(Shape(d, n)) == want, (d, n)
    assert per_d(all_ones_support(Shape(2, 5)), backend="python") == 161280


def test_full_count_equals_set_oracle_small():
    for d, n in [(1, 4), (2, 3), (3, 2), (3, 3), (4, 2)]:
        s = Shape(d, n)
        assert count_all(s) == count_sets(all_ones_support(s))


def test_random_supports_match_set_oracle():
    rng = random.Random(42)
    for _ in range(60):
        d = rng.choice([1, 2, 2, 3])
        n = rng.randint(2, 4 if d < 3 else 3)
        a = random_support(rng, d, n)
        assert per_d(a) == count_sets(a)


def test_d2_row_oracle_agrees():
    rng = random.Random(3)
    for _ in range(40):
        a = random_support(rng, 2, rng.randint(2, 4))
        assert per_d(a) == count_rows_d2(a)
    full = all_ones_support(Shape(2, 5))
    assert per_d(full) == count_rows_d2(full) == 161280


def test_slab_dp_matches_dfs_and_set_oracle():
    rng = random.Random(2024)
    for i in range(240):
        d = rng.choice([1, 2, 3])
        n = rng.randint(1, 4 if d < 3 else 3)
        a = random_support(rng, d, n, density=rng.uniform(0.3, 1.0))
        if i % 8 == 0:
            masks = list(a.masks)
            masks[rng.randrange(len(masks))] = 0
            a = SupportArray(a.shape, tuple(masks))
        assert per_d(a) == per_d(a, backend="python") == count_sets(a), a


def planted_d2_support(rng, n, r):
    """Two relabelled cyclic Latin squares (so the count is at least 1) plus
    random other values, up to r values per cell on average."""
    squares = []
    for _ in range(2):
        rows, cols, vals = (rng.sample(range(n), n) for _ in range(3))
        squares.append([vals[(rows[i] + cols[j]) % n] for i in range(n) for j in range(n)])
    masks = []
    for planted in zip(*squares):
        m = 0
        for v in planted:
            m |= 1 << v
        want = int(r) + (rng.random() < r - int(r))
        others = [v for v in range(n) if not m >> v & 1]
        for v in rng.sample(others, max(0, want - m.bit_count())):
            m |= 1 << v
        masks.append(m)
    return SupportArray(Shape(2, n), tuple(masks))


def test_slab_dp_matches_row_oracle_planted_n6():
    rng = random.Random(6)
    for _ in range(20):
        a = planted_d2_support(rng, 6, 3.6)
        assert per_d(a) == count_rows_d2(a) >= 1


def test_slab_dp_reaches_larger_full_supports():
    t0 = time.perf_counter()
    assert count_all(Shape(1, 12)) == math.factorial(12)
    assert count_all(Shape(3, 4)) == 55296
    assert time.perf_counter() - t0 < 5.0


def test_slab_dp_reports_states():
    stats = {}
    assert per_d(all_ones_support(Shape(2, 5)), stats=stats) == 161280
    # on a full support the states after k slabs are the complements of those
    # after n-k slabs, so the list reads the same backwards
    assert stats == {"algorithm": "slab", "states": [120, 2040, 2040, 120]}
    stats = {}
    per_d(all_ones_support(Shape(1, 4)), stats=stats)
    assert stats["states"] == [4, 6, 4]
    stats = {}
    per_d(all_ones_support(Shape(3, 1)), stats=stats)
    assert stats["states"] == []


def test_d1_matches_permanent_minors():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 7)
        matrix = [[int(rng.random() < 0.6) for _ in range(n)] for _ in range(n)]
        a = support_from_matrix(matrix)
        assert per_d(a) == permanent_minors(matrix)


def test_empty_cell_kills_count():
    s = Shape(2, 3)
    masks = list(all_ones_support(s).masks)
    masks[4] = 0
    assert per_d(SupportArray(s, tuple(masks))) == 0


def test_monotone_in_support():
    # dropping ones never increases the count
    rng = random.Random(5)
    for _ in range(20):
        a = random_support(rng, 2, 4, density=0.8)
        c = per_d(a)
        masks = list(a.masks)
        i = rng.randrange(len(masks))
        if masks[i]:
            masks[i] &= masks[i] - 1  # clear lowest set bit
        b = SupportArray(a.shape, tuple(masks))
        assert per_d(b) <= c


def test_transposition_invariance():
    # the count is symmetric in all d+1 directions of the 0-1 form
    rng = random.Random(9)
    for _ in range(25):
        d = rng.choice([1, 2])
        n = rng.randint(2, 4)
        a = random_support(rng, d, n)
        c = per_d(a)
        for axis_a in range(d + 1):
            for axis_b in range(axis_a + 1, d + 1):
                assert per_d(transpose_support(a, axis_a, axis_b)) == c


MAX_N = {1: 6, 2: 4, 3: 3}


@st.composite
def drawn_supports(draw):
    """A support with arbitrary cell masks; when planted, every cell also
    allows the value of the modular permutation sum(coords) mod n, so the
    count is at least 1."""
    d = draw(st.sampled_from(sorted(MAX_N)))
    n = draw(st.integers(1, MAX_N[d]))
    masks = draw(st.lists(st.integers(0, 2**n - 1), min_size=n**d, max_size=n**d))
    if draw(st.booleans()):
        cells = product(range(n), repeat=d)
        masks = [m | 1 << (sum(cell) % n) for m, cell in zip(masks, cells)]
    return SupportArray(Shape(d, n), tuple(masks))


@settings(max_examples=200, deadline=None)
@given(a=drawn_supports(), data=st.data())
def test_slab_dp_matches_dfs_property(a, data):
    c = per_d(a)
    assert c == per_d(a, backend="python")
    axes = range(a.shape.d + 1)
    pairs = [(i, j) for i in axes for j in axes if i < j]
    axis_a, axis_b = data.draw(st.sampled_from(pairs), label="axes")
    assert per_d(transpose_support(a, axis_a, axis_b)) == c


def test_enumerate_matches_count_and_validates():
    rng = random.Random(13)
    for _ in range(25):
        d = rng.choice([1, 2])
        n = rng.randint(2, 4)
        a = random_support(rng, d, n, density=0.7)
        perms = list(enumerate_perms(a))
        assert len(perms) == per_d(a)
        assert len(set(p.values for p in perms)) == len(perms)
        for p in perms:
            assert validate_perm(p.values, a.shape).valid
            assert supports(a, p)


def test_enumerate_limit():
    a = all_ones_support(Shape(2, 4))
    assert len(list(enumerate_perms(a, limit=10))) == 10
    with pytest.raises(ValueError):
        list(enumerate_perms(a, limit=0))


def test_supports_detects_forbidden_cell():
    a = all_ones_support(Shape(2, 3))
    p = next(enumerate_perms(a, limit=1))
    masks = list(a.masks)
    rank = a.shape.rank((0, 0))
    masks[rank] &= ~(1 << p.value_at((0, 0)))
    assert not supports(SupportArray(a.shape, tuple(masks)), p)
    with pytest.raises(ValueError):
        supports(all_ones_support(Shape(2, 4)), p)


def test_thread_split_deterministic():
    s = Shape(2, 4)
    want = count_all(s)
    for threads in (1, 2, 3, 4, 8):
        assert count_all(s, threads=threads) == want


def test_backend_name_is_exposed():
    assert BACKEND == "python"
    for name in ("cython", "fortran"):
        with pytest.raises(RuntimeError):
            get(name)

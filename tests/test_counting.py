import json
import math
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdperm import counting
from hdperm.core import (
    Shape,
    SupportArray,
    all_ones_support,
    parse_perm,
    parse_support,
    serialize_perm,
    transpose_support,
    validate_perm,
)
from hdperm.counting import count_all, enumerate_perms, per_d, supports
from hdperm.kernels import BACKEND, get
from hdperm.live import live_states

from oracles import (
    count_rows_d2,
    count_sets,
    enumerate_sets,
    permanent_minors,
    support_from_matrix,
)

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
    # n = 1 (no forward slab), n = 2, odd and even n, and an empty cell in
    # the first slab, the last forward slab, the first backward slab and the
    # last slab
    for d, n_max in ((1, 7), (2, 4), (3, 3)):
        for n in range(1, n_max + 1):
            full = all_ones_support(Shape(d, n))
            m = n ** (d - 1)
            cases = [full, random_support(rng, d, n, density=0.8)]
            for s in sorted({0, max(n // 2 - 1, 0), n // 2, n - 1}):
                cases.append(with_cell(full, s * m + rng.randrange(m), 0))
            for a in cases:
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
    # on a full support the states after k slabs from either end are the
    # complements of those after n-k, so 3 backward slabs reach as many
    # states as 2
    assert stats == {"algorithm": "meet", "states": [120, 2040],
                     "states_back": [120, 2040, 2040]}
    stats = {}
    per_d(all_ones_support(Shape(1, 4)), stats=stats)
    assert stats["states"] == stats["states_back"] == [4, 6]
    stats = {}
    per_d(all_ones_support(Shape(3, 1)), stats=stats)
    assert stats["states"] == []
    assert stats["states_back"] == [1]


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
def drawn_supports(draw, max_n=MAX_N):
    """A support with arbitrary cell masks and n <= max_n[d]; when planted,
    every cell also allows the value of the modular permutation
    sum(coords) mod n, so the count is at least 1."""
    d = draw(st.sampled_from(sorted(max_n)))
    n = draw(st.integers(1, max_n[d]))
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


@settings(max_examples=100, deadline=None)
@given(a=drawn_supports(max_n={1: 4, 2: 4, 3: 3}), data=st.data())
def test_monotone_in_support_property(a, data):
    # clearing one allowed value in one cell never raises the count
    ranks = [r for r, m in enumerate(a.masks) if m]
    if not ranks:
        return
    rank = data.draw(st.sampled_from(ranks), label="cell")
    mask = a.masks[rank]
    v = data.draw(st.sampled_from([v for v in range(a.shape.n) if mask >> v & 1]), label="value")
    assert per_d(with_cell(a, rank, mask ^ 1 << v)) <= per_d(a)


@settings(max_examples=100, deadline=None)
@given(a=drawn_supports(max_n={1: 4, 2: 4, 3: 3}))
def test_text_and_json_round_trips(a):
    d, n = a.shape.d, a.shape.n
    ones = [list(entry) for entry in a.ones()]
    assert parse_support(json.dumps({"d": d, "n": n, "ones": ones})) == a
    for p in enumerate_perms(a, limit=5):
        assert parse_perm(serialize_perm(p)) == p


def with_cell(a, rank, mask):
    masks = list(a.masks)
    masks[rank] = mask
    return SupportArray(a.shape, tuple(masks))


def test_enumerate_matches_count_and_validates():
    # the stream is exactly the oracle's tensors, in sorted order
    rng = random.Random(13)
    cases = []
    for i in range(40):
        d = rng.choice([1, 2, 3])
        n = rng.randint(2, 4 if d < 3 else 3)
        a = random_support(rng, d, n, density=0.7)
        if i % 8 == 0:
            a = with_cell(a, rng.randrange(len(a.masks)), 0)
        cases.append(a)
    cases += [all_ones_support(Shape(d, 1)) for d in (1, 2, 3)]
    cases += [SupportArray(Shape(d, 1), (0,)) for d in (1, 3)]
    cases += [all_ones_support(Shape(3, 3)), all_ones_support(Shape(2, 4))]
    # the forced last slab: an empty cell there, and a cell that rejects
    # three of the four values the slab can be forced to take
    cases += [with_cell(all_ones_support(Shape(2, 4)), 15, 0),
              with_cell(all_ones_support(Shape(3, 3)), 22, 0),
              with_cell(all_ones_support(Shape(2, 4)), 14, 0b0100)]
    # the planted supports and d=1 n >= 4 reach the same axis-0 masks at
    # slab n-2 from several prefixes, so the stream replays the tails
    # recorded there
    cases += [planted_d2_support(rng, 5, 3.6) for _ in range(3)]
    cases += [planted_d2_support(rng, 6, 3.6) for _ in range(2)]
    cases += [all_ones_support(Shape(1, n)) for n in range(4, 8)]
    cases += [random_support(rng, 1, n, density=0.8) for n in range(4, 8)]
    for a in cases:
        perms = list(enumerate_perms(a))
        assert [p.values for p in perms] == sorted(enumerate_sets(a)), a
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


@settings(max_examples=100, deadline=None)
@given(a=drawn_supports(), data=st.data())
def test_enumerate_matches_oracle_property(a, data):
    stream = [p.values for p in enumerate_perms(a)]
    assert stream == sorted(enumerate_sets(a))
    if stream:
        k = data.draw(st.integers(1, len(stream)), label="limit")
        assert [p.values for p in enumerate_perms(a, limit=k)] == stream[:k]


def test_enumerate_limit_is_a_prefix_inside_replays():
    for a in (all_ones_support(Shape(2, 4)), all_ones_support(Shape(1, 6))):
        stream = [p.values for p in enumerate_perms(a)]
        for k in range(1, len(stream) + 1):
            assert [p.values for p in enumerate_perms(a, limit=k)] == stream[:k]
    # on d=2 n=5 all but 2,040 of the 66,240 prefixes of slab 3 replay
    a = all_ones_support(Shape(2, 5))
    stream = [p.values for p in enumerate_perms(a)]
    for k in (1001, 1002, 1003, 50001, len(stream) - 1):
        assert [p.values for p in enumerate_perms(a, limit=k)] == stream[:k]


def test_memo_cap_keeps_the_stream(monkeypatch):
    # _MEMO_MAX = 1 empties the memo at every store and turns the live sets
    # off, so the search runs with neither
    rng = random.Random(5)
    cases = [all_ones_support(Shape(2, 5)), all_ones_support(Shape(3, 3))]
    cases += [planted_d2_support(rng, 6, 3.6) for _ in range(4)]
    cases += [planted_d2_support(rng, 5, 3.6) for _ in range(3)]
    cases += [random_support(rng, 3, 3, density=0.8) for _ in range(3)]
    pruned = [a for a in cases if any(live_sets(a) or ())]
    assert len(pruned) >= 7
    want = [[p.values for p in enumerate_perms(a)] for a in cases]
    monkeypatch.setattr(counting, "_MEMO_MAX", 1)
    assert all(live_sets(a) is None for a in pruned)
    assert [[p.values for p in enumerate_perms(a)] for a in cases] == want


def live_sets(a):
    return live_states(a, counting._fill_lister(a))


def states_after(values, shape, s):
    """The axis-0 line masks of a tensor after its slabs 0..s-1."""
    m = shape.n ** (shape.d - 1)
    masks = [0] * m
    for rank in range(s * m):
        masks[rank % m] |= 1 << values[rank]
    return tuple(masks)


def checked_live_sets(a):
    """Assert that every live set live_states builds for a is exactly the
    states after s slabs of the oracle's tensors; return how many there
    were."""
    live = live_sets(a)
    checked = [(s, states) for s, states in enumerate(live or ()) if states is not None]
    if checked:
        tensors = list(enumerate_sets(a))
        for s, states in checked:
            assert states == {states_after(v, a.shape, s) for v in tensors}, (a, s)
    return len(checked)


def test_live_sets_are_exact():
    rng = random.Random(77)
    checked = 0
    for i in range(150):
        d = rng.choice([1, 2, 2, 3])
        n = rng.randint(3, {1: 6, 2: 5, 3: 3}[d])
        a = random_support(rng, d, n, density=rng.uniform(0.4, 0.95))
        if i % 10 == 0:
            a = with_cell(a, rng.randrange(len(a.masks)), 0)
        checked += checked_live_sets(a)
    for n, k in ((5, 4), (6, 2)):
        for _ in range(k):
            checked += checked_live_sets(planted_d2_support(rng, n, 3.6))
    assert checked >= 100


@settings(max_examples=100, deadline=None)
@given(a=drawn_supports(max_n={1: 6, 2: 5, 3: 3}))
def test_live_sets_are_exact_property(a):
    checked_live_sets(a)


def test_live_sets_give_up_before_listing(monkeypatch):
    # listing a slab (or stepping a table) past _MEMO_MAX is refused before
    # it starts, so a short --limit never waits for the tables; a full
    # support of d = 2 builds none at all
    listed = []

    def counted(shape, cells):
        listed.append(cells)
        return slab_fills(shape, cells)

    slab_fills = counting._slab_fills
    monkeypatch.setattr(counting, "_slab_fills", counted)
    for d, n in ((2, 12), (3, 5), (3, 4), (2, 6)):
        assert next(enumerate_perms(all_ones_support(Shape(d, n)))).shape == Shape(d, n)
        assert listed == [], (d, n)
    # one value short in the last slab: the backward pass lists the last
    # slab, steps it, lists the full slab before it and stops, since 600
    # states times 720 fillings pass the cap
    a = with_cell(all_ones_support(Shape(2, 6)), 35, 0b011111)
    assert live_sets(a) is None
    assert len(listed) == 2
    listed.clear()
    assert next(enumerate_perms(a)).values[:6] == (0, 1, 2, 3, 4, 5)
    assert len(listed) <= 2


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

import io
import json
import math
import random
import time
from contextlib import closing, redirect_stdout
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdperm import cli, counting, enumeration
from hdperm.bounds import bregman_log_bound
from hdperm.core import (
    PermTensor,
    Shape,
    SupportArray,
    all_ones_support,
    line_repeats,
    parse_perm,
    parse_support,
    serialize_perm,
)
from hdperm.counting import per_d
from hdperm.enumeration import write_perms
from hdperm.kernels import BACKEND, get

from oracles import (
    count_rows_d2,
    count_sets,
    enumerate_sets,
    normalised_support,
    ones_of,
    permanent_minors,
    support_from_matrix,
    transpose_support,
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


# the planted d=2 n=6 support of the CLI's pinned streams: 258 tensors
PLANTED_D2N6 = (
    42, 54, 38, 21, 30, 46, 60, 43, 30, 14, 39, 53, 39, 58, 57, 38, 43, 57,
    57, 45, 43, 27, 15, 52, 27, 27, 41, 54, 45, 15, 15, 26, 35, 54, 58, 30,
)
PLANTED_D2N6_STATS = {"prefixes": 220, "listings": 561, "memo_entries": 119,
                      "replays": 101, "live_prunes": 1832}


def streamed(a, limit=None, stats=None):
    """The texts of the enumerator's stream, read lazily from its blocks
    (enumeration._blocks): all of them, or the first limit, after which the
    walk is closed, so that stats counts the work write_perms would do."""
    blocks = enumeration._blocks(a, stats)
    with closing(blocks):
        yield from islice((head + tail for head, tails in blocks for tail in tails), limit)


def tensors(a, limit=None, stats=None):
    """The enumerator's stream as PermTensors, read lazily (streamed)."""
    for text in streamed(a, limit, stats):
        yield PermTensor(a.shape, tuple(map(int, text.split()[2:])))


def texts(a, limit=None, stats=None):
    """The enumerator's stream as a list of tensor texts: comparing them is
    as strict as comparing value tuples, and skips parsing each tensor."""
    return list(streamed(a, limit, stats))


def walked(a):
    """The number of tensors the enumerator's walk lists: the count per_d's
    slab DP is cross-checked against."""
    return sum(len(tails) for _, tails in enumeration._blocks(a))


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
        assert per_d(all_ones_support(Shape(d, n))) == want, (d, n)
    assert walked(all_ones_support(Shape(2, 5))) == 161280


def test_full_count_equals_set_oracle_small():
    for d, n in [(1, 4), (2, 3), (3, 2), (3, 3), (4, 2)]:
        s = Shape(d, n)
        a = all_ones_support(s)
        assert per_d(a) == count_sets(a)


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
        assert per_d(a) == walked(a) == count_sets(a), a
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
                assert per_d(a) == walked(a) == count_sets(a), a


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
    assert per_d(all_ones_support(Shape(1, 12))) == math.factorial(12)
    assert per_d(all_ones_support(Shape(3, 4))) == 55296
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("d", range(1, 9))
def test_full_order_3_holds_3_times_2_to_the_d(d):
    # every Latin hypercube of order 3 is isotopic to the linear one
    assert per_d(all_ones_support(Shape(d, 3))) == 3 * 2**d


def test_normalised_support_counts_the_full_support():
    # per_d of the normalised support N(d, n) times its n!·((n-1)!)^(d-1)
    # relabellings is the count of the full support
    def normalised(d, n):
        return per_d(normalised_support(Shape(d, n))) * (
            math.factorial(n) * math.factorial(n - 1) ** (d - 1))

    for n in range(1, 8):
        assert normalised(1, n) == math.factorial(n)
    for (d, n), want in KNOWN_COUNTS.items():
        assert normalised(d, n) == want, (d, n)
    for d in range(1, 9):
        assert normalised(d, 3) == 3 * 2**d, d
    # the reduced Latin squares (OEIS A000315), and L(6) = 812,851,200
    # (OEIS A002860), which the full support takes seconds to count
    assert [per_d(normalised_support(Shape(2, n))) for n in range(1, 7)] == [
        1, 1, 1, 4, 56, 9408]
    assert normalised(2, 6) == 812851200
    # the walk lists the same tensors the DP counts
    for d, n in [(2, n) for n in range(1, 7)] + [(3, 4)]:
        a = normalised_support(Shape(d, n))
        assert walked(a) == per_d(a), (d, n)


def test_one_pass_serves_both_halves_of_a_mirrored_support():
    # where slab j has the masks of slab n-1-j, _meet runs one pass, and
    # its tables are those of the two passes it stands for; a support whose
    # end slabs alone agree runs both
    def two_passes(a):
        n = a.shape.n
        h = n // 2
        step = counting._stepper(a)
        return h, counting._pass(step, range(n - 1, h - 1, -1)), counting._pass(step, range(h))

    rng = random.Random(21)
    for _ in range(40):
        d = rng.choice([1, 2, 2, 3])
        n = rng.randint(1, {1: 7, 2: 5, 3: 3}[d])
        m = n ** (d - 1)
        masks = list(random_support(rng, d, n, density=rng.uniform(0.6, 0.95)).masks)
        for s in range(n // 2):
            masks[(n - 1 - s) * m : (n - s) * m] = masks[s * m : (s + 1) * m]
        a = SupportArray(Shape(d, n), tuple(masks))
        assert counting._meet(counting._stepper(a), a) == two_passes(a), a
        if n >= 4:  # slabs 0 and n-1 still agree, slabs 1 and n-2 no longer
            i = m + rng.randrange(m)
            b = with_cell(a, i, masks[i] ^ 1 << rng.randrange(n))
            assert counting._meet(counting._stepper(b), b) == two_passes(b), b


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
    assert c == walked(a)
    # any conjugate keeps the count: transpositions of the d+1 directions
    # generate all (d+1)! of them, each a product of at most d
    axes = range(a.shape.d + 1)
    pairs = [(i, j) for i in axes for j in axes if i < j]
    drawn = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=a.shape.d),
                      label="transpositions")
    for axis_a, axis_b in drawn:
        a = transpose_support(a, axis_a, axis_b)
    assert per_d(a) == c


@pytest.mark.parametrize("d, n_max, stream", [
    (1, 7, True), (2, 5, True), (3, 4, True), (4, 3, False), (5, 3, False),
])
def test_full_support_less_one_entry_holds_n_minus_1_in_n(d, n_max, stream):
    # relabelling values maps a full support to itself, so each value of a
    # cell is in N/n of its N permutations: one entry fewer leaves N(n-1)/n
    rng = random.Random(d)
    for n in range(1, n_max + 1):
        full = all_ones_support(Shape(d, n))
        want, rest = divmod(per_d(full) * (n - 1), n)
        assert rest == 0
        for rank in rng.sample(range(n**d), min(3, n**d)):
            a = with_cell(full, rank, full.masks[rank] ^ 1 << rng.randrange(n))
            assert per_d(a) == want
            if stream:
                assert walked(a) == want


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
    ones = [list(entry) for entry in ones_of(a)]
    assert parse_support(json.dumps({"d": d, "n": n, "ones": ones})) == a
    for p in tensors(a, limit=5):
        assert parse_perm(serialize_perm(p)) == p


@settings(max_examples=100, deadline=None)
@given(a=drawn_supports(max_n={1: 5, 2: 4, 3: 3}))
def test_exact_core_keeps_count_stream_and_bound(a):
    # the exact core allows at each cell just the values some tensor of the
    # stream puts there (nothing anywhere when there is none): the most any
    # count-preserving reduction of a support can remove. It keeps per_d
    # and the stream, and the paper's bound does not rise (-inf at count 0)
    stream = texts(a)
    masks = [0] * len(a.masks)
    for text in stream:
        for i, v in enumerate(text.split()[2:]):
            masks[i] |= 1 << int(v)
    core = SupportArray(a.shape, tuple(masks))
    assert per_d(core) == per_d(a) == len(stream)
    assert texts(core) == stream
    assert bregman_log_bound(core) <= bregman_log_bound(a)


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
        perms = list(tensors(a))
        assert [p.values for p in perms] == sorted(enumerate_sets(a)), a
        assert len(perms) == per_d(a)
        assert len(set(p.values for p in perms)) == len(perms)
        for p in perms:
            assert not line_repeats(p.values, a.shape)
            assert all(m >> v & 1 for m, v in zip(a.masks, p.values))


def test_enumerate_limit():
    a = all_ones_support(Shape(2, 4))
    assert len(list(tensors(a, limit=10))) == 10
    # write_perms, which cuts the stream, refuses a limit below 1
    out = io.StringIO()
    for limit in (0, -1):
        with pytest.raises(ValueError):
            write_perms(a, out, limit)
    assert out.getvalue() == ""


@settings(max_examples=100, deadline=None)
@given(a=drawn_supports(), data=st.data())
def test_enumerate_matches_oracle_property(a, data):
    stream = [p.values for p in tensors(a)]
    assert stream == sorted(enumerate_sets(a))
    if stream:
        k = data.draw(st.integers(1, len(stream)), label="limit")
        assert [p.values for p in tensors(a, limit=k)] == stream[:k]


def test_enumerate_limit_is_a_prefix_inside_replays():
    for a in (all_ones_support(Shape(2, 4)), all_ones_support(Shape(1, 6))):
        stream = texts(a)
        for k in range(1, len(stream) + 1):
            assert texts(a, limit=k) == stream[:k]
    # on d=2 n=5 all but 2,040 of the 66,240 prefixes of slab 3 replay
    a = all_ones_support(Shape(2, 5))
    stream = texts(a)
    for k in (1001, 1002, 1003, 50001, len(stream) - 1):
        assert texts(a, limit=k) == stream[:k]


def test_memo_cap_keeps_the_stream(monkeypatch):
    # _MEMO_MAX = 1 keeps no listing and almost no memo entry, and
    # _LIVE_MAX = 1 turns the live sets off, so the walk runs with none of them
    rng = random.Random(5)
    cases = [all_ones_support(Shape(2, 5)), all_ones_support(Shape(3, 3))]
    cases += [planted_d2_support(rng, 6, 3.6) for _ in range(4)]
    cases += [planted_d2_support(rng, 5, 3.6) for _ in range(3)]
    cases += [random_support(rng, 3, 3, density=0.8) for _ in range(3)]
    pruned = [a for a in cases if any(live_sets(a) or ())]
    assert len(pruned) >= 7
    want = [texts(a) for a in cases]
    monkeypatch.setattr(counting, "_MEMO_MAX", 1)
    monkeypatch.setattr(enumeration, "_LIVE_MAX", 1)
    assert all(live_sets(a) is None for a in pruned)
    assert [texts(a) for a in cases] == want


def live_sets(a):
    return enumeration._live(a)


def test_live_tables_outgrow_the_memo_budget(monkeypatch):
    # this planted support's passes step up to 108,360 state-filling pairs,
    # past the walk's _MEMO_MAX of 2^16 but within _LIVE_MAX: it gets live
    # tables, which prune the walk and keep its stream
    a = planted_d2_support(random.Random(0), 6, 4.0)
    pairs = []
    step = counting._step

    def recorded(dp, fills):
        pairs.append(len(dp) * len(fills))
        return step(dp, fills)

    monkeypatch.setattr(counting, "_step", recorded)  # the passes and the walk back
    assert live_sets(a) is not None
    assert counting._MEMO_MAX < max(pairs) <= enumeration._LIVE_MAX
    stats = {}
    stream = texts(a, stats=stats)
    assert stats["live_prunes"] > 0
    assert len(stream) == count_rows_d2(a)
    monkeypatch.setattr(enumeration, "_LIVE_MAX", counting._MEMO_MAX)
    assert live_sets(a) is None
    assert texts(a) == stream


def states_after(values, shape, s):
    """The state of a tensor after its slabs 0..s-1: the values axis-0 line
    p has used set bits p*n + value."""
    n = shape.n
    m = n ** (shape.d - 1)
    state = 0
    for rank in range(s * m):
        state |= 1 << (rank % m) * n + values[rank]
    return state


def checked_live_sets(a):
    """Assert that at every slab boundary t where enumeration._live builds a
    table live[t] for a, a state S the forward DP reaches there is in
    live[t] exactly when some tensor of the oracle passes through S, and
    that live[t][S], its completions, times fwd[t][S], the ways to reach
    it, is the number of those tensors; return how many tables there
    were."""
    checked = [(t, table) for t, table in enumerate(live_sets(a) or ()) if table is not None]
    if checked:
        n = a.shape.n
        fwd = counting._pass(counting._stepper(a), range(n - 2))
        tensors = list(enumerate_sets(a))
        for t, table in checked:
            through = {}
            for v in tensors:
                S = states_after(v, a.shape, t)
                through[S] = through.get(S, 0) + 1
            assert {S for S in fwd[t] if S in table} == through.keys(), (a, t)
            for S, ways in fwd[t].items():
                assert table.get(S, 0) * ways == through.get(S, 0), (a, t, S)
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
    # listing a slab (or stepping a table) past _LIVE_MAX is refused before
    # it starts, so a short --limit never waits for the tables; a full
    # support builds no stepper at all
    built = []  # the shape of every stepper _live built
    steps = []  # (slab, refused) for every step those steppers took
    stepper = counting._stepper

    def counted(a, cap=None):
        built.append(a.shape)
        step = stepper(a, cap)

        def counted_step(dp, s):
            got = step(dp, s)
            steps.append((s, got is None))
            return got

        return counted_step

    listed = []  # the k of every listing _Walker.fillings made
    made = []  # the k of every filling they listed
    fillings = counting._Walker.fillings

    def counted_fillings(self, k, R):
        listed.append(k)
        for f in fillings(self, k, R):
            made.append(k)
            yield f

    monkeypatch.setattr(enumeration, "_stepper", counted)
    monkeypatch.setattr(counting._Walker, "fillings", counted_fillings)
    for d, n in ((2, 12), (3, 5), (3, 4), (2, 6)):
        assert next(tensors(all_ones_support(Shape(d, n)))).shape == Shape(d, n)
        assert built == [], (d, n)
    # one value short in the last slab: the backward pass lists the last
    # slab, steps it, lists the full slab before it and refuses to step it,
    # since 600 states times 720 fillings pass the cap
    a = with_cell(all_ones_support(Shape(2, 6)), 35, 0b011111)
    listed.clear()
    assert live_sets(a) is None
    assert steps == [(5, False), (4, True)]
    assert listed.count(1) == 2  # the two slab listings; k = 0 lists a cell
    steps.clear()
    assert next(tensors(a)).values[:6] == (0, 1, 2, 3, 4, 5)
    assert steps == [(5, False), (4, True)]
    assert built == [a.shape] * 2
    built.clear()
    # nor does the walk list a whole slab before the first tensor: a slab
    # residual that could pass the budget is listed lazily, filling by filling;
    # a slab of these admits 12!, about 8e8 and 161,280 fillings
    for d, n in ((2, 12), (3, 6)):
        made.clear()
        assert next(tensors(all_ones_support(Shape(d, n)))).shape == Shape(d, n)
        assert 0 < made.count(d - 1) < 1000, (d, n, made.count(d - 1))
    made.clear()
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.run(["enumerate", "--d", "3", "--n", "5", "--limit", "1"]) == 0
    assert out.getvalue().startswith("3 5\n0 1 2 3 4\n")
    assert 0 < made.count(2) < 1000, made.count(2)
    assert built == []


def test_live_sets_give_up_past_the_cap(monkeypatch):
    # full d=2 n=4 but for two cells of slab 2 that miss value 3: the
    # backward pass steps at most 288 state-filling pairs, the forward pass
    # 576 and the walk back 1,800, so a cap of 400 gives up in the forward
    # pass and one of 1,000 in the walk back; either way the walk runs
    # without live sets and writes the stream they prune
    a = with_cell(with_cell(all_ones_support(Shape(2, 4)), 8, 0b0111), 9, 0b0111)
    stats = {}
    stream = texts(a, stats=stats)
    assert stats["live_prunes"] > 0
    for cap, forward_fits in ((400, False), (1000, True)):
        monkeypatch.setattr(enumeration, "_LIVE_MAX", cap)
        step = counting._stepper(a, cap)
        assert len(counting._pass(step, (3, 2))) == 3
        assert (len(counting._pass(step, (0, 1))) == 3) == forward_fits
        assert live_sets(a) is None
        assert texts(a, stats=stats) == stream
        assert stats["live_prunes"] == 0


def test_full_order_3_supports_have_no_live_checks():
    # a first slab L completes by L + 1 and L + 2 mod 3, so every state is
    # live: the complement of each state the forward DP reaches at the one
    # boundary is in the backward table there, and live tables would prune
    # nothing; _live builds none
    for d in (2, 3, 4):
        a = all_ones_support(Shape(d, 3))
        assert live_sets(a) is None, d
        h, back, fwd = counting._meet(counting._stepper(a), a)
        full = (1 << 3**d) - 1
        assert h == 1 and all(full ^ S in back[2] for S in fwd[1]), d
        assert len(texts(a)) == per_d(a)


def test_enumerate_reports_work_counters():
    # full d=2 n=5: 66,240 prefixes reach slab 3 in 2,040 states, so all but
    # 2,040 of them replay a memo entry, and every state is live
    stats = {}
    assert len(texts(all_ones_support(Shape(2, 5)), stats=stats)) == 161280
    assert stats == {"prefixes": 66240, "listings": 4299, "memo_entries": 2040,
                     "replays": 64200, "live_prunes": 0}
    # full d=3 n=4: 19,008 prefixes reach slab 2, and 10,530 of them replay
    # a memo entry kept within the budget
    stats = {}
    assert len(texts(all_ones_support(Shape(3, 4)), stats=stats)) == 55296
    assert stats == {"prefixes": 19008, "listings": 12465, "memo_entries": 8478,
                     "replays": 10530, "live_prunes": 0}
    # a planted d=2 n=6 support: the live sets cut 1,832 prefixes before
    # slab 4, and 101 of the 220 that reach it replay a memo entry
    a = SupportArray(Shape(2, 6), PLANTED_D2N6)
    stats = {}
    assert len(texts(a, stats=stats)) == 258
    assert stats == PLANTED_D2N6_STATS
    # and it has an exact live set at every slab boundary 1..4
    assert checked_live_sets(a) == 4
    # the counters cover the walk up to where a limit stops it
    stats = {}
    assert len(texts(a, limit=1, stats=stats)) == 1
    assert 0 < stats["prefixes"] < PLANTED_D2N6_STATS["prefixes"]


def test_enumerate_writes_a_memo_entry_as_it_is_listed(monkeypatch):
    # full d=3 n=8: slab 6's residual leaves 2 values a cell, and the first
    # prefix's tails come one by one as they are listed, not after all
    # 65,536 of them, so the walk stops at the first
    stats = {}
    assert len(texts(all_ones_support(Shape(3, 8)), limit=1, stats=stats)) == 1
    assert stats == {"prefixes": 1, "listings": 166, "memo_entries": 1, "replays": 0,
                     "live_prunes": 0}
    # d=3 n=4 writes them the same way, at its limits as in full; with
    # _MEMO_MAX = 1 no memo entry of d=2 is kept
    a = all_ones_support(Shape(3, 4))
    stream = texts(a)
    assert len(stream) == per_d(a)
    assert [texts(a, limit=k) for k in (1, 2, 3, 17)] == [stream[:k] for k in (1, 2, 3, 17)]
    b = all_ones_support(Shape(2, 4))
    want = texts(b)
    monkeypatch.setattr(counting, "_MEMO_MAX", 1)
    assert [texts(b, limit=k) for k in (1, 5, None)] == [want[:1], want[:5], want]


def test_walk_tables_stay_within_budget(monkeypatch):
    # listings, texts and the memo count towards one budget of _MEMO_MAX
    # estimated words, and are emptied together once they would pass it; no
    # one keep charges more than the whole budget, not even at _MEMO_MAX = 1
    worst = []
    keep = counting._Walker.keep

    def checked_keep(self, table, key, value, size):
        assert size <= counting._MEMO_MAX
        keep(self, table, key, value, size)
        assert sum(map(len, self.tables)) <= self.stored <= counting._MEMO_MAX
        worst.append(self.stored)

    monkeypatch.setattr(counting._Walker, "keep", checked_keep)
    a = all_ones_support(Shape(2, 5))
    want = texts(a)
    assert max(worst) <= counting._MEMO_MAX
    for cap in (1, 500, 5000):
        monkeypatch.setattr(counting, "_MEMO_MAX", cap)
        worst.clear()
        assert texts(a) == want
        assert cap // 2 < max(worst) <= cap
    b = all_ones_support(Shape(3, 4))
    want = texts(b)
    monkeypatch.setattr(counting, "_MEMO_MAX", 1)
    assert texts(b) == want


def test_walker_keeps_exactly_the_listings_that_end_within_its_budget(monkeypatch):
    # a listing of at most n^(n^k) fillings (n values a cell) that fit the
    # budget is a list at once, kept; any other runs lazily and comes back
    # as a list on its next request exactly when its first run reached the
    # end and its weight times (1 + entries) is within the budget; else it
    # is listed again. One-cell listings are lists at once.
    rng = random.Random(8)
    seen = set()
    for cap in (13, 25, counting._MEMO_MAX):
        monkeypatch.setattr(counting, "_MEMO_MAX", cap)
        for _ in range(60):
            k = rng.randint(0, 4)
            cells = rng.choices([7, 3, 5, 6, 1], weights=[40, 1, 1, 1, 1], k=3**k)
            R = counting._pack(cells, 3)
            walker = counting._Walker(3)
            listing = walker.lister(k, lambda f: f)
            weight = max(1, 3 ** (k + 1) // 64)
            first = listing(R)
            if 3 ** 3**k <= cap // weight - 1:
                assert isinstance(first, list) and listing(R) is first
                seen.add(k)
                continue
            assert not isinstance(first, list)
            cut = rng.choice([1, 3, None])  # take so many pairs, then close
            pairs = list(islice(first, cut))
            ended = cut is None or len(pairs) < cut
            first.close()
            kept = ended and weight * (1 + len(pairs)) <= cap
            listings = walker.listings
            again = listing(R)
            assert isinstance(again, list) == kept
            assert walker.listings == listings + (not kept)
            if kept:
                assert again == pairs
            else:
                assert list(again)[: len(pairs)] == pairs
            seen.add((ended, kept))
    assert seen == {0, 1, 2, (False, False), (True, False), (True, True)}
    # n = 3 from n^(k+1) >= 128: a kept listing is charged its fillings'
    # words, n^(k+1) // 64 each, and one more for its entry, once the
    # inner listings it reads are kept
    walker = counting._Walker(3)
    for k, weight, entries in ((4, 3, 48), (5, 11, 96)):
        R = (1 << 3 ** (k + 1)) - 1
        for _ in range(2):  # the first run keeps the inner listings
            stored = walker.stored
            pairs = list(walker.lister(k, lambda f: f)(R))
        assert len(pairs) == entries
        assert walker.stored - stored == weight * (1 + entries)


def serialized(a, limit=None):
    return "\n".join(map(serialize_perm, tensors(a, limit)))


def written(a, limit=None):
    out = io.StringIO()
    write_perms(a, out, limit)
    return out.getvalue()


def test_write_perms_matches_serialize_perm(monkeypatch):
    # writes of any number of blocks, tables emptied at every store, limits
    # that end inside a replayed block, and the empty stream give the
    # serialize_perm texts with one blank line between two tensors
    rng = random.Random(8)
    cases = [all_ones_support(Shape(d, n)) for d, n in ((2, 3), (1, 4), (3, 2), (2, 1), (1, 1))]
    cases += [planted_d2_support(rng, 5, 3.6), SupportArray(Shape(2, 3), (0,) * 9)]
    for cap in (1 << 16, 1):
        monkeypatch.setattr(counting, "_MEMO_MAX", cap)
        for blocks in (1, 2, 1024):
            monkeypatch.setattr(enumeration, "_WRITE_BLOCKS", blocks)
            for a in cases:
                assert written(a) == serialized(a), a
    a = all_ones_support(Shape(2, 4))
    for limit in (1, 2, 3, 5, 575, 576, 577):
        assert written(a, limit) == serialized(a, limit)
    assert written(SupportArray(Shape(2, 3), (0,) * 9)) == ""


def test_write_perms_closes_the_walk_at_its_limit(monkeypatch):
    # write_perms cuts the block that reaches its limit and closes the walk
    # there, so the walk's counters are those of the stream's first limit
    # tensors: a cut inside a lazy entry's run (d=3 n=8), inside kept
    # blocks, after the live tables prune, and on d = 1
    blocks = enumeration._blocks
    cases = [(all_ones_support(Shape(3, 8)), 1), (all_ones_support(Shape(2, 5)), 1001),
             (SupportArray(Shape(2, 6), PLANTED_D2N6), 1), (all_ones_support(Shape(1, 6)), 7)]
    for a, limit in cases:
        want, got = {}, {}
        first = texts(a, limit, want)
        monkeypatch.setattr(enumeration, "_blocks", lambda a: blocks(a, got))
        assert written(a, limit) == "\n".join(first)
        monkeypatch.setattr(enumeration, "_blocks", blocks)
        assert got == want, (a.shape, limit)


@settings(max_examples=100, deadline=None)
@given(a=drawn_supports(), data=st.data())
def test_write_perms_matches_stream_property(a, data):
    # enumerate's block-written stdout is the serialize_perm stream, at
    # every limit: past the end, inside a block and in an empty stream
    limit = data.draw(st.none() | st.integers(1, 40), label="limit")
    assert written(a, limit) == serialized(a, limit)


def test_thread_split_deterministic():
    a = all_ones_support(Shape(2, 4))
    want = per_d(a)
    for threads in (1, 2, 3, 4, 8):
        assert per_d(a, threads=threads) == want


def test_backend_name_is_exposed():
    assert BACKEND == "python"
    for name in ("cython", "fortran"):
        with pytest.raises(RuntimeError):
            get(name)


def test_backend_is_checked_but_selects_nothing():
    # per_d takes backend and threads for the benchmark's probes and reads
    # neither: the count and its work record are those of the default call;
    # kernels.get alone refuses an unknown name (test_backend_name_is_exposed)
    for a in (all_ones_support(Shape(2, 5)), planted_d2_support(random.Random(1), 5, 3.0)):
        stats, python_stats, split_stats = {}, {}, {}
        want = per_d(a, stats=stats)
        assert per_d(a, backend="python", stats=python_stats) == want
        assert per_d(a, threads=2, stats=split_stats) == want
        assert python_stats == split_stats == stats

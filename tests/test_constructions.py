import math
from itertools import product

import pytest

from hdperm.constructions import block_count, block_lift, modular_perm, random_bits
from hdperm.core import Shape, all_ones_support, line_repeats
from hdperm.counting import per_d

from oracles import block_lift_values


def test_modular_is_valid():
    for d in range(1, 5):
        for n in range(1, 9):
            p = modular_perm(Shape(d, n))
            assert not line_repeats(p.values, p.shape), (d, n)


def test_modular_d2_is_cyclic_latin_square():
    p = modular_perm(Shape(2, 3))
    assert p.values == (0, 1, 2, 1, 2, 0, 2, 0, 1)


def test_block_lift_checks_its_bits():
    s = Shape(2, 4)
    assert block_lift(s, (0, 0, 0, 0)) == block_lift(s)  # no bits: every bit 0
    with pytest.raises(ValueError, match=r"^need 4 bits, got 2$"):
        block_lift(s, (0, 1))  # (n/2)^d = 4
    bad_bits = ((0, 1, 2, 0), (0, 1, -1, 0), (0, 1, "1", 0),
                (True, 0, 1, 0), (0, False, 1, 0), (1.0, 0, 1, 0), (0, 0.0, 1, 0))
    for bad in bad_bits:  # a bool or a float is not a bit, whatever it equals
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            block_lift(s, bad)
    # the order comes first: an odd n has no blocks to count bits against
    for bits in ((0,), (0, 1), (0, 1, 2)):
        with pytest.raises(ValueError, match="^block construction needs even n, got 3$"):
            block_lift(Shape(2, 3), bits)
    with pytest.raises(ValueError, match="^need 4 bits, got 3$"):
        block_lift(s, (0, 1, 2))  # the length comes before the values


def test_block_lift_rejects_odd_order():
    # n = 1 must not reach Shape(d, 0), whose ShapeError is a ValueError too
    for n in (1, 3):
        with pytest.raises(ValueError, match=f"^block construction needs even n, got {n}$") as exc:
            block_lift(Shape(2, n))
        assert exc.type is ValueError


def test_constructions_past_the_cell_cap_are_refused():
    # refused before a value or a bit is drawn, and before the order's parity
    # is checked
    message = r"^n\^d must be at most 1000000, the array's cell cap, got d=20 n={}$"
    for build, n in ((modular_perm, 2), (block_lift, 2), (block_lift, 3),
                     (random_bits, 4), (random_bits, 3)):
        with pytest.raises(ValueError, match=message.format(n)):
            build(Shape(20, n))


def test_random_bits_is_seeded():
    s = Shape(2, 4)
    a = random_bits(s, seed=5)
    assert a == random_bits(s, seed=5)
    assert len(a) == 4 and set(a) <= {0, 1}
    # the draws of random.Random(seed).randrange(2), one per block
    assert random_bits(Shape(3, 4), seed=5) == (1, 1, 0, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="^block construction needs even n, got 5$"):
        random_bits(Shape(3, 5), seed=5)


def test_all_lifts_valid_and_distinct_d2_n4():
    s = Shape(2, 4)
    seen = set()
    for bits in product((0, 1), repeat=4):
        p = block_lift(s, bits)
        assert not line_repeats(p.values, s), bits
        seen.add(p.values)
    assert len(seen) == 16  # the lift is injective in the choice bits


def test_lifts_valid_d1_and_d3():
    for n in (2, 4, 6):
        s = Shape(1, n)
        for bits in product((0, 1), repeat=n // 2):
            p = block_lift(s, bits)
            assert not line_repeats(p.values, s)
    s = Shape(3, 4)
    for seed in range(100):
        p = block_lift(s, random_bits(s, seed=seed))
        assert not line_repeats(p.values, s)


def test_block_lift_matches_the_block_by_block_oracle():
    # every d <= 3 and even n <= 6, with all-zero, all-one and drawn bits
    for d in (1, 2, 3):
        for n in (2, 4, 6):
            s = Shape(d, n)
            blocks = (n // 2) ** d
            arrangements = [(0,) * blocks, (1,) * blocks]
            arrangements += [random_bits(s, seed=seed) for seed in range(5)]
            for bits in arrangements:
                assert block_lift(s, bits).values == block_lift_values(s, bits), (d, n, bits)


def test_block_cell_values_come_from_its_pair():
    # cell (2b + eps) holds j or j + n/2 where j is the base value at b
    s = Shape(2, 4)
    p = block_lift(s, (1, 0, 0, 1))
    half = 2
    base = modular_perm(Shape(2, half))
    for b in base.shape.cells():
        j = base.value_at(b)
        for eps in product((0, 1), repeat=2):
            cell = tuple(2 * bi + ei for bi, ei in zip(b, eps))
            assert p.value_at(cell) % half == j % half


def test_block_count_formula():
    assert block_count(Shape(2, 4)) == 16
    assert block_count(Shape(3, 4)) == 256
    assert block_count(Shape(2, 2)) == 2
    with pytest.raises(ValueError):
        block_count(Shape(2, 3))


def test_block_count_is_a_lower_bound():
    for d, n in [(2, 2), (2, 4), (3, 2)]:
        assert block_count(Shape(d, n)) <= per_d(all_ones_support(Shape(d, n)))


def test_block_count_log_identity():
    # log_2 of the count is (n/2)^d, one bit of freedom per block
    for d, n in [(2, 4), (3, 4), (4, 2)]:
        assert math.log2(block_count(Shape(d, n))) == (n // 2) ** d


def test_two_fillings_per_block():
    # a [2]^d block carrying a value pair admits exactly 2 valid fillings
    fillings = [
        vals
        for vals in product((0, 1), repeat=4)
        if not line_repeats(vals, Shape(2, 2))
    ]
    assert len(fillings) == 2
    assert fillings == [(0, 1, 1, 0), (1, 0, 0, 1)]

import io
import random
from itertools import permutations, product

import pytest

from hdperm import core
from hdperm.core import (
    EntryCountError,
    FormatError,
    HeaderError,
    LineConstraintError,
    PermTensor,
    Shape,
    ShapeError,
    SupportArray,
    ValueRangeError,
    all_ones_support,
    enumerate_lines,
    indicator_to_perm,
    line_cells,
    parse_perm,
    parse_support,
    perm_to_indicator,
    serialize_perm,
    transpose_support,
    validate_perm,
    write_perms,
)
from hdperm.constructions import modular_perm


def test_shape_basics():
    s = Shape(2, 3)
    assert s.ncells == 9
    assert s.full_mask == 0b111
    assert list(s.cells())[:3] == [(0, 0), (0, 1), (0, 2)]
    assert s.rank((1, 2)) == 5
    assert s.unrank(5) == (1, 2)


def test_shape_rank_unrank_roundtrip():
    for d, n in [(1, 5), (2, 4), (3, 3), (4, 2)]:
        s = Shape(d, n)
        for r in range(s.ncells):
            assert s.rank(s.unrank(r)) == r


def test_shape_rejects_bad_dims():
    with pytest.raises(ShapeError):
        Shape(0, 3)
    with pytest.raises(ShapeError):
        Shape(2, 0)
    with pytest.raises(ShapeError):
        Shape(2, 65)  # cell masks live in one 64-bit word
    with pytest.raises(ShapeError):
        Shape(1, 64).check_coords((64,))


def test_support_from_sets_and_ones_agree():
    s = Shape(2, 3)
    sets = [{0, 1}, {2}, {0}, {1}, {0, 2}, {1, 2}, {2}, {0, 1, 2}, set()]
    a = SupportArray.from_sets(s, sets)
    b = SupportArray.from_ones(s, [c + (v,) for c, vs in zip(s.cells(), sets) for v in vs])
    assert a == b
    assert a.r_values() == [2, 1, 1, 1, 2, 2, 1, 3, 0]
    assert a.allowed_at((2, 1)) == frozenset({0, 1, 2})


def test_support_from_ones_idempotent():
    s = Shape(1, 3)
    a = SupportArray.from_ones(s, [(0, 1), (0, 1), (2, 2)])
    assert a.mask_at((0,)) == 0b010
    assert a.mask_at((1,)) == 0
    assert sorted(a.ones()) == [(0, 1), (2, 2)]


def test_support_rejects_out_of_range():
    with pytest.raises(ValueRangeError):
        SupportArray.from_ones(Shape(1, 3), [(0, 3)])  # bad value
    with pytest.raises(ShapeError):
        SupportArray.from_ones(Shape(1, 3), [(3, 0)])  # bad coordinate
    with pytest.raises(ShapeError):
        SupportArray(Shape(1, 3), (0b111,))  # wrong mask count


def test_enumerate_lines_counts():
    for d, n in [(1, 4), (2, 3), (3, 3), (4, 2)]:
        s = Shape(d, n)
        for direction in range(1, d + 1):
            lines = enumerate_lines(s, direction)
            assert len(lines) == n ** (d - 1)
            assert len(set(lines)) == len(lines)
    with pytest.raises(ValueError):
        enumerate_lines(Shape(2, 3), 3)
    with pytest.raises(ValueError):
        enumerate_lines(Shape(2, 3), 0)


def test_line_cells_cover_grid_once_per_direction():
    s = Shape(3, 3)
    for direction in range(1, 4):
        seen = []
        for fixed in enumerate_lines(s, direction):
            cells = line_cells(s, direction, fixed)
            assert len(cells) == 3
            # the varying coordinate is the direction axis
            k = direction - 1
            assert sorted(c[k] for c in cells) == [0, 1, 2]
            seen.extend(cells)
        assert sorted(seen) == sorted(s.cells())


def test_validate_latin_square():
    ok = validate_perm([[0, 1, 2], [1, 2, 0], [2, 0, 1]], Shape(2, 3))
    assert ok.valid and ok.violations == ()


def test_validate_flat_input():
    assert validate_perm([0, 1, 1, 0], Shape(2, 2)).valid


def test_validate_repeat_reporting():
    # rows are fine; each column repeats one value (direction 1 varies the
    # first coordinate, so its lines are the columns)
    rep = validate_perm([[0, 1], [0, 1]], Shape(2, 2))
    assert not rep.valid
    kinds = [(v.kind, v.direction, v.fixed, v.value) for v in rep.violations]
    assert ("repeat", 1, (0,), 0) in kinds
    assert ("repeat", 1, (1,), 1) in kinds
    assert len(rep.violations) == 2


def test_validate_range_and_missing():
    rep = validate_perm([[0, 1], [1, 7]], Shape(2, 2))
    assert not rep.valid
    kinds = {v.kind for v in rep.violations}
    assert "range" in kinds
    range_v = [v for v in rep.violations if v.kind == "range"][0]
    assert range_v.fixed == (1, 1) and range_v.value == 7
    # the damaged column and row are short one value each
    missing = [(v.direction, v.fixed, v.value) for v in rep.violations if v.kind == "missing"]
    assert (1, (1,), 0) in missing  # column j=1 never shows 0
    assert (2, (1,), 0) in missing  # row i=1 never shows 0


def test_validate_wrong_entry_count_is_structural():
    with pytest.raises(ShapeError):
        validate_perm([0, 1, 2], Shape(2, 2))


def test_every_permutation_of_each_line_detected():
    # exhaustive n=3: exactly the 12 Latin squares validate
    s = Shape(2, 3)
    good = 0
    for rows in product(permutations(range(3)), repeat=3):
        flat = [v for row in rows for v in row]
        if validate_perm(flat, s).valid:
            good += 1
    assert good == 12


def test_indicator_roundtrip_exhaustive_small():
    for d, n in [(1, 3), (2, 3)]:
        s = Shape(d, n)
        p = modular_perm(s)
        ones = perm_to_indicator(p)
        assert len(ones) == s.ncells
        assert indicator_to_perm(s, ones) == p


def test_indicator_roundtrip_random_d3():
    rng = random.Random(7)
    s = Shape(3, 4)
    p = modular_perm(s)
    ones = list(perm_to_indicator(p))
    rng.shuffle(ones)
    assert indicator_to_perm(s, ones) == p


def test_indicator_one_per_line():
    # in the 0-1 form every line (any of the d+1 directions) holds one 1
    p = modular_perm(Shape(2, 4))
    ones = perm_to_indicator(p)
    for axis in range(3):
        for rest in product(range(4), repeat=2):
            hits = sum(
                1 for e in ones if tuple(x for i, x in enumerate(e) if i != axis) == rest
            )
            assert hits == 1


def test_indicator_to_perm_rejects_defects():
    s = Shape(1, 2)
    with pytest.raises(ValueError):
        indicator_to_perm(s, [(0, 0), (0, 1)])  # doubled cell
    with pytest.raises(ValueError):
        indicator_to_perm(s, [(0, 0)])  # empty cell


def test_transpose_value_axis_inverts_d1():
    # swapping the cell axis with the value axis inverts a d=1 permutation
    s = Shape(1, 4)
    p = PermTensor(s, (2, 0, 3, 1))
    a = SupportArray.from_ones(s, perm_to_indicator(p))
    t = transpose_support(a, 0, 1)
    inv = indicator_to_perm(s, t.ones())
    assert inv.values == (1, 3, 0, 2)


def test_transpose_involution():
    a = SupportArray.from_sets(Shape(2, 3), [{0, 1}, {2}, {0}, {1}, {0, 2}, {1}, {2}, {0}, {1, 2}])
    assert transpose_support(transpose_support(a, 0, 2), 0, 2) == a
    with pytest.raises(ValueError):
        transpose_support(a, 0, 3)


def test_parse_serialize_roundtrip():
    for d, n in [(1, 4), (2, 3), (3, 2)]:
        p = modular_perm(Shape(d, n))
        text = serialize_perm(p)
        assert parse_perm(text) == p
        # header first, then n values per text line
        lines = text.strip().split("\n")
        assert lines[0] == f"{d} {n}"
        assert all(len(line.split()) == n for line in lines[1:])


def test_write_perms_matches_serialize_perm(monkeypatch):
    # blocks of any size, and a row cache emptied at every block, give the
    # serialize_perm texts with one blank line between two tensors
    perms = [modular_perm(Shape(d, n)) for d, n in [(2, 3), (1, 4), (3, 2), (2, 1)]]
    perms += [PermTensor(Shape(2, 3), (1, 2, 0, 2, 0, 1, 0, 1, 2))] * 3
    want = "\n".join(serialize_perm(p) for p in perms)
    for cache_max in (1 << 16, 0):
        monkeypatch.setattr(core, "_ROW_CACHE_MAX", cache_max)
        for block in (1, 2, 3, len(perms), 2048):
            monkeypatch.setattr(core, "_WRITE_BLOCK", block)
            out = io.StringIO()
            write_perms(iter(perms), out)
            assert out.getvalue() == want
    out = io.StringIO()
    write_perms([], out)
    assert out.getvalue() == ""


def test_parse_perm_error_kinds():
    with pytest.raises(HeaderError):
        parse_perm("x 3\n0 1 2\n")
    with pytest.raises(HeaderError):
        parse_perm("")
    with pytest.raises(EntryCountError):
        parse_perm("1 3\n0 1\n")
    with pytest.raises(EntryCountError):
        parse_perm("1 3\n0 1 2 0\n")
    with pytest.raises(ValueRangeError):
        parse_perm("1 3\n0 1 3\n")
    with pytest.raises(LineConstraintError):
        parse_perm("1 3\n0 1 1\n")
    with pytest.raises(LineConstraintError):
        parse_perm("2 2\n0 1\n0 1\n")


def test_parse_perm_whitespace_tolerant():
    assert parse_perm(" 1  3 \n 2 0 1 ").values == (2, 0, 1)


def test_parse_support():
    a = parse_support('{"d": 1, "n": 3, "ones": [[0, 1], [1, 0], [2, 2]]}')
    assert a.r_values() == [1, 1, 1]
    full = parse_support('{"d": 2, "n": 3, "all_ones": true}')
    assert full == all_ones_support(Shape(2, 3))


def test_parse_support_errors():
    with pytest.raises(FormatError):
        parse_support('{"n": 3, "ones": []}')
    with pytest.raises(FormatError):
        parse_support('{"d": 1, "n": 3}')
    with pytest.raises(FormatError):
        parse_support('{"d": 1, "n": 3, "ones": [[0, 5]]}')
    with pytest.raises(FormatError):
        parse_support("not json")

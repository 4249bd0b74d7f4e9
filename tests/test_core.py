import pickle
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdperm import core
from hdperm.core import (
    FormatError,
    PermTensor,
    Shape,
    ShapeError,
    SupportArray,
    Violation,
    all_ones_support,
    check_cells,
    line_repeats,
    parse_perm,
    parse_support,
    serialize_perm,
)
from hdperm.constructions import modular_perm
from hdperm.counting import _line_table, per_d
from hdperm.shade import ShadeQuery

from oracles import line_repeats_cells, transpose_support


CELL_CAP_MESSAGE = r"^n\^d must be at most 1000000, the array's cell cap, got "


def test_check_cells_refuses_arrays_past_its_cap():
    # at most 10^6 cells; an order of 1 has one cell whatever d, and a Shape
    # itself is never capped
    for shape in (Shape(6, 10), Shape(19, 2), Shape(3, 64), Shape(10**7, 1)):
        check_cells(shape)
    for shape in (Shape(6, 11), Shape(20, 2), Shape(4, 64), Shape(10**7, 3)):
        with pytest.raises(ValueError, match=CELL_CAP_MESSAGE + f"d={shape.d} n={shape.n}$"):
            check_cells(shape)


def test_supports_past_the_cell_cap_are_refused():
    # refused before a mask is built, whichever way the support is given
    with pytest.raises(ValueError, match=CELL_CAP_MESSAGE + "d=40 n=2$"):
        all_ones_support(Shape(40, 2))
    with pytest.raises(ValueError, match=CELL_CAP_MESSAGE + "d=70 n=2$"):
        SupportArray.from_ones(Shape(70, 2), [])
    for body in ('"all_ones": true', '"ones": []'):
        with pytest.raises(ValueError, match=CELL_CAP_MESSAGE + "d=40 n=2$") as exc:
            parse_support('{"d": 40, "n": 2, %s}' % body)
        assert exc.type is ValueError


def test_parse_perm_refuses_a_header_past_the_cell_cap(monkeypatch):
    # the header alone is refused: n^d is never computed and no entry is
    # checked, so a body of three values cannot stall the count
    def refused(*args):
        raise AssertionError("n^d was computed or an entry checked")

    monkeypatch.setattr(Shape, "ncells", property(refused))
    monkeypatch.setattr(core, "line_repeats", refused)
    with pytest.raises(ValueError, match=CELL_CAP_MESSAGE + "d=10000000 n=3$") as exc:
        parse_perm("10000000 3\n0 1 2\n")
    assert exc.type is ValueError


def test_shape_basics():
    s = Shape(2, 3)
    assert s.ncells == 9
    assert s.full_mask == 0b111
    assert list(s.cells())[:3] == [(0, 0), (0, 1), (0, 2)]
    assert s.rank((1, 2)) == 5


def test_shape_rejects_bad_dims():
    with pytest.raises(ShapeError):
        Shape(0, 3)
    with pytest.raises(ShapeError):
        Shape(2, 0)
    with pytest.raises(ShapeError):
        Shape(2, 65)  # cell masks live in one 64-bit word
    with pytest.raises(ShapeError):
        Shape(True, 3)  # bools are ints to isinstance, but not shapes
    with pytest.raises(ShapeError):
        Shape(2, False)
    with pytest.raises(ShapeError):
        Shape(1, 64).check_coords((64,))
    with pytest.raises(ShapeError):
        Shape(2, 3).check_coords((1,))  # one coordinate too few
    with pytest.raises(ShapeError):
        PermTensor(Shape(2, 3), (0, 1, 2))  # values for 3 of the 9 cells


# per record type, a builder that returns a new, equal instance on each call,
# and the record's fields in constructor order
_S13 = Shape(1, 3)
_RECORDS = [
    (lambda: Shape(2, 3), ("d", "n")),
    (lambda: SupportArray(_S13, (1, 6, 7)), ("shape", "masks")),
    (lambda: PermTensor(_S13, (2, 0, 1)), ("shape", "values")),
    (lambda: Violation(1, (0,), 2), ("direction", "fixed", "value")),
    (lambda: ShadeQuery(modular_perm(Shape(2, 3)), (1, 2), {0, 2}), ("x", "target", "w")),
]


@pytest.mark.parametrize(
    "make, fields", _RECORDS, ids=[type(make()).__name__ for make, _ in _RECORDS]
)
def test_record_semantics(make, fields):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: "value"}[b] == "value"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{type(a).__name__}({shown})"
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(TypeError):  # one field too few
        type(a)(*[getattr(a, name) for name in fields[:-1]])


def test_records_of_different_types_are_unequal():
    assert SupportArray(_S13, (0, 1, 2)) != PermTensor(_S13, (0, 1, 2))
    assert not SupportArray(_S13, (0, 1, 2)) == PermTensor(_S13, (0, 1, 2))
    assert Shape(2, 3) != (2, 3)
    assert PermTensor(_S13, (0, 1, 2)) != PermTensor(_S13, (0, 2, 1))


def test_shape_is_a_line_table_cache_key():
    first = _line_table(Shape(2, 3))
    hits = _line_table.cache_info().hits
    assert _line_table(Shape(2, 3)) is first  # an equal, distinct Shape
    assert _line_table.cache_info().hits == hits + 1


def test_support_from_sets_and_ones_agree():
    s = Shape(2, 3)
    sets = [{0, 1}, {2}, {0}, {1}, {0, 2}, {1, 2}, {2}, {0, 1, 2}, set()]
    a = SupportArray(s, tuple(sum(1 << v for v in vs) for vs in sets))
    b = SupportArray.from_ones(s, [c + (v,) for c, vs in zip(s.cells(), sets) for v in vs])
    assert a == b
    assert a.r_values() == [2, 1, 1, 1, 2, 2, 1, 3, 0]
    assert a.masks[s.rank((2, 1))] == 0b111


def test_support_from_ones_idempotent():
    s = Shape(1, 3)
    a = SupportArray.from_ones(s, [(0, 1), (0, 1), (2, 2)])
    assert a.masks == (0b010, 0, 0b100)


def test_support_rejects_out_of_range():
    with pytest.raises(FormatError):
        SupportArray.from_ones(Shape(1, 3), [(0, 3)])  # bad value
    with pytest.raises(ShapeError):
        SupportArray.from_ones(Shape(1, 3), [(3, 0)])  # bad coordinate
    with pytest.raises(ShapeError):
        SupportArray(Shape(1, 3), (0b111,))  # wrong mask count
    with pytest.raises(ShapeError):
        SupportArray(Shape(1, 3), (0b1000, 0, 0))  # a mask bit past n


def test_bools_are_not_coordinates_or_values():
    # the one integer rule of Shape and the masks holds for coordinates and
    # one-entries too: True is an int to isinstance, but no index
    s = Shape(2, 3)
    with pytest.raises(ShapeError):
        s.check_coords((True, 0))
    with pytest.raises(ShapeError):
        SupportArray.from_ones(s, [(True, False, 1)])
    with pytest.raises(FormatError):
        SupportArray.from_ones(s, [(1, 0, True)])


def test_support_masks_are_an_int_tuple():
    # a list is stored as a tuple, so the support stays hashable and per_d
    # can key its slab listings on slices of it
    a = SupportArray(Shape(2, 2), [1, 2, 2, 1])
    assert a.masks == (1, 2, 2, 1)
    assert hash(a) == hash(SupportArray(Shape(2, 2), (1, 2, 2, 1)))
    assert per_d(a) == 1
    for bad in (1.0, True, "1", None):
        with pytest.raises(ShapeError):
            SupportArray(Shape(2, 2), (bad, 2, 2, 1))


def test_validate_latin_square():
    assert line_repeats([0, 1, 2, 1, 2, 0, 2, 0, 1], Shape(2, 3)) == ()


def test_validate_flat_input():
    assert not line_repeats([0, 1, 1, 0], Shape(2, 2))


def test_validate_repeat_reporting():
    # rows are fine; each column repeats one value (direction 1 varies the
    # first coordinate, so its lines are the columns)
    assert line_repeats([0, 1, 0, 1], Shape(2, 2)) == (
        Violation(1, (0,), 0), Violation(1, (1,), 1),
    )


def test_validate_range_and_missing():
    # line_repeats checks lines of values in 0..n-1 only; any other entry is
    # structural, and the message shows it as repr shows it
    for values, shown in [
        ([0, 1, 1, 7], "7"), ([0, -1, 1, 0], "-1"), ([0, 1, 1.0, 0], "1.0"),
        ([0, None, 1, 0], "None"), ([0, "1", 1, 0], "'1'"),
    ]:
        with pytest.raises(ShapeError, match=rf"^value {shown} out of range 0\.\.1$"):
            line_repeats(values, Shape(2, 2))
    # a line short of a value repeats another, and is reported by that repeat:
    # column j=1 and row i=1 both hold 1 twice and never show 0
    assert line_repeats([0, 1, 1, 1], Shape(2, 2)) == (
        Violation(1, (1,), 1), Violation(2, (1,), 1),
    )


def test_validate_rejects_bools():
    # True and False are ints to isinstance, but not values of a tensor
    with pytest.raises(ShapeError, match=r"^value True out of range 0\.\.1$"):
        line_repeats([True, 0, 0, 1], Shape(2, 2))
    for values in ([True, False], [0, True], [0, False]):
        with pytest.raises(ShapeError, match=r"out of range 0\.\.1$"):
            line_repeats(values, Shape(1, 2))
        with pytest.raises(ShapeError):
            line_repeats_cells(values, Shape(1, 2))


@st.composite
def candidate_tensors(draw):
    """A scrambled modular permutation (d <= 3, n <= 4), left valid, with
    some cells changed to other in-range values, or with at least one cell
    out of range or not an integer at all."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    shape = Shape(d, n)
    relabel = draw(st.permutations(range(n)))
    maps = [draw(st.permutations(range(n))) for _ in range(d)]
    values = [
        relabel[sum(maps[k][c] for k, c in enumerate(coords)) % n]
        for coords in shape.cells()
    ]
    kind = draw(st.sampled_from(["valid", "corrupted", "out_of_range"]))
    if kind != "valid":
        junk = st.integers(0, n - 1)
        for _ in range(draw(st.integers(1, 4))):
            values[draw(st.integers(0, len(values) - 1))] = draw(junk)
    if kind == "out_of_range":
        bad = st.one_of(
            st.integers(-3, -1), st.integers(n, n + 3),
            st.sampled_from([1.5, None, "1", True, False]),
        )
        values[draw(st.integers(0, len(values) - 1))] = draw(bad)
    return kind, shape, values


@settings(max_examples=300, deadline=None)
@given(case=candidate_tensors())
def test_validate_matches_cell_by_cell_oracle(case):
    kind, shape, values = case
    if kind == "out_of_range":
        with pytest.raises(ShapeError):
            line_repeats(values, shape)
        with pytest.raises(ShapeError):
            line_repeats_cells(values, shape)
        return
    got = line_repeats(values, shape)
    want = line_repeats_cells(values, shape)
    assert got == want
    assert repr(got) == repr(want)  # same violations, same order, same values
    if kind == "valid":
        assert got == ()


def test_validate_wrong_entry_count_is_structural():
    with pytest.raises(ShapeError):
        line_repeats([0, 1, 2], Shape(2, 2))
    with pytest.raises(ShapeError):  # rows are not flattened
        line_repeats([[0, 1], [1, 0]], Shape(2, 2))


def test_every_permutation_of_each_line_detected():
    # exhaustive n=3: exactly the 12 Latin squares validate
    s = Shape(2, 3)
    good = 0
    for rows in product(permutations(range(3)), repeat=3):
        flat = [v for row in rows for v in row]
        if not line_repeats(flat, s):
            good += 1
    assert good == 12


def test_transpose_value_axis_inverts_d1():
    # swapping the cell axis with the value axis inverts a d=1 permutation
    s = Shape(1, 4)
    p = SupportArray(s, tuple(1 << v for v in (2, 0, 3, 1)))
    assert transpose_support(p, 0, 1).masks == tuple(1 << v for v in (1, 3, 0, 2))


def test_transpose_involution():
    a = SupportArray(Shape(2, 3), (3, 4, 1, 2, 5, 2, 4, 1, 6))
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


def test_parse_perm_error_kinds():
    # one FormatError for every fault; the message says which fault it found
    cases = [
        ("x 3\n0 1 2\n", r"non-integer header fields \['x', '3'\]"),
        ("", "header must carry two integers: d n"),
        ("0 3\n", "d must be a positive integer, got 0"),
        ("1 3\n0 1\n", "expected 3 values for d=1 n=3, got 2"),
        ("1 3\n0 1 2 0\n", "expected 3 values for d=1 n=3, got 4"),
        ("1 3\n0 1 3\n", r"value 3 out of range 0\.\.2"),
        ("1 3\n0 1 a\n", "non-integer value 'a'"),
        ("1 3\n0 1 1\n", r"line constraints violated \(1 violations; "
                           r"first: repeat value 1 in direction 1 at \(\)\)"),
        ("2 2\n0 1\n0 1\n", r"line constraints violated \(2 violations; "
                               r"first: repeat value 0 in direction 1 at \(0,\)\)"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError, match=f"^(?:{message})$"):
            parse_perm(text)


def test_parse_perm_whitespace_tolerant():
    assert parse_perm(" 1  3 \n 2 0 1 ").values == (2, 0, 1)


def test_parse_support():
    a = parse_support('{"d": 1, "n": 3, "ones": [[0, 1], [1, 0], [2, 2]]}')
    assert a.r_values() == [1, 1, 1]
    full = parse_support('{"d": 2, "n": 3, "all_ones": true}')
    assert full == all_ones_support(Shape(2, 3))


def test_parse_support_errors():
    # one FormatError for every fault; the message says which fault it found
    cases = [
        ("not json", "invalid JSON: .*"),
        ("[1, 3]", "support must be a JSON object"),
        ('{"n": 3, "ones": []}', "missing field 'd'"),
        ('{"d": "1", "n": 3, "all_ones": true}', "field 'd' must be an integer"),
        ('{"d": true, "n": 3, "all_ones": true}', "field 'd' must be an integer"),
        ('{"d": 1, "n": 65, "all_ones": true}', "n must be an integer in 1..64, got 65"),
        ('{"d": 1, "n": 3}', 'support needs "all_ones": true or an "ones" array'),
        ('{"d": 2, "n": 2, "all_ones": true, "ones": [[0, 0, 0]]}',
         'give "all_ones": true or an "ones" array, not both'),
        ('{"d": 1, "n": 3, "all_ones": false, "ones": []}',
         'give "all_ones": true or an "ones" array, not both'),
        ('{"d": 1, "n": 3, "ones": 5}', '"ones" must be an array of integer arrays'),
        ('{"d": 1, "n": 3, "ones": [[0, "1"]]}',
         r"one-entry must be an integer array, got \[0, '1'\]"),
        ('{"d": 1, "n": 3, "ones": [[0, 1, 2]]}',
         r"one-entry must have 2 integers, got \(0, 1, 2\)"),
        ('{"d": 1, "n": 3, "ones": [[3, 0]]}', r"coordinate 3 out of range 0\.\.2"),
        ('{"d": 1, "n": 3, "ones": [[0, 5]]}', r"value 5 out of range 0\.\.2"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError, match=f"^(?:{message})$"):
            parse_support(text)

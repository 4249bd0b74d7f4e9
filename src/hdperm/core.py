"""Data model for d-dimensional permutations and their 0-1 support arrays.

A d-dimensional permutation of order n is an [n]^d array over {0,...,n-1}
(the value form) in which every line, in every one of the d axis directions,
contains each value exactly once. d=2 gives Latin squares. The equivalent 0-1
form lives in [n]^{d+1} with a single 1 per line; the support array A stores,
for each cell i of the value form, the set R_i of values allowed along the
(d+1)-st direction.

Everything is 0-based. The canonical linearization of cells is row-major
lexicographic order of the multi-index; file formats, iteration and counting
all use it.

Record is the package's one record base: every record, here (Shape,
SupportArray, PermTensor, Violation) and in bounds, shade and suites,
derives from it. Its fields are its __slots__, set once by Record.__init__
in that order (a subclass that validates calls it last), compared and
hashed by type and field values. A record is not a tuple: it is built
positionally and cannot be indexed or unpacked. Malformed text or JSON
input raises FormatError.

A Shape may name any d, but no array of more than _CELL_CAP = 10^6 cells
is built: check_cells refuses one with a ValueError before any of it
exists, and every builder or reader of a whole array (all_ones_support,
SupportArray.from_ones, parse_perm and the constructions) calls it first.
"""

import json
from collections.abc import Iterable, Iterator, Sequence
from itertools import product


# the most cells of any array built: every builder's time and memory grow
# with the cells, and shade exact already takes about a second at 2^20
_CELL_CAP = 10**6


class FormatError(ValueError):
    """Malformed serialized input; the message names the fault."""


class ShapeError(ValueError):
    pass


class Record:
    """Base of the package's immutable records.

    A subclass lists its fields in __slots__. Record.__init__ takes one
    value per field, in __slots__ order (which is what pickling relies on),
    and is the only place a field is set: a subclass that checks or
    normalizes its input ends its own __init__ with super().__init__(...).
    Assigning or deleting a field afterwards raises AttributeError. Two
    records are equal when they have the same type and equal fields, and
    hash to match. The repr reads Type(field=value, ...).
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot delete {name!r}")

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self):
        return hash((type(self), self._field_values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._field_values()


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class Shape(Record):
    """Dimension d and order n of a value-form array."""

    __slots__ = ("d", "n")

    def __init__(self, d: int, n: int):
        if not _is_int(d) or d < 1:
            raise ShapeError(f"d must be a positive integer, got {d!r}")
        if not _is_int(n) or not 1 <= n <= 64:
            raise ShapeError(f"n must be an integer in 1..64, got {n!r}")
        super().__init__(d, n)

    @property
    def ncells(self) -> int:
        return self.n**self.d

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def cells(self) -> Iterator[tuple]:
        """All multi-indices in row-major order."""
        return product(range(self.n), repeat=self.d)

    def rank(self, coords: Sequence[int]) -> int:
        """Row-major rank of a multi-index."""
        r = 0
        for c in coords:
            r = r * self.n + c
        return r

    def check_coords(self, coords: Sequence[int]) -> tuple:
        coords = tuple(coords)
        if len(coords) != self.d:
            raise ShapeError(f"expected {self.d} coordinates, got {len(coords)}")
        for c in coords:
            if not _is_int(c) or not 0 <= c < self.n:
                raise ShapeError(f"coordinate {c!r} out of range 0..{self.n - 1}")
        return coords


class SupportArray(Record):
    """Dense per-cell allowed-value sets, each stored as an n-bit mask.

    masks[rank] has bit j set iff value j is allowed at the cell with that
    row-major rank. Empty cells are permitted (they force a zero count).
    """

    __slots__ = ("shape", "masks")

    def __init__(self, shape: Shape, masks: tuple):
        masks = tuple(masks)
        if len(masks) != shape.ncells:
            raise ShapeError(f"need {shape.ncells} cell masks, got {len(masks)}")
        full = shape.full_mask
        for m in masks:
            if not _is_int(m):
                raise ShapeError(f"cell mask must be an integer, got {m!r}")
            if not 0 <= m <= full:
                raise ShapeError(f"cell mask {m:#x} out of range for n={shape.n}")
        super().__init__(shape, masks)

    @classmethod
    def from_ones(cls, shape: Shape, ones: Iterable[Sequence[int]]) -> "SupportArray":
        """Build from (i_1,...,i_d,j) one-entries; duplicates are idempotent."""
        check_cells(shape)
        masks = [0] * shape.ncells
        for entry in ones:
            entry = tuple(entry)
            if len(entry) != shape.d + 1:
                raise FormatError(
                    f"one-entry must have {shape.d + 1} integers, got {entry!r}"
                )
            *coords, j = entry
            coords = shape.check_coords(coords)
            if not _is_int(j) or not 0 <= j < shape.n:
                raise FormatError(f"value {j!r} out of range 0..{shape.n - 1}")
            masks[shape.rank(coords)] |= 1 << j
        return cls(shape, tuple(masks))

    def r_values(self) -> list:
        """|R_i| per cell, row-major."""
        return [m.bit_count() for m in self.masks]


class PermTensor(Record):
    """Value-form array, row-major. The constructor trusts its input; use
    line_repeats or parse_perm for untrusted data."""

    __slots__ = ("shape", "values")

    def __init__(self, shape: Shape, values: tuple):
        if len(values) != shape.n**shape.d:  # ncells, without the property call
            raise ShapeError(f"need {shape.ncells} values, got {len(values)}")
        super().__init__(shape, values)

    def value_at(self, coords: Sequence[int]) -> int:
        return self.values[self.shape.rank(self.shape.check_coords(coords))]


class Violation(Record):
    """One value that a line repeats, found by line_repeats: direction is
    the 1-based axis the line runs along, fixed its d-1 frozen coordinates
    in axis order."""

    __slots__ = ("direction", "fixed", "value")


def check_cells(shape: Shape) -> None:
    """Refuse a shape of more than _CELL_CAP cells. n^d is computed only
    for d below the cap's bit length: from there on 2^d, and so n^d for
    every n > 1, is past the cap."""
    d, n = shape.d, shape.n
    if n > 1 and (d >= _CELL_CAP.bit_length() or n**d > _CELL_CAP):
        raise ValueError(f"n^d must be at most {_CELL_CAP}, the array's cell cap, "
                         f"got d={d} n={n}")


def all_ones_support(shape: Shape) -> SupportArray:
    """The support allowing every value at every cell."""
    check_cells(shape)
    return SupportArray(shape, (shape.full_mask,) * shape.ncells)


def line_repeats(values: Sequence, shape: Shape) -> tuple:
    """The Violations of a value-form tensor: empty exactly when every line,
    in every direction, holds each of 0..n-1 once.

    values is a flat row-major sequence of n^d entries, each an int in
    0..n-1; a wrong entry count or any other entry raises ShapeError. With
    every entry in range, a line is a permutation exactly when it repeats no
    value, so the result lists one Violation per value a line repeats, by
    axis, then line, then value.

    A line along axis k is the slice values[start : start + n*stride : stride]
    with stride n^(d-1-k); its starts, taken in the order of the fixed
    coordinates, are the multiples of n*stride plus 0..stride-1.
    """
    if len(values) != shape.ncells:
        raise ShapeError(
            f"expected {shape.ncells} values for d={shape.d} n={shape.n}, "
            f"got {len(values)}"
        )
    d, n = shape.d, shape.n
    for v in values:
        if not (_is_int(v) and 0 <= v < n):
            raise ShapeError(f"value {v!r} out of range 0..{n - 1}")
    violations = []
    for k in range(d):
        stride = n ** (d - 1 - k)
        span = n * stride
        starts = (
            block + offset
            for block in range(0, len(values), span)
            for offset in range(stride)
        )
        for fixed, start in zip(product(range(n), repeat=d - 1), starts):
            line = values[start : start + span : stride]
            seen = set(line)
            if len(seen) < n:
                violations.extend(
                    Violation(k + 1, fixed, v) for v in sorted(seen) if line.count(v) > 1
                )
    return tuple(violations)


# -- text format: header "d n", then n^d row-major values, n per text line ----

def parse_perm(text: str) -> PermTensor:
    """Parse the text tensor format and validate the line constraints."""
    tokens = text.split()
    if len(tokens) < 2:
        raise FormatError("header must carry two integers: d n")
    try:
        d, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise FormatError(f"non-integer header fields {tokens[:2]!r}") from None
    try:
        shape = Shape(d, n)
    except ShapeError as exc:
        raise FormatError(str(exc)) from None
    check_cells(shape)
    values = []
    for tok in tokens[2:]:
        try:
            values.append(int(tok))
        except ValueError:
            raise FormatError(f"non-integer value {tok!r}") from None
    try:
        repeats = line_repeats(values, shape)
    except ShapeError as exc:  # a wrong count or a value out of range
        raise FormatError(str(exc)) from None
    if repeats:
        first = repeats[0]
        raise FormatError(
            f"line constraints violated ({len(repeats)} violations; "
            f"first: repeat value {first.value} in direction "
            f"{first.direction} at {first.fixed})"
        )
    return PermTensor(shape, tuple(values))


def serialize_perm(p: PermTensor) -> str:
    """Canonical text form: one header line, then n values per line."""
    return f"{p.shape.d} {p.shape.n}\n" + rows_text(p.values, p.shape.n)


def rows_text(values: Sequence[int], n: int) -> str:
    """values as text lines of n values each (the last may be shorter),
    every line ending in a newline: the body of serialize_perm."""
    return "".join(
        [" ".join(map(str, values[i : i + n])) + "\n" for i in range(0, len(values), n)]
    )


def parse_support(json_text: str) -> SupportArray:
    """Parse the JSON support schema: {"d", "n", "all_ones": true | "ones": [...]},
    with exactly one of "all_ones" and "ones"."""
    try:
        obj = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError("support must be a JSON object")
    for key in ("d", "n"):
        if key not in obj:
            raise FormatError(f"missing field {key!r}")
        if not _is_int(obj[key]):
            raise FormatError(f"field {key!r} must be an integer")
    try:
        shape = Shape(obj["d"], obj["n"])
    except ShapeError as exc:
        raise FormatError(str(exc)) from None
    if "all_ones" in obj and "ones" in obj:
        raise FormatError('give "all_ones": true or an "ones" array, not both')
    if obj.get("all_ones") is True:
        return all_ones_support(shape)
    ones = obj.get("ones")
    if ones is None:
        raise FormatError('support needs "all_ones": true or an "ones" array')
    if not isinstance(ones, list):
        raise FormatError('"ones" must be an array of integer arrays')
    for entry in ones:
        if not isinstance(entry, list) or not all(map(_is_int, entry)):
            raise FormatError(f"one-entry must be an integer array, got {entry!r}")
    try:
        return SupportArray.from_ones(shape, ones)
    except ShapeError as exc:
        raise FormatError(str(exc)) from None

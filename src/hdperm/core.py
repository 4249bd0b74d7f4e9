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
"""

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence


class FormatError(ValueError):
    """Base class for malformed serialized input."""


class HeaderError(FormatError):
    pass


class EntryCountError(FormatError):
    pass


class ValueRangeError(FormatError):
    pass


class LineConstraintError(FormatError):
    pass


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class Shape:
    """Dimension d and order n of a value-form array."""

    d: int
    n: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ShapeError(f"d must be a positive integer, got {self.d!r}")
        if not isinstance(self.n, int) or not 1 <= self.n <= 64:
            raise ShapeError(f"n must be an integer in 1..64, got {self.n!r}")

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

    def unrank(self, rank: int) -> tuple:
        coords = [0] * self.d
        for k in range(self.d - 1, -1, -1):
            rank, coords[k] = divmod(rank, self.n)
        return tuple(coords)

    def check_coords(self, coords: Sequence[int]) -> tuple:
        coords = tuple(coords)
        if len(coords) != self.d:
            raise ShapeError(f"expected {self.d} coordinates, got {len(coords)}")
        for c in coords:
            if not isinstance(c, int) or not 0 <= c < self.n:
                raise ShapeError(f"coordinate {c!r} out of range 0..{self.n - 1}")
        return coords


@dataclass(frozen=True)
class SupportArray:
    """Dense per-cell allowed-value sets, each stored as an n-bit mask.

    masks[rank] has bit j set iff value j is allowed at the cell with that
    row-major rank. Empty cells are permitted (they force a zero count).
    """

    shape: Shape
    masks: tuple

    def __post_init__(self):
        if len(self.masks) != self.shape.ncells:
            raise ShapeError(
                f"need {self.shape.ncells} cell masks, got {len(self.masks)}"
            )
        full = self.shape.full_mask
        for m in self.masks:
            if not 0 <= m <= full:
                raise ShapeError(f"cell mask {m:#x} out of range for n={self.shape.n}")

    @classmethod
    def from_sets(cls, shape: Shape, sets: Iterable[Iterable[int]]) -> "SupportArray":
        """Build from per-cell value collections in row-major cell order."""
        masks = []
        for vals in sets:
            m = 0
            for v in vals:
                if not 0 <= v < shape.n:
                    raise ValueRangeError(f"value {v} out of range 0..{shape.n - 1}")
                m |= 1 << v
            masks.append(m)
        return cls(shape, tuple(masks))

    @classmethod
    def from_ones(cls, shape: Shape, ones: Iterable[Sequence[int]]) -> "SupportArray":
        """Build from (i_1,...,i_d,j) one-entries; duplicates are idempotent."""
        masks = [0] * shape.ncells
        for entry in ones:
            entry = tuple(entry)
            if len(entry) != shape.d + 1:
                raise FormatError(
                    f"one-entry must have {shape.d + 1} integers, got {entry!r}"
                )
            *coords, j = entry
            coords = shape.check_coords(coords)
            if not isinstance(j, int) or not 0 <= j < shape.n:
                raise ValueRangeError(f"value {j!r} out of range 0..{shape.n - 1}")
            masks[shape.rank(coords)] |= 1 << j
        return cls(shape, tuple(masks))

    def mask_at(self, coords: Sequence[int]) -> int:
        return self.masks[self.shape.rank(self.shape.check_coords(coords))]

    def allowed_at(self, coords: Sequence[int]) -> frozenset:
        return frozenset(_mask_values(self.mask_at(coords)))

    def r_values(self) -> list:
        """|R_i| per cell, row-major."""
        return [m.bit_count() for m in self.masks]

    def ones(self) -> Iterator[tuple]:
        """All (i_1,...,i_d,j) one-entries in row-major order."""
        for rank, m in enumerate(self.masks):
            coords = self.shape.unrank(rank)
            for j in _mask_values(m):
                yield coords + (j,)


@dataclass(frozen=True)
class PermTensor:
    """Value-form array, row-major. The constructor trusts its input; use
    validate_perm or parse_perm for untrusted data."""

    shape: Shape
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.shape.ncells:
            raise ShapeError(
                f"need {self.shape.ncells} values, got {len(self.values)}"
            )

    def value_at(self, coords: Sequence[int]) -> int:
        return self.values[self.shape.rank(self.shape.check_coords(coords))]


@dataclass(frozen=True)
class Violation:
    """One offending (line, value) pair found by validate_perm.

    kind is "repeat" or "missing" for line defects (direction is the 1-based
    axis, fixed the d-1 frozen coordinates), or "range" for an out-of-range
    entry (direction None, fixed = the full cell coordinates).
    """

    kind: str
    direction: Optional[int]
    fixed: tuple
    value: int


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple = field(default_factory=tuple)


def all_ones_support(shape: Shape) -> SupportArray:
    """The support allowing every value at every cell."""
    return SupportArray(shape, (shape.full_mask,) * shape.ncells)


def enumerate_lines(shape: Shape, direction: int) -> list:
    """Line descriptors for one axis direction (1-based, 1..d).

    A descriptor is the tuple of d-1 fixed coordinates, in axis order with the
    varying position removed; there are exactly n^{d-1} of them.
    """
    if not 1 <= direction <= shape.d:
        raise ValueError(f"direction must be in 1..{shape.d}, got {direction}")
    return list(product(range(shape.n), repeat=shape.d - 1))


def line_cells(shape: Shape, direction: int, fixed: Sequence[int]) -> list:
    """The n cell multi-indices of one line."""
    if not 1 <= direction <= shape.d:
        raise ValueError(f"direction must be in 1..{shape.d}, got {direction}")
    fixed = tuple(fixed)
    if len(fixed) != shape.d - 1:
        raise ShapeError(f"expected {shape.d - 1} fixed coordinates")
    k = direction - 1
    return [fixed[:k] + (t,) + fixed[k:] for t in range(shape.n)]


def validate_perm(candidate, shape: Shape) -> ValidationReport:
    """Check the value-form permutation property line by line.

    candidate may be a flat row-major sequence of n^d integers or a nested
    sequence; a wrong entry count is a structural ShapeError, not a report.
    The report lists every line in every direction that is not a permutation
    of {0,...,n-1}: one "repeat" entry per duplicated value, plus "missing"
    entries when out-of-range cells leave a line short (otherwise missing
    values are implied by the repeats). Out-of-range entries are reported
    per cell with kind "range".
    """
    values = _flatten_values(candidate, shape)
    violations = []
    bad_cells = set()
    for rank, v in enumerate(values):
        if not isinstance(v, int) or not 0 <= v < shape.n:
            coords = shape.unrank(rank)
            bad_cells.add(coords)
            violations.append(Violation("range", None, coords, v))
    for direction in range(1, shape.d + 1):
        for fixed in enumerate_lines(shape, direction):
            cells = line_cells(shape, direction, fixed)
            counts = {}
            has_bad = False
            for c in cells:
                if c in bad_cells:
                    has_bad = True
                    continue
                v = values[shape.rank(c)]
                counts[v] = counts.get(v, 0) + 1
            for v, cnt in sorted(counts.items()):
                if cnt > 1:
                    violations.append(Violation("repeat", direction, fixed, v))
            if has_bad:
                for v in range(shape.n):
                    if v not in counts:
                        violations.append(Violation("missing", direction, fixed, v))
    return ValidationReport(not violations, tuple(violations))


def perm_to_indicator(p: PermTensor) -> frozenset:
    """The 1-cells of the [n]^{d+1} indicator array, as (i_1,...,i_d,j) tuples."""
    shape = p.shape
    return frozenset(
        shape.unrank(rank) + (v,) for rank, v in enumerate(p.values)
    )


def indicator_to_perm(shape: Shape, ones: Iterable[Sequence[int]]) -> PermTensor:
    """Rebuild the value form from indicator 1-cells; every cell must carry
    exactly one value."""
    values = [None] * shape.ncells
    for entry in ones:
        *coords, j = tuple(entry)
        rank = shape.rank(shape.check_coords(coords))
        if values[rank] is not None:
            raise ValueError(f"cell {tuple(coords)} holds more than one value")
        values[rank] = j
    missing = values.count(None)
    if missing:
        raise ValueError(f"{missing} cells hold no value")
    return PermTensor(shape, tuple(values))


def transpose_support(a: SupportArray, axis_a: int, axis_b: int) -> SupportArray:
    """Swap two of the d+1 directions of the 0-1 form (0-based; axis d is the
    value direction). The result is again an order-n support with the same d."""
    d = a.shape.d
    if not (0 <= axis_a <= d and 0 <= axis_b <= d):
        raise ValueError(f"axes must be in 0..{d}")
    swapped = []
    for entry in a.ones():
        e = list(entry)
        e[axis_a], e[axis_b] = e[axis_b], e[axis_a]
        swapped.append(e)
    return SupportArray.from_ones(a.shape, swapped)


# -- text format: header "d n", then n^d row-major values, n per text line ----

def parse_perm(text: str) -> PermTensor:
    """Parse the text tensor format and validate the line constraints."""
    tokens = text.split()
    if len(tokens) < 2:
        raise HeaderError("header must carry two integers: d n")
    try:
        d, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise HeaderError(f"non-integer header fields {tokens[:2]!r}") from None
    try:
        shape = Shape(d, n)
    except ShapeError as exc:
        raise HeaderError(str(exc)) from None
    body = tokens[2:]
    if len(body) != shape.ncells:
        raise EntryCountError(
            f"expected {shape.ncells} values for d={d} n={n}, got {len(body)}"
        )
    values = []
    for tok in body:
        try:
            v = int(tok)
        except ValueError:
            raise ValueRangeError(f"non-integer value {tok!r}") from None
        if not 0 <= v < n:
            raise ValueRangeError(f"value {v} out of range 0..{n - 1}")
        values.append(v)
    report = validate_perm(values, shape)
    if not report.valid:
        first = report.violations[0]
        raise LineConstraintError(
            f"line constraints violated ({len(report.violations)} violations; "
            f"first: {first.kind} value {first.value} in direction "
            f"{first.direction} at {first.fixed})"
        )
    return PermTensor(shape, tuple(values))


def serialize_perm(p: PermTensor) -> str:
    """Canonical text form: one header line, then n values per line."""
    return _perm_text(p, _RowText())


_WRITE_BLOCK = 1024
_ROW_CACHE_MAX = 1 << 16


def write_perms(perms: Iterable[PermTensor], out) -> None:
    """Write tensors in the serialize_perm form, a blank line between two.

    The text goes to out.write in blocks of _WRITE_BLOCK tensors. Each
    distinct row is formatted once and its text reused; the cache is emptied
    between blocks once it holds more than _ROW_CACHE_MAX rows, so an
    endless stream runs in flat memory.
    """
    rows = _RowText()
    texts = []
    sep = ""
    for p in perms:
        texts.append(_perm_text(p, rows))
        if len(texts) == _WRITE_BLOCK:
            out.write(sep + "\n".join(texts))
            sep = "\n"
            texts.clear()
            if len(rows) > _ROW_CACHE_MAX:
                rows.clear()
    if texts:
        out.write(sep + "\n".join(texts))


class _RowText(dict):
    """Text of a row of values, a newline included, keyed by the value tuple
    and formatted on first use."""

    def __missing__(self, row: tuple) -> str:
        text = self[row] = " ".join(map(str, row)) + "\n"
        return text


def _perm_text(p: PermTensor, rows: _RowText) -> str:
    n = p.shape.n
    v = p.values
    return f"{p.shape.d} {n}\n" + "".join(
        [rows[v[i : i + n]] for i in range(0, len(v), n)]
    )


def parse_support(json_text: str) -> SupportArray:
    """Parse the JSON support schema: {"d", "n", "all_ones": true | "ones": [...]}."""
    try:
        obj = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError("support must be a JSON object")
    for key in ("d", "n"):
        if key not in obj:
            raise FormatError(f"missing field {key!r}")
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise FormatError(f"field {key!r} must be an integer")
    try:
        shape = Shape(obj["d"], obj["n"])
    except ShapeError as exc:
        raise FormatError(str(exc)) from None
    if obj.get("all_ones") is True:
        return all_ones_support(shape)
    ones = obj.get("ones")
    if ones is None:
        raise FormatError('support needs "all_ones": true or an "ones" array')
    if not isinstance(ones, list):
        raise FormatError('"ones" must be an array of integer arrays')
    for entry in ones:
        if not isinstance(entry, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in entry
        ):
            raise FormatError(f"one-entry must be an integer array, got {entry!r}")
    try:
        return SupportArray.from_ones(shape, ones)
    except (ShapeError, ValueRangeError) as exc:
        raise FormatError(str(exc)) from None


def _mask_values(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _flatten_values(candidate, shape: Shape) -> list:
    out = []
    _flatten_into(candidate, out)
    if len(out) != shape.ncells:
        raise ShapeError(
            f"expected {shape.ncells} entries for d={shape.d} n={shape.n}, "
            f"got {len(out)}"
        )
    return out


def _flatten_into(x, out):
    if isinstance(x, (list, tuple)):
        for item in x:
            _flatten_into(item, out)
    else:
        out.append(x)

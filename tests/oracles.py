"""Independent reference implementations the tests compare against.

Everything here is written from the definitions, deliberately using different
algorithms and traversal orders than the package: for d=2 a counter that
goes row-by-row, over the permutations each row admits (a prefix tree per
row), memoised on the values used per column; for any d a set-based
depth-first search that walks cells in reversed order and yields every
tensor it finds; and expansion by minors for the d=1 permanent.
The f table and the theorem-5 sweep are the extended-precision numpy
versions the package used before it moved to exact integer prefix sums,
and the streamed sweep is the float one it ran before it pruned blocks; the
one-shot f table is the integer build the package ran before it built the
table in chunks; f_exact evaluates f in rationals from its definition. The
line validator is the cell-by-cell one it used before it sliced lines
by stride. The shade histogram is the walk over all (n!)^d orderings that
the package ran before it counted them in closed form, and shade_count is
the N of one ordering, set by set from the definition of the shade. The
block lift is built block by block, as the package built it before it read
every cell's value in one pass. normalised_support is the restriction of a
full support that a count of it times its relabellings checks per_d by.
Nothing here imports from hdperm.counting, whose slab walk is the
package's own reference; hdperm.core supplies the support type and the
validator's record and error, and the validator lists its lines itself.
"""

import math
from fractions import Fraction
from itertools import accumulate, islice, permutations, product, repeat
from operator import add, mul, sub, truediv
from typing import NamedTuple

import numpy as np

from hdperm import bounds
from hdperm.core import Shape, ShapeError, SupportArray, Violation


def _allowed(a: SupportArray, coords: tuple) -> set:
    """The values the support allows at one cell."""
    mask = a.masks[a.shape.rank(coords)]
    return {v for v in range(a.shape.n) if mask >> v & 1}


def count_rows_d2(a: SupportArray) -> int:
    """d=2 count: place one whole row at a time as a column permutation.

    Works row by row, over the permutations each row admits, memoised on the
    values used per column. Each row's admitted permutations (column j takes
    value perm[j], which the support must allow) are listed once up front, as
    a prefix tree: nested dicts keyed by the value of column 0, then column
    1, and so on. A row is placed by walking its tree column by column,
    skipping values its column has already used. The state is a tuple of
    frozensets, one per column, of the values the rows placed so far have
    used there; every row adds one value to every column, so the next row's
    index is the size of any of those sets.
    """
    assert a.shape.d == 2
    n = a.shape.n
    trees = []
    for i in range(n):
        root = {}
        for perm in permutations(range(n)):
            if all(perm[j] in _allowed(a, (i, j)) for j in range(n)):
                node = root
                for v in perm:
                    node = node.setdefault(v, {})
        trees.append(root)
    memo = {}

    def rows_from(used: tuple) -> int:
        i = len(used[0])
        if i == n:
            return 1
        if used not in memo:
            memo[used] = walk(used, trees[i], ())
        return memo[used]

    def walk(used: tuple, node: dict, placed: tuple) -> int:
        # placed: the next state's sets for the columns walked so far
        j = len(placed)
        if j == n:
            return rows_from(placed)
        return sum(
            walk(used, child, placed + (used[j] | {v},))
            for v, child in node.items()
            if v not in used[j]
        )

    return rows_from(tuple(frozenset() for _ in range(n)))


def count_sets(a: SupportArray) -> int:
    """Any-d count: the number of tensors enumerate_sets finds."""
    return sum(1 for _ in enumerate_sets(a))


def enumerate_sets(a: SupportArray):
    """Yield the value tuple (row-major) of every supported permutation.

    Recurses over cells in reverse row-major order, tracking used values per
    line with plain sets, so the tuples come out in no sorted order.
    """
    shape = a.shape
    cells = list(shape.cells())
    order = cells[::-1]
    used = {}  # (direction, fixed coords) -> set of values
    placed = {}  # coords -> value

    def key(direction: int, coords: tuple) -> tuple:
        k = direction - 1
        return (direction, coords[:k] + coords[k + 1:])

    def place(idx: int):
        if idx == len(order):
            yield tuple(placed[c] for c in cells)
            return
        coords = order[idx]
        keys = [key(t, coords) for t in range(1, shape.d + 1)]
        for v in _allowed(a, coords):
            if any(v in used.setdefault(k, set()) for k in keys):
                continue
            for k in keys:
                used[k].add(v)
            placed[coords] = v
            yield from place(idx + 1)
            for k in keys:
                used[k].discard(v)

    yield from place(0)


def permanent_minors(matrix) -> int:
    """d=1 permanent by expansion along the first row."""
    m = np.asarray(matrix, dtype=np.int64)
    if m.size == 0:
        return 1
    total = 0
    for j in range(m.shape[1]):
        if m[0, j]:
            minor = np.delete(m[1:], j, axis=1)
            total += permanent_minors(minor)
    return total


def support_from_matrix(matrix) -> SupportArray:
    """A d=1 support whose cell i allows value j iff matrix[i][j] = 1."""
    masks = [sum(1 << j for j, bit in enumerate(row) if bit) for row in matrix]
    return SupportArray(Shape(1, len(masks)), tuple(masks))


def f_table_longdouble(d: int, rmax: int):
    """(f(d,1), ..., f(d,rmax)) as float64: row 0 is log k in numpy
    longdouble, every later row the running sum of the one before divided
    by r, and only the result is rounded to double."""
    ks = np.arange(1, rmax + 1, dtype=np.longdouble)
    row = np.log(ks)
    for _ in range(d):
        row = np.cumsum(row) / ks
    return row.astype(np.float64)


def f_rows_one_shot(d: int, size: int) -> list:
    """Rows 0..d of the f table at length size, each built over its whole
    length in one pass, as the package did before it built the table in
    chunks: row 0 is log k, and every later row is its predecessor's exact
    fixed-point prefix sums floor-divided by r, then rounded to doubles."""
    unit = float(1 << bounds.FRAC_BITS)
    rows = [[math.log(k) for k in range(1, size + 1)]]
    ints = [int(x * unit) for x in rows[0]]
    for _ in range(d):
        ints = [s // r for r, s in enumerate(accumulate(ints), 1)]
        rows.append([i / unit for i in ints])
    return rows


EXACT_R_LIMIT = 200  # rational coefficients blow up as lcm(1..r); 200 is ample


class LogCombination(NamedTuple):
    """f(d,r) written exactly as Σ q_k log k with rational q_k, k ≥ 2."""

    coefficients: dict

    def evaluate(self) -> float:
        return math.fsum(float(q) * math.log(k) for k, q in self.coefficients.items())


_exact_rows: dict = {}  # d -> [coefficients of f(d,r) for r = 1..len]


def _exact_row(d: int, rmax: int) -> list:
    have = _exact_rows.get(d)
    if have is not None and len(have) >= rmax:
        return have
    if d == 0:
        row = [{} if k == 1 else {k: Fraction(1)} for k in range(1, rmax + 1)]
    else:
        prev = _exact_row(d - 1, rmax)
        acc: dict = {}
        row = []
        for k in range(1, rmax + 1):
            for key, q in prev[k - 1].items():
                acc[key] = acc.get(key, 0) + q
            row.append({key: q / k for key, q in acc.items()})
    _exact_rows[d] = row
    return row


def f_exact(d: int, r: int) -> LogCombination:
    """Exact rational-coefficient form of f(d,r), from its definition;
    capped at r = 200."""
    if not isinstance(d, int) or d < 0 or not isinstance(r, int) or r < 1:
        raise ValueError(f"need integers d >= 0 and r >= 1, got {d!r}, {r!r}")
    if r > EXACT_R_LIMIT:
        raise ValueError(f"exact path capped at r <= {EXACT_R_LIMIT}, got {r}")
    return LogCombination(dict(_exact_row(d, r)[r - 1]))


def theorem5_sweep_numpy(d: int, r_max: int, c: float) -> tuple:
    """The float64 sweep of f(d,r) ≤ log r − d + c log^d(r)/r over
    ⌈e^d⌉ ≤ r ≤ r_max and of f(d,r) ≤ log r over 1 ≤ r ≤ r_max, on the
    longdouble table: (checked, violations, min margin, weak checked, weak
    violations, weak min margin)."""
    f = f_table_longdouble(d, r_max)
    r = np.arange(1, r_max + 1, dtype=np.float64)
    logs = np.log(r)
    weak = logs - f
    strong = (logs - d + c * logs**d / r - f)[math.ceil(math.e**d) - 1 :]
    return (
        int(strong.size),
        int((strong < 0).sum()),
        float(strong.min()),
        int(weak.size),
        int((weak < 0).sum()),
        float(weak.min()),
    )


def theorem5_sweep_stream(rows, d: int):
    """bounds.theorem5_check(rows, d) as the package ran it before it pruned
    the strong sweep by blocks: every margin of both bounds streamed from
    the table rows (from bounds.f_rows), the strong one as ((log r − d) +
    (c · log^d r) / r) − f(d,r), and violations counted in a second full
    pass only when a minimum is negative."""
    r_max = len(rows[0])
    r_start = math.ceil(math.e**d)
    c = bounds.c_constant(d).c_d
    fd = float(d)
    row0, row = rows[0], rows[d]

    def strong():
        head = map(sub, islice(row0, r_start - 1, r_max), repeat(fd))
        logs = islice(row0, r_start - 1, r_max)
        scaled = map(mul, repeat(c), map(pow, logs, repeat(fd)))
        tail = map(truediv, scaled, range(r_start, r_max + 1))
        return map(sub, map(add, head, tail), islice(row, r_start - 1, r_max))

    def weak():
        return map(sub, islice(row0, r_max), islice(row, r_max))

    def min_and_violations(margins):
        low = min(margins())
        return low, (sum(m < 0 for m in margins()) if low < 0 else 0)

    low, violations = min_and_violations(strong)
    weak_low, weak_violations = min_and_violations(weak)
    return bounds.SweepReport(d, r_start, r_max, r_max - r_start + 1, violations, low,
                              weak_violations, weak_low, c)


def _line_cells(shape: Shape, direction: int, fixed: tuple) -> list:
    """The n cell multi-indices of the line along direction (1-based) whose
    other d-1 coordinates, in axis order, are fixed."""
    k = direction - 1
    return [fixed[:k] + (t,) + fixed[k:] for t in range(shape.n)]


def line_repeats_cells(values, shape: Shape) -> tuple:
    """The line check of core.line_repeats, cell by cell: every line's cells
    are listed as coordinate tuples and looked up by rank, and each line's
    values are counted. values is flat, row-major, with n^d entries; an
    entry that is not an int in 0..n-1 raises ShapeError."""
    assert len(values) == shape.ncells
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < shape.n:
            raise ShapeError(f"value {v!r} out of range 0..{shape.n - 1}")
    violations = []
    for direction in range(1, shape.d + 1):
        for fixed in product(range(shape.n), repeat=shape.d - 1):
            counts = {}
            for c in _line_cells(shape, direction, fixed):
                v = values[shape.rank(c)]
                counts[v] = counts.get(v, 0) + 1
            for v, cnt in sorted(counts.items()):
                if cnt > 1:
                    violations.append(Violation(direction, fixed, v))
    return tuple(violations)


def block_lift_values(shape: Shape, bits) -> tuple:
    """The values of constructions.block_lift(shape, bits), block by block:
    the block at base cell b, its base value j = (b_1 + ... + b_d) mod n/2,
    holds j + (n/2) * ((eps_1 + ... + eps_d + bits[b]) mod 2) at offset eps.
    The order n is even and bits has one 0 or 1 per block."""
    d, half = shape.d, shape.n // 2
    values = [0] * shape.ncells
    for bcoords, bit in zip(product(range(half), repeat=d), bits):
        j = sum(bcoords) % half
        for eps in product(range(2), repeat=d):
            coords = tuple(2 * bc + e for bc, e in zip(bcoords, eps))
            values[shape.rank(coords)] = j + half * ((sum(eps) + bit) % 2)
    return tuple(values)


def ordering_histogram(q) -> dict:
    """Integer counts of N for the shade query q (a hdperm.shade.ShadeQuery)
    over all (n!)^d orderings, enumerated in lexicographic rank order."""
    shape = q.x.shape
    axis_vals = [
        [q.x.value_at(q.target[:k] + (t,) + q.target[k + 1:]) for t in range(shape.n)]
        for k in range(shape.d)
    ]
    wmask = 0
    for v in q.w:
        wmask |= 1 << v
    # per axis, the shade mask each sigma produces; the product loop is then
    # just OR + popcount
    per_axis = []
    for k in range(shape.d):
        vals = axis_vals[k]
        ik = q.target[k]
        masks = []
        for sig in permutations(range(shape.n)):
            rank_i = sig[ik]
            m = 0
            for t in range(shape.n):
                if sig[t] < rank_i:
                    m |= 1 << vals[t]
            masks.append(m)
        per_axis.append(masks)
    counts: dict = {}
    for combo in product(*per_axis):
        shaded = 0
        for m in combo:
            shaded |= m
        n_left = (wmask & ~shaded).bit_count()
        counts[n_left] = counts.get(n_left, 0) + 1
    return counts


def shade_count(q, sigmas: tuple) -> int:
    """N for the shade query q under one ordering: sigmas[k][t] is the rank
    of coordinate value t along axis k. Z^k holds the values of the cells
    that precede the target along axis k, and N = |W \\ (Z^1 ∪ ... ∪ Z^d)|."""
    shape = q.x.shape
    assert len(sigmas) == shape.d and all(sorted(s) == list(range(shape.n)) for s in sigmas)
    shaded = set()
    for k, sig in enumerate(sigmas):
        for t in range(shape.n):
            if sig[t] < sig[q.target[k]]:
                shaded.add(q.x.value_at(q.target[:k] + (t,) + q.target[k + 1:]))
    return len(q.w - shaded)


def ones_of(a: SupportArray) -> list:
    """The (i_1,...,i_d,j) one-entries of a, in row-major order."""
    n = a.shape.n
    return [c + (j,) for c, m in zip(a.shape.cells(), a.masks) for j in range(n) if m >> j & 1]


def transpose_support(a: SupportArray, axis_a: int, axis_b: int) -> SupportArray:
    """Swap two of the d+1 directions of the 0-1 form (0-based; axis d is the
    value direction). The result is again an order-n support with the same d."""
    d = a.shape.d
    if not (0 <= axis_a <= d and 0 <= axis_b <= d):
        raise ValueError(f"axes must be in 0..{d}")
    swapped = []
    for entry in ones_of(a):
        e = list(entry)
        e[axis_a], e[axis_b] = e[axis_b], e[axis_a]
        swapped.append(e)
    return SupportArray.from_ones(a.shape, swapped)


def normalised_support(shape: Shape) -> SupportArray:
    """The full support of shape in which the line through cell 0 along each
    axis k reads 0, 1, ..., n-1: a cell with coordinate t on one axis and 0
    on the others allows only t, and every other cell every value. Each
    tensor of the full support maps into it under exactly one of the
    n!·((n-1)!)^(d-1) value relabellings times coordinate permutations that
    fix 0 on axes 0..d-2, so the full count is that many times its count."""
    masks = []
    for coords in shape.cells():
        on_a_line = sum(1 for c in coords if c) <= 1
        masks.append(1 << sum(coords) if on_a_line else shape.full_mask)
    return SupportArray(shape, tuple(masks))

"""Independent reference implementations the tests compare against.

Everything here is written from the definitions, deliberately using different
algorithms and traversal orders than the package: for d=2 a counter that
goes row-by-row, over the permutations each row admits (a prefix tree per
row), memoised on the values used per column; for any d a set-based
depth-first search that walks cells in reversed order and yields every
tensor it finds; and expansion by minors for the d=1 permanent.
Nothing here imports from hdperm.counting, whose depth-first search is the
package's own reference; only hdperm.core supplies the support type.
"""

from itertools import permutations

import numpy as np

from hdperm.core import Shape, SupportArray


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
            if all(perm[j] in a.allowed_at((i, j)) for j in range(n)):
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
        for v in a.allowed_at(coords):
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
    m = [list(row) for row in matrix]
    n = len(m)
    sets = [{j for j in range(n) if row[j]} for row in m]
    return SupportArray.from_sets(Shape(1, n), sets)

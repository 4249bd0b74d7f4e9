"""Exact d-permanent computation: the number of d-dimensional permutations
supported by a 0-1 array.

per_d counts slab by slab. A slab is the hyperplane with the first
coordinate fixed; every axis-0 line crosses each slab once, and no other line
crosses two slabs. A forward dynamic program carries, for every set of values
already used on each axis-0 line, the number of ways the slabs so far reach
it. Each slab but the last takes one (d-1)-dimensional permutation its own
support admits; the last slab is forced, since every line misses exactly one
value. The work grows with the number of distinct states, not with the count.
Counts are exact Python ints, and the result and the per-slab state counts
are deterministic.

enumerate_perms is the package's one depth-first search: it fills cells in
row-major order with per-line used-value bitmasks. It searches only the first
n-1 slabs; the last slab is forced here too, so each leaf is checked against
the support and yielded, or dropped, without searching its cells.
per_d(a, backend="python") counts its leaves; that is the reference the
tests and benchmarks cross-check the slab DP against.
"""

from functools import lru_cache
from operator import and_
from typing import Iterator, Optional

from hdperm import kernels
from hdperm.core import PermTensor, Shape, SupportArray, all_ones_support


@lru_cache(maxsize=None)
def _line_table(shape: Shape):
    """Per-cell line ids: for each cell in row-major order, a tuple of its d
    line ids.

    Line id for direction k (0-based) = k * n^{d-1} + row-major rank of the
    d-1 fixed coordinates.
    """
    d, n = shape.d, shape.n
    per_dir = n ** (d - 1)
    table = []
    for coords in shape.cells():
        row = []
        for k in range(d):
            sub = coords[:k] + coords[k + 1 :]
            r = 0
            for c in sub:
                r = r * n + c
            row.append(k * per_dir + r)
        table.append(tuple(row))
    return tuple(table)


def _count_slabs(a: SupportArray):
    """Slab-transfer count of a's permutations, and the number of distinct
    states after each of the first n-1 slabs.

    A state packs the values used so far on every axis-0 line into one int,
    n bits per line, lines in the row-major order of the slab's cells. A
    filling is a slab's permutation in the same one-hot layout, so it fits a
    state when they share no bit.
    """
    d, n = a.shape.d, a.shape.n
    m = n ** (d - 1)  # cells per slab, one per axis-0 line
    dp = {0: 1}
    states = []
    for s in range(n - 1):
        cells = a.masks[s * m : (s + 1) * m]
        if d == 1:
            fills = [1 << v for v in range(n) if cells[0] >> v & 1]
        else:
            sub = SupportArray(Shape(d - 1, n), cells)
            fills = [
                sum(1 << (p * n + v) for p, v in enumerate(perm.values))
                for perm in enumerate_perms(sub)
            ]
        nxt = {}
        for state, c in dp.items():
            for f in fills:
                if not state & f:
                    key = state | f
                    nxt[key] = nxt.get(key, 0) + c
        dp = nxt
        states.append(len(dp))
    # last slab: each line takes the value it still misses, i.e. the
    # complement of the state; along the other axes that is always a
    # permutation, so only the support can reject it
    full = (1 << (n * m)) - 1
    allowed = sum(mask << (p * n) for p, mask in enumerate(a.masks[(n - 1) * m :]))
    forbidden = full ^ allowed
    count = sum(c for state, c in dp.items() if not (full ^ state) & forbidden)
    return count, states


def per_d(
    a: SupportArray,
    threads: int = 1,
    backend: Optional[str] = None,
    stats: Optional[dict] = None,
) -> int:
    """Exact count of supported d-dimensional permutations.

    By default the count comes from the slab-transfer DP (_count_slabs), and
    stats, when given, receives its work record: "algorithm" ("slab") and
    "states", the distinct states after each of the first n-1 slabs.
    backend="python" instead counts the leaves of enumerate_perms'
    depth-first search, the reference path for tests and benchmarks; any
    other backend raises RuntimeError. threads is accepted for compatibility
    and ignored: a thread split only slowed the pure-Python count under the
    interpreter lock, and it never changed the result.
    """
    if backend is None:
        count, states = _count_slabs(a)
        if stats is not None:
            stats.update(algorithm="slab", states=states)
        return count
    kernels.get(backend)
    return sum(1 for _ in enumerate_perms(a))


def count_all(shape: Shape, threads: int = 1, backend: Optional[str] = None) -> int:
    """per_d of the all-ones support: the full count of order-n
    d-dimensional permutations."""
    return per_d(all_ones_support(shape), threads=threads, backend=backend)


def supports(a: SupportArray, p: PermTensor) -> bool:
    """True iff every value of p is allowed by a."""
    if a.shape != p.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {p.shape}")
    return all((m >> v) & 1 for m, v in zip(a.masks, p.values))


def enumerate_perms(a: SupportArray, limit: Optional[int] = None) -> Iterator[PermTensor]:
    """Yield the supported permutations in deterministic order.

    Cells are filled row-major, candidate values tried in ascending order, so
    the stream sorts by the value tuple. Without a limit it yields exactly
    per_d(a) tensors.

    The search stops at the last slab (first coordinate n-1), which is
    forced, as in the slab DP: its cell p lies on axis-0 line p and takes the
    one value that line still misses. Along every other axis those values
    always form a permutation, so only the support can reject the slab.
    """
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive")
    shape = a.shape
    allowed = a.masks
    n = shape.n
    if n == 1:
        if allowed[0]:
            yield PermTensor(shape, (0,))
        return
    lines = _line_table(shape)
    m = n ** (shape.d - 1)  # cells per slab, one per axis-0 line
    base = shape.ncells - m  # first cell of the forced last slab
    last = base - 1  # the last cell the search fills
    full = shape.full_mask
    tail = allowed[base:]
    value_of = {1 << v: v for v in range(n)}.__getitem__
    used = [0] * (shape.d * m)
    avail = [0] * base
    chosen = [0] * base
    yielded = 0
    depth = 0
    avail[0] = allowed[0]
    while True:
        mask = avail[depth]
        if mask == 0:
            depth -= 1
            if depth < 0:
                return
            b = chosen[depth]
            for line in lines[depth]:
                used[line] ^= b
            continue
        b = mask & -mask
        avail[depth] = mask ^ b
        chosen[depth] = b
        if depth == last:
            # cell base-1 sits on axis-0 line m-1; every axis-0 line now
            # misses exactly one value, which the last slab must take
            forced = [full ^ u for u in used[: m - 1]]
            forced.append(full ^ used[m - 1] ^ b)
            if all(map(and_, tail, forced)):
                values = (*map(value_of, chosen), *map(value_of, forced))
                yield PermTensor(shape, values)
                yielded += 1
                if limit is not None and yielded >= limit:
                    return
            continue
        for line in lines[depth]:
            used[line] |= b
        depth += 1
        u = 0
        for line in lines[depth]:
            u |= used[line]
        avail[depth] = allowed[depth] & ~u

"""Exact d-permanent computation: the number of d-dimensional permutations
supported by a 0-1 array.

per_d counts slab by slab. A slab is the hyperplane with the first
coordinate fixed; every axis-0 line crosses each slab once, and no other
line crosses two slabs, so all that slabs 0..k-1 pass on to the rest is the
set of values each axis-0 line has used: the state. Each slab takes one
(d-1)-dimensional permutation its own support admits; these fillings are
listed once per distinct tuple of slab cell masks in a call. The count meets
in the middle: a forward DP counts the ways slabs 0..h-1 (h = n // 2) reach
each state S, a backward DP the ways slabs n-1..h reach each state T, and
every line takes each value once, so the count is the sum of
F[S] * B[full ^ S]. The work grows with the number of distinct states, not
with the count. The states are most numerous half-way, and neither DP steps
on from there.
Counts are exact Python ints, and the result and the per-slab state counts
are deterministic. Measured in process on a 2-core machine: L(6) =
812,851,200 in 12 s (22-27 s with a forward DP alone), d=3 n=4 in
0.05-0.07 s (0.06-0.085 s when each of its four slabs listed the 576 Latin
squares anew).

enumerate_perms is the package's one depth-first search: it fills cells in
row-major order with per-line used-value bitmasks. It searches only the
first n-1 slabs; the last slab is forced, since every axis-0 line then
misses exactly one value, so each leaf is checked against the support and
yielded, or dropped, without searching its cells. For d >= 2 and n >= 3 it
prunes with live sets (hdperm.live) built once per call from the count's
slab fillings and a set-valued form of its transition: live[s] holds the
states after s slabs that some filling of the remaining slabs completes, and
the search backtracks at once from a slab boundary whose state is not in it.
Where every state the search can reach is live (any full d = 2 support)
there is no check, and the build gives up, with no check anywhere, rather
than list or step more than _MEMO_MAX entries, so a short --limit never
waits for it. The search also keys a per-call memo on the state at slab n-2
and replays the last two slabs' recorded values for every later prefix that
reaches the same state. Measured in process on a 2-core machine: on the full
d=2 n=5 support (66,240 prefixes reach 2,040 states at slab 3) the stream
takes 0.67 s with the memo and 1.9 s without; the 20 planted d=2 n=6
supports of the first two passes of the enumerate benchmark (seed 4242),
where almost every prefix that reaches slab 4 has no completion, take 0.22 s
with the live sets and the memo and 1.4 s with neither.
per_d(a, backend="python") counts its leaves; that is the reference the
tests and benchmarks cross-check the slab DP against. As its live sets come
from the same slab fillings, the tests also run the search with the tables
off and compare both with the oracles in tests/oracles.py.
"""

from functools import lru_cache
from operator import and_
from typing import Iterator, Optional

from hdperm import kernels
from hdperm.core import PermTensor, Shape, SupportArray, all_ones_support

# entries plus tails one enumerate_perms call keeps in its memo, and the
# most value tuples or state-filling pairs its live sets may list or step
_MEMO_MAX = 1 << 16


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


def _slab_fills(shape: Shape, cells: tuple) -> list:
    """Every permutation a slab with cell masks cells admits, as a state:
    the value of slab cell p sets bit p*n + value."""
    d, n = shape.d, shape.n
    if d == 1:
        return [1 << v for v in range(n) if cells[0] >> v & 1]
    sub = SupportArray(Shape(d - 1, n), cells)
    return [
        sum(1 << (p * n + v) for p, v in enumerate(perm.values))
        for perm in enumerate_perms(sub)
    ]


def _fill_lister(a: SupportArray):
    """fills(s): the fillings slab s of a admits, listed by _slab_fills once
    per distinct tuple of cell masks, so the slabs of a full support (and
    any slabs with equal masks) share one list."""
    m = a.shape.n ** (a.shape.d - 1)
    listed = {}

    def fills(s: int) -> list:
        cells = a.masks[s * m : (s + 1) * m]
        found = listed.get(cells)
        if found is None:
            found = listed[cells] = _slab_fills(a.shape, cells)
        return found

    return fills


def _step(dp: dict, fills: list) -> dict:
    """One slab of the DP: every state extended by every filling it shares no
    bit with, the ways to reach each new state summed."""
    nxt = {}
    get = nxt.get
    for state, c in dp.items():
        for f in fills:
            if not state & f:
                key = state | f
                nxt[key] = get(key, 0) + c
    return nxt


def _count_slabs(a: SupportArray):
    """Meet-in-the-middle slab count of a's permutations, and the number of
    distinct states after each forward and each backward slab.

    A state packs the values used on every axis-0 line into one int, n bits
    per line, lines in the row-major order of the slab's cells. The forward
    DP fills slabs 0..h-1 (h = n // 2), the backward DP slabs n-1..h. Every
    line takes n distinct values from n slabs, so a forward state S joins
    exactly the backward state full ^ S.
    """
    n = a.shape.n
    h = n // 2
    full = (1 << (n * n ** (a.shape.d - 1))) - 1
    fills = _fill_lister(a)
    fwd, states = {0: 1}, []
    for s in range(h):
        fwd = _step(fwd, fills(s))
        states.append(len(fwd))
    back, states_back = {0: 1}, []
    for s in range(n - 1, h - 1, -1):
        back = _step(back, fills(s))
        states_back.append(len(back))
    get = back.get
    count = sum(c * get(full ^ state, 0) for state, c in fwd.items())
    return count, states, states_back


def per_d(
    a: SupportArray,
    threads: int = 1,
    backend: Optional[str] = None,
    stats: Optional[dict] = None,
) -> int:
    """Exact count of supported d-dimensional permutations.

    By default the count comes from the meet-in-the-middle slab DP
    (_count_slabs), and stats, when given, receives its work record:
    "algorithm" ("meet"), "states", the distinct states after each forward
    slab 0..n//2-1, and "states_back", the same after each backward slab
    n-1..n//2.
    backend="python" instead counts the leaves of enumerate_perms'
    depth-first search, the reference path for tests and benchmarks; any
    other backend raises RuntimeError. threads is accepted for compatibility
    and ignored: a thread split only slowed the pure-Python count under the
    interpreter lock, and it never changed the result.
    """
    if backend is None:
        count, states, states_back = _count_slabs(a)
        if stats is not None:
            stats.update(algorithm="meet", states=states, states_back=states_back)
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

    For d >= 2 the search looks the axis-0 line masks up in live[s] (see
    hdperm.live) when it enters a slab s = 1..n-2 that has a live set, and
    backtracks at once if they are not there: no filling of the remaining
    slabs completes that prefix, so only leafless prefixes are skipped. A
    slab has no live set where every state the search can reach is live,
    and no slab has one when building them would pass _MEMO_MAX. None are
    built for a full support of d = 2, where every state is live, since
    every Latin rectangle completes to a Latin square (M. Hall, 1945), nor
    for d = 1, where a slab is one cell and the tables cost more than the
    search they would prune.

    What the last two slabs admit depends only on the axis-0 line masks when
    the search enters slab n-2, so each call memoises, per mask tuple, the
    values those slabs took at every leaf (in search order), and replays
    them when a later prefix reaches the same masks. Most entries of a
    sparse support record no tail at all, so the memo is emptied once its
    entries and tails together number more than _MEMO_MAX; an endless
    stream then runs in flat memory.
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
    mid = base - m  # first cell of slab n-2, where the memo is keyed
    last = base - 1  # the last cell the search fills
    full = shape.full_mask
    last_masks = allowed[base:]
    value_of = {1 << v: v for v in range(n)}.__getitem__
    live = [None] * (n - 1)  # live[s]: the states slab s may start from; None: any
    if shape.d > 2 or shape.d == 2 and allowed.count(full) < len(allowed):
        from hdperm.live import live_states

        live = live_states(a, _fill_lister(a)) or live
    # gate[depth]: the search looks up the axis-0 line masks on entering
    # depth, the start of a slab with a live set or of slab n-2
    gate = [False] * base
    for s, states in enumerate(live):
        gate[s * m] = states is not None
    gate[mid] = True
    used = [0] * (shape.d * m)
    avail = [0] * base
    chosen = [0] * base
    memo = {}
    stored = 0  # entries plus tails held by memo
    key = None
    head = ()  # values of the cells before mid, once a tensor needs them
    tails = []  # the current miss's record; for n = 2 the whole stream
    stop = limit or 0  # yielded never equals 0 after a yield
    yielded = 0
    depth = 0
    avail[0] = allowed[0]
    while True:
        mask = avail[depth]
        if mask == 0:
            if depth == mid:
                stored += 1 + len(tails)
                if stored > _MEMO_MAX:
                    memo.clear()
                    stored = 1 + len(tails)
                memo[key] = tails
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
            if all(map(and_, last_masks, forced)):
                rest = (*map(value_of, chosen[mid:]), *map(value_of, forced))
                tails.append(rest)
                if head is None:
                    head = tuple(map(value_of, chosen[:mid]))
                yield PermTensor(shape, head + rest)
                yielded += 1
                if yielded == stop:
                    return
            continue
        for line in lines[depth]:
            used[line] |= b
        depth += 1
        if gate[depth]:
            key = tuple(used[:m])
            alive = live[depth // m]
            if alive is not None and key not in alive:
                replay = ()  # no leaf below: backtrack at once
            elif depth != mid:
                replay = None
            else:
                replay = tails = memo.get(key)
                if tails is None:
                    tails = []
                    head = None  # built at the first leaf; most misses have none
            if replay is not None:
                # replay the recorded tails, then backtrack out of the slab
                if replay:
                    head = tuple(map(value_of, chosen[:mid]))
                for rest in replay:
                    yield PermTensor(shape, head + rest)
                    yielded += 1
                    if yielded == stop:
                        return
                depth -= 1
                for line in lines[depth]:
                    used[line] ^= b
                continue
        u = 0
        for line in lines[depth]:
            u |= used[line]
        avail[depth] = allowed[depth] & ~u

"""Exact d-permanent computation: the number of d-dimensional permutations
supported by a 0-1 array.

Both per_d and the enumerator, write_perms, work slab by slab. A slab is
the hyperplane with the first coordinate fixed; every axis-0 line crosses
each slab once, and no other line crosses two slabs, so all that slabs
0..k-1 pass on to the rest is the set of values each axis-0 line has used:
the state, one int with n bits per line. Each slab takes one
(d-1)-dimensional permutation, a filling, of its residual support: each
cell's mask minus the values its axis-0 line has used. A slab's fillings
are listed by the same walk one dimension down (a d = 1 slab is one cell,
and its fillings are the bits of its mask).

The slab DP is one pass, _pass: over slabs taken in a given order, it
keeps after each slab every state those slabs reach and the ways to reach
it. Every line takes each value once, so a state S after slabs 0..t-1 has
a completion exactly when full ^ S is a state the pass over slabs n-1..t
reaches. per_d meets in the middle: it joins the pass over slabs 0..h-1
(h = n // 2) with the pass over slabs n-1..h, and the count is the sum of
F[S] * B[full ^ S]. One walker per call (_fill_lister) lists slab fillings
once per distinct tuple of slab cell masks, and refuses, under a cap, a slab
too large to list; the work grows with the number of distinct states, not
with the count. Counts are exact Python ints, and the result and the
per-slab state counts are deterministic.

write_perms walks the first n-2 slabs depth first, in the order of the
value tuples, and at each slab tries only the fillings of its residual
support. Listings of small residual supports are kept per call and reused
by every prefix that leaves the same residual; large ones run lazily and are
not kept, so a short --limit never waits for a whole slab. The last slab is
forced (every axis-0 line then misses one value), so the last two slabs
depend only on the state after the first n-2: each call keeps a memo from
that state to the texts of its completions. The walk, _blocks, hands out
one block per prefix that reaches slab n-2: the prefix's text, formatted
once, and the memo's tails; the walk builds text only, in the
serialize_perm layout. On a support of d >= 2 that is not full it prunes
with the complement tables of _live, read from the same two passes: a
prefix whose state's complement is not in them has no completion.
per_d(a, backend="python") counts the tensors of that walk; that is the
reference the tests and benchmarks cross-check the slab DP against.
"""

from collections.abc import Iterator
from functools import lru_cache
from math import prod

from hdperm.core import Shape, SupportArray, rows_text

# entries one walk of the enumerator keeps in its listings, text cache and
# memo together
_MEMO_MAX = 1 << 16

# the most value tuples or state-filling pairs the passes behind the
# enumerator's live tables may list or step
_LIVE_MAX = 1 << 18

# blocks write_perms joins into one write
_WRITE_BLOCKS = 1024


@lru_cache(maxsize=None)
def _line_table(shape: Shape):
    """Per-cell line ids: for each cell in row-major order, a tuple of its d
    line ids. The package no longer walks cell by cell; the table stays for
    the benchmark's line-table probe.

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


def _pack(masks, n: int) -> int:
    """Cell masks as one int, n bits a cell, the first cell lowest: the form
    of slab supports, fillings and states."""
    packed = 0
    for i, mask in enumerate(masks):
        packed |= mask << i * n
    return packed


def _values(packed: int, cells: int, n: int) -> tuple:
    """The values of a packed filling of cells cells."""
    full = (1 << n) - 1
    return tuple([(packed >> i & full).bit_length() - 1 for i in range(0, cells * n, n)])


class _Walker:
    """The slab walk for supports of order n, and the tables one call keeps.

    Every table the walker keeps (listings, texts, the memo) counts towards
    one budget: once they hold more than _MEMO_MAX entries together, all of
    them are emptied, so an endless stream runs in flat memory.
    """

    def __init__(self, n: int):
        self.n = n
        self.cap = _MEMO_MAX
        self.tables = []
        self.stored = 0
        self.listings = 0  # residual listings made rather than read back
        self.pruned = 0  # prefixes cut by the live tables
        self._sublisters = {}

    def table(self) -> dict:
        table = {}
        self.tables.append(table)
        return table

    def keep(self, table: dict, key, value, size: int) -> None:
        """table[key] = value, value counting size entries; a value larger
        than the whole budget is not kept."""
        if size > self.cap:
            return
        self.stored += size
        if self.stored > self.cap:
            for t in self.tables:
                t.clear()
            self.stored = size
        table[key] = value

    def cached(self, fn):
        """fn, its results kept per argument within the budget."""
        table = self.table()
        get = table.get

        def lookup(key):
            got = get(key)
            if got is None:
                got = fn(key)
                self.keep(table, key, got, 1)
            return got

        return lookup

    def lister(self, k: int, piece):
        """listing(R): the (f, piece(f)) pairs of the k-dimensional
        permutations f inside the packed support R, in the order of their
        value tuples.

        A listing is kept per R when the product of R's cell sizes, which
        bounds its length, is under the budget; otherwise it runs lazily and
        is not kept.
        """
        n = self.n
        table = self.table()
        get = table.get
        full = (1 << n) - 1
        cells = range(0, n ** (k + 1), n) if k else ()  # a cell lists at most n

        def listing(R: int):
            got = get(R)
            if got is not None:
                return got
            self.listings += 1
            pairs = ((f, piece(f)) for f in self.fillings(k, R))
            if prod([(R >> i & full).bit_count() for i in cells]) >= self.cap:
                return pairs
            got = list(pairs)
            self.keep(table, R, got, 1 + len(got))
            return got

        return listing

    def sublisters(self, k: int) -> list:
        """One lister per slab position t of a (k+1)-dimensional walk, its
        pieces the fillings shifted into place."""
        found = self._sublisters.get(k)
        if found is None:
            w = self.n ** (k + 1)
            found = self._sublisters[k] = [
                self.lister(k, lambda f, shift=t * w: f << shift) for t in range(self.n)
            ]
        return found

    def fillings(self, k: int, R: int) -> Iterator[int]:
        """The k-dimensional permutations inside the packed support R,
        packed, in the order of their value tuples: for k = 0 (one cell) the
        bits of R, else the walk over its n slabs."""
        n = self.n
        if k == 0 or n == 1:
            while R:
                b = R & -R
                yield b
                R ^= b
            return
        w = n ** k  # bits per slab
        full = (1 << w) - 1
        parts = [R >> i & full for i in range(0, n * w, w)]
        lists = self.sublisters(k - 1)
        mid = n - 2
        at_mid = lists[mid]
        forbid = full ^ parts[-1]
        last = (n - 1) * w
        for head, U in self.walk(parts, lists, 0):
            for f, x in at_mid(parts[mid] & ~U):
                forced = full ^ U ^ f
                if not forced & forbid:
                    yield head | x | forced << last

    def walk(self, parts: list, lists: list, head, comp=None, full=0):
        """(head, state) for every prefix of slabs 0..n-3 of the support cut
        into slabs parts, depth first in the order of the value tuples.

        Slab s takes the pairs (f, piece) of lists[s] on its residual
        support, and head is the given start plus the pieces of the prefix.
        comp, where not None, is _live's tables: a prefix whose state S after
        s slabs has full ^ S outside comp[s] has no completion and is
        dropped.
        """
        mid = len(parts) - 2
        if mid == 0:
            yield head, 0
            return
        its = [None] * mid
        states = [0] * mid
        heads = [head] * mid
        its[0] = iter(lists[0](parts[0]))
        s = 0
        while True:
            for f, x in its[s]:
                S = states[s] | f
                t = s + 1
                if comp is not None and full ^ S not in comp[t]:
                    self.pruned += 1
                    continue
                if t == mid:
                    yield heads[s] + x, S
                    continue
                states[t] = S
                heads[t] = heads[s] + x
                its[t] = iter(lists[t](parts[t] & ~S))
                s = t
                break
            else:
                if s == 0:
                    return
                s -= 1


def _fill_lister(a: SupportArray):
    """fills(s, cap=None): the fillings slab s of a admits, as states (slab
    cell p's value v sets bit p*n + v), listed by one walker once per
    distinct tuple of cell masks: slabs with equal masks share one list, and
    all slabs share the walker's inner listings (a row's cells, a square's
    rows). With a cap, fills returns None, before listing, for a new slab
    whose cell sizes multiply to more than cap."""
    d, n = a.shape.d, a.shape.n
    m = n ** (d - 1)
    walker = _Walker(n)
    listed = {}

    def fills(s: int, cap: int | None = None) -> list | None:
        cells = a.masks[s * m : (s + 1) * m]
        found = listed.get(cells)
        if found is None:
            if cap is not None and prod(map(int.bit_count, cells)) > cap:
                return None
            found = listed[cells] = list(walker.fillings(d - 1, _pack(cells, n)))
        return found

    return fills


def _step(dp: dict, fills: list, cap: int | None = None) -> dict | None:
    """One slab of the DP: every state extended by every filling it shares no
    bit with, the ways to reach each new state summed; None, before any
    work, when that is more than cap state-filling pairs."""
    if cap is not None and len(dp) * len(fills) > cap:
        return None
    nxt = {}
    get = nxt.get
    for state, c in dp.items():
        for f in fills:
            if not state & f:
                key = state | f
                nxt[key] = get(key, 0) + c
    return nxt


def _pass(fills, order, cap: int | None = None) -> list:
    """The slab DP over the slabs order lists, fills(s, cap) listing slab
    s: tables[j] maps each state the first j of them reach to its ways.

    A state packs the values used on every axis-0 line into one int, n bits
    per line, lines in the row-major order of the slab's cells.

    With a cap, the pass stops, and returns the tables it has, where fills
    refuses a slab or a step would pair more than cap states and fillings,
    so the tables stay small.
    """
    tables = [{0: 1}]
    for s in order:
        slab = fills(s, cap)
        nxt = None if slab is None else _step(tables[-1], slab, cap)
        if nxt is None:
            break  # refused before listing or stepping
        tables.append(nxt)
    return tables


def _live(a: SupportArray, fills) -> list | None:
    """comp[t] for t = 1..n-2 (comp[0] is None): for every state S that
    slabs 0..t-1 reach, some filling of slabs t..n-1 completes S exactly
    when full ^ S is in comp[t].

    With back the pass over slabs n-1..h (h = n // 2) and fwd the pass over
    slabs 0..h-1, comp[t] for t > h is back[n - t] itself, and comp[h] is
    the meet: the T in back[n - h] with full ^ T in fwd[h]. Below h,
    comp[t] is comp[t + 1] stepped by slab t, kept if full ^ T is in
    fwd[t], since full ^ (S ^ f) = (full ^ S) | f.

    Returns None, so that nothing is checked, for n < 3, which has no slab
    boundary to check, and where a pass meets a slab whose cell sizes
    multiply to more than _LIVE_MAX, or a step of a pass or of the walk back
    would pair more than _LIVE_MAX states and fillings: a search that stops
    after a few tensors never waits for them. The backward pass, n - h >= h
    slabs long, goes first, so it meets the cap sooner.
    """
    n = a.shape.n
    if n < 3:
        return None  # no slab boundary to check
    h = n // 2
    back = _pass(fills, range(n - 1, h - 1, -1), _LIVE_MAX)
    if len(back) <= n - h:
        return None
    fwd = _pass(fills, range(h), _LIVE_MAX)
    if len(fwd) <= h:
        return None
    full = (1 << n * n ** (a.shape.d - 1)) - 1
    comp = [None] * h + back[n - h : 1 : -1]
    comp[h] = {T: c for T, c in back[n - h].items() if full ^ T in fwd[h]}
    for t in range(h - 1, 0, -1):
        nxt = _step(comp[t + 1], fills(t), _LIVE_MAX)
        if nxt is None:
            return None
        comp[t] = {T: c for T, c in nxt.items() if full ^ T in fwd[t]}
    return comp


def per_d(
    a: SupportArray,
    threads: int = 1,
    backend: str | None = None,
    stats: dict | None = None,
) -> int:
    """Exact count of supported d-dimensional permutations.

    By default the count joins the slab DP's forward pass over slabs
    0..h-1 (h = n // 2) with its backward pass over slabs n-1..h (_pass),
    and stats, when given, receives its work record: "algorithm" ("meet"),
    "states", the distinct states after each forward slab 0..h-1, and
    "states_back", the same after each backward slab n-1..h.
    backend="python" instead counts the tensors of the enumerator's walk
    (_blocks), the reference path for tests and benchmarks; any other
    backend raises RuntimeError. threads is accepted for compatibility and
    ignored: a thread split only slowed the pure-Python count under the
    interpreter lock, and it never changed the result.
    """
    if backend is None:
        n = a.shape.n
        h = n // 2
        full = (1 << n * n ** (a.shape.d - 1)) - 1
        fills = _fill_lister(a)
        back = _pass(fills, range(n - 1, h - 1, -1))
        fwd = _pass(fills, range(h))
        get = back[-1].get
        count = sum(c * get(full ^ state, 0) for state, c in fwd[-1].items())
        if stats is not None:
            stats.update(algorithm="meet", states=[len(t) for t in fwd[1:]],
                         states_back=[len(t) for t in back[1:]])
        return count
    from hdperm import kernels

    kernels.get(backend)
    return sum(len(tails) for _, tails in _blocks(a))


def _blocks(a: SupportArray, stats: dict | None = None, limit: int | None = None):
    """(head, tails) for every prefix of slabs 0..n-3 of a that has a
    completion, in the order of the value tuples; a tensor is head + tail
    for each tail, and the blocks list every tensor of a once. With a
    limit, which must be positive, they list the first limit tensors: the
    last block is cut short and the walk ends there.

    head is the header line plus the prefix rows and a tail the rows of the
    last two slabs, so head + tail is the tensor's serialize_perm text.
    Pieces of the prefix are formatted once per filling and tails once per
    memo entry.

    The walk checks live tables (_live) on the supports of d >= 2 that are
    not full. On a full support every state is live for d = 2 (every Latin
    rectangle completes to a Latin square, M. Hall, 1945) and for order 3
    (a first slab L completes by L + 1 and L + 2 mod 3), and for d >= 3 and
    n >= 4 _live returns None: a slab's cell sizes multiply to n^(n^(d-1))
    >= 4^16 > _LIVE_MAX. d = 1 builds none either: a slab is one cell, and
    the tables cost more than the walk they would prune.

    stats, when given, receives the work counters when the walk ends or is
    closed: "prefixes" that reached slab n-2, "listings" of residual
    supports made rather than read back, "memo_entries" made, "replays" of
    memo entries and "live_prunes".
    """
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive")
    shape = a.shape
    d, n = shape.d, shape.n
    m = n ** (d - 1)  # cells per slab, one per axis-0 line
    w = m * n  # bits per slab
    walker = _Walker(n)
    prefixes = entries = replays = 0
    try:
        head = f"{d} {n}\n"
        if n == 1:
            if a.masks[0] & 1:
                yield head, ["0\n"]
            return
        if d == 1:
            # the one row: a prefix value is followed by a space, the tail
            # ends the line
            def piece(f):
                return f"{f.bit_length() - 1} "

            def tail(f, forced):
                return f"{f.bit_length() - 1} {forced.bit_length() - 1}\n"
        else:
            @walker.cached
            def piece(f):
                return rows_text(_values(f, m, n), n)

            def tail(f, forced):
                return piece(f) + piece(forced)

        top = walker.lister(d - 1, piece)
        masks = a.masks
        parts = [_pack(masks[i : i + m], n) for i in range(0, n * m, m)]
        full = (1 << w) - 1
        mid = n - 2
        forbid = full ^ parts[-1]
        live = None
        if d >= 2 and masks.count(shape.full_mask) < len(masks):
            live = _live(a, _fill_lister(a))
        memo = walker.table()
        get = memo.get
        for h, S in walker.walk(parts, [top] * mid, head, live, full):
            prefixes += 1
            tails = get(S)
            if tails is None:
                entries += 1
                tails = []
                walker.listings += 1
                for f in walker.fillings(d - 1, parts[mid] & ~S):
                    forced = full ^ S ^ f
                    if not forced & forbid:
                        tails.append(tail(f, forced))
                walker.keep(memo, S, tails, 1 + len(tails))
            else:
                replays += 1
            if tails:
                if limit is not None:
                    if len(tails) >= limit:
                        yield h, tails[:limit]
                        return
                    limit -= len(tails)
                yield h, tails
    finally:
        if stats is not None:
            stats.update(prefixes=prefixes, listings=walker.listings,
                         memo_entries=entries, replays=replays,
                         live_prunes=walker.pruned)


def write_perms(a: SupportArray, out, limit: int | None = None) -> None:
    """Write the supported permutations of a to out in the serialize_perm
    form, a blank line between two, sorted by the row-major value tuple:
    all per_d(a) of them, or the first limit.

    Each block of the walk goes out as H + ("\\n" + H).join(tails), H being
    its header and prefix text, and _WRITE_BLOCKS blocks make one write.
    """
    chunk = []
    sep = ""
    for head, tails in _blocks(a, limit=limit):
        chunk.append(head + ("\n" + head).join(tails))
        if len(chunk) == _WRITE_BLOCKS:
            out.write(sep + "\n".join(chunk))
            sep = "\n"
            chunk.clear()
    if chunk:
        out.write(sep + "\n".join(chunk))

"""Exact d-permanent computation: the number of d-dimensional permutations
supported by a 0-1 array.

per_d works slab by slab. A slab is the hyperplane with the first
coordinate fixed; every axis-0 line crosses each slab once, and no other
line crosses two slabs, so all that slabs 0..k-1 pass on to the rest is the
set of values each axis-0 line has used: the state, one int with n bits per
line. Each slab takes one
(d-1)-dimensional permutation, a filling, of its residual support: each
cell's mask minus the values its axis-0 line has used. A slab's fillings
are listed by the same walk one dimension down (a d = 1 slab is one cell,
and its fillings are the bits of its mask).

The slab DP is one pass, _pass: over slabs taken in a given order, it
keeps after each slab every state those slabs reach and the ways to reach
it. Every line takes each value once, so a state S after slabs 0..t-1 has
a completion exactly when full ^ S is a state the pass over slabs n-1..t
reaches. _meet runs the two passes per_d joins, one pass where the
support reads the same slab by slab from either end, and the count is the
sum of F[S] * B[full ^ S]. One walker per call (_fill_lister) lists slab
fillings once per distinct tuple of slab cell masks, and refuses, under a
cap, a slab too large to list; the work grows with the number of distinct
states, not with the count. Counts are exact Python ints, and the result
and the per-slab state counts are deterministic.

The enumerator, write_perms, walks the same slabs with the same walker
(_Walker) and prunes with tables read from the same two passes; this module
never imports it.
"""

from collections.abc import Iterator
from functools import lru_cache
from math import prod

from hdperm.core import Shape, SupportArray

# entries one walker keeps in its tables together (for the enumerator: its
# listings, text cache and memo)
_MEMO_MAX = 1 << 16


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

    def lister(self, k: int, piece):
        """listing(R): the (f, piece(f)) pairs of the k-dimensional
        permutations f inside the packed support R, in the order of their
        value tuples.

        A listing is kept per R when some cell of R is empty or the
        product of R's cell sizes, which bounds its length, is under the
        budget; otherwise it runs lazily and is not kept. The rule reads R
        in time linear in its size: one test of every cell for emptiness,
        then the sizes from one conversion of R, until the product reaches
        the budget. A listing of one cell (k = 0), which lists at most n,
        is always kept, and so is every listing where n^cells is under the
        budget, without reading R.
        """
        n = self.n
        cap = self.cap
        table = self.table()
        get = table.get
        width = n ** (k + 1)  # bits of R
        base = ((1 << width) - 1) // ((1 << n) - 1)  # bit 0 of every cell
        # once cells reach cap's bit length, n >= 2 puts n^cells past cap
        small = k == 0 or n ** min(width // n, cap.bit_length()) < cap

        def streams(R: int) -> bool:
            T = R
            for j in range(1, n):
                T |= R >> j
            if T & base != base:
                return False  # an empty cell: the product is 0
            bits = format(R, "b")[::-1]  # bit i of R at index i
            size = 1
            for i in range(0, width, n):
                size *= bits.count("1", i, i + n)
                if size >= cap:
                    return True
            return False

        def listing(R: int):
            got = get(R)
            if got is not None:
                return got
            self.listings += 1
            pairs = ((f, piece(f)) for f in self.fillings(k, R))
            if not small and streams(R):
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

    def walk(self, parts: list, lists: list, head, live=None):
        """(head, state) for every prefix of slabs 0..n-3 of the support cut
        into slabs parts, depth first in the order of the value tuples.

        Slab s takes the pairs (f, piece) of lists[s] on its residual
        support, and head is the given start plus the pieces of the prefix.
        live, where not None, is the enumerator's live tables: a prefix
        whose state S after t slabs is not in live[t] has no completion and
        is dropped.
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
                if live is not None and S not in live[t]:
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


def _meet(fills, a: SupportArray, cap: int | None = None):
    """(h, back, fwd), the two passes per_d joins for the support a, h =
    n // 2: back over slabs n-1..h and fwd over slabs 0..h-1. back, n - h
    >= h slabs long, runs first, so with a cap it meets the cap sooner; None
    where the cap cuts either pass short.

    A table after a set of slabs depends only on the slabs' mask tuples.
    Where slab j has the masks of slab n-1-j for every j (every full
    support does), the last j slabs hold the first j's tuples for every j,
    so one pass over slabs 0..n-h-1 serves as back, and its first h + 1
    tables as fwd.
    """
    n = a.shape.n
    h = n // 2
    m = len(a.masks) // n
    slabs = [a.masks[i : i + m] for i in range(0, n * m, m)]
    mirrored = slabs == slabs[::-1]
    back = _pass(fills, range(n - h) if mirrored else range(n - 1, h - 1, -1), cap)
    if len(back) <= n - h:
        return None
    fwd = back[: h + 1] if mirrored else _pass(fills, range(h), cap)
    if len(fwd) <= h:
        return None
    return h, back, fwd


def per_d(
    a: SupportArray,
    threads: int = 1,
    backend: str | None = None,
    stats: dict | None = None,
) -> int:
    """Exact count of supported d-dimensional permutations: the join of the
    slab DP's two passes (_meet).

    stats, when given, receives its work record: "algorithm" ("meet"),
    "states", the distinct states after each forward slab 0..h-1, and
    "states_back", the same after each backward slab n-1..h. backend
    names a kernels backend: "python", the one there is, counts the same
    way, and any other raises RuntimeError. threads is accepted and
    ignored; it never changed the result.
    """
    if backend is not None:
        from hdperm import kernels

        kernels.get(backend)
    _, back, fwd = _meet(_fill_lister(a), a)
    full = (1 << a.shape.n ** a.shape.d) - 1
    get = back[-1].get
    count = sum(c * get(full ^ state, 0) for state, c in fwd[-1].items())
    if stats is not None:
        stats.update(algorithm="meet", states=[len(t) for t in fwd[1:]],
                     states_back=[len(t) for t in back[1:]])
    return count

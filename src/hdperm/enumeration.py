"""The enumerator: every d-dimensional permutation a support admits, as text.

write_perms walks the first n-2 slabs depth first, in the order of the
value tuples, and at each slab tries only the fillings of its residual
support (slabs, states and fillings as in hdperm.counting, whose walker
lists them). Listings of small residual supports are kept per call and
reused by every prefix that leaves the same residual; large ones run lazily
and are not kept, so a short --limit never waits for a whole slab. The last
slab is forced (every axis-0 line then misses one value), so the last two
slabs depend only on the state after the first n-2: each call keeps a memo
from that state to the texts of its completions. The walk, _blocks, hands
out one block per prefix that reaches slab n-2: the prefix's text,
formatted once, and the memo's tails. On a support of d >= 2 that is not
full it prunes with the live tables of _live, read from the two passes
per_d joins: a prefix whose state is not in them has no completion. Only
the CLI's enumerate loads this module.
"""

from hdperm.core import SupportArray, rows_text
from hdperm.counting import _fill_lister, _meet, _pack, _step, _Walker

# the most value tuples or state-filling pairs the passes behind the
# enumerator's live tables may list or step
_LIVE_MAX = 1 << 18

# blocks write_perms joins into one write
_WRITE_BLOCKS = 1024


def _values(packed: int, cells: int, n: int) -> tuple:
    """The values of a packed filling of cells cells."""
    full = (1 << n) - 1
    return tuple([(packed >> i & full).bit_length() - 1 for i in range(0, cells * n, n)])


def _cached(walker: _Walker, fn):
    """fn, its results kept per argument within the walker's budget."""
    table = walker.table()
    get = table.get

    def lookup(key):
        got = get(key)
        if got is None:
            got = fn(key)
            walker.keep(table, key, got, 1)
        return got

    return lookup


def _live(a: SupportArray) -> list | None:
    """live[t] for t = 1..n-2 (live[0] is None): each state S after slabs
    0..t-1 that some filling of slabs t..n-1 completes, mapped to its number
    of completions, the ways over slabs n-1..t to reach full ^ S.

    With back and fwd the two passes of the count's meet plan (_meet, which
    meets at slab h), these complement tables comp[t] are, for t > h,
    back[n - t] itself, and comp[h] is the meet: the T in back[n - h] with
    full ^ T in fwd[h]. Below h, comp[t] is comp[t + 1] stepped by slab t,
    kept if full ^ T is in fwd[t], since full ^ (S ^ f) = (full ^ S) | f.

    Returns None, so that nothing is checked, for n < 3, which has no slab
    boundary to check, and where a pass meets a slab whose cell sizes
    multiply to more than _LIVE_MAX, or a step of a pass or of the walk back
    would pair more than _LIVE_MAX states and fillings: a search that stops
    after a few tensors never waits for them.
    """
    n = a.shape.n
    if n < 3:
        return None  # no slab boundary to check
    fills = _fill_lister(a)
    plan = _meet(fills, a, _LIVE_MAX)
    if plan is None:
        return None
    h, back, fwd = plan
    full = (1 << n**a.shape.d) - 1
    comp = [None] * h + back[n - h : 1 : -1]
    comp[h] = {T: c for T, c in back[n - h].items() if full ^ T in fwd[h]}
    for t in range(h - 1, 0, -1):
        nxt = _step(comp[t + 1], fills(t), _LIVE_MAX)
        if nxt is None:
            return None
        comp[t] = {T: c for T, c in nxt.items() if full ^ T in fwd[t]}
    return [None] + [{full ^ T: c for T, c in table.items()} for table in comp[1:]]


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
    closed: "prefixes" that reached slab n-2, "memo_entries" made, each of
    which lists the last two slabs, "replays" of memo entries (every other
    prefix), "listings" of residual supports made rather than read back
    (the walker's and the memo entries') and "live_prunes".
    """
    if limit is not None and limit <= 0:
        raise ValueError("limit must be positive")
    shape = a.shape
    d, n = shape.d, shape.n
    m = n ** (d - 1)  # cells per slab, one per axis-0 line
    w = m * n  # bits per slab
    walker = _Walker(n)
    prefixes = entries = 0
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
            piece = _cached(walker, lambda f: rows_text(_values(f, m, n), n))

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
            live = _live(a)
        memo = walker.table()
        get = memo.get
        for h, S in walker.walk(parts, [top] * mid, head, live):
            prefixes += 1
            tails = get(S)
            if tails is None:
                entries += 1
                tails = []
                for f in walker.fillings(d - 1, parts[mid] & ~S):
                    forced = full ^ S ^ f
                    if not forced & forbid:
                        tails.append(tail(f, forced))
                walker.keep(memo, S, tails, 1 + len(tails))
            if tails:
                if limit is not None:
                    if len(tails) >= limit:
                        yield h, tails[:limit]
                        return
                    limit -= len(tails)
                yield h, tails
    finally:
        if stats is not None:
            stats.update(prefixes=prefixes, listings=walker.listings + entries,
                         memo_entries=entries, replays=prefixes - entries,
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

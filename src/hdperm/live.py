"""Live-state sets: where counting.enumerate_perms can stop searching.

The states are the slab DP's (see hdperm.counting): the values each axis-0
line has used after the first s slabs, packed n bits per line. A prefix of
s whole slabs has a completion exactly when its state is live: some filling
of slabs s..n-1 takes every line's missing values. live_states finds these
sets with the count's slab fillings and a set-valued form of its transition.

Only enumerate_perms imports the module, where the sets can prune (d >= 3,
or d = 2 with some value missing), so that the CLI's start-up, `count` of
d <= 2 (whose slabs it lists with enumerate_perms of d = 1) and `enumerate`
of a full square never compile it.
"""

from math import prod
from typing import Optional

from hdperm import counting
from hdperm.core import SupportArray


def _reach(states, fills: list) -> set:
    """counting._step without the counts: the states one more slab
    reaches."""
    return {state | f for state in states for f in fills if not state & f}


def live_states(a: SupportArray, fills) -> Optional[list]:
    """live[s] for s = 0..n-2: the states after slabs 0..s-1, as tuples of
    axis-0 line masks, that some filling of slabs s..n-1 completes; None
    where every state the search can reach there is live, so a check would
    prune nothing: for s <= h = n // 2 where live[s] is all of F[s], past h
    where it is every state one slab takes live[s-1] to.

    The reachable sets come from _reach: backward to B[s] (the states slabs
    n-1..s fill, s >= h) and forward to F[s] (s <= h). Then live[h] is the S
    in F[h] with full ^ S in B[h]. Walking back, live[s-1] is what a filling
    of slab s-1 taken from a state in live[s] leaves, kept if in F[s-1]; the
    walk steps the complements, since full ^ (S ^ f) = (full ^ S) | f.
    Walking forward, live[s+1] is what a filling of slab s adds to a state
    in live[s], kept if its complement is in B[s+1].

    Returns None, so that nothing is checked, for n < 3, which has no slab
    boundary to check, and before it would list a slab whose cells admit
    more than cap = counting._MEMO_MAX value tuples or step more than cap
    state-filling pairs: the tables stay small, and a search that stops
    after a few tensors never waits for them. The backward pass, n - h >= h
    slabs long, goes first, so it meets the cap sooner.
    """
    shape = a.shape
    n = shape.n
    if n < 3:
        return None  # no slab boundary to check
    m = n ** (shape.d - 1)
    h = n // 2
    full = (1 << (n * m)) - 1
    cap = counting._MEMO_MAX

    def too_big(states, s):
        cells = a.masks[s * m : (s + 1) * m]
        if prod(map(int.bit_count, cells)) > cap:
            return True  # refused before listing
        return len(states) * len(fills(s)) > cap

    back = [None] * n + [{0}]
    for s in range(n - 1, h - 1, -1):
        if too_big(back[s + 1], s):
            return None
        back[s] = _reach(back[s + 1], fills(s))
    fwd = [{0}]
    for s in range(h):
        if too_big(fwd[s], s):
            return None
        fwd.append(_reach(fwd[s], fills(s)))
    live = [None] * (n - 1)
    mask = (1 << n) - 1
    shifts = range(0, n * m, n)

    def keep(s, states, reachable):
        # live[s] stays None when the check would prune nothing
        if len(states) < len(reachable):
            live[s] = {tuple(S >> k & mask for k in shifts) for S in states}

    half = {S for S in fwd[h] if full ^ S in back[h]}
    keep(h, half, fwd[h])
    comp = {full ^ S for S in half}
    for s in range(h - 1, 0, -1):
        if too_big(comp, s):
            return None
        comp = {T for T in _reach(comp, fills(s)) if full ^ T in fwd[s]}
        keep(s, [full ^ T for T in comp], fwd[s])
    states = half
    for s in range(h, n - 2):
        if too_big(states, s):
            return None
        reached = _reach(states, fills(s))
        states = {S for S in reached if full ^ S in back[s + 1]}
        keep(s + 1, states, reached)
    return live

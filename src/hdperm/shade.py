"""The shade process behind the bound function f.

Draw one uniform permutation sigma_k per coordinate; together they order the
cells lexicographically. For a fixed valid tensor X, a target cell i and a
value set W containing X(i), the cells preceding i along coordinate k shade
the values they hold; N counts what survives of W:

    Z^k = { X(i with coordinate k set to t) : sigma_k(t) < sigma_k(i_k) }
    N = |W \\ (Z^1 ∪ ... ∪ Z^d)|

X's own entry is never shaded (no line of X repeats a value), so N ≥ 1. The
central fact this module verifies is that the expectation of log N over the
(n!)^d orderings equals f(d, |W|), whatever X, i and the identity of W's
elements. At d=1, N itself is uniform on {1,...,|W|}.

The exact distribution of N needs no walk over orderings: the values each
axis shades form a uniform-size, uniform subset of the n-1 values other
than X(i), independently per axis, so inclusion-exclusion over subsets of W
gives the integer count of every N in closed form (shade_histogram). It
NEVER rounds before the log-mean, which is one fsum. Monte Carlo sampling
uses random.Random (Mersenne Twister), seeded, consuming d shuffles per
sample; means are reproducible for a fixed seed.
"""

import math
import random
from itertools import product

from hdperm.core import PermTensor, Record, Shape, _is_int
from hdperm.constructions import modular_perm


def _axis_values(x: PermTensor, target: tuple) -> list:
    """values[k][t] = x at the target cell with coordinate k replaced by t:
    the line along axis k through the target, read as one slice of the
    row-major values, stride n^(d-1-k), from the target's one rank."""
    shape = x.shape
    n, at = shape.n, shape.rank(target)
    out = []
    for k, c in enumerate(target):
        stride = n ** (shape.d - 1 - k)
        start = at - c * stride
        out.append(x.values[start : start + n * stride : stride])
    return out


class ShadeQuery(Record):
    """A tensor x, a target cell and a value set W that holds x's value at
    the target, no line of x through the target repeating a value; target
    is stored as a checked tuple and W as a frozenset."""

    __slots__ = ("x", "target", "w")

    def __init__(self, x: PermTensor, target: tuple, w: frozenset):
        shape = x.shape
        target = shape.check_coords(target)
        w = frozenset(w)
        for v in w:
            if not (_is_int(v) and 0 <= v < shape.n):
                raise ValueError(f"W value {v!r} out of range 0..{shape.n - 1}")
        if x.values[shape.rank(target)] not in w:
            raise ValueError("W must contain the tensor's value at the target cell")
        for k, vals in enumerate(_axis_values(x, target)):
            if sorted(vals) != list(range(shape.n)):
                raise ValueError(f"axis {k + 1} through the target repeats a value")
        super().__init__(x, target, w)


class ShadeDistribution(Record):
    """Exact PMF of N: counts maps each N to the number of the total (n!)^d
    orderings that give it, both exact ints."""

    __slots__ = ("counts", "total")

    def pmf(self) -> dict:
        from fractions import Fraction

        return {n: Fraction(c, self.total) for n, c in sorted(self.counts.items())}

    def log_mean(self) -> float:
        # c / total is a correctly rounded int division, so counts far above
        # 1e308 never pass through a float
        return math.fsum(c / self.total * math.log(n) for n, c in self.counts.items())


def shade_histogram(q: ShadeQuery) -> ShadeDistribution:
    """Integer counts of N over all (n!)^d orderings, in closed form.

    Each line through the target cell holds every value once, so the cells
    of axis k other than the target hold the n-1 values other than
    x = X(target). A uniform ordering of axis k puts the target at a uniform
    rank and the cells before it form a uniform subset of that size: the
    values axis k shades are a uniform-size, uniform subset of [n] \\ {x},
    drawn independently per axis. A fixed u-subset of W \\ {x} escapes axis
    k when the target precedes its u cells, in n!/(u+1) of the axis's n!
    orderings, so it escapes every axis in (n!/(u+1))^d orderings. By
    inclusion-exclusion, exactly t of the r-1 other values of W survive
    (N = t+1) in

        C(r-1, t) * sum_k (-1)^k C(r-1-t, k) (n!/(t+k+1))^d

    orderings: exact ints, O(r^2) terms, whatever d.
    """
    n, d = q.x.shape.n, q.x.shape.d
    m = len(q.w) - 1
    fact = math.factorial(n)
    escape = [(fact // (u + 1)) ** d for u in range(m + 1)]
    counts = {
        t + 1: math.comb(m, t)
        * sum((-1) ** k * math.comb(m - t, k) * escape[t + k] for k in range(m - t + 1))
        for t in range(m + 1)
    }
    return ShadeDistribution(counts, fact**d)


def mc_expectation_logN(q: ShadeQuery, samples: int, seed=None) -> tuple[float, float]:
    """Sample mean and standard error of log N over uniform orderings.

    Each sample draws d independent uniform permutations (one shuffle per
    axis). N only takes values in {1,...,|W|}, so the run keeps an integer
    histogram; mean and stderr are computed from it exactly at the end.
    """
    if not isinstance(samples, int) or samples < 2:
        raise ValueError(f"samples must be an integer >= 2, got {samples!r}")
    n, d = q.x.shape.n, q.x.shape.d
    rng = random.Random(seed)
    axis_vals = _axis_values(q.x, q.target)
    wmask = sum(1 << v for v in q.w)
    target = q.target
    counts = [0] * (n + 2)
    base = list(range(n))
    for _ in range(samples):
        shaded = 0
        for k in range(d):
            sig = base[:]
            rng.shuffle(sig)
            rank_i = sig[target[k]]
            vals = axis_vals[k]
            for t in range(n):
                if sig[t] < rank_i:
                    shaded |= 1 << vals[t]
        counts[(wmask & ~shaded).bit_count()] += 1
    logs = [0.0] + [math.log(v) for v in range(1, n + 2)]
    mean = math.fsum(c * logs[v] for v, c in enumerate(counts)) / samples
    var = math.fsum(c * (logs[v] - mean) ** 2 for v, c in enumerate(counts)) / (
        samples - 1
    )
    return mean, math.sqrt(var / samples)


def random_valid_perm(shape: Shape, rng: random.Random) -> PermTensor:
    """A scrambled modular permutation: relabel values and permute each axis's
    coordinates independently. Stays valid, varies broadly with the rng.
    Axis k's map m becomes the rank offsets m[c] * n^(d-1-k), and the cells,
    in row-major order, gather the modular values at one offset per axis."""
    d, n = shape.d, shape.n
    base = modular_perm(shape).values
    relabel = list(range(n))
    rng.shuffle(relabel)
    offsets = []
    for k in range(d):
        m = list(range(n))
        rng.shuffle(m)
        stride = n ** (d - 1 - k)
        offsets.append([m[c] * stride for c in range(n)])
    return PermTensor(shape, tuple(relabel[base[sum(o)]] for o in product(*offsets)))


def query_size(shape: Shape, r: int | None = None) -> int:
    """|W| of a query on shape: r, or n when r is None, which must lie in
    1..n."""
    if r is None:
        return shape.n
    if not 1 <= r <= shape.n:
        raise ValueError(f"|W| must be in 1..{shape.n}, got {r}")
    return r


def random_query(
    shape: Shape,
    r: int | None = None,
    seed=None,
    perm: PermTensor | None = None,
) -> ShadeQuery:
    """A reproducible random query: scrambled-modular X (unless given), a
    uniform target cell, and a uniform W of size r containing X(target)."""
    rng = random.Random(seed)
    r = query_size(shape, r)
    x = perm if perm is not None else random_valid_perm(shape, rng)
    if x.shape != shape:
        raise ValueError(f"tensor is for {x.shape}, not {shape}")
    target = tuple(rng.randrange(shape.n) for _ in range(shape.d))
    must = x.value_at(target)
    others = [v for v in range(shape.n) if v != must]
    w = frozenset([must] + rng.sample(others, r - 1))
    return ShadeQuery(x, target, w)

"""The recursive bound function f and the upper bounds built from it.

f is defined by f(0,r) = log r and f(d,r) = (1/r) Σ_{k=1..r} f(d-1,k), all
logs natural. It upper-bounds the log of the per-cell contribution to the
d-permanent: Per_d(A) ≤ Π_i e^{f(d, r_i)} where r_i = |R_i|, which at d=1 is
the classical factorial (Brègman-Minc) permanent bound Π (r_i!)^{1/r_i}.
Asymptotically f(d,r) ≤ log r − d + c_d log^d(r)/r for r ≥ e^d, with c_d from
a closed recursion; this module evaluates the function, the bounds, and the
constants, and sweeps the inequalities numerically.

The float path runs the dynamic program on fixed-point integers with
FRAC_BITS fraction bits: row 0 holds the doubles log k exactly, every later
row is its predecessor's exact prefix sums floor-divided by r, and each entry
becomes the correctly rounded double of its integer over 2^FRAC_BITS. Each
floor loses less than one unit of 2^-FRAC_BITS, so f(d,r) carries under d
such units on top of the rounding of log k: far inside the 1e-12 agreement
budget the tests' exact rational f and the d=1 reference are held to, within
an ulp of f through d = 4, and a few ulps only where f is tiny (d ≥ 5, small
r). A value never depends on how long its row is.

f_rows(d, r) builds rows 0..d of length r anew on every call: row 0, the
log k every sweep reads, as a list and each later row as a compact
array('d'). It builds them in chunks of _CHUNK entries, each carrying
every row's running prefix sum in from the one before, so the integers,
and so every value, are those of a build over whole rows while only one
chunk's integers are alive at a time (f_rows(6, 10^5) peaks under 1.3
times the finished table). A request for rows 0..d of length r is a
ValueError, raised before anything is built, when r is above _R_CAP =
10^7, d above _D_CAP = 10^4 or (d + 1) r above _ENTRY_CAP = 10^8.
f_float, f_values and bregman_log_bound build the rows they read;
weak_min_margin and theorem5_check sweep a table their caller built, so
one table serves several sweeps. theorem5_check reads its rows in blocks
of _BLOCK values of r and skips the strong margins of a block whose lower
bound (its least weak margin - d + c_d log^d(r)/r at the block's last r,
since log^d(x)/x decreases for x >= e^d), less a rounding slack, is above
the least margin found so far: at r_max = 10^5 it evaluates one or two of
about 200 blocks per d, and it returns what a full sweep returns.
"""

import math
from array import array
from itertools import accumulate, repeat
from operator import add, floordiv, mul, sub, truediv

from hdperm.core import Record, Shape, SupportArray, _is_int

TOL_EXACT = 1e-12  # identities on f (the d=1 reference, E[log N]) hold to rounding error
FRAC_BITS = 56  # each log k ≥ log 2 is a multiple of 2^-53, so it converts exactly
_UNIT = float(1 << FRAC_BITS)
_CHUNK = 1 << 14  # entries of each row built per pass
_BLOCK = 512  # values of r theorem5_check slices and bounds at once
_SLACK = 2.0**-32  # theorem5_check's pruning slack, relative to the summands
# the f table's caps, on its row length, its rows and its entries: a row of
# 10^7 doubles takes seconds and hundreds of MB to build, and so do 10^6 short
# rows; a request past a cap is refused before any of the table is built
_R_CAP = 10**7
_D_CAP = 10**4
_ENTRY_CAP = 10**8


def _fixed(floats):
    """The doubles as exact integers in units of 2^-FRAC_BITS (each a
    multiple of that unit, as every log k is)."""
    return map(int, map(mul, floats, repeat(_UNIT)))


def _floats(ints):
    """Correctly rounded doubles of the fixed-point integers: int / float
    rounds the integer to the nearest double, and dividing that by
    2^FRAC_BITS is exact."""
    return map(truediv, ints, repeat(_UNIT))


def _check_size(d: int, r: int) -> None:
    """Refuse an f table of rows 0..d of length r past one of its caps."""
    if r > _R_CAP:
        raise ValueError(f"r must be at most {_R_CAP}, the f table's cap, got {r}")
    if d > _D_CAP:
        raise ValueError(f"d must be at most {_D_CAP}, the f table's cap, got {d}")
    if (d + 1) * r > _ENTRY_CAP:
        raise ValueError(f"(d + 1) * r must be at most {_ENTRY_CAP}, the f table's "
                         f"cap, got {(d + 1) * r}")


def _check_d(d, low=0, rows=None):
    """Refuse a d below low, or deeper than a table rows given to sweep."""
    if not _is_int(d) or d < low:
        raise ValueError(f"d must be an integer >= {low}, got {d!r}")
    if rows is not None and d >= len(rows):
        raise ValueError(f"d must be at most {len(rows) - 1}, the table's depth, got {d}")


def f_rows(d: int, r: int) -> list:
    """Rows 0..d of the f table, each of length r: rows[k][r' - 1] = f(k, r').
    Row 0 is a list, every later row an array('d')."""
    _check_d(d)
    if not _is_int(r) or r < 1:
        raise ValueError(f"r must be an integer >= 1, got {r!r}")
    _check_size(d, r)
    # row 0 feeds every sweep; as a list it hands out its floats without
    # boxing them again on each read
    rows = [list(map(math.log, range(1, r + 1)))]
    rows.extend(array("d") for _ in range(d))
    sums = [0] * d  # sums[k]: row k's fixed-point entries so far, summed
    for lo in range(0, r if d else 0, _CHUNK):  # d = 0 needs row 0 only
        hi = min(lo + _CHUNK, r)
        rs = range(lo + 1, hi + 1)
        ints = list(_fixed(rows[0][lo:hi]))
        for k in range(d):
            ints[0] += sums[k]
            ints = list(accumulate(ints))
            sums[k] = ints[-1]
            ints = list(map(floordiv, ints, rs))
            rows[k + 1].extend(_floats(ints))
    return rows


def f_float(d: int, r: int) -> float:
    """f(d,r), from rows 0..d of length r."""
    return f_rows(d, r)[d][r - 1]


def f_values(d: int, r_max: int) -> array:
    """The vector (f(d,1), ..., f(d,r_max)) as a fresh array('d')."""
    return array("d", f_rows(d, r_max)[d])


def bregman_log_bound(a: SupportArray) -> float:
    """log of the factorial-type upper bound on per_d(a): Σ_i f(d, r_i).

    Returns -inf when some cell allows nothing (the count is exactly 0 and
    the bound degenerates gracefully to exp(-inf) = 0).
    """
    rs = a.r_values()
    if 0 in rs:
        return float("-inf")
    row = f_rows(a.shape.d, a.shape.n)[-1]  # every r_i is at most n
    return math.fsum(row[r - 1] for r in rs)


def bregman_d1_reference(row_sums) -> float:
    """Σ log(r_i!)/r_i, the classical d=1 permanent bound in log form.

    Independent of the f table (lgamma-based); must agree with
    bregman_log_bound of the same matrix to 1e-12 since f(1,r) = log(r!)/r.
    """
    sums = list(row_sums)
    for r in sums:
        if not _is_int(r) or r < 1:
            raise ValueError(f"row sums must be integers >= 1, got {r!r}")
    return math.fsum(math.lgamma(r + 1) / r for r in sums)


class BoundConstants(Record):
    """Constants of the asymptotic bound at dimension d.

    c_d follows the recursion c_0 = 0,
    c_d = (1 + e^{-(d-1)}) c_{d-1}/d + d (2/d^d + (e/d)^d);
    xi = (d-1) e^{d-1}, gamma = ((d-1)/e)^{d-1}, r_d = e^d.
    """

    __slots__ = ("c_d", "xi", "gamma", "r_d")


def c_constant(d: int) -> BoundConstants:
    _check_d(d)
    # gamma overflows from d = 173 on: fail before the loop's big-int work
    xi = (d - 1) * math.e ** (d - 1)
    gamma = ((d - 1) / math.e) ** (d - 1)
    r_d = math.e**d
    c = 0.0
    for k in range(1, d + 1):
        c = (1 + math.e ** (-(k - 1))) * c / k + k * (2 / k**k + (math.e / k) ** k)
    return BoundConstants(c, xi, gamma, r_d)


def c_cap(d: int) -> float:
    """Loose closed-form caps on c_d: 0, 5, 8, then d^3 (1.1)^d / d!."""
    _check_d(d)
    if d == 0:
        return 0.0
    if d == 1:
        return 5.0
    if d == 2:
        return 8.0
    # in logs, since d! passes the largest double at d = 171 while the cap
    # stays far below 1
    return math.exp(3 * math.log(d) + d * math.log(1.1) - math.lgamma(d + 1))


class SweepReport(Record):
    """Result of a numeric inequality sweep; margin = bound - f, so negative
    minima are violations (there should be none)."""

    __slots__ = ("d", "r_start", "r_max", "checked", "violations", "min_margin",
                 "weak_violations", "weak_min_margin", "c_d")

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.weak_violations == 0


def weak_min_margin(rows, d: int) -> float:
    """min of log r − f(d,r) over 1 ≤ r ≤ r_max, the length of the table rows
    (from f_rows), negative where the weak bound f(d,r) ≤ log r fails;
    unlike theorem5_check, any r_max ≥ 1 is accepted."""
    _check_d(d, 0, rows)
    return min(map(sub, rows[0], rows[d]))


def _strong_margins(logs, fs, lo: int, fd: float, c: float):
    """((log r - d) + (c * log^d r) / r) - f(d,r), evaluated in this order,
    for r = lo, lo + 1, ...: logs and fs are the slices of rows 0 and d
    that start at r = lo."""
    head = map(sub, logs, repeat(fd))
    scaled = map(mul, repeat(c), map(pow, logs, repeat(fd)))
    tail = map(truediv, scaled, range(lo, lo + len(logs)))
    return map(sub, map(add, head, tail), fs)


def theorem5_start(d: int, r_max: int) -> int:
    """⌈e^d⌉, where the Theorem 5 sweep up to r_max starts; refused for a d not
    an integer >= 1, then an e^d past a double (from d = 710), then r_max below it."""
    _check_d(d, 1)
    r_start = math.ceil(math.e**d)
    if r_max < r_start:
        raise ValueError(f"r_max must be >= {r_start} for d={d}")
    return r_start


def theorem5_check(rows, d: int) -> SweepReport:
    """Sweep f(d,r) ≤ log r − d + c_d log^d(r)/r over integer r in
    [⌈e^d⌉, r_max], with c_d from the recursion, plus the weaker f(d,r) ≤
    log r over 1 ≤ r ≤ r_max, on the table rows (from f_rows, at least d
    deep), whose row length is r_max.

    The sweep walks r = ceil(e^d)..r_max in blocks of _BLOCK values and
    takes each block's least weak margin w = min(log r - f(d,r)). A strong
    margin is the weak one minus d plus c_d log^d(r)/r; log^d(x)/x decreases
    for x >= e^d and c_d >= 0, so no strong margin in a block [lo, hi] is
    below lb = w - d + c_d log^d(hi)/hi. The last block, where the margin
    (which shrinks like log^d(r)/r) is least, is evaluated first; any other
    block is evaluated only when lb - slack is not above the least margin
    found so far. Every block that can hold the minimum is evaluated with
    the same expression, so min_margin is the value a full sweep finds.

    The slack is 2^-32 S, S = 2 log r_max + d + c_d log^d(r0)/r0 + |w| with
    r0 = ceil(e^d): S bounds every summand of a margin or of lb in the
    block (f <= log r - w there). A computed margin or lb is off its exact
    value by under (2d + 16) 2^-53 S, the log^d r of a margin against the
    log^d hi of lb included, so the slack is over 10^4 times the worst
    rounding error for every d below 90; past d = 30, r0 alone is over 10^13.

    Violations are counted in a second pass over every block, strong or
    weak, only when that minimum is negative.
    """
    _check_d(d, 1, rows)
    r_max = len(rows[0])
    r_start = theorem5_start(d, r_max)
    c = c_constant(d).c_d
    fd = float(d)
    row0, row = rows[0], rows[d]
    blocks = range(r_start, r_max + 1, _BLOCK)
    last = blocks[-1]

    def sliced(lo):
        """Rows 0 and d over the block that starts at r = lo."""
        hi = min(lo + _BLOCK, r_max + 1)
        return row0[lo - 1 : hi - 1], row[lo - 1 : hi - 1]

    low = min(_strong_margins(*sliced(last), last, fd, c))
    weak_low = min(map(sub, row0[: r_start - 1], row[: r_start - 1]))
    size = 2 * math.log(r_max) + fd + c * math.log(r_start) ** fd / r_start
    for lo in blocks:
        logs, fs = sliced(lo)
        w = min(map(sub, logs, fs))
        weak_low = min(weak_low, w)
        hi = lo + len(logs) - 1
        lb = w - fd + c * logs[-1] ** fd / hi
        if lo != last and lb - _SLACK * (size + abs(w)) <= low:
            low = min(low, min(_strong_margins(logs, fs, lo, fd, c)))
    violations = 0
    if low < 0:
        violations = sum(
            sum(m < 0 for m in _strong_margins(*sliced(lo), lo, fd, c)) for lo in blocks
        )
    weak_violations = sum(m < 0 for m in map(sub, row0, row)) if weak_low < 0 else 0
    return SweepReport(d, r_start, r_max, r_max - r_start + 1, violations, low,
                       weak_violations, weak_low, c)


class SdnBound(Record):
    """Log upper bound on the number of order-n d-dimensional permutations:
    n^d f(d,n). ratio compares it to the crude n^d (log n − d) when the
    latter is positive, and is None otherwise; it decreases toward 1 as n
    grows."""

    __slots__ = ("log_bound", "ratio")


def sdn_log_upper_bound(shape: Shape) -> SdnBound:
    d, n = shape.d, shape.n
    f = f_float(d, n)
    denom = math.log(n) - d
    return SdnBound(shape.ncells * f, f / denom if denom > 0 else None)

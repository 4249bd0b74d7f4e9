"""The invariant suites behind `hdperm verify`.

Each suite checks one family of the paper's claims and returns a
SuiteResult. bounds and constructions draw their inputs from a seed;
theorem5 and claim1 take none, since their checks are fixed sweeps. The
CLI's verify handler imports this module when it runs, so no other
subcommand loads it or the modules it needs. Each suite imports bounds,
shade or constructions itself, so the bound suites never load shade or
constructions and the constructions suite never loads bounds or shade.
"""

import math
import random
from itertools import product

from hdperm.core import Record, Shape, SupportArray, line_repeats
from hdperm.counting import per_d

TOL_LOG = 1e-9  # bound-vs-exact-count comparisons
ARRAYS = 100  # random supports per dimension in suite_bounds


class SuiteResult(Record):
    """One suite's outcome: worst is the tightest margin or largest
    deviation seen, or None where the suite measures none."""

    __slots__ = ("name", "passed", "worst", "detail")


def _random_support(rng: random.Random, d: int, n: int) -> SupportArray:
    density = rng.uniform(0.3, 0.9)
    masks = []
    for _ in range(n**d):
        m = 0
        for v in range(n):
            if rng.random() < density:
                m |= 1 << v
        masks.append(m)
    return SupportArray(Shape(d, n), tuple(masks))


def suite_bounds(seed: int = 0) -> SuiteResult:
    """Exact counts never exceed their factorial-type bound, and the d=1
    bound matches the classical reference identically."""
    from hdperm import bounds

    rng = random.Random(seed)
    min_margin = float("inf")
    violations = 0
    for _ in range(ARRAYS):
        a = _random_support(rng, 2, rng.choice([2, 3, 4]))
        c = per_d(a)
        if c == 0:
            continue  # log 0 = -inf is below any bound
        margin = bounds.bregman_log_bound(a) - math.log(c)
        min_margin = min(min_margin, margin)
        if margin < -TOL_LOG:
            violations += 1
    max_delta = 0.0
    for _ in range(ARRAYS):
        n = rng.randint(1, 7)
        a = _random_support(rng, 1, n)
        if 0 in a.r_values():  # the d=1 reference needs nonempty rows
            masks = [m if m else 1 << rng.randrange(n) for m in a.masks]
            a = SupportArray(a.shape, tuple(masks))
        ref = bounds.bregman_d1_reference(a.r_values())
        max_delta = max(max_delta, abs(bounds.bregman_log_bound(a) - ref))
        c = per_d(a)
        if c > 0:
            margin = ref - math.log(c)
            min_margin = min(min_margin, margin)
            if margin < -TOL_LOG:
                violations += 1
    passed = violations == 0 and max_delta <= bounds.TOL_EXACT
    return SuiteResult(
        "bounds",
        passed,
        min_margin,
        f"{2 * ARRAYS} random supports, min bound margin {min_margin:.6g}, "
        f"max d=1 identity delta {max_delta:.3g}",
    )


def suite_theorem5(rmax: int = 100000, ds=None) -> SuiteResult:
    """Asymptotic-bound sweep for d = 1..5 plus the weak bound f ≤ log r
    through d = 6. worst is the least strong margin: the weak margin is
    exactly 0 at r = 1, so it only passes or fails."""
    from hdperm import bounds

    ds = list(ds) if ds else [1, 2, 3, 4, 5]
    # one f table, to depth max(6, d), read by every sweep
    rows = bounds.f_rows(max(6, *ds), rmax)
    weak6 = bounds.weak_min_margin(rows, 6)
    reports = [bounds.theorem5_check(rows, d) for d in ds]
    violations = sum(r.violations + r.weak_violations for r in reports)
    if weak6 < 0:
        violations += 1
    worst = min(r.min_margin for r in reports)
    return SuiteResult(
        "theorem5",
        violations == 0,
        worst,
        f"d={ds} to r={rmax}: {violations} violations, "
        f"min margin {worst:.6g} (weak d=6 margin {weak6:.3g})",
    )


def suite_claim1(cases=None) -> SuiteResult:
    """Exact expectation of log N equals f(d, |W|), checked once per
    (d, n, |W|): shade_histogram's derivation shows that N's distribution
    depends on d, n and |W| alone, whatever X, the target and W's other
    values. So the modular tensor (0 at the origin) is queried at the origin
    with W = {0, ..., |W|-1}."""
    from hdperm import bounds, constructions, shade

    if cases is None:
        cases = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 3)]
    max_delta = 0.0
    for d, n in cases:
        shape = Shape(d, n)
        fs = [bounds.f_float(d, r) for r in range(1, n + 1)]  # the f table's caps first
        x = constructions.modular_perm(shape)
        for r, f in enumerate(fs, 1):
            q = shade.ShadeQuery(x, (0,) * d, range(r))
            max_delta = max(max_delta, abs(shade.shade_histogram(q).log_mean() - f))
    return SuiteResult(
        "claim1",
        max_delta <= bounds.TOL_EXACT,
        max_delta,
        f"{sum(n for _, n in cases)} (d, n, |W|) cases over {cases}: "
        f"max |E[log N] - f| = {max_delta:.3g}",
    )


def suite_constructions(seed: int = 0) -> SuiteResult:
    """Block lifts are valid and injective; the per-block two-arrangement
    fact holds exhaustively."""
    from hdperm import constructions

    problems = []
    shape24 = Shape(2, 4)
    seen = {}
    for bits in product((0, 1), repeat=4):
        p = constructions.block_lift(shape24, bits)
        if line_repeats(p.values, shape24):
            problems.append(f"invalid lift d=2 n=4 bits={bits}")
        if p.values in seen:
            problems.append(f"collision {bits} vs {seen[p.values]}")
        seen[p.values] = bits
    if constructions.block_count(shape24) != 16:
        problems.append("block_count(2,4) != 16")
    rng = random.Random(seed)
    shape34 = Shape(3, 4)
    for _ in range(100):
        bits = constructions.random_bits(shape34, seed=rng.random())
        p = constructions.block_lift(shape34, bits)
        if line_repeats(p.values, shape34):
            problems.append(f"invalid lift d=3 n=4 bits={bits}")
            break
    # a [2]^2 block holding two values admits exactly 2 line-valid fillings
    valid_fillings = sum(
        not line_repeats(vals, Shape(2, 2))
        for vals in product((0, 1), repeat=4)
    )
    if valid_fillings != 2:
        problems.append(f"[2]^2 block has {valid_fillings} valid fillings, not 2")
    for d in range(1, 5):
        for n in range(1, 9):
            p = constructions.modular_perm(Shape(d, n))
            if line_repeats(p.values, p.shape):
                problems.append(f"modular invalid at d={d} n={n}")
    return SuiteResult(
        "constructions",
        not problems,
        None,
        "; ".join(problems) if problems else
        "16/16 lifts valid+distinct, 100 random d=3 lifts valid, "
        "2 fillings per block, modular valid d<=4 n<=8",
    )

"""The invariant suites behind `hdperm verify`.

Each suite checks one family of the paper's claims on seeded inputs and
returns a SuiteResult; the CLI's verify handler imports this module when it
runs, so no other subcommand loads it or the modules it needs. The claim1
and constructions suites import shade and constructions themselves, so the
bound suites never load them.
"""

import math
import random
from itertools import product
from typing import NamedTuple, Optional

from hdperm import bounds
from hdperm.bounds import TOL_EXACT
from hdperm.core import Shape, SupportArray, validate_perm
from hdperm.counting import per_d

TOL_LOG = 1e-9  # bound-vs-exact-count comparisons


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    worst: Optional[float]  # the tightest margin or largest deviation seen
    detail: str


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


def suite_bounds(seed: int = 0, arrays: int = 100) -> SuiteResult:
    """Exact counts never exceed their factorial-type bound, and the d=1
    bound matches the classical reference identically."""
    rng = random.Random(seed)
    min_margin = float("inf")
    violations = 0
    for _ in range(arrays):
        a = _random_support(rng, 2, rng.choice([2, 3, 4]))
        c = per_d(a)
        if c == 0:
            continue  # log 0 = -inf is below any bound
        margin = bounds.bregman_log_bound(a) - math.log(c)
        min_margin = min(min_margin, margin)
        if margin < -TOL_LOG:
            violations += 1
    max_delta = 0.0
    for _ in range(arrays):
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
    passed = violations == 0 and max_delta <= TOL_EXACT
    return SuiteResult(
        "bounds",
        passed,
        min_margin,
        f"{2 * arrays} random supports, min bound margin {min_margin:.6g}, "
        f"max d=1 identity delta {max_delta:.3g}",
    )


def suite_theorem5(rmax: int = 100000, ds=None) -> SuiteResult:
    """Asymptotic-bound sweep for d = 1..5 plus the weak bound f ≤ log r
    through d = 6."""
    ds = list(ds) if ds else [1, 2, 3, 4, 5]
    # the deepest row first, so the f table is built once to its full depth
    weak6 = bounds.weak_min_margin(6, rmax)
    reports = [bounds.theorem5_check(d, rmax) for d in ds]
    violations = sum(r.violations + r.weak_violations for r in reports)
    if weak6 < 0:
        violations += 1
    worst = min(min(r.min_margin for r in reports), weak6)
    return SuiteResult(
        "theorem5",
        violations == 0,
        worst,
        f"d={ds} to r={rmax}: {violations} violations, "
        f"min margin {worst:.6g} (weak d=6 margin {weak6:.3g})",
    )


def suite_claim1(seed: int = 0, cases=None, queries: int = 10) -> SuiteResult:
    """Exact expectation of log N equals f(d, |W|) for every query."""
    from hdperm import shade

    if cases is None:
        cases = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 3)]
    max_delta = 0.0
    checked = 0
    for d, n in cases:
        shape = Shape(d, n)
        for r in range(1, n + 1):
            for idx in range(queries):
                q = shade.random_query(
                    shape, r=r, seed=seed * 1000003 + checked + idx
                )
                delta = abs(shade.exact_expectation_logN(q) - bounds.f_float(d, r))
                max_delta = max(max_delta, delta)
            checked += queries
    return SuiteResult(
        "claim1",
        max_delta <= TOL_EXACT,
        max_delta,
        f"{checked} queries over {cases}: max |E[log N] - f| = {max_delta:.3g}",
    )


def suite_constructions(seed: int = 0) -> SuiteResult:
    """Block lifts are valid and injective; the per-block two-arrangement
    fact holds exhaustively."""
    from hdperm import constructions

    problems = []
    shape24 = Shape(2, 4)
    seen = {}
    for bits in product((0, 1), repeat=4):
        p = constructions.block_lift(shape24, constructions.BlockChoice(shape24, bits))
        if not validate_perm(p.values, shape24).valid:
            problems.append(f"invalid lift d=2 n=4 bits={bits}")
        if p.values in seen:
            problems.append(f"collision {bits} vs {seen[p.values]}")
        seen[p.values] = bits
    if constructions.block_count(shape24) != 16:
        problems.append("block_count(2,4) != 16")
    rng = random.Random(seed)
    shape34 = Shape(3, 4)
    for _ in range(100):
        choice = constructions.BlockChoice.random(shape34, seed=rng.random())
        p = constructions.block_lift(shape34, choice)
        if not validate_perm(p.values, shape34).valid:
            problems.append(f"invalid lift d=3 n=4 bits={choice.bits}")
            break
    # a [2]^2 block holding two values admits exactly 2 line-valid fillings
    valid_fillings = sum(
        validate_perm(list(vals), Shape(2, 2)).valid
        for vals in product((0, 1), repeat=4)
    )
    if valid_fillings != 2:
        problems.append(f"[2]^2 block has {valid_fillings} valid fillings, not 2")
    for d in range(1, 5):
        for n in range(1, 9):
            p = constructions.modular_perm(Shape(d, n))
            if not validate_perm(p.values, p.shape).valid:
                problems.append(f"modular invalid at d={d} n={n}")
    return SuiteResult(
        "constructions",
        not problems,
        None,
        "; ".join(problems) if problems else
        "16/16 lifts valid+distinct, 100 random d=3 lifts valid, "
        "2 fillings per block, modular valid d<=4 n<=8",
    )

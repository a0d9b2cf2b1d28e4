"""A priori bounds restoring compactness of the search domain.

For a normalized configuration of n equal masses m = 1/n (force constant
1, center of mass at the origin, total mass M = 1) every central
configuration satisfies:

* r_ij > m^2 / (M R^2) whenever all |q_i| <= R,
* max_i |q_i| >= cbrt((n-1) M / (4 n)), which is above 1/2 for n >= 3,
* max_i |q_i| <= n-1, and <= (2^(1/3) + 2^(-2/3)) (n-2)^(2/3) for n >= 4,
* at least one pair has r_ij >= 1.

All stored bounds are rounded in the conservative direction (lower bounds
down, upper bounds up).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import boxops as bxo
from . import model
from .interval import Interval, _next_down, _next_up
from .model import Masses


def icbrt(x: Interval) -> Interval:
    """Certified cube root of a nonnegative interval."""
    if x.lo < 0.0:
        raise ValueError("icbrt needs a nonnegative interval")

    def down(v: float) -> float:
        c = v ** (1.0 / 3.0)
        while Interval(c).pow_int(3).hi > v:
            c = _next_down(c)
        return c

    def up(v: float) -> float:
        c = v ** (1.0 / 3.0)
        while Interval(c).pow_int(3).lo < v:
            c = _next_up(c)
        return c

    return Interval(down(x.lo), up(x.hi))


@dataclass(frozen=True)
class BoundSet:
    """Precomputed bound data for the n-body problem."""

    n: int
    R_max: float  # upper bound on max |q_i|, rounded up
    R_max_sq: float
    R_min: float  # lower bound on max |q_i|, rounded down
    R_min_sq: float
    dist_one: float  # some pair must reach this separation (M = 1)
    mm_over_M_lo: np.ndarray  # (P,) lower bounds of m^2 / M, pair order of the model ctx
    R_max_interval: Interval  # kept for the directional-rounding check


def compute_bounds(n: int, masses: Masses) -> BoundSet:
    """The bound set of the problem; one shared, read-only object per n."""
    if masses.n != n:
        raise ValueError("mass count does not match n")
    return _bounds_cached(n)


@lru_cache(maxsize=32)
def _bounds_cached(n: int) -> BoundSet:
    M = Masses.equal(n).total
    # R_max: n-1 for n <= 4, else min(n-1, (2^(1/3)+2^(-2/3))(n-2)^(2/3))
    if n <= 4:
        R_max_iv = Interval(float(n - 1))
    else:
        c = icbrt(Interval(2.0)) + Interval(1.0) / icbrt(Interval(4.0))
        g = icbrt(Interval(float((n - 2) ** 2)))
        R_max_iv = c * g
        if R_max_iv.hi > n - 1:
            R_max_iv = Interval(min(R_max_iv.lo, float(n - 1)), float(n - 1))
    R_max = R_max_iv.hi
    R_max_sq = (R_max_iv.sqr()).hi

    R_min = icbrt(Interval(float(n - 1)) * M / Interval(float(4 * n))).lo
    R_min_sq = Interval(R_min).sqr().lo

    ctx = model._ctx_cached(n)
    mm_over_M_lo, _ = bxo.idiv_pos(ctx.mmlo, ctx.mmhi, M.lo, M.hi)
    mm_over_M_lo.flags.writeable = False
    return BoundSet(
        n=n,
        R_max=R_max,
        R_max_sq=R_max_sq,
        R_min=R_min,
        R_min_sq=R_min_sq,
        dist_one=1.0,
        mm_over_M_lo=mm_over_M_lo,
        R_max_interval=R_max_iv,
    )


def check_apriori_batch(
    bset: BoundSet,
    q2lo: np.ndarray,
    q2hi: np.ndarray,
    rhi: np.ndarray,
) -> np.ndarray:
    """Per-box violation verdicts over a batch (cheapest test first).

    Inputs carry the body axis (..., n) / pair axis (..., P); the result
    has the batch shape.
    """
    # some body provably outside the outer radius
    out = np.any(q2lo > bset.R_max_sq, axis=-1)
    # every body provably inside the inner radius
    out |= np.all(q2hi < bset.R_min_sq, axis=-1)
    # every pair provably closer than the unit separation
    out |= np.all(rhi < bset.dist_one, axis=-1)
    # some pair provably below the collision floor for the box's own radius
    R_sq_hi = np.minimum(np.max(q2hi, axis=-1), bset.R_max_sq)
    R_sq = np.maximum(R_sq_hi[..., None], 1e-300)
    floor, _ = bxo.idiv_pos(bset.mm_over_M_lo, bset.mm_over_M_lo, R_sq, R_sq)
    out |= np.any(rhi < floor, axis=-1)
    return out

"""Tight interval bounds for the singular kernels t^a / r^b over 2-D boxes.

The naive interval evaluation of x^a/(x^2+y^2)^(b/2) overestimates badly
because x appears twice.  The kernel has no interior critical points on a
box excluding the origin, so its exact range is attained on the border at
finitely many candidate points: the corners, the axis crossings x=0 / y=0,
and the crossings of the critical lines y = +-x*sqrt((b-a)/a) and
x = +-y*sqrt((b-a)/a) with the edges.  We clip the candidates to their
edge (line crossings as thin interval points), evaluate the ones that lie
on the box in interval arithmetic and intersect with the naive
evaluation, so the result both contains the true range and never exceeds
the naive bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import boxops as bx
from .errors import DomainError
from .interval import Interval


class SingularBox(DomainError):
    """The query box may contain the origin, where the kernel is singular."""


@dataclass(frozen=True)
class KernelQuery:
    """Range query for t^a / r^b with t the displacement along `axis`."""

    dx: Interval
    dy: Interval
    a: int
    b: int
    axis: str = "X"  # "X" or "Y"

    def __post_init__(self):
        if not (0 < self.a < self.b):
            raise DomainError(f"kernel exponents need 0 < a < b, got a={self.a} b={self.b}")
        if self.axis not in ("X", "Y"):
            raise DomainError(f"axis must be X or Y, got {self.axis!r}")


@lru_cache(maxsize=None)
def _slope(a: int, b: int) -> Interval:
    # sqrt((b-a)/a), the critical-line slope for exponent pair (a, b)
    return (Interval(float(b - a)) / Interval(float(a))).sqrt()


def _r_pow(r2lo, r2hi, b):
    """(r^b)_lo, (r^b)_hi from an enclosure of r^2; b may be a per-element array."""
    if isinstance(b, np.ndarray):
        rlo, rhi = bx.isqrt(r2lo, r2hi)
        r3lo, r3hi = bx.imul(r2lo, r2hi, rlo, rhi)
        r4lo, r4hi = bx.imul(r2lo, r2hi, r2lo, r2hi)
        r5lo, r5hi = bx.imul(r4lo, r4hi, rlo, rhi)
        sel2 = b == 2
        sel3 = b == 3
        lo = np.where(sel2, r2lo, np.where(sel3, r3lo, r5lo))
        hi = np.where(sel2, r2hi, np.where(sel3, r3hi, r5hi))
        return lo, hi
    if b == 2:
        return r2lo, r2hi
    if b % 2 == 0:
        half = _r_pow(r2lo, r2hi, b - 2)
        return bx.imul(half[0], half[1], r2lo, r2hi)
    rlo, rhi = bx.isqrt(r2lo, r2hi)
    if b == 3:
        return bx.imul(r2lo, r2hi, rlo, rhi)
    evenlo, evenhi = _r_pow(r2lo, r2hi, b - 1)
    return bx.imul(evenlo, evenhi, rlo, rhi)


def inv_r_pow_batch(dxlo, dxhi, dylo, dyhi, b: int):
    """Enclosure of 1/r^b; tight already since each variable appears once."""
    x2lo, x2hi = bx.isqr(dxlo, dxhi)
    y2lo, y2hi = bx.isqr(dylo, dyhi)
    r2lo, r2hi = bx.iadd(x2lo, x2hi, y2lo, y2hi)
    rblo, rbhi = _r_pow(r2lo, r2hi, b)
    return bx.irecip_pos(rblo, rbhi)


def _num_pow(cxlo, cxhi, a):
    """Numerator power x^a; a may be a per-element array with values in {1, 2}."""
    if isinstance(a, np.ndarray):
        sqlo, sqhi = bx.isqr(cxlo, cxhi)
        sel = a == 1
        return np.where(sel, cxlo, sqlo), np.where(sel, cxhi, sqhi)
    return _kernel_pow(cxlo, cxhi, a)


def _kernel_at(cxlo, cxhi, cylo, cyhi, a, b):
    """Kernel value enclosures at (interval-) candidate points."""
    tlo, thi = _num_pow(cxlo, cxhi, a)
    x2lo, x2hi = bx.isqr(cxlo, cxhi)
    y2lo, y2hi = bx.isqr(cylo, cyhi)
    r2lo, r2hi = bx.iadd(x2lo, x2hi, y2lo, y2hi)
    rblo, rbhi = _r_pow(r2lo, r2hi, b)
    return bx.idiv_pos(tlo, thi, rblo, rbhi)


def bound_kernel_batch(dxlo, dxhi, dylo, dyhi, a, b, slope_lo=None, slope_hi=None):
    """Vectorized range enclosure of dx^a/r^b over boxes [dx] x [dy].

    Raises SingularBox if a box may contain the origin.  For the Y-axis
    kernel swap the dx and dy arguments (the candidate set is
    swap-symmetric).  Candidates are clipped to their edge and only the
    ones left nonempty are evaluated.  `a` and `b` may be per-row arrays
    (then `slope_lo`/`slope_hi` must carry the per-row critical slopes);
    point boxes short-circuit to the naive evaluation, which is already
    exact for them.
    """
    # never worse than the naive evaluation, and it certifies the precondition
    nlo, nhi = _naive(dxlo, dxhi, dylo, dyhi, a, b)
    if np.all(dxlo == dxhi) and np.all(dylo == dyhi):
        return nlo, nhi
    if slope_lo is None:
        s = _slope(int(a), int(b))
        slope_lo = np.full_like(dxlo, s.lo)
        slope_hi = np.full_like(dxlo, s.hi)
    shape = (len(dxlo), 24)
    cxlo, cxhi, cylo, cyhi = (np.empty(shape) for _ in range(4))
    col = 0

    def cand(xpair, ypair):
        nonlocal col
        cxlo[:, col], cxhi[:, col] = xpair
        cylo[:, col], cyhi[:, col] = ypair
        col += 1

    for xe in ((dxlo, dxlo), (dxhi, dxhi)):
        for ye in ((dylo, dylo), (dyhi, dyhi)):
            cand(xe, ye)  # corners
    cand((0.0, 0.0), (dylo, dylo))  # x = 0 on the horizontal edges
    cand((0.0, 0.0), (dyhi, dyhi))
    cand((dxlo, dxlo), (0.0, 0.0))  # y = 0 on the vertical edges
    cand((dxhi, dxhi), (0.0, 0.0))
    for ce in ((dylo, dylo), (dyhi, dyhi)):
        # slopes +-s and +-1/s crossing the horizontal edge y = c at x = c/m
        q1 = bx.idiv_pos(*ce, slope_lo, slope_hi)
        q2 = bx.imul(*ce, slope_lo, slope_hi)
        cand(q1, ce)
        cand(q2, ce)
        cand((-q1[1], -q1[0]), ce)
        cand((-q2[1], -q2[0]), ce)
    for ce in ((dxlo, dxlo), (dxhi, dxhi)):
        # the same four slopes crossing the vertical edge x = c at y = m*c
        q1 = bx.imul(*ce, slope_lo, slope_hi)
        q2 = bx.idiv_pos(*ce, slope_lo, slope_hi)
        cand(ce, q1)
        cand(ce, q2)
        cand(ce, (-q1[1], -q1[0]))
        cand(ce, (-q2[1], -q2[0]))

    # clip every candidate to the box and evaluate the nonempty ones only
    np.maximum(cxlo, dxlo[:, None], out=cxlo)
    np.minimum(cxhi, dxhi[:, None], out=cxhi)
    np.maximum(cylo, dylo[:, None], out=cylo)
    np.minimum(cyhi, dyhi[:, None], out=cyhi)
    valid = (cxlo <= cxhi) & (cylo <= cyhi)
    if isinstance(a, np.ndarray):
        rows = np.nonzero(valid)[0]
        a, b = a[rows], b[rows]
    vlo, vhi = _kernel_at(cxlo[valid], cxhi[valid], cylo[valid], cyhi[valid], a, b)
    lo = np.full(shape, np.inf)
    hi = np.full(shape, -np.inf)
    lo[valid] = vlo
    hi[valid] = vhi
    return np.maximum(lo.min(axis=1), nlo), np.minimum(hi.max(axis=1), nhi)


def _naive(dxlo, dxhi, dylo, dyhi, a, b):
    tlo, thi = _num_pow(dxlo, dxhi, a)
    x2lo, x2hi = bx.isqr(dxlo, dxhi)
    y2lo, y2hi = bx.isqr(dylo, dyhi)
    r2lo, r2hi = bx.iadd(x2lo, x2hi, y2lo, y2hi)
    if np.any(r2lo <= 0.0):
        raise SingularBox("kernel box may contain the origin")
    rblo, rbhi = _r_pow(r2lo, r2hi, b)
    return bx.idiv_pos(tlo, thi, rblo, rbhi)


def _kernel_pow(xlo, xhi, a: int):
    if a == 1:
        return xlo, xhi
    if a == 2:
        return bx.isqr(xlo, xhi)
    tlo, thi = xlo, xhi
    for _ in range(a - 1):
        tlo, thi = bx.imul(tlo, thi, xlo, xhi)
    return tlo, thi


def bound_kernel(q: KernelQuery) -> Interval:
    """Range enclosure of the kernel over a single box (scalar front end)."""
    dx, dy = (q.dx, q.dy) if q.axis == "X" else (q.dy, q.dx)
    lo, hi = bound_kernel_batch(
        np.array([dx.lo]),
        np.array([dx.hi]),
        np.array([dy.lo]),
        np.array([dy.hi]),
        q.a,
        q.b,
    )
    return Interval(float(lo[0]), float(hi[0]))

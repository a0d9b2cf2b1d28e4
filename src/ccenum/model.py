"""Physical model: the equal masses, the batched acceleration arrays of the
residual and the derived scalars (potential, moment of inertia, scale
invariant, Moeckel's potential).

Every body has the same mass m = 1/n.  Positions are dimensionless: the
proportionality constant of the central force balance is fixed to 1 and
the center of mass sits at the origin, so the last body is always
eliminated as q_last = -sum q_i.  A displacement against it is the plain
difference q_i - q_last = 2 q_i + sum_{j != i} q_j: every coordinate
enters with a positive coefficient, so the interval difference is as
tight as the expanded sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import boxops as bxo
from . import kernels
from .errors import CollisionPossible
from .interval import Interval, interval_sum


@dataclass(frozen=True)
class Masses:
    """n equal bodies of mass m, an enclosure of the exact 1/n; build it
    with `equal`."""

    n: int
    m: Interval

    @classmethod
    def equal(cls, n: int) -> "Masses":
        return cls(n, Interval.from_fraction(Fraction(1, n)))

    @property
    def total(self) -> Interval:
        return interval_sum([self.m] * self.n)


@dataclass(frozen=True)
class ScalarEnclosures:
    """Certified enclosures of the configuration scalars."""

    U: Interval
    I: Interval
    J: Interval
    P_moeckel: Interval


# ---------------------------------------------------------------------------
# precomputed per-n vectorized context


class _Ctx:
    def __init__(self, n: int):
        self.n = n
        m = Masses.equal(n).m
        self.mlo, self.mhi = m.lo, m.hi
        # unordered pairs over all n bodies, pairs with the derived body last
        self.ii, self.jj = np.triu_indices(n, 1)
        self.P = len(self.ii)
        mmlo, mmhi = bxo.imul(m.lo, m.hi, m.lo, m.hi)
        self.mmlo, self.mmhi = np.full(self.P, mmlo), np.full(self.P, mmhi)
        # body i leads pair p (first) or is in it at all (incidence)
        bodies = np.arange(n)[:, None]
        self.first = bodies == self.ii
        self.incidence = self.first | (bodies == self.jj)


@lru_cache(maxsize=32)
def _ctx_cached(n: int) -> _Ctx:
    return _Ctx(n)


def nbody_ctx(masses: Masses) -> _Ctx:
    return _ctx_cached(masses.n)


# ---------------------------------------------------------------------------
# array pipeline (used by the search hot path and wrapped by the public ops)


def derived_last_arrays(xlo, xhi, ylo, yhi):
    """Enclosure of -sum q_i from the free-body arrays.

    All the array pipeline functions take free-body coordinates of shape
    (..., n-1) with an arbitrary batch prefix and vectorize over it.
    """
    sxlo, sxhi = bxo.isum(xlo, xhi, axis=-1)
    sylo, syhi = bxo.isum(ylo, yhi, axis=-1)
    return -sxhi, -sxlo, -syhi, -sylo


def all_body_arrays(xlo, xhi, ylo, yhi):
    """(..., n) coordinate enclosures including the derived last body."""
    dlo_x, dhi_x, dlo_y, dhi_y = derived_last_arrays(xlo, xhi, ylo, yhi)
    bxlo = np.concatenate([xlo, dlo_x[..., None]], axis=-1)
    bxhi = np.concatenate([xhi, dhi_x[..., None]], axis=-1)
    bylo = np.concatenate([ylo, dlo_y[..., None]], axis=-1)
    byhi = np.concatenate([yhi, dhi_y[..., None]], axis=-1)
    return bxlo, bxhi, bylo, byhi


def pair_disp_arrays(ctx: _Ctx, xlo, xhi, ylo, yhi):
    """Per-pair displacement enclosures q_i - q_j, i < j, shape (..., P)."""
    bxlo, bxhi, bylo, byhi = all_body_arrays(xlo, xhi, ylo, yhi)
    ii, jj = ctx.ii, ctx.jj
    dxlo, dxhi = bxo.isub(bxlo[..., ii], bxhi[..., ii], bxlo[..., jj], bxhi[..., jj])
    dylo, dyhi = bxo.isub(bylo[..., ii], byhi[..., ii], bylo[..., jj], byhi[..., jj])
    return dxlo, dxhi, dylo, dyhi


def pair_r2_arrays(dxlo, dxhi, dylo, dyhi):
    x2 = bxo.isqr(dxlo, dxhi)
    y2 = bxo.isqr(dylo, dyhi)
    return bxo.iadd(*x2, *y2)


# the pair kernels dx/r^3 and dy/r^3 of the acceleration
ACCEL_KINDS = ((1, 3, "X"), (1, 3, "Y"))


def accel_arrays(ctx: _Ctx, dxlo, dxhi, dylo, dyhi, pair_mask):
    """Enclosures of m sum_j (q_i - q_j)/r^3 for every body i, (..., n).

    `pair_mask` marks the pairs that are collision-free; masked-out pairs
    contribute nothing and the caller must not use rows touching them.
    """
    kxlo = np.zeros(dxlo.shape)
    kxhi = np.zeros(dxlo.shape)
    kylo = np.zeros(dxlo.shape)
    kyhi = np.zeros(dxlo.shape)
    sel = pair_mask
    if np.any(sel):
        (kxlo[sel], kylo[sel]), (kxhi[sel], kyhi[sel]) = kernels.bound_pair_kernels(
            dxlo[sel], dxhi[sel], dylo[sel], dyhi[sel], ACCEL_KINDS
        )
    # accel_i = sum_p +-m k_p: + where body i leads pair p, - where it ends it
    mkx = bxo.imul(ctx.mlo, ctx.mhi, kxlo, kxhi)
    mky = bxo.imul(ctx.mlo, ctx.mhi, kylo, kyhi)
    where = pair_mask[..., None, :] & ctx.incidence
    axlo, axhi = _signed_sum(ctx, *mkx, where)
    aylo, ayhi = _signed_sum(ctx, *mky, where)
    return axlo, axhi, aylo, ayhi


def _signed_sum(ctx: _Ctx, lo, hi, where):
    """Per body, the sum of the pair terms (..., P) it leads minus those it
    ends, over the (..., n, P) mask `where`."""
    lo, hi = lo[..., None, :], hi[..., None, :]
    return bxo.isum(
        np.where(ctx.first, lo, -hi), np.where(ctx.first, hi, -lo), axis=-1, where=where
    )


# ---------------------------------------------------------------------------
# public operations


def scalars(xlo, xhi, ylo, yhi, masses: Masses) -> ScalarEnclosures:
    """Enclosures of U, I, J = U sqrt(I)/M^(5/2) and Moeckel's potential
    from the free-body coordinate arrays, shape (n-1,).

    Moeckel's potential is U sqrt(I) evaluated with all masses set to 1,
    which equals the potential after rescaling to unit masses and I = 1.
    """
    ctx = nbody_ctx(masses)
    d = pair_disp_arrays(ctx, xlo, xhi, ylo, yhi)
    r2lo, r2hi = pair_r2_arrays(*d)
    if np.any(r2lo <= 0.0):
        raise CollisionPossible("collision possible: U is unbounded on the box")
    rlo, rhi = bxo.isqrt(r2lo, r2hi)

    ulo, uhi = bxo.idiv_pos(ctx.mmlo, ctx.mmhi, rlo, rhi)
    U = _sum_iv(ulo, uhi)
    uulo, uuhi = bxo.irecip_pos(rlo, rhi)
    U_unit = _sum_iv(uulo, uuhi)

    bxlo, bxhi, bylo, byhi = all_body_arrays(xlo, xhi, ylo, yhi)
    q2 = bxo.iadd(*bxo.isqr(bxlo, bxhi), *bxo.isqr(bylo, byhi))
    ilo, ihi = bxo.imul(ctx.mlo, ctx.mhi, q2[0], q2[1])
    I = _sum_iv(ilo, ihi)
    I_unit = _sum_iv(q2[0], q2[1])

    M = masses.total
    m52 = (M * M) * M.sqrt()
    J = U * I.sqrt() / m52
    P = U_unit * I_unit.sqrt()
    return ScalarEnclosures(U=U, I=I, J=J, P_moeckel=P)


def _sum_iv(lo, hi) -> Interval:
    s = bxo.isum(lo, hi)
    return Interval(float(s[0]), float(s[1]))

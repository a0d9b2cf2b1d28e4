"""Physical model: masses, the batched acceleration arrays of the residual
and the derived scalars (potential, moment of inertia, scale invariant,
Moeckel's potential).

Positions are dimensionless: the proportionality constant of the central
force balance is fixed to 1 and the center of mass sits at the origin, so
the last body is always eliminated as q_last = -(1/m_last) * sum(m_i q_i).
Displacements against the eliminated body are expanded so that each free
coordinate appears exactly once (otherwise interval evaluation pays the
dependency penalty twice).
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


class Masses:
    """Per-body mass enclosures; equal-mass construction encloses exact 1/n."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(values)
        if not vals:
            raise ValueError("need at least one mass")
        for v in vals:
            if not isinstance(v, Interval) or v.lo <= 0.0:
                raise ValueError(f"masses must be positive intervals, got {v!r}")
        self.values = vals

    @classmethod
    def equal(cls, n: int) -> "Masses":
        m = Interval.from_fraction(Fraction(1, n))
        return cls([m] * n)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def total(self) -> Interval:
        return interval_sum(self.values)

    @property
    def equal_mass(self) -> bool:
        first = self.values[0]
        return all(v == first for v in self.values)

    def key(self):
        return tuple((v.lo, v.hi) for v in self.values)

    def __repr__(self) -> str:
        return f"Masses(n={self.n}, equal={self.equal_mass})"


@dataclass(frozen=True)
class ScalarEnclosures:
    """Certified enclosures of the configuration scalars."""

    U: Interval
    I: Interval
    J: Interval
    P_moeckel: Interval


# ---------------------------------------------------------------------------
# precomputed per-(n, masses) vectorized context


class _Ctx:
    def __init__(self, n: int, mass_key):
        self.n = n
        mlo = np.array([k[0] for k in mass_key])
        mhi = np.array([k[1] for k in mass_key])
        self.mlo, self.mhi = mlo, mhi
        # weights m_j / m_last and the self coefficient 1 + m_i / m_last
        wlo, whi = bxo.idiv_pos(mlo[:-1], mhi[:-1], np.full(n - 1, mlo[-1]), np.full(n - 1, mhi[-1]))
        self.wlo, self.whi = wlo, whi
        self.coef_lo, self.coef_hi = bxo.iadd(np.ones(n - 1), np.ones(n - 1), wlo, whi)
        # off-diagonal weight matrix for sum_{j != i} (m_j/m_last) x_j
        Wlo = np.tile(wlo, (n - 1, 1))
        Whi = np.tile(whi, (n - 1, 1))
        np.fill_diagonal(Wlo, 0.0)
        np.fill_diagonal(Whi, 0.0)
        self.Wlo, self.Whi = Wlo, Whi
        # unordered pairs over all n bodies, pairs with the derived body last
        ii, jj = [], []
        for i in range(n):
            for j in range(i + 1, n):
                ii.append(i)
                jj.append(j)
        self.ii = np.array(ii)
        self.jj = np.array(jj)
        self.P = len(ii)
        self.pair_free = self.jj < n - 1
        # mass products per pair and the signed acceleration coefficients:
        # accel_i = sum_p coef[i, p] * kernel_p with kernel_p = (q_i - q_j)/r^3
        self.mmlo, self.mmhi = bxo.imul(mlo[self.ii], mhi[self.ii], mlo[self.jj], mhi[self.jj])
        clo = np.zeros((n, self.P))
        chi = np.zeros((n, self.P))
        inc = np.zeros((n, self.P), dtype=bool)
        for p in range(self.P):
            i, j = ii[p], jj[p]
            clo[i, p], chi[i, p] = mlo[j], mhi[j]
            clo[j, p], chi[j, p] = -mhi[i], -mlo[i]
            inc[i, p] = inc[j, p] = True
        self.acc_clo, self.acc_chi = clo, chi
        self.incidence = inc


@lru_cache(maxsize=32)
def _ctx_cached(n: int, mass_key) -> _Ctx:
    return _Ctx(n, mass_key)


def nbody_ctx(masses: Masses) -> _Ctx:
    return _ctx_cached(masses.n, masses.key())


# ---------------------------------------------------------------------------
# array pipeline (used by the search hot path and wrapped by the public ops)


def derived_last_arrays(ctx: _Ctx, xlo, xhi, ylo, yhi):
    """Enclosure of -(1/m_last) sum m_i q_i from the free-body arrays.

    All the array pipeline functions take free-body coordinates of shape
    (..., n-1) with an arbitrary batch prefix and vectorize over it.
    """
    pxlo, pxhi = bxo.imul(ctx.wlo, ctx.whi, xlo, xhi)
    pylo, pyhi = bxo.imul(ctx.wlo, ctx.whi, ylo, yhi)
    sxlo, sxhi = bxo.isum(pxlo, pxhi, axis=-1)
    sylo, syhi = bxo.isum(pylo, pyhi, axis=-1)
    return -sxhi, -sxlo, -syhi, -sylo


def all_body_arrays(ctx: _Ctx, xlo, xhi, ylo, yhi):
    """(..., n) coordinate enclosures including the derived last body."""
    dlo_x, dhi_x, dlo_y, dhi_y = derived_last_arrays(ctx, xlo, xhi, ylo, yhi)
    bxlo = np.concatenate([xlo, dlo_x[..., None]], axis=-1)
    bxhi = np.concatenate([xhi, dhi_x[..., None]], axis=-1)
    bylo = np.concatenate([ylo, dlo_y[..., None]], axis=-1)
    byhi = np.concatenate([yhi, dhi_y[..., None]], axis=-1)
    return bxlo, bxhi, bylo, byhi


def pair_disp_arrays(ctx: _Ctx, xlo, xhi, ylo, yhi):
    """Per-pair displacement enclosures q_i - q_j, i < j, shape (..., P).

    Pairs against the derived body use the expanded form
    x_i (1 + m_i/m_last) + sum_{j != i} (m_j/m_last) x_j so that each free
    coordinate enters once.
    """
    # cross sums excluding the own body
    cxlo, cxhi = bxo.imul(ctx.Wlo, ctx.Whi, xlo[..., None, :], xhi[..., None, :])
    cylo, cyhi = bxo.imul(ctx.Wlo, ctx.Whi, ylo[..., None, :], yhi[..., None, :])
    sxlo, sxhi = bxo.isum(cxlo, cxhi, axis=-1)
    sylo, syhi = bxo.isum(cylo, cyhi, axis=-1)
    txlo, txhi = bxo.imul(ctx.coef_lo, ctx.coef_hi, xlo, xhi)
    tylo, tyhi = bxo.imul(ctx.coef_lo, ctx.coef_hi, ylo, yhi)
    lastx = bxo.iadd(txlo, txhi, sxlo, sxhi)
    lasty = bxo.iadd(tylo, tyhi, sylo, syhi)

    shape = xlo.shape[:-1] + (ctx.P,)
    dxlo = np.empty(shape)
    dxhi = np.empty(shape)
    dylo = np.empty(shape)
    dyhi = np.empty(shape)
    free = ctx.pair_free
    f_ii, f_jj = ctx.ii[free], ctx.jj[free]
    dxlo[..., free], dxhi[..., free] = bxo.isub(
        xlo[..., f_ii], xhi[..., f_ii], xlo[..., f_jj], xhi[..., f_jj]
    )
    dylo[..., free], dyhi[..., free] = bxo.isub(
        ylo[..., f_ii], yhi[..., f_ii], ylo[..., f_jj], yhi[..., f_jj]
    )
    lastsel = ctx.ii[~free]
    dxlo[..., ~free] = lastx[0][..., lastsel]
    dxhi[..., ~free] = lastx[1][..., lastsel]
    dylo[..., ~free] = lasty[0][..., lastsel]
    dyhi[..., ~free] = lasty[1][..., lastsel]
    return dxlo, dxhi, dylo, dyhi


def pair_r2_arrays(dxlo, dxhi, dylo, dyhi):
    x2 = bxo.isqr(dxlo, dxhi)
    y2 = bxo.isqr(dylo, dyhi)
    return bxo.iadd(*x2, *y2)


# the pair kernels dx/r^3 and dy/r^3 of the acceleration
ACCEL_KINDS = ((1, 3, "X"), (1, 3, "Y"))


def accel_arrays(ctx: _Ctx, dxlo, dxhi, dylo, dyhi, pair_mask):
    """Enclosures of sum_j (m_j/r^3)(q_i - q_j) for every body i, (..., n).

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
    # accel_i = sum_p c[i,p] * k_p, the coefficients carry the masses and signs
    txlo, txhi = bxo.imul(ctx.acc_clo, ctx.acc_chi, kxlo[..., None, :], kxhi[..., None, :])
    tylo, tyhi = bxo.imul(ctx.acc_clo, ctx.acc_chi, kylo[..., None, :], kyhi[..., None, :])
    where = np.broadcast_to(pair_mask[..., None, :], txlo.shape)
    axlo, axhi = bxo.isum(txlo, txhi, axis=-1, where=where)
    aylo, ayhi = bxo.isum(tylo, tyhi, axis=-1, where=where)
    return axlo, axhi, aylo, ayhi


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

    bxlo, bxhi, bylo, byhi = all_body_arrays(ctx, xlo, xhi, ylo, yhi)
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

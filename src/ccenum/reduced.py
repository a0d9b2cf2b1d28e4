"""Gauge-fixed square system whose nondegenerate zeros are the normalized
central configurations.

The last body is eliminated by the center-of-mass identity, the y
coordinate of body n-2 is pinned to 0 (killing the rotational degree of
freedom) and that body's y equation is dropped.  The remaining
2(n-1)-1 equations in as many unknowns are solved by the certification
machinery; a zero with x_{n-2} != x_{n-1} is a genuine central
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import boxops as bxo
from . import kernels, model
from .model import Masses


def dim_for(n: int) -> int:
    return 2 * (n - 1) - 1


def n_for_dim(d: int) -> int:
    n = (d + 3) // 2
    if dim_for(n) != d:
        raise ValueError(f"no body count gives dimension {d}")
    return n


@dataclass(frozen=True, eq=False)
class ReducedBox:
    """Search-space element (x0, y0, ..., x_{n-3}, y_{n-3}, x_{n-2}) as
    float64 bound arrays; build it with `from_arrays`, read it with `arrays`."""

    lo: np.ndarray
    hi: np.ndarray

    def arrays(self):
        """Copies of the bounds, so no caller can change the box."""
        return self.lo.copy(), self.hi.copy()

    @classmethod
    def from_arrays(cls, lo, hi) -> "ReducedBox":
        """Box of copies of `lo` and `hi`; raises ValueError unless they are
        1-D of one shape and a dimension some n gives, NaN free, lo <= hi."""
        lo = np.array(lo, dtype=np.float64)
        hi = np.array(hi, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"box bounds need one 1-D shape, got {lo.shape} and {hi.shape}")
        n_for_dim(len(lo))
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("box bound is NaN")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi")
        return cls(lo, hi)


# ---------------------------------------------------------------------------
# vectorized core


# per-pair kernels of the Jacobian: x^2/r^5, y^2/r^5, x/r^3, y/r^2 and 1/r^3
JAC_KINDS = ((2, 5, "X"), (2, 5, "Y"), (1, 3, "X"), (1, 2, "Y"), (0, 3, "X"))


class _RCtx:
    def __init__(self, mctx: model._Ctx):
        n = mctx.n
        self.m = mctx
        d = dim_for(n)
        self.d = d
        # pair index lookup: free-free matrix and the last-body column
        fpi = np.zeros((n - 1, n - 1), dtype=int)
        lpi = np.zeros(n - 1, dtype=int)
        for p in range(mctx.P):
            i, j = int(mctx.ii[p]), int(mctx.jj[p])
            if j < n - 1:
                fpi[i, j] = p
                fpi[j, i] = p
            else:
                lpi[i] = p
        self.fpi, self.lpi = fpi, lpi
        self.offdiag = ~np.eye(n - 1, dtype=bool)
        # column-mass matrices m_k and the diagonal coefficients m_last + m_i
        self.MKlo = np.tile(mctx.mlo[:-1], (n - 1, 1))
        self.MKhi = np.tile(mctx.mhi[:-1], (n - 1, 1))
        self.mLi_lo, self.mLi_hi = bxo.iadd(
            np.full(n - 1, mctx.mlo[-1]), np.full(n - 1, mctx.mhi[-1]), mctx.mlo[:-1], mctx.mhi[:-1]
        )
        # row/column layout of the reduced system
        body = []
        axis = []
        for i in range(n - 2):
            body += [i, i]
            axis += [0, 1]
        body.append(n - 2)
        axis.append(0)
        self.lay_body = np.array(body)
        self.lay_axis = np.array(axis)


@lru_cache(maxsize=32)
def _rctx_cached(n: int, mass_key) -> _RCtx:
    return _RCtx(model._ctx_cached(n, mass_key))


def reduced_ctx(masses: Masses) -> _RCtx:
    return _rctx_cached(masses.n, masses.key())


def box_to_free_arrays(zlo, zhi, n: int):
    """Free-body coordinate arrays from reduced boxes of shape (..., d)."""
    zero = np.zeros(zlo.shape[:-1] + (1,))
    xlo = np.concatenate([zlo[..., 0 : 2 * (n - 2) : 2], zlo[..., -1:]], axis=-1)
    xhi = np.concatenate([zhi[..., 0 : 2 * (n - 2) : 2], zhi[..., -1:]], axis=-1)
    ylo = np.concatenate([zlo[..., 1 : 2 * (n - 2) : 2], zero], axis=-1)
    yhi = np.concatenate([zhi[..., 1 : 2 * (n - 2) : 2], zero], axis=-1)
    return xlo, xhi, ylo, yhi


def residual_masked(rctx: _RCtx, zlo, zhi):
    """Reduced residual enclosures for a batch of boxes, shape (..., d).

    Returns (out_lo, out_hi, ok) where ok flags the boxes with no possible
    collision; rows with ok False carry unusable values.
    """
    mctx = rctx.m
    n = mctx.n
    xlo, xhi, ylo, yhi = box_to_free_arrays(zlo, zhi, n)
    d = model.pair_disp_arrays(mctx, xlo, xhi, ylo, yhi)
    r2lo, _ = model.pair_r2_arrays(*d)
    pair_ok = r2lo > 0.0
    ok = np.all(pair_ok, axis=-1)
    axlo, axhi, aylo, ayhi = model.accel_arrays(mctx, *d, pair_mask=pair_ok)
    fxlo, fxhi = bxo.isub(xlo, xhi, axlo[..., : n - 1], axhi[..., : n - 1])
    fylo, fyhi = bxo.isub(ylo, yhi, aylo[..., : n - 1], ayhi[..., : n - 1])
    out_lo = np.empty(zlo.shape)
    out_hi = np.empty(zhi.shape)
    out_lo[..., 0 : 2 * (n - 2) : 2] = fxlo[..., : n - 2]
    out_hi[..., 0 : 2 * (n - 2) : 2] = fxhi[..., : n - 2]
    out_lo[..., 1 : 2 * (n - 2) : 2] = fylo[..., : n - 2]
    out_hi[..., 1 : 2 * (n - 2) : 2] = fyhi[..., : n - 2]
    out_lo[..., -1] = fxlo[..., n - 2]
    out_hi[..., -1] = fxhi[..., n - 2]
    return out_lo, out_hi, ok


def jacobian_masked(rctx: _RCtx, zlo, zhi):
    """Reduced Jacobian enclosures for a batch of boxes, shape (B, d).

    Returns (Jlo, Jhi, ok) with Jlo/Jhi of shape (B, d, d); boxes with a
    possible collision get ok False and identity placeholders.  The mixed
    x*y/r^5 terms are bounded as the product of x/r^3 and y/r^2.
    """
    mctx = rctx.m
    n = mctx.n
    B = zlo.shape[0]
    dd = rctx.d
    xlo, xhi, ylo, yhi = box_to_free_arrays(zlo, zhi, n)
    dxlo, dxhi, dylo, dyhi = model.pair_disp_arrays(mctx, xlo, xhi, ylo, yhi)
    r2lo, _ = model.pair_r2_arrays(dxlo, dxhi, dylo, dyhi)
    ok = np.all(r2lo > 0.0, axis=-1)
    Jlo = np.broadcast_to(np.eye(dd), (B, dd, dd)).copy()
    Jhi = Jlo.copy()
    if not np.any(ok):
        return Jlo, Jhi, ok
    idx = np.nonzero(ok)[0]
    if len(idx) < B:
        dxlo, dxhi, dylo, dyhi = dxlo[idx], dxhi[idx], dylo[idx], dyhi[idx]
    k = len(idx)

    klo, khi = kernels.bound_pair_kernels(
        dxlo.reshape(-1), dxhi.reshape(-1), dylo.reshape(-1), dyhi.reshape(-1), JAC_KINDS
    )
    klo = klo.reshape(len(JAC_KINDS), k, mctx.P)
    khi = khi.reshape(len(JAC_KINDS), k, mctx.P)
    x25, y25, x13, y12, ir3 = zip(klo, khi)

    A = bxo.isub(*bxo.iscale(*x25, 3.0), *ir3)
    Bk = bxo.isub(*bxo.iscale(*y25, 3.0), *ir3)
    C = bxo.iscale(*bxo.imul(*x13, *y12), 3.0)

    nf = n - 1
    blocks_lo = np.empty((k, 3, nf, nf))
    blocks_hi = np.empty((k, 3, nf, nf))
    di = np.arange(nf)
    for code, (tlo, thi) in enumerate((A, C, Bk)):
        Flo, Fhi = tlo[:, rctx.fpi], thi[:, rctx.fpi]  # junk diagonal, overwritten below
        Llo, Lhi = tlo[:, rctx.lpi], thi[:, rctx.lpi]
        # off-diagonal: m_k * (T(i,last) - T(i,k))
        difflo, diffhi = bxo.isub(Llo[:, :, None], Lhi[:, :, None], Flo, Fhi)
        odlo, odhi = bxo.imul(rctx.MKlo, rctx.MKhi, difflo, diffhi)
        # diagonal: delta + sum_{j != i} m_j T(i,j) + (m_last + m_i) T(i,last)
        plo, phi = bxo.imul(rctx.MKlo, rctx.MKhi, Flo, Fhi)
        slo, shi = bxo.isum(plo, phi, axis=-1, where=rctx.offdiag)
        qlo, qhi = bxo.imul(rctx.mLi_lo, rctx.mLi_hi, Llo, Lhi)
        dglo, dghi = bxo.iadd(slo, shi, qlo, qhi)
        if code != 1:  # XX and YY carry the identity term
            dglo, dghi = bxo.iadd(dglo, dghi, np.ones(nf), np.ones(nf))
        odlo[:, di, di] = dglo
        odhi[:, di, di] = dghi
        blocks_lo[:, code] = odlo
        blocks_hi[:, code] = odhi

    codes = rctx.lay_axis[:, None] + rctx.lay_axis[None, :]
    rb = rctx.lay_body[:, None]
    cb = rctx.lay_body[None, :]
    Jlo[idx] = blocks_lo[:, codes, rb, cb]
    Jhi[idx] = blocks_hi[:, codes, rb, cb]
    return Jlo, Jhi, ok


# ---------------------------------------------------------------------------
# public operations


def gauge_validity(zlo, zhi, masses: Masses) -> bool:
    """True iff the x enclosures of body n-2 and the derived body are disjoint."""
    free = box_to_free_arrays(zlo, zhi, masses.n)
    dlo, dhi, _, _ = model.derived_last_arrays(model.nbody_ctx(masses), *free)
    return bool(zhi[-1] < dlo or dhi < zlo[-1])

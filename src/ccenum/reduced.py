"""Gauge-fixed square system whose nondegenerate zeros are the normalized
central configurations.

The masses are equal, and the last body is eliminated by the
center-of-mass identity q_last = -sum q_i (`model`); the y
coordinate of body n-2 is pinned to 0 (killing the rotational degree of
freedom) and that body's y equation is dropped.  The remaining
2(n-1)-1 equations in as many unknowns are solved by the certification
machinery; a zero with x_{n-2} != x_{n-1} is a genuine central
configuration.

Layout: a reduced vector z is the row-major flattening of the (n-1, 2)
array of free bodies (x in column 0, y in column 1) without its last
entry, the pinned y of body n-2, so z = (x0, y0, ..., x_{n-3}, y_{n-3},
x_{n-2}) and entry k is axis k % 2 of body k // 2.  The residual and the
rows and columns of the Jacobian follow the same rule.  `box_to_free_arrays`
and `free_to_box` are the only code that applies it.
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
    """Search-space element: reduced-layout float64 bound arrays; build it
    with `from_arrays`, read it with `arrays`."""

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


@lru_cache(maxsize=32)
def _rctx_cached(n: int) -> _RCtx:
    return _RCtx(model._ctx_cached(n))


def reduced_ctx(masses: Masses) -> _RCtx:
    return _rctx_cached(masses.n)


def box_to_free_arrays(zlo, zhi):
    """Free-body arrays (xlo, xhi, ylo, yhi) of shape (..., n-1) from reduced
    boxes of shape (..., d); the pinned y of body n-2 is 0."""
    lo, hi = _free_bodies(zlo), _free_bodies(zhi)
    return lo[..., 0], hi[..., 0], lo[..., 1], hi[..., 1]


def _free_bodies(z):
    pinned = np.zeros(z.shape[:-1] + (1,))
    return np.concatenate([z, pinned], axis=-1).reshape(z.shape[:-1] + (-1, 2))


def free_to_box(x, y):
    """Reduced vectors of shape (..., d) from free-body arrays of shape
    (..., n-1): the inverse of `box_to_free_arrays`, dropping the y of body n-2."""
    z = np.stack([x, y], axis=-1)
    return z.reshape(z.shape[:-2] + (-1,))[..., :-1]


def residual_masked(rctx: _RCtx, zlo, zhi):
    """Reduced residual enclosures for a batch of boxes, shape (..., d).

    Returns (out_lo, out_hi, ok) where ok flags the boxes with no possible
    collision; rows with ok False carry unusable values.
    """
    mctx = rctx.m
    n = mctx.n
    xlo, xhi, ylo, yhi = box_to_free_arrays(zlo, zhi)
    d = model.pair_disp_arrays(mctx, xlo, xhi, ylo, yhi)
    r2lo, _ = model.pair_r2_arrays(*d)
    pair_ok = r2lo > 0.0
    ok = np.all(pair_ok, axis=-1)
    axlo, axhi, aylo, ayhi = model.accel_arrays(mctx, *d, pair_mask=pair_ok)
    fxlo, fxhi = bxo.isub(xlo, xhi, axlo[..., : n - 1], axhi[..., : n - 1])
    fylo, fyhi = bxo.isub(ylo, yhi, aylo[..., : n - 1], ayhi[..., : n - 1])
    out_lo = free_to_box(fxlo, fylo)
    out_hi = free_to_box(fxhi, fyhi)
    return out_lo, out_hi, ok


def jacobian_masked(rctx: _RCtx, zlo, zhi):
    """Reduced Jacobian enclosures for a batch of boxes, shape (B, d).

    Returns (Jlo, Jhi, ok) with Jlo/Jhi of shape (B, d, d); boxes with a
    possible collision get ok False and identity placeholders.  The mixed
    x*y/r^5 terms are bounded as the product of x/r^3 and y/r^2.
    """
    mctx = rctx.m
    n = mctx.n
    m, m2 = (mctx.mlo, mctx.mhi), (2.0 * mctx.mlo, 2.0 * mctx.mhi)
    B = zlo.shape[0]
    dd = rctx.d
    xlo, xhi, ylo, yhi = box_to_free_arrays(zlo, zhi)
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
        # off-diagonal: m (T(i,last) - T(i,k))
        difflo, diffhi = bxo.isub(Llo[:, :, None], Lhi[:, :, None], Flo, Fhi)
        odlo, odhi = bxo.imul(*m, difflo, diffhi)
        # diagonal: delta + sum_{j != i} m T(i,j) + 2m T(i,last)
        plo, phi = bxo.imul(*m, Flo, Fhi)
        slo, shi = bxo.isum(plo, phi, axis=-1, where=rctx.offdiag)
        qlo, qhi = bxo.imul(*m2, Llo, Lhi)
        dglo, dghi = bxo.iadd(slo, shi, qlo, qhi)
        if code != 1:  # XX and YY carry the identity term
            dglo, dghi = bxo.iadd(dglo, dghi, np.ones(nf), np.ones(nf))
        odlo[:, di, di] = dglo
        odhi[:, di, di] = dghi
        blocks_lo[:, code] = odlo
        blocks_hi[:, code] = odhi

    body, axis = divmod(np.arange(dd), 2)
    codes = axis[:, None] + axis[None, :]
    rb, cb = body[:, None], body[None, :]
    Jlo[idx] = blocks_lo[:, codes, rb, cb]
    Jhi[idx] = blocks_hi[:, codes, rb, cb]
    return Jlo, Jhi, ok


# ---------------------------------------------------------------------------
# public operations


def gauge_validity(zlo, zhi) -> bool:
    """True iff the x enclosures of body n-2 and the derived body are disjoint."""
    dlo, dhi, _, _ = model.derived_last_arrays(*box_to_free_arrays(zlo, zhi))
    return bool(zhi[-1] < dlo or dhi < zlo[-1])

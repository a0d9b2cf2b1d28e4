"""Vectorized interval arithmetic on (lo, hi) float64 ndarray pairs.

This is the hot-path companion of :mod:`ccenum.interval`: identical
containment semantics, but every operation widens the round-to-nearest
result outward by one representable step unconditionally (no exactness
detection).  Sums and BLAS products are padded with a standard a priori
rounding-error bound instead of per-term adjustment.
"""

from __future__ import annotations

import numpy as np

_U = 2.0**-53  # unit roundoff
_TINY = 5e-324
_BUF = 1.0 + 2.0**-40  # absorbs rounding inside pad computations


def _dn(x):
    return np.nextafter(x, -np.inf)


def _up(x):
    return np.nextafter(x, np.inf)


def iadd(alo, ahi, blo, bhi):
    return _dn(alo + blo), _up(ahi + bhi)


def add_down(a, b):
    """a + b rounded toward -inf, exact sums kept: `interval._add_down` elementwise."""
    with np.errstate(invalid="ignore"):
        s = a + b
        bb = s - a
        e = (a - (s - bb)) + (b - bb)
    out = np.where((e < 0.0) | np.isnan(e), _dn(s), s)
    return np.where(np.isinf(s), np.where(s < 0.0, s, np.nextafter(s, 0.0)), out)


def isub(alo, ahi, blo, bhi):
    return _dn(alo - bhi), _up(ahi - blo)


def imul(alo, ahi, blo, bhi):
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _dn(lo), _up(hi)


def idiv_pos(alo, ahi, blo, bhi):
    """a / b for divisor intervals with blo > 0 everywhere."""
    lo = np.minimum(alo / blo, alo / bhi)
    hi = np.maximum(ahi / blo, ahi / bhi)
    return _dn(lo), _up(hi)


def irecip_pos(blo, bhi):
    return _dn(1.0 / bhi), _up(1.0 / blo)


def isqr(alo, ahi):
    p1 = alo * alo
    p2 = ahi * ahi
    lo = np.where((alo <= 0.0) & (ahi >= 0.0), 0.0, _dn(np.minimum(p1, p2)))
    hi = _up(np.maximum(p1, p2))
    return lo, hi


def isqrt(alo, ahi):
    lo = np.maximum(_dn(np.sqrt(np.maximum(alo, 0.0))), 0.0)
    hi = _up(np.sqrt(np.maximum(ahi, 0.0)))
    return lo, hi


def iscale(alo, ahi, c: float):
    """Multiply by an exact float scalar."""
    if c >= 0.0:
        return _dn(alo * c), _up(ahi * c)
    return _dn(ahi * c), _up(alo * c)


def isum(alo, ahi, axis=None, where=None):
    """Enclosure of the sum along an axis, padded for float summation error.

    Terms masked out by `where` are replaced by exact zeros rather than
    passed to `np.sum(where=)`, whose result for one row can change in the
    last bit with the number of rows in the call; adding 0.0 is exact.
    """
    k = alo.shape[axis] if axis is not None else alo.size
    if where is not None:
        alo = np.where(where, alo, 0.0)
        ahi = np.where(where, ahi, 0.0)
    slo = np.sum(alo, axis=axis)
    shi = np.sum(ahi, axis=axis)
    mag = np.sum(np.maximum(np.abs(alo), np.abs(ahi)), axis=axis)
    pad = (k * _U) * mag * _BUF + _TINY
    return _dn(slo - pad), _up(shi + pad)


def mid_rad(alo, ahi):
    """Representable midpoints inside the intervals and covering radii."""
    mid = alo + 0.5 * (ahi - alo)
    mid = np.clip(mid, alo, ahi)
    rad = np.maximum(_up(ahi - mid), _up(mid - alo))
    return mid, rad


def _bmv(A, v):
    # batched matrix-vector product, (B,d,d) @ (B,d) -> (B,d)
    return np.einsum("bij,bj->bi", A, v)


def bmatvec_point(C, vlo, vhi):
    """Batched enclosure of C @ v: C exact (B,d,d), v interval (B,d)."""
    mid, rad = mid_rad(vlo, vhi)
    k = C.shape[-1]
    gamma = (k + 2) * _U / (1.0 - (k + 2) * _U)
    absC = np.abs(C)
    center = _bmv(C, mid)
    err = _bmv(absC, rad) + gamma * _bmv(absC, np.abs(mid) + rad)
    err = err * _BUF + _TINY
    return _dn(center - err), _up(center + err)


def bmatmul_point(C, Alo, Ahi):
    """Batched enclosure of C @ A: C exact (B,d,d), A interval (B,d,d)."""
    mid, rad = mid_rad(Alo, Ahi)
    k = C.shape[-1]
    gamma = (k + 2) * _U / (1.0 - (k + 2) * _U)
    absC = np.abs(C)
    center = C @ mid
    err = absC @ rad + gamma * (absC @ (np.abs(mid) + rad))
    err = err * _BUF + _TINY
    return _dn(center - err), _up(center + err)


def bmatvec_iv(Mlo, Mhi, vlo, vhi):
    """Batched enclosure of M @ v for interval M (B,d,d) and v (B,d)."""
    Am, Ar = mid_rad(Mlo, Mhi)
    vm, vr = mid_rad(vlo, vhi)
    k = Am.shape[-1]
    gamma = (k + 2) * _U / (1.0 - (k + 2) * _U)
    absA = np.abs(Am)
    absv = np.abs(vm)
    center = _bmv(Am, vm)
    err = _bmv(absA, vr) + _bmv(Ar, absv + vr) + gamma * _bmv(absA + Ar, absv + vr)
    err = err * _BUF + _TINY
    return _dn(center - err), _up(center + err)

"""Krawczyk operator: certify a unique zero, rule out zeros, or shrink a box.

K(x0, [x]) = x0 - C F(x0) + (Id - C [dF([x])]) ([x] - x0) with x0 the box
midpoint and C an approximate (exact float, not rigorous) inverse of the
midpoint Jacobian.  K strictly inside the box proves exactly one zero; K
disjoint from the box proves none; otherwise the intersection K cap [x]
still contains every zero of the box and is kept as a refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boxops as bxo
from . import reduced as reduced_mod
from .errors import CollisionPossible, SingularMidpoint
from .interval import IntervalVector
from .model import Masses

# C is rejected when max|C| * max|mid| exceeds this: the midpoint is then
# numerically singular, and a Krawczyk step with such a C cannot contract
GROWTH_MAX = 1e12


@dataclass(frozen=True)
class KrawczykOutcome:
    tag: str  # "unique_zero" | "no_zero" | "failed"
    lo: np.ndarray | None = None  # certified/refined box (None for no_zero)
    hi: np.ndarray | None = None
    refined: bool = False  # for "failed": whether the box was shrunk at all


def midpoint_inverse_batch(Jlo: np.ndarray, Jhi: np.ndarray):
    """Approximate inverses of a stack of midpoint matrices, shape (K, d, d).

    Returns (C, ok).  A row is rejected (ok False, C garbage) when its
    midpoint is zero or not finite, exactly singular, or so ill-conditioned
    that C is not finite or exceeds GROWTH_MAX; the other rows are what a
    per-row `np.linalg.inv` gives.
    """
    mid = Jlo + 0.5 * (Jhi - Jlo)
    scale = np.max(np.abs(mid), axis=(-2, -1), initial=0.0)
    ok = np.isfinite(scale) & (scale > 0.0)
    if not ok.all():
        mid[~ok] = np.eye(mid.shape[-1])
    try:
        C = np.linalg.inv(mid)
    except np.linalg.LinAlgError:
        # one exactly singular matrix fails the whole stack; redo it row by row
        C = np.zeros_like(mid)
        for k in range(len(mid)):
            try:
                C[k] = np.linalg.inv(mid[k])
            except np.linalg.LinAlgError:
                ok[k] = False
    with np.errstate(over="ignore", invalid="ignore"):
        ok &= np.max(np.abs(C), axis=(-2, -1), initial=0.0) * scale <= GROWTH_MAX
    return C, ok


def midpoint_inverse(Jlo: np.ndarray, Jhi: np.ndarray) -> np.ndarray:
    """Approximate inverse of one midpoint matrix; raises SingularMidpoint."""
    C, ok = midpoint_inverse_batch(Jlo[None], Jhi[None])
    if not ok[0]:
        raise SingularMidpoint("midpoint Jacobian is zero, not finite or numerically singular")
    return C[0]


def operator_arrays(rctx, x0: np.ndarray, zlo: np.ndarray, zhi: np.ndarray, C: np.ndarray, J=None):
    """Enclosure of K(x0, [z]); raises CollisionPossible on singular boxes.

    `J` may carry a precomputed Jacobian enclosure (Jlo, Jhi) for the box.
    """
    Flo, Fhi = reduced_mod.residual_arrays(rctx, x0, x0)
    Jlo, Jhi = J if J is not None else reduced_mod.jacobian_arrays(rctx, zlo, zhi)
    CFlo, CFhi = bxo.imatvec_point(C, Flo, Fhi)
    CJlo, CJhi = bxo.imatmul_point(C, Jlo, Jhi)
    d = len(x0)
    eye = np.eye(d)
    Mlo, Mhi = bxo.isub(eye, eye, CJlo, CJhi)
    dzlo, dzhi = bxo.isub(zlo, zhi, x0, x0)
    Klo, Khi = bxo.imatvec_iv(Mlo, Mhi, dzlo, dzhi)
    Klo, Khi = bxo.isub(Klo, Khi, CFlo, CFhi)
    return bxo.iadd(x0, x0, Klo, Khi)


def krawczyk_operator(x0, box: reduced_mod.ReducedBox, masses: Masses) -> IntervalVector:
    """Single operator application (public front end)."""
    rctx = reduced_mod.reduced_ctx(masses)
    zlo, zhi = box.arrays()
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 < zlo) or np.any(x0 > zhi):
        raise ValueError("x0 must lie inside the box")
    Jlo, Jhi = reduced_mod.jacobian_arrays(rctx, zlo, zhi)
    C = midpoint_inverse(Jlo, Jhi)
    Klo, Khi = operator_arrays(rctx, x0, zlo, zhi, C)
    return IntervalVector(bxo.unpack(Klo, Khi))


def iterate_batch(rctx, ZLO, ZHI, max_iter: int = 16) -> list[KrawczykOutcome]:
    """Operator iteration over a batch of boxes, shape (B, d).

    Per box: certify the unique zero (K strictly interior), rule zeros out
    (K disjoint), or give up, keeping the last intersection as the
    refinement.  C is reused across iterations until some coordinate
    shrinks below half the width it had when C was computed.
    """
    B, d = ZLO.shape
    cur_lo = ZLO.copy()
    cur_hi = ZHI.copy()
    outcomes: list[KrawczykOutcome | None] = [None] * B
    refined = np.zeros(B, dtype=bool)
    C = np.zeros((B, d, d))
    c_widths = np.full((B, d), np.inf)
    has_c = np.zeros(B, dtype=bool)
    active = np.ones(B, dtype=bool)

    def finish_failed(b: int):
        outcomes[b] = KrawczykOutcome("failed", cur_lo[b], cur_hi[b], refined=bool(refined[b]))

    for _ in range(max_iter):
        idx = np.nonzero(active)[0]
        if len(idx) == 0:
            break
        lo = cur_lo[idx]
        hi = cur_hi[idx]
        widths = hi - lo
        Jlo, Jhi, ok = reduced_mod.jacobian_masked(rctx, lo, hi)
        renew = ok & (~has_c[idx] | np.any(widths < 0.5 * c_widths[idx], axis=-1))
        rows = idx[renew]
        failed = idx[~ok]
        if len(rows):
            Cnew, good = midpoint_inverse_batch(Jlo[renew], Jhi[renew])
            C[rows[good]] = Cnew[good]
            has_c[rows[good]] = True
            c_widths[rows[good]] = widths[renew][good]
            failed = np.concatenate([failed, rows[~good]])
        for b in failed:
            finish_failed(b)
            active[b] = False
        live = active[idx]
        if not np.any(live):
            continue
        sub = idx[live]
        lo = cur_lo[sub]
        hi = cur_hi[sub]
        x0 = lo + 0.5 * (hi - lo)
        Flo, Fhi, fok = reduced_mod.residual_masked(rctx, x0, x0)
        CFlo, CFhi = bxo.bmatvec_point(C[sub], Flo, Fhi)
        CJlo, CJhi = bxo.bmatmul_point(C[sub], Jlo[live], Jhi[live])
        eye = np.broadcast_to(np.eye(d), (len(sub), d, d))
        Mlo, Mhi = bxo.isub(eye, eye, CJlo, CJhi)
        dzlo, dzhi = bxo.isub(lo, hi, x0, x0)
        Klo, Khi = bxo.bmatvec_iv(Mlo, Mhi, dzlo, dzhi)
        Klo, Khi = bxo.isub(Klo, Khi, CFlo, CFhi)
        Klo, Khi = bxo.iadd(x0, x0, Klo, Khi)

        unique = np.all(Klo > lo, axis=-1) & np.all(Khi < hi, axis=-1)
        nozero = np.any(Klo > hi, axis=-1) | np.any(Khi < lo, axis=-1)
        stuck = np.all(Klo <= lo, axis=-1) & np.all(Khi >= hi, axis=-1)
        new_lo = np.maximum(Klo, lo)
        new_hi = np.minimum(Khi, hi)
        old_w = hi - lo
        shrink = np.max(1.0 - (new_hi - new_lo) / np.where(old_w > 0, old_w, 1.0), axis=-1)
        improved = np.any(new_lo > lo, axis=-1) | np.any(new_hi < hi, axis=-1)
        for t, b in enumerate(sub):
            if not fok[t]:
                finish_failed(b)
                active[b] = False
            elif unique[t]:
                outcomes[b] = KrawczykOutcome("unique_zero", Klo[t], Khi[t])
                active[b] = False
            elif nozero[t]:
                outcomes[b] = KrawczykOutcome("no_zero")
                active[b] = False
            elif stuck[t]:
                finish_failed(b)
                active[b] = False
            else:
                cur_lo[b] = new_lo[t]
                cur_hi[b] = new_hi[t]
                refined[b] = refined[b] or bool(improved[t])
                if shrink[t] < 0.05:
                    finish_failed(b)
                    active[b] = False
    for b in range(B):
        if outcomes[b] is None:
            finish_failed(b)
    return outcomes


def iterate_arrays(rctx, zlo, zhi, max_iter: int = 16) -> KrawczykOutcome:
    """Operator iteration on one box; every failure mode is encoded in the outcome."""
    return iterate_batch(rctx, zlo[None, :], zhi[None, :], max_iter=max_iter)[0]


def krawczyk_iterate(box: reduced_mod.ReducedBox, masses: Masses, max_iter: int = 16) -> KrawczykOutcome:
    rctx = reduced_mod.reduced_ctx(masses)
    return iterate_arrays(rctx, *box.arrays(), max_iter=max_iter)


def contract(rctx, zlo, zhi, tol: float = 1e-13, max_iter: int = 40):
    """Shrink a certified box toward its zero by repeated intersection.

    Zeros are preserved by every step, so the result is a valid (and
    usually much tighter) enclosure of the same unique zero.
    """
    cur_lo, cur_hi = zlo.copy(), zhi.copy()
    for _ in range(max_iter):
        if np.max(cur_hi - cur_lo) < tol:
            break
        try:
            J = reduced_mod.jacobian_arrays(rctx, cur_lo, cur_hi)
            C = midpoint_inverse(*J)
            x0 = cur_lo + 0.5 * (cur_hi - cur_lo)
            Klo, Khi = operator_arrays(rctx, x0, cur_lo, cur_hi, C, J=J)
        except (CollisionPossible, SingularMidpoint):
            break
        new_lo = np.maximum(Klo, cur_lo)
        new_hi = np.minimum(Khi, cur_hi)
        if np.any(new_lo > new_hi):
            break
        if not (np.any(new_lo > cur_lo) or np.any(new_hi < cur_hi)):
            break
        cur_lo, cur_hi = new_lo, new_hi
    return cur_lo, cur_hi

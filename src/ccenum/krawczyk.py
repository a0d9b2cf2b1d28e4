"""Krawczyk operator: certify a unique zero, rule out zeros, or shrink a box.

K(x0, [x]) = x0 - C F(x0) + (Id - C [dF([x])]) ([x] - x0) with x0 the box
midpoint and C an approximate (exact float, not rigorous) inverse of the
midpoint Jacobian of the box, computed afresh at every step.  K strictly
inside the box proves exactly one zero; K disjoint from the box proves
none; otherwise the intersection K cap [x] still contains every zero of
the box and the next step starts from it.

`Iteration` holds boxes in flight and applies one operator step to a
batch of them per call; it is the one implementation of the operator,
and it reports each finished box as a verdict, an index into `TAGS`.
The search keeps adding boxes while older ones still iterate;
`iterate_batch` adds a batch, steps until every box has a verdict and
returns them as `KrawczykOutcome`s, `iterate_arrays` does so for one box,
and `contract` repeats single steps to tighten a certified box until a
step no longer halves its widest edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boxops as bxo
from . import reduced as reduced_mod
from .errors import SingularMidpoint

# C is rejected when max|C| * max|mid| exceeds this: the midpoint is then
# numerically singular, and a Krawczyk step with such a C cannot contract
GROWTH_MAX = 1e12
# `contract` stops at the first step that does not halve the widest edge,
# once every width is below CONTRACT_TOL, or after CONTRACT_STEPS steps
CONTRACT_TOL = 1e-13
CONTRACT_STEPS = 40


# the verdicts of a step, each an index into TAGS
TAGS = ("unique_zero", "no_zero", "failed")
UNIQUE_ZERO, NO_ZERO, FAILED = range(len(TAGS))


@dataclass(frozen=True)
class KrawczykOutcome:
    tag: str  # one of TAGS
    lo: np.ndarray | None = None  # the certified or last box (None for no_zero)
    hi: np.ndarray | None = None


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
    """Approximate inverse of one midpoint matrix; raises SingularMidpoint.
    The operator itself uses `midpoint_inverse_batch`."""
    C, ok = midpoint_inverse_batch(Jlo[None], Jhi[None])
    if not ok[0]:
        raise SingularMidpoint("midpoint Jacobian is zero, not finite or numerically singular")
    return C[0]


class Iteration:
    """Boxes in flight through the operator iteration, one step at a time.

    `add` enters boxes; `step(limit)` applies the operator once to at most
    `limit` of them, oldest first, and returns the verdicts of those that
    finished.  Per box: certify the unique zero (K strictly interior), rule
    zeros out (K disjoint), or give up, keeping the last intersection; a
    box gives up when a step finds a possible collision, a bad midpoint
    inverse, no shrink at all or less than 5% in every coordinate, or after
    `max_iter` steps.  Every step inverts the midpoint Jacobian of the box
    it is applied to, and every row of a step is computed by itself, so a
    box gets the same verdict whichever boxes share its steps.
    """

    def __init__(self, rctx, max_iter: int = 16):
        self.rctx = rctx
        self.max_iter = max_iter
        # the per-box arrays (lo, hi, steps, ids) come with the first `add`
        self.active = np.empty(0, dtype=bool)
        self.added = 0

    def __len__(self) -> int:
        return int(np.count_nonzero(self.active))

    def add(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Enter boxes of shape (K, d); their ids count up from 0 in order of
        arrival.  Rows of finished boxes are dropped here."""
        k = len(lo)
        new = {
            "lo": np.array(lo, dtype=float),
            "hi": np.array(hi, dtype=float),
            "steps": np.zeros(k, dtype=np.int64),
            "ids": np.arange(self.added, self.added + k),
        }
        if self.active.any():
            keep = self.active
            new = {name: np.concatenate([getattr(self, name)[keep], v]) for name, v in new.items()}
        for name, v in new.items():
            setattr(self, name, v)
        self.active = np.ones(len(self.lo), dtype=bool)
        self.added += k

    def step(self, limit: int):
        """One operator application to the `limit` oldest boxes in flight.

        Returns (ids, verdict, lo, hi) of the boxes that finished: verdict
        indexes `TAGS`, and (lo, hi) is the certified box for a unique
        zero, the box the last step left for a failure and the refuted box
        for no zero."""
        rows = self.active.nonzero()[0][:limit]
        lo = self.lo[rows]  # copies: a row that fails keeps its current box
        hi = self.hi[rows]
        Jlo, Jhi, ok = reduced_mod.jacobian_masked(self.rctx, lo, hi)
        live = ok.nonzero()[0]
        C, good = midpoint_inverse_batch(Jlo[live], Jhi[live])
        live, C = live[good], C[good]

        verdict = np.full(len(rows), FAILED)
        going = np.zeros(len(rows), dtype=bool)
        steps = self.steps[rows] + 1
        if len(live):
            zlo, zhi, Jlo, Jhi = lo[live], hi[live], Jlo[live], Jhi[live]
            x0 = zlo + 0.5 * (zhi - zlo)
            Flo, Fhi, fok = reduced_mod.residual_masked(self.rctx, x0, x0)
            CFlo, CFhi = bxo.bmatvec_point(C, Flo, Fhi)
            CJlo, CJhi = bxo.bmatmul_point(C, Jlo, Jhi)
            eye = np.broadcast_to(np.eye(self.rctx.d), CJlo.shape)
            Mlo, Mhi = bxo.isub(eye, eye, CJlo, CJhi)
            dzlo, dzhi = bxo.isub(zlo, zhi, x0, x0)
            Klo, Khi = bxo.bmatvec_iv(Mlo, Mhi, dzlo, dzhi)
            Klo, Khi = bxo.isub(Klo, Khi, CFlo, CFhi)
            Klo, Khi = bxo.iadd(x0, x0, Klo, Khi)

            # the first check that holds decides: residual undefined (failed),
            # K interior (unique zero), K disjoint (no zero), K covers the box
            # (failed); otherwise the box shrinks to K cap box and goes on
            uni = fok & np.all(Klo > zlo, axis=-1) & np.all(Khi < zhi, axis=-1)
            noz = fok & ~uni & (np.any(Klo > zhi, axis=-1) | np.any(Khi < zlo, axis=-1))
            stuck = np.all(Klo <= zlo, axis=-1) & np.all(Khi >= zhi, axis=-1)
            on = fok & ~(uni | noz | stuck)
            new_lo = np.maximum(Klo, zlo)
            new_hi = np.minimum(Khi, zhi)
            old_w = zhi - zlo
            shrink = np.max(1.0 - (new_hi - new_lo) / np.where(old_w > 0, old_w, 1.0), axis=-1)
            lo[live] = np.where(uni[:, None], Klo, np.where(on[:, None], new_lo, zlo))
            hi[live] = np.where(uni[:, None], Khi, np.where(on[:, None], new_hi, zhi))
            verdict[live] = np.select([uni, noz], [UNIQUE_ZERO, NO_ZERO], FAILED)
            # a box that shrank less than 5% everywhere, or took its last step, gives up
            going[live] = on & ~(shrink < 0.05) & (steps[live] < self.max_iter)

        at, done = rows[going], ~going
        self.lo[at], self.hi[at], self.steps[at] = lo[going], hi[going], steps[going]
        self.active[rows[done]] = False
        return self.ids[rows[done]], verdict[done], lo[done], hi[done]


def iterate_batch(rctx, ZLO, ZHI, max_iter: int = 16) -> list[KrawczykOutcome]:
    """Operator iteration over a batch of boxes, shape (B, d), until every
    box has an outcome; see `Iteration`."""
    it = Iteration(rctx, max_iter)
    it.add(ZLO, ZHI)
    outcomes: list[KrawczykOutcome | None] = [None] * len(ZLO)
    while it:
        ids, verdict, lo, hi = it.step(len(ZLO))
        for i, v, blo, bhi in zip(ids.tolist(), verdict.tolist(), lo, hi):
            box = (None, None) if v == NO_ZERO else (blo, bhi)
            outcomes[i] = KrawczykOutcome(TAGS[v], *box)
    return outcomes


def iterate_arrays(rctx, zlo, zhi, max_iter: int = 16) -> KrawczykOutcome:
    """Operator iteration on one box; every failure mode is encoded in the outcome."""
    return iterate_batch(rctx, zlo[None, :], zhi[None, :], max_iter=max_iter)[0]


def contract(rctx, zlo, zhi):
    """Shrink a certified box toward its zero by repeated single operator
    steps, each kept while it certifies or refines the box.

    Zeros are preserved by every step, so the result is a valid (and
    usually much tighter) enclosure of the same unique zero.  It stops
    after the first step that does not halve the widest edge: quadratic
    convergence is then over, and further steps would only move the
    bounds by ulps at the rounding floor.  It also stops once every width
    is below `CONTRACT_TOL`, or after `CONTRACT_STEPS` steps.
    """
    lo, hi = zlo, zhi
    for _ in range(CONTRACT_STEPS):
        width = np.max(hi - lo)
        if width < CONTRACT_TOL:
            break
        # a step keeps every zero, so it cannot rule out the certified one,
        # and a failed step that left the box as it was fails the halving test
        out = iterate_arrays(rctx, lo, hi, max_iter=1)
        lo, hi = out.lo, out.hi
        if np.max(hi - lo) > 0.5 * width:
            break
    return lo, hi

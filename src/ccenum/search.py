"""Branch-and-prune driver over the reduced configuration space.

Each box first runs the exclusion battery; survivors small enough in
every coordinate (the `bias` gate) run the Krawczyk certification, whose
failed attempts still shrink the box.  Certification is a stage of the
loop: boxes stay in flight across chunks and each turn applies one
operator step to them, so the steps run on full batches.  Remaining boxes
bisect along their longest edge with an overlap margin so every point of
the domain is interior to some descendant, as the certification theorem
requires.
Boxes narrower than `eps` everywhere with no verdict count as undecided;
an undecided box makes the run inconclusive, never silently dropped.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import exclusion, krawczyk, model
from . import reduced as reduced_mod
from .errors import RefusedUnequalMasses
from .model import Masses, ScalarEnclosures
from .reduced import ReducedBox

log = logging.getLogger("ccenum.search")

ORDERINGS = ("increasing", "decreasing")


@dataclass(frozen=True)
class SearchConfig:
    n: int
    eps: float = 1e-5
    bias: float = 1e-2
    overlap: float = 1e-3
    ordering: str = "decreasing"
    threads: int = 1

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 bodies")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not (0 < self.overlap < 0.5):
            raise ValueError("overlap must lie in (0, 0.5): 0 breaks interior coverage")
        if self.bias <= self.eps:
            raise ValueError("bias must exceed eps")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}")


@dataclass
class SearchStats:
    calls: int = 0
    zeros_found: int = 0
    undecided: int = 0
    usage: dict = field(default_factory=dict)

    def bump(self, name: str, k: int = 1) -> None:
        self.usage[name] = self.usage.get(name, 0) + k

    def merge(self, other: "SearchStats") -> None:
        self.calls += other.calls
        self.zeros_found += other.zeros_found
        self.undecided += other.undecided
        for k, v in other.usage.items():
            self.bump(k, v)


@dataclass(frozen=True)
class SolutionBox:
    """A Krawczyk-certified box with exactly one central configuration."""

    reduced: ReducedBox
    scalars: ScalarEnclosures
    gauge_valid: bool


def initial_domain(cfg: SearchConfig) -> ReducedBox:
    """Normalized search box, padded so admissible points are interior."""
    n = cfg.n
    span = float(n - 1)
    pad = 1e-3 * span
    lo = np.full(reduced_mod.dim_for(n), -span - pad)
    hi = np.full(reduced_mod.dim_for(n), span + pad)
    # x0 <= 0 <= y0, y1 <= 0 and x_{n-2} >= 1/2
    hi[0] = pad
    lo[1] = -pad
    if n > 3:
        hi[3] = pad
    lo[-1] = 0.5 - pad
    return ReducedBox.from_arrays(lo, hi)


def split(lo: np.ndarray, hi: np.ndarray, coord: int, overlap: float):
    """Split `coord` at its midpoint, each half reaching `width * overlap`
    past it; returns the two (lo, hi) halves, lower half first."""
    mid = (lo[coord] + hi[coord]) / 2.0
    margin = (hi[coord] - lo[coord]) * overlap
    llo, lhi = lo.copy(), hi.copy()
    rlo, rhi = lo.copy(), hi.copy()
    lhi[coord] = mid + margin
    rlo[coord] = mid - margin
    return (llo, lhi), (rlo, rhi)


def bisect_with_overlap(
    box: ReducedBox, coord: int, overlap: float
) -> tuple[ReducedBox, ReducedBox]:
    """`split` on a `ReducedBox`.  The search splits (lo, hi) arrays and does
    not call this box-level form; it stays because the benchmark's cut test
    (`proofbench/tests`) checks the sub-box cuts against it."""
    if overlap == 0.0:
        raise ValueError("zero overlap breaks interior coverage")
    lo, hi = box.arrays()
    if hi[coord] <= lo[coord]:
        raise ValueError("cannot bisect a zero-width coordinate")
    left, right = split(lo, hi, coord, overlap)
    return ReducedBox.from_arrays(*left), ReducedBox.from_arrays(*right)


def make_solution(rctx, Klo, Khi, masses: Masses) -> SolutionBox:
    rb = ReducedBox.from_arrays(Klo, Khi)
    sc = model.scalars(*reduced_mod.box_to_free_arrays(rb.lo, rb.hi, masses.n), masses)
    gv = reduced_mod.gauge_validity(rb.lo, rb.hi, masses)
    return SolutionBox(reduced=rb, scalars=sc, gauge_valid=gv)


BATCH = 128
# boxes a worker processes before it hands the rest of its stack back
TASK_BOXES = 2048


def _search_loop(rctx, bset, cfg: SearchConfig, masses: Masses, stack, budget=math.inf):
    """Iterative depth-first search over a stack of (lo, hi) boxes, top last.

    Each turn runs the battery on a chunk of up to `BATCH` boxes from the
    top of the stack, but only while fewer than `BATCH` boxes are in the
    Krawczyk stage; survivors within the `bias` gate join that stage and
    the others branch.  Then one Krawczyk step runs on the `BATCH` oldest
    boxes in flight, so a box still iterating shares its next step with
    boxes of the next chunk; boxes leave the stage with a verdict, and
    failed ones branch.  Once `budget` boxes are processed it takes no more
    chunks, steps until the stage is empty and returns the unprocessed
    stack last; feeding it back in continues the same tree.
    """
    stats = SearchStats()
    solutions: list[SolutionBox] = []
    undecided_boxes: list[tuple[np.ndarray, np.ndarray]] = []
    stack = list(stack)
    kr = krawczyk.Iteration(rctx)
    report_every = 500000
    next_report = report_every

    def branch(blo, bhi, children):
        widths = bhi - blo
        if np.max(widths) < cfg.eps:
            stats.undecided += 1
            undecided_boxes.append((blo, bhi))
        else:
            left, right = split(blo, bhi, int(np.argmax(widths)), cfg.overlap)
            children += (right, left)

    while (stack and stats.calls < budget) or kr:
        children = []
        if stack and stats.calls < budget and len(kr) < BATCH:
            take = min(BATCH, len(stack))
            chunk = stack[-take:]
            del stack[-take:]
            zlo = np.stack([c[0] for c in chunk])
            zhi = np.stack([c[1] for c in chunk])
            stats.calls += take
            if log.isEnabledFor(logging.DEBUG) and stats.calls >= next_report:
                next_report += report_every
                log.debug("search calls=%d stack=%d", stats.calls, len(stack))
            status, out_lo, out_hi = exclusion.run_battery_batch(
                rctx.m, bset, zlo, zhi, cfg.ordering
            )
            for st, k in zip(*np.unique(status, return_counts=True)):
                if st < exclusion.SURVIVED:
                    stats.bump(exclusion.TEST_NAMES[st], int(k))
            survived = status == exclusion.SURVIVED
            gate = survived & np.all(out_hi - out_lo <= cfg.bias, axis=-1)
            if np.any(gate):
                kr.add(out_lo[gate], out_hi[gate])
            for b in np.flatnonzero(survived & ~gate).tolist():
                branch(out_lo[b], out_hi[b], children)
        if kr:
            for outcome in kr.step(BATCH)[1]:
                if outcome.tag == "unique_zero":
                    stats.bump("krawczyk.zeroInside")
                    stats.zeros_found += 1
                    solutions.append(make_solution(rctx, outcome.lo, outcome.hi, masses))
                elif outcome.tag == "no_zero":
                    stats.bump("krawczyk.noZeroInSet")
                else:
                    stats.bump("krawczyk.methodFailed")
                    branch(outcome.lo, outcome.hi, children)
        # keep depth-first flavor: the last box's children end on top
        stack.extend(children)
    return solutions, stats, undecided_boxes, stack


def _subtree_task(args):
    """Pool entry point: search a stack of boxes for at most `budget` boxes."""
    cfg, masses, stack, budget = args
    rctx = reduced_mod.reduced_ctx(masses)
    bset = bounds_mod.compute_bounds(cfg.n, masses)
    return _search_loop(rctx, bset, cfg, masses, stack, budget)


def _box_key(lo: np.ndarray, hi: np.ndarray) -> tuple:
    return tuple(lo.tolist()) + tuple(hi.tolist())


def search(box: ReducedBox, cfg: SearchConfig, masses: Masses):
    """All certified solutions in the box plus run statistics.

    Returns (solutions, stats, undecided_boxes); a run is a proof only
    when no undecided boxes remain.  With `threads > 1` worker processes
    take subtrees of at most `TASK_BOXES` boxes and hand back the stack
    they did not reach, which is split again into new tasks; every box is
    processed once by the same code, so the counters are the serial run's.
    Solutions and undecided boxes come back sorted by their bounds, so
    both paths give the same lists in the same order.
    """
    if not masses.equal_mass:
        raise RefusedUnequalMasses("the normalized search domain assumes equal masses")
    root = [box.arrays()]
    if cfg.threads <= 1:
        rctx = reduced_mod.reduced_ctx(masses)
        bset = bounds_mod.compute_bounds(cfg.n, masses)
        sols, stats, undec, _ = _search_loop(rctx, bset, cfg, masses, root)
    else:
        sols, stats, undec = _search_parallel(root, cfg, masses)
    sols.sort(key=lambda s: _box_key(*s.reduced.arrays()))
    undec.sort(key=lambda u: _box_key(*u))
    return sols, stats, undec


def _search_parallel(root, cfg: SearchConfig, masses: Masses):
    workers = min(cfg.threads, max(1, os.cpu_count() or 1))
    stats = SearchStats()
    sols, undec = [], []
    queue = [root]
    running = set()
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while queue or running:
            while queue and len(running) < 2 * workers:
                running.add(pool.submit(_subtree_task, (cfg, masses, queue.pop(), TASK_BOXES)))
            finished, running = wait(running, return_when=FIRST_COMPLETED)
            for fut in finished:
                part, sub_stats, part_undec, rest = fut.result()
                stats.merge(sub_stats)
                sols += part
                undec += part_undec
                queue += [rest[k::workers] for k in range(min(workers, len(rest)))]
    finally:
        pool.shutdown(cancel_futures=True)
    return sols, stats, undec

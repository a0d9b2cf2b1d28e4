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
from .model import Masses, ScalarEnclosures
from .reduced import ReducedBox

log = logging.getLogger("ccenum.search")

ORDERINGS = ("increasing", "decreasing")
# each half of a bisected box reaches this share of the cut edge's width
# past the midpoint, so every point of the parent is interior to a child
OVERLAP = 1e-3


@dataclass(frozen=True)
class SearchConfig:
    n: int
    eps: float = 1e-5
    bias: float = 1e-2
    ordering: str = "decreasing"
    threads: int = 1

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 bodies")
        for name in ("eps", "bias"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.bias <= self.eps:
            raise ValueError("bias must exceed eps")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass
class SearchStats:
    calls: int = 0
    undecided: int = 0
    usage: dict = field(default_factory=dict)

    @property
    def zeros_found(self) -> int:
        return self.usage.get("krawczyk.zeroInside", 0)

    def bump(self, name: str, k: int) -> None:
        self.usage[name] = self.usage.get(name, 0) + k

    def count(self, names, codes: np.ndarray) -> None:
        """Bump names[c] once for each code c; codes past the names are not counted."""
        for name, k in zip(names, np.bincount(codes, minlength=len(names)).tolist()):
            if k:
                self.bump(name, k)

    def merge(self, other: "SearchStats") -> None:
        self.calls += other.calls
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
    xlo, ylo = np.full((2, n - 1), -span - pad)
    xhi, yhi = np.full((2, n - 1), span + pad)
    # x0 <= 0 <= y0, y1 <= 0 and x_{n-2} >= 1/2 (for n = 3, body 1 is
    # body n-2, whose y is pinned and not in the box)
    xhi[0] = pad
    ylo[0] = -pad
    yhi[1] = pad
    xlo[n - 2] = 0.5 - pad
    return ReducedBox.from_arrays(
        reduced_mod.free_to_box(xlo, ylo), reduced_mod.free_to_box(xhi, yhi)
    )


def split(lo: np.ndarray, hi: np.ndarray, overlap: float):
    """Children of the boxes (lo, hi) of shape (m, d): each box is cut on its
    longest edge (the lowest index on ties) at the midpoint, each half
    reaching `width * overlap` past it.  Returns (2m, d) arrays in push
    order, the right half then the left half of each box, so the left half
    of the last box ends on top."""
    rows = np.arange(len(lo))
    coord = np.argmax(hi - lo, axis=1)
    a, b = lo[rows, coord], hi[rows, coord]
    mid = (a + b) / 2.0
    margin = (b - a) * overlap
    clo = np.repeat(lo, 2, axis=0)
    chi = np.repeat(hi, 2, axis=0)
    clo[2 * rows, coord] = mid - margin
    chi[2 * rows + 1, coord] = mid + margin
    return clo, chi


def bisect_with_overlap(
    box: ReducedBox, coord: int, overlap: float
) -> tuple[ReducedBox, ReducedBox]:
    """`split` of one `ReducedBox`, (left, right).  The search splits arrays
    and does not call this box-level form; it stays because the benchmark's
    cut test (`proofbench/tests`) checks the sub-box cuts against it.
    `coord` must be the edge `split` cuts."""
    if overlap == 0.0:
        raise ValueError("zero overlap breaks interior coverage")
    lo, hi = box.arrays()
    if hi[coord] <= lo[coord]:
        raise ValueError("cannot bisect a zero-width coordinate")
    if coord != int(np.argmax(hi - lo)):
        raise ValueError("the search cuts the longest edge only, the lowest index on ties")
    clo, chi = split(lo[None], hi[None], overlap)
    return ReducedBox.from_arrays(clo[1], chi[1]), ReducedBox.from_arrays(clo[0], chi[0])


def make_solution(Klo, Khi, masses: Masses) -> SolutionBox:
    rb = ReducedBox.from_arrays(Klo, Khi)
    sc = model.scalars(*reduced_mod.box_to_free_arrays(rb.lo, rb.hi), masses)
    gv = reduced_mod.gauge_validity(rb.lo, rb.hi)
    return SolutionBox(reduced=rb, scalars=sc, gauge_valid=gv)


# boxes per Krawczyk step
BATCH = 128
# the usage counter of each Krawczyk verdict, in the order of krawczyk.TAGS
KRAWCZYK_NAMES = ("krawczyk.zeroInside", "krawczyk.noZeroInSet", "krawczyk.methodFailed")
# boxes per battery call
CHUNK = 512
# boxes a worker processes before it hands the rest of its stack back
TASK_BOXES = 2048


class _Stack:
    """Pending boxes as two growing (N, d) float64 arrays, top last."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.array(lo, dtype=float)
        self.hi = np.array(hi, dtype=float)
        self.top = len(self.lo)

    def __len__(self) -> int:
        return self.top

    def pop(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The top `k` boxes, bottom first, as copies: the next `push` reuses
        their rows."""
        self.top -= k
        end = self.top + k
        return self.lo[self.top : end].copy(), self.hi[self.top : end].copy()

    def push(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Push boxes (k, d) in order, the last one ending on top."""
        end = self.top + len(lo)
        if end > len(self.lo):
            pad = np.empty((max(end, 2 * len(self.lo)) - len(self.lo), self.lo.shape[1]))
            self.lo = np.concatenate([self.lo, pad])
            self.hi = np.concatenate([self.hi, pad])
        self.lo[self.top : end] = lo
        self.hi[self.top : end] = hi
        self.top = end

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The pending boxes (N, d), bottom first, as copies."""
        return self.lo[: self.top].copy(), self.hi[: self.top].copy()


def _search_loop(rctx, bset, cfg: SearchConfig, masses: Masses, stack, budget=math.inf):
    """Iterative depth-first search over a stack of boxes, given and returned
    as (lo, hi) arrays of shape (N, d), top last.

    The stack is two growing arrays.  Each turn runs the battery on a chunk
    of up to `CHUNK` boxes sliced off the top of the stack, but only while
    fewer than `BATCH` boxes are in the Krawczyk stage; survivors within the
    `bias` gate join that stage and the others branch.  Then one Krawczyk
    step runs on the `BATCH` oldest boxes in flight, so a box still
    iterating shares its next step with boxes of the next chunk, and the
    operator's temporaries stay those of `BATCH` boxes; boxes leave the
    stage with a verdict, and failed ones branch.  All boxes that branch in
    a turn are split in one `split` call and pushed, battery survivors in
    chunk order then Krawczyk failures in verdict order, the right half then
    the left half of each.  A chunk takes at most `budget` minus the boxes
    processed so far; once `budget` boxes are processed it takes no more
    chunks, steps until the stage is empty and returns the unprocessed
    stack last; feeding it back in continues the same tree.  Every box gets
    the verdict it would get alone, so the tree does not depend on `CHUNK`.
    """
    stats = SearchStats()
    solutions: list[SolutionBox] = []
    undecided_boxes: list[tuple[np.ndarray, np.ndarray]] = []
    stack = _Stack(*stack)
    kr = krawczyk.Iteration(rctx)
    report_every = 500000
    next_report = report_every

    while (stack and stats.calls < budget) or kr:
        branching = []  # (lo, hi) arrays of the boxes that branch this turn
        if stack and stats.calls < budget and len(kr) < BATCH:
            take = int(min(CHUNK, len(stack), budget - stats.calls))
            zlo, zhi = stack.pop(take)
            stats.calls += take
            if log.isEnabledFor(logging.DEBUG) and stats.calls >= next_report:
                next_report += report_every
                log.debug("search calls=%d stack=%d", stats.calls, len(stack))
            status, out_lo, out_hi = exclusion.run_battery_batch(
                rctx.m, bset, zlo, zhi, cfg.ordering
            )
            stats.count(exclusion.TEST_NAMES, status)
            survived = status == exclusion.SURVIVED
            gate = survived & np.all(out_hi - out_lo <= cfg.bias, axis=-1)
            if np.any(gate):
                kr.add(out_lo[gate], out_hi[gate])
            survived &= ~gate
            if np.any(survived):
                branching.append((out_lo[survived], out_hi[survived]))
        if kr:
            _, verdict, klo, khi = kr.step(BATCH)
            stats.count(KRAWCZYK_NAMES, verdict)
            for k in (verdict == krawczyk.UNIQUE_ZERO).nonzero()[0]:
                solutions.append(make_solution(klo[k], khi[k], masses))
            failed = verdict == krawczyk.FAILED
            if np.any(failed):
                branching.append((klo[failed], khi[failed]))
        if branching:
            blo, bhi = (np.concatenate(a) for a in zip(*branching))
            # narrower than eps everywhere and still without a verdict
            small = np.max(bhi - blo, axis=1) < cfg.eps
            if small.any():
                stats.undecided += int(np.count_nonzero(small))
                undecided_boxes.extend(zip(blo[small], bhi[small]))
                blo, bhi = blo[~small], bhi[~small]
            stack.push(*split(blo, bhi, OVERLAP))
    return solutions, stats, undecided_boxes, stack.arrays()


def _subtree_task(args):
    """Pool entry point: search a stack of (lo, hi) boxes for at most `budget`
    boxes."""
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
    they did not reach, which becomes a new task, halved only when a
    worker would otherwise idle; every box is processed once by the same
    code, so the counters are the serial run's.
    Solutions and undecided boxes come back sorted by their bounds, so
    both paths give the same lists in the same order.
    """
    root = tuple(a[None] for a in box.arrays())
    if cfg.threads == 1:
        rctx = reduced_mod.reduced_ctx(masses)
        bset = bounds_mod.compute_bounds(cfg.n, masses)
        sols, stats, undec, _ = _search_loop(rctx, bset, cfg, masses, root)
    else:
        sols, stats, undec = _search_parallel(root, cfg, masses)
    sols.sort(key=lambda s: _box_key(*s.reduced.arrays()))
    undec.sort(key=lambda u: _box_key(*u))
    return sols, stats, undec


def _feed_idle(queue: list, busy: int, workers: int) -> list:
    """The queued (lo, hi) stacks, with the largest one halved into its
    bottom and top halves, in place, while fewer than `workers` stacks are
    queued or `busy`.  Every box stays queued once, in the same order."""
    queue = list(queue)
    while len(queue) + busy < workers:
        k = max(range(len(queue)), key=lambda i: len(queue[i][0]), default=None)
        if k is None or len(queue[k][0]) < 2:
            break
        lo, hi = queue[k]
        h = len(lo) // 2
        queue[k : k + 1] = [(lo[:h], hi[:h]), (lo[h:], hi[h:])]
    return queue


def _search_parallel(root, cfg: SearchConfig, masses: Masses):
    """`workers` tasks in flight; a returned stack is queued whole, and a
    stack is halved only to feed a worker that would otherwise idle."""
    workers = min(cfg.threads, max(1, os.cpu_count() or 1))
    stats = SearchStats()
    sols, undec = [], []
    queue = [root]
    running = set()
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while queue or running:
            queue = _feed_idle(queue, len(running), workers)
            while queue and len(running) < workers:
                running.add(pool.submit(_subtree_task, (cfg, masses, queue.pop(), TASK_BOXES)))
            finished, running = wait(running, return_when=FIRST_COMPLETED)
            for fut in finished:
                part, sub_stats, part_undec, rest = fut.result()
                stats.merge(sub_stats)
                sols += part
                undec += part_undec
                if len(rest[0]):
                    queue.append(rest)
    finally:
        pool.shutdown(cancel_futures=True)
    return sols, stats, undec

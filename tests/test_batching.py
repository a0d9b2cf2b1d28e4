"""Batched results do not depend on the batch: every row of a batched call
equals the same row computed alone, bit for bit.  The search relies on
this when it mixes boxes from different chunks in one Krawczyk step, and
when a different stack order puts a box in another battery chunk."""

from functools import lru_cache

import numpy as np
import pytest

from ccenum import bounds, exclusion, krawczyk, model
from ccenum import reduced as reduced_mod
from ccenum import search as search_mod
from ccenum.model import Masses
from ccenum.search import SearchConfig, initial_domain


@lru_cache(maxsize=None)
def search_boxes(n: int):
    """The first 3000 boxes the n-body search gives the battery in chunks of
    128 boxes.  The chunk is pinned here: the traversal order, and so which
    boxes come first, depends on it, while `search.CHUNK` may change."""
    m, cfg = Masses.equal(n), SearchConfig(n=n)
    chunks = []
    battery, chunk = exclusion.run_battery_batch, search_mod.CHUNK

    def record(ctx, bset, zlo, zhi, ordering):
        chunks.append((zlo, zhi))
        return battery(ctx, bset, zlo, zhi, ordering)

    exclusion.run_battery_batch, search_mod.CHUNK = record, 128
    try:
        search_mod._search_loop(
            reduced_mod.reduced_ctx(m),
            bounds.compute_bounds(n, m),
            cfg,
            m,
            tuple(a[None] for a in initial_domain(cfg).arrays()),
            budget=3000,
        )
    finally:
        exclusion.run_battery_batch, search_mod.CHUNK = battery, chunk
    return np.concatenate([c[0] for c in chunks]), np.concatenate([c[1] for c in chunks])


def seeded_boxes(n: int, count: int, seed: int, collision_free: bool = False):
    """`count` boxes drawn from `search_boxes`; with `collision_free`, up to
    half of them from those without a possible collision."""
    rng = np.random.default_rng(seed)
    lo, hi = search_boxes(n)
    rows = rng.choice(len(lo), count, replace=False)
    if collision_free:
        free = np.flatnonzero(
            reduced_mod.jacobian_masked(reduced_mod.reduced_ctx(Masses.equal(n)), lo, hi)[2]
        )
        k = min(count // 2, len(free))
        rows[:k] = rng.choice(free, k, replace=False)
    return lo[rows], hi[rows]


def assert_rows_match(batched, one_row):
    """`batched` is a tuple of arrays with a leading batch axis; `one_row(i)`
    gives the same tuple for the batch [i:i+1]."""
    count = len(batched[0])
    for i in range(count):
        for whole, alone in zip(batched, one_row(i)):
            assert np.array_equal(whole[i], alone[0], equal_nan=True), f"row {i}"


@pytest.mark.parametrize("n", [4, 5])
class TestRowsIndependentOfBatch:
    def test_jacobian_and_residual(self, n):
        rctx = reduced_mod.reduced_ctx(Masses.equal(n))
        lo, hi = seeded_boxes(n, 300, seed=10 + n, collision_free=True)
        for fn in (reduced_mod.jacobian_masked, reduced_mod.residual_masked):
            out = fn(rctx, lo, hi)
            assert 0 < out[2].sum() < len(lo)  # both kinds of rows are present
            assert_rows_match(out, lambda i: fn(rctx, lo[i : i + 1], hi[i : i + 1]))

    def test_accel(self, n):
        ctx = model.nbody_ctx(Masses.equal(n))
        lo, hi = seeded_boxes(n, 300, seed=20 + n, collision_free=True)
        disp = model.pair_disp_arrays(ctx, *reduced_mod.box_to_free_arrays(lo, hi))
        mask = model.pair_r2_arrays(*disp)[0] > 0.0
        out = model.accel_arrays(ctx, *disp, pair_mask=mask)
        assert_rows_match(
            out,
            lambda i: model.accel_arrays(
                ctx, *(a[i : i + 1] for a in disp), pair_mask=mask[i : i + 1]
            ),
        )

    def test_battery(self, n):
        m = Masses.equal(n)
        ctx, bset = model.nbody_ctx(m), bounds.compute_bounds(n, m)
        lo, hi = seeded_boxes(n, 400, seed=30 + n)
        status, out_lo, out_hi = exclusion.run_battery_batch(ctx, bset, lo, hi, "decreasing")
        assert {1, 2, 3, 4, exclusion.SURVIVED} <= set(status.tolist())
        for i in range(len(lo)):
            st, alone_lo, alone_hi = exclusion.run_battery_batch(
                ctx, bset, lo[i : i + 1], hi[i : i + 1], "decreasing"
            )
            assert st[0] == status[i], f"row {i}"
            # the output boxes are defined for survivors only
            if st[0] == exclusion.SURVIVED:
                assert np.array_equal(out_lo[i], alone_lo[0]), f"row {i}"
                assert np.array_equal(out_hi[i], alone_hi[0]), f"row {i}"


def test_pooled_outcomes_match_per_box(run_n4, monkeypatch):
    """Every box the serial n = 4 search sends to Krawczyk gets, in the
    shared steps of the search, the outcome of `iterate_batch` on it alone."""
    boxes, outcomes = [], {}

    class Recording(krawczyk.Iteration):
        def add(self, lo, hi):
            boxes.extend(zip(lo.copy(), hi.copy()))
            super().add(lo, hi)

        def step(self, limit):
            ids, verdict, lo, hi = super().step(limit)
            outcomes.update(zip(ids.tolist(), zip(verdict.tolist(), lo, hi)))
            return ids, verdict, lo, hi

    monkeypatch.setattr(search_mod.krawczyk, "Iteration", Recording)
    _, stats, _ = search_mod.search(run_n4.domain, run_n4.cfg, run_n4.masses)
    monkeypatch.undo()
    assert stats == run_n4.stats
    assert len(outcomes) == len(boxes) > 10000
    rctx = reduced_mod.reduced_ctx(run_n4.masses)
    for k, (lo, hi) in enumerate(boxes):
        ref = krawczyk.iterate_batch(rctx, lo[None], hi[None])[0]
        verdict, got_lo, got_hi = outcomes[k]
        assert krawczyk.TAGS[verdict] == ref.tag, k
        if ref.lo is not None:
            assert np.array_equal(got_lo, ref.lo) and np.array_equal(got_hi, ref.hi), k

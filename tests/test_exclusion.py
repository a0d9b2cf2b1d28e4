"""Exclusion battery: worked examples per test, partition properties, and
the master soundness property (no test excludes a box around a true
configuration).  Every example runs the batched function the search
calls, on a batch of one box.  An `mpmath.iv` oracle checks the
battery's enclosures on boxes the n = 4 and n = 5 searches visit."""

import math
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from ccenum import boxops as bxo
from ccenum import exclusion, model
from ccenum import reduced as reduced_mod
from ccenum import search as search_mod
from ccenum.bounds import check_apriori_batch, compute_bounds
from ccenum.model import Masses
from ccenum.search import SearchConfig, initial_domain
from conftest import load_listed
from oracles import polish_listed

D3 = (5.0 / 12.0) ** (1.0 / 3.0)
R3 = 3.0**-0.5


def body_frame(xlo, xhi, ylo, yhi):
    """Battery frame of one box given by its free-body coordinate ranges."""
    n = len(xlo) + 1
    ctx = model.nbody_ctx(Masses.equal(n))
    arrays = (np.array([v], dtype=float) for v in (xlo, xhi, ylo, yhi))
    return ctx, exclusion._BatchFrame(ctx, *arrays)


def frame_around(bodies, w):
    """Frame of the box of half-width w around the free bodies of `bodies`
    (its last entry, the derived body, is ignored)."""
    x, y = np.array(bodies[:-1], dtype=float).T
    return body_frame(x - w, x + w, y - w, y + w)


def reduced_frame(zlo, zhi):
    """Frame of one reduced box, as `run_battery_batch` builds it."""
    zlo, zhi = np.array([zlo], dtype=float), np.array([zhi], dtype=float)
    n = reduced_mod.n_for_dim(zlo.shape[1])
    ctx = model.nbody_ctx(Masses.equal(n))
    return ctx, exclusion._BatchFrame(ctx, *reduced_mod.box_to_free_arrays(zlo, zhi)), zlo, zhi


def equilateral_frame(w):
    return frame_around([(-R3 / 2, -0.5), (R3, 0.0), (-R3 / 2, 0.5)], w)


def group_excluded(ctx, fr, members):
    """`cluster_groups_excluded` for one proper group of the single box."""
    mask = np.zeros((1, fr.n), dtype=bool)
    mask[0, list(members)] = True
    return bool(exclusion.cluster_groups_excluded(ctx, fr, np.array([0]), mask)[0])


class TestCheckZero:
    def test_refines_near_cc(self):
        # off-center box (the configuration still inside): the acceleration
        # enclosure clips the box from one side
        w, s = 1e-2, 0.8e-2
        z = np.array([-R3 / 2 + s, -0.5 + s, R3 - s])
        ctx, fr, zlo, zhi = reduced_frame(z - w, z + w)
        excluded, new_lo, new_hi, changed = exclusion.check_zero_batch(ctx, fr, zlo, zhi)
        assert not excluded[0] and changed[0]
        assert np.all(new_lo >= zlo) and np.all(new_hi <= zhi)
        assert np.sum(new_hi - new_lo) < np.sum(zhi - zlo)

    def test_excludes_scaled(self):
        z = np.array([-R3, -1.0, 2 * R3])
        ctx, fr, zlo, zhi = reduced_frame(z - 1e-3, z + 1e-3)
        assert exclusion.check_zero_batch(ctx, fr, zlo, zhi)[0].tolist() == [True]

    def test_collision_tolerant(self):
        ctx, fr, zlo, zhi = reduced_frame([0.4, -0.1, 0.45], [0.6, 0.1, 0.65])
        assert not fr.pair_ok[0, 0]
        excluded, new_lo, new_hi, _ = exclusion.check_zero_batch(ctx, fr, zlo, zhi)
        assert excluded[0] or (np.all(new_lo >= zlo) and np.all(new_hi <= zhi))


def _partition(R):
    """The distinct member sets of a (n, n) closure."""
    return sorted({tuple(np.nonzero(row)[0]) for row in R})


class TestClusterPartition:
    """The batched epsilon closure the cluster tests group bodies by."""

    def test_separated_singletons(self):
        ctx, fr = frame_around([(-1.0, 0.0), (1.0, 0.0), (0.0, 0.0)], 1e-3)
        R = exclusion._closure(ctx, fr.rlo, np.array([0.1]))
        assert _partition(R[0]) == [(0,), (1,), (2,)]
        box, _ = exclusion.cluster_groups(ctx, fr, np.array([0.1]))
        assert len(box) == 0

    def test_overlapping_pair(self):
        ctx, fr = body_frame([0.4, 0.45], [0.6, 0.65], [-0.1, -0.1], [0.1, 0.1])
        R = exclusion._closure(ctx, fr.rlo, np.array([0.0]))
        assert _partition(R[0]) == [(0, 1), (2,)]
        box, masks = exclusion.cluster_groups(ctx, fr, np.array([0.0]))
        assert masks.tolist() == [[True, True, False]]

    def test_huge_epsilon_single_cluster(self):
        ctx, fr = frame_around([(-1.0, 0.0), (1.0, 0.0), (0.0, 0.0)], 1e-3)
        R = exclusion._closure(ctx, fr.rlo, np.array([100.0]))
        assert _partition(R[0]) == [(0, 1, 2)]
        box, _ = exclusion.cluster_groups(ctx, fr, np.array([100.0]))
        assert len(box) == 0  # the whole set is no proper group

    def test_partition_covers_and_disjoint(self):
        """The closure rows partition the bodies, as the per-box union-find
        of `cluster_test_excluded_single` does."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.choice([3, 4, 5]))
            pts = rng.uniform(-1, 1, (n - 1, 2))
            ctx, fr = frame_around(np.vstack([pts, [[0, 0]]]), rng.uniform(0, 0.05))
            eps = float(rng.uniform(0, 1.0))
            R = exclusion._closure(ctx, fr.rlo, np.array([eps]))[0]
            parts = _partition(R)
            seen = set()
            for p in parts:
                assert not (seen & set(p))
                seen |= set(p)
            assert seen == set(range(n))
            ref = exclusion.cluster_partition_from_frame(ctx, fr.take(0), eps)
            assert parts == sorted(tuple(sorted(g)) for g in ref)


class TestClusterTests:
    def test_full_cluster_zero_skipped(self):
        # the zero test of the whole set reduces to the center-of-mass
        # identity and never fires, so the whole set is never a group
        ctx, fr = frame_around([(0.2, 0.0), (0.5, 0.0), (0.9, 0.0)], 1e-3)
        box, _ = exclusion.cluster_groups(ctx, fr, np.array([100.0]))
        assert len(box) == 0
        assert not exclusion._cluster_zero_excluded(ctx, fr.take(0), frozenset({0, 1, 2}))
        assert exclusion.cluster_test_excluded_batch(ctx, fr, np.array([100.0])).tolist() == [False]

    def test_pair_cluster_zero(self):
        # two tight boxes near (0.5, 0) with the third far left; the summed
        # equation for the pair cannot vanish
        ctx, fr = body_frame([0.495, 0.505], [0.505, 0.515], [-0.005, -0.005], [0.005, 0.005])
        assert group_excluded(ctx, fr, {0, 1})
        assert exclusion._cluster_zero_excluded(ctx, fr.take(0), frozenset({0, 1}))

    def test_fui_near_collision(self):
        ctx, fr = body_frame([0.4995] * 2, [0.5005] * 2, [-0.0005] * 2, [0.0005] * 2)
        assert group_excluded(ctx, fr, {0, 1})
        assert exclusion._cluster_fui_excluded(ctx, fr.take(0), frozenset({0, 1}))

    def test_fui_whole_set_complementary(self):
        # the whole set is never a cluster group: its moment test is the
        # U = I test, which excludes this spread-out box
        ctx, fr = frame_around([(-2.0, 0.0), (2.0, 0.0), (0.0, 0.0)], 1e-4)
        box, _ = exclusion.cluster_groups(ctx, fr, np.array([100.0]))
        assert len(box) == 0
        assert exclusion.cluster_test_excluded_batch(ctx, fr, np.array([100.0])).tolist() == [False]
        assert exclusion.u_eq_i_excluded_batch(ctx, fr).tolist() == [True]

    def test_true_cc_unknown(self):
        ctx, fr = equilateral_frame(1e-4)
        assert not group_excluded(ctx, fr, {0, 1})


class TestUEqI:
    def test_disjoint_excludes(self):
        # spread out: inf I > sup U
        ctx, fr = frame_around([(-2.0, 0.0), (2.0, 0.0), (0.0, 0.0)], 1e-4)
        assert exclusion.u_eq_i_excluded_batch(ctx, fr).tolist() == [True]

    def test_true_cc_unknown(self):
        ctx, fr = equilateral_frame(1e-4)
        assert exclusion.u_eq_i_excluded_batch(ctx, fr).tolist() == [False]

    def test_collision_skipped(self):
        # bodies 0 and 1 may collide, so sup U is unbounded and only
        # sup I < inf U could fire, which it does not here
        ctx, fr = body_frame([0.4, 0.45], [0.6, 0.65], [-0.1, -0.1], [0.1, 0.1])
        assert not fr.pair_ok[0, 0]
        assert exclusion.u_eq_i_excluded_batch(ctx, fr).tolist() == [False]

    def test_possible_collision_excluded(self):
        # bodies 0 and 1 may collide, but even their farthest placement
        # gives inf U > sup I: a zero distance would only raise U
        ctx, fr = body_frame([0.0, 0.005], [0.01, 0.015], [-0.005, -0.005], [0.005, 0.005])
        assert not fr.pair_ok[0, 0]
        assert exclusion.u_eq_i_excluded_batch(ctx, fr).tolist() == [True]


class TestDistanceOrder:
    def test_middle_order_violation_n5(self):
        # derived body lands at (-0.7, 0.1); the n=5 chain is x_2 vs derived x
        x, y = [-0.7, 0.0, 0.5, 0.9], [0.3, -0.5, 0.1, 0.0]
        _, fr = body_frame(x, x, y, y)
        assert exclusion.distance_order_excluded_batch(fr, "increasing").tolist() == [True]
        assert exclusion.distance_order_excluded_batch(fr, "decreasing").tolist() == [False]

    def test_negative_y0_excluded_n3(self):
        _, fr = body_frame([-0.6, 0.7], [-0.6, 0.7], [-0.4, 0.0], [-0.2, 0.0])
        assert exclusion.distance_order_excluded_batch(fr, "increasing").tolist() == [True]

    def test_derived_farther_than_pinned_excluded(self):
        # derived body provably farther from the origin than x_{n-2}
        x, y = [-2.0, -1.5, 0.6], [0.5, -0.5, 0.0]
        _, fr = body_frame(x, x, y, y)
        assert exclusion.distance_order_excluded_batch(fr, "increasing").tolist() == [True]


class TestRefinementSoundness:
    def test_refined_box_keeps_the_zero(self):
        """Whatever checkZero discards, the contained solution survives."""
        from oracles import newton_polish

        z = newton_polish(np.array([-D3, 0.0, D3]), 3)
        m = Masses.equal(3)
        rng = np.random.default_rng(17)
        refined_seen = 0
        for _ in range(60):
            w = rng.uniform(1e-3, 2e-2)
            shift = rng.uniform(-0.9, 0.9, 3) * w
            lo = z + shift - w
            hi = z + shift + w
            ctx = reduced_mod.reduced_ctx(m)
            status, out_lo, out_hi = exclusion.run_battery_batch(
                ctx.m, compute_bounds(3, m), lo[None, :], hi[None, :], "decreasing"
            )
            assert status[0] == exclusion.SURVIVED, "box contains a true solution"
            if np.any(out_lo[0] > lo) or np.any(out_hi[0] < hi):
                refined_seen += 1
                assert np.all(out_lo[0] <= z + 1e-12) and np.all(z - 1e-12 <= out_hi[0])
        assert refined_seen > 0


class TestSoundness:
    def test_geometric_tests_never_exclude_listed_ccs(self):
        """The label-independent tests may not fire on a small box around a
        true configuration (the body-order test depends on the labeling and
        is covered on the search's own solutions instead)."""
        for n in (3, 4, 5, 6, 7):
            bset = compute_bounds(n, Masses.equal(n))
            for pts in load_listed(n):
                z, _ = polish_listed(pts)
                ctx, fr, zlo, zhi = reduced_frame(z - 1e-6, z + 1e-6)
                assert not check_apriori_batch(bset, fr.q2lo, fr.q2hi, fr.rhi)[0]
                assert not exclusion.u_eq_i_excluded_batch(ctx, fr)[0], (n, pts)
                assert not exclusion.check_zero_batch(ctx, fr, zlo, zhi)[0][0], (n, pts)
                # the proper groups at epsilon 0 and 2e-6
                box, masks = exclusion.cluster_groups(ctx, fr, np.array([2e-6]))
                assert not np.any(exclusion.cluster_groups_excluded(ctx, fr, box, masks))

    def test_full_battery_keeps_oriented_ccs(self, run_n3):
        """On the search's own certified solutions (correctly oriented by
        construction) the whole battery must stay silent."""
        m = run_n3.masses
        ctx = reduced_mod.reduced_ctx(m)
        bset = compute_bounds(3, m)
        for sol in run_n3.solutions:
            lo, hi = sol.reduced.arrays()
            mid = lo + 0.5 * (hi - lo)
            from oracles import newton_polish

            z = newton_polish(mid, 3)
            status, _, _ = exclusion.run_battery_batch(
                ctx.m, bset, z[None, :] - 1e-6, z[None, :] + 1e-6, run_n3.cfg.ordering
            )
            assert status[0] == exclusion.SURVIVED


def _frame(n, boxes):
    """One batch frame over boxes given as (free-body centers, half-width)."""
    ctx = model.nbody_ctx(Masses.equal(n))
    pts = np.array([c for c, _ in boxes], dtype=float)  # (B, n-1, 2)
    w = np.array([w for _, w in boxes], dtype=float)[:, None]
    x, y = pts[..., 0], pts[..., 1]
    return ctx, exclusion._BatchFrame(ctx, x - w, x + w, y - w, y + w), 2 * w[:, 0]


def _groups_of(box_idx, masks, b):
    return sorted(tuple(np.nonzero(m)[0]) for m in masks[box_idx == b])


def _single(ctx, fr, max_diam):
    return [
        exclusion.cluster_test_excluded_single(ctx, fr.take(b), float(max_diam[b]))
        for b in range(len(max_diam))
    ]


class TestClusterBatch:
    """The batched cluster tests against the per-box reference."""

    # n = 4, three free bodies; the derived fourth body is minus their sum
    PAIR = ([(0.5, 0.0), (0.5, 0.0), (-0.5, 0.8)], 0.01)  # {0, 1} at both epsilons
    GROWING = ([(0.5, 0.0), (0.5, 0.0), (0.53, 0.0)], 0.01)  # {0, 1}, then {0, 1, 2}
    SEPARATE = ([(-1.0, 0.5), (0.0, -0.7), (0.9, 0.0)], 1e-3)  # singletons only
    HUDDLE = ([(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01)], 0.02)  # the whole set at once

    def test_hand_made_groups(self):
        ctx, fr, md = _frame(4, [self.PAIR, self.GROWING, self.SEPARATE, self.HUDDLE])
        box, masks = exclusion.cluster_groups(ctx, fr, md)
        assert _groups_of(box, masks, 0) == [(0, 1)]  # listed once, not per epsilon
        assert _groups_of(box, masks, 1) == [(0, 1), (0, 1, 2)]
        assert _groups_of(box, masks, 2) == []
        assert _groups_of(box, masks, 3) == []  # needs the test, has no proper group
        assert exclusion.cluster_candidates_needed(fr, md).tolist() == [True, True, False, True]
        out = exclusion.cluster_test_excluded_batch(ctx, fr, md)
        assert out.tolist() == _single(ctx, fr, md)
        assert not out[2] and not out[3]

    @pytest.mark.filterwarnings("error")
    def test_exact_collision_inside_excludes(self):
        ctx, fr, md = _frame(4, [self.PAIR])
        p01 = 0  # pairs are ordered (0, 1), (0, 2), ...
        assert (ctx.ii[p01], ctx.jj[p01]) == (0, 1)
        fr.rlo[0, p01] = fr.rhi[0, p01] = fr.r2lo[0, p01] = fr.r2hi[0, p01] = 0.0
        group = np.array([[True, True, False, False]])
        assert exclusion.cluster_groups_excluded(ctx, fr, np.array([0]), group).tolist() == [True]
        assert exclusion._cluster_fui_excluded(ctx, fr.take(0), frozenset({0, 1}))
        assert exclusion.cluster_test_excluded_batch(ctx, fr, md).tolist() == [True]
        assert _single(ctx, fr, md) == [True]

    def test_colliding_cross_pair_blocks(self):
        # bodies 0 and 1 overlap, so the group {0, 2} has a colliding cross pair
        ctx, fr, _ = _frame(4, [self.PAIR])
        assert not fr.pair_ok[0, 0]
        group = np.array([[True, False, True, False]])
        assert exclusion.cluster_groups_excluded(ctx, fr, np.array([0]), group).tolist() == [False]
        single = fr.take(0)
        assert not exclusion._cluster_zero_excluded(ctx, single, frozenset({0, 2}))
        assert not exclusion._cluster_fui_excluded(ctx, single, frozenset({0, 2}))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_proper_subset_matches_single(self, n):
        """Each (box, group) verdict equals the per-group reference tests,
        colliding and blocked groups included."""
        rng = np.random.default_rng(n)
        B = 60
        centers = rng.uniform(-1.0, 1.0, (B, n - 1, 2))
        centers[: B // 2, 1] = centers[: B // 2, 0] + rng.normal(0.0, 0.01, (B // 2, 2))
        boxes = [(c, w) for c, w in zip(centers, 10 ** rng.uniform(-4, -1, B))]
        ctx, fr, _ = _frame(n, boxes)
        subsets = [s for s in range(1, 2**n - 1) if 2 <= bin(s).count("1") < n]
        box = np.repeat(np.arange(B), len(subsets))
        masks = (np.tile(subsets, B)[:, None] & (1 << np.arange(n))) != 0
        got = exclusion.cluster_groups_excluded(ctx, fr, box, masks)
        for t, (b, m) in enumerate(zip(box, masks)):
            members = frozenset(np.nonzero(m)[0].tolist())
            single = fr.take(int(b))
            want = exclusion._cluster_zero_excluded(
                ctx, single, members
            ) or exclusion._cluster_fui_excluded(ctx, single, members)
            assert got[t] == want, (n, b, members)
        assert 0 < np.count_nonzero(got) < len(got)

    def test_matches_single_on_n4_search(self, run_n4, monkeypatch):
        """Every box of the n = 4 search that needs the cluster tests gets
        the per-box verdict, and the tree stays the fixture's."""
        batch = exclusion.cluster_test_excluded_batch
        seen = []

        def spy(ctx, fr, max_diam):
            out = batch(ctx, fr, max_diam)
            assert out.tolist() == _single(ctx, fr, max_diam)
            seen.append(int(np.count_nonzero(out)))
            return out

        monkeypatch.setattr(exclusion, "cluster_test_excluded_batch", spy)
        from ccenum.search import search

        _, stats, _ = search(run_n4.domain, run_n4.cfg, run_n4.masses)
        assert stats == run_n4.stats
        assert 0 < sum(seen) <= stats.usage["clusterTest"]


# ---------------------------------------------------------------------------
# the battery's enclosures against mpmath.iv at 50 digits


@pytest.fixture
def iv50():
    saved = mpmath.iv.dps
    mpmath.iv.dps = 50
    try:
        yield mpmath.iv
    finally:
        mpmath.iv.dps = saved


@lru_cache(maxsize=None)
def _visited(n, budget=10000):
    """(lo, hi) of the first `budget` boxes the n-body search hands the battery."""
    seen = []
    battery = exclusion.run_battery_batch

    def spy(ctx, bset, zlo, zhi, ordering):
        seen.append((zlo.copy(), zhi.copy()))
        return battery(ctx, bset, zlo, zhi, ordering)

    cfg = SearchConfig(n=n)
    root = tuple(a[None] for a in initial_domain(cfg).arrays())
    exclusion.run_battery_batch = spy
    try:
        search_mod._subtree_task((cfg, Masses.equal(n), root, budget))
    finally:
        exclusion.run_battery_batch = battery
    return tuple(np.concatenate(c) for c in zip(*seen))


def _search_frame(n, B=60):
    """Frame of B seeded boxes out of those the n-body search visits first,
    half of them collision free; also their free-body ranges and widest edges."""
    lo, hi = _visited(n)
    ctx = model.nbody_ctx(Masses.equal(n))
    all_free = exclusion._BatchFrame(ctx, *reduced_mod.box_to_free_arrays(lo, hi))
    ok = np.all(all_free.pair_ok, axis=-1)
    rng = np.random.default_rng(100 + n)
    pick = np.concatenate([rng.choice(np.flatnonzero(s), B // 2, replace=False) for s in (ok, ~ok)])
    lo, hi = lo[pick], hi[pick]
    free = reduced_mod.box_to_free_arrays(lo, hi)
    return ctx, free, exclusion._BatchFrame(ctx, *free), np.max(hi - lo, axis=-1)


def _mp_box(iv, ctx, free, b):
    """Enclosures of r per pair and of m_i |q_i|^2 per body over box b, for
    equal masses (the derived body is minus the sum of the free ones).  r
    takes every coordinate once, so it is the exact range up to 50 digits."""
    xlo, xhi, ylo, yhi = (c[b] for c in free)
    X = [iv.mpf([lo, hi]) for lo, hi in zip(xlo, xhi)]
    Y = [iv.mpf([lo, hi]) for lo, hi in zip(ylo, yhi)]
    n = len(X) + 1

    def disp(C, i, j):
        if j < n - 1:
            return C[i] - C[j]
        return 2 * C[i] + sum(C[k] for k in range(n - 1) if k != i)

    r = [iv.sqrt(disp(X, i, j) ** 2 + disp(Y, i, j) ** 2) for i, j in zip(ctx.ii, ctx.jj)]
    X, Y = X + [-sum(X)], Y + [-sum(Y)]
    return r, [(X[i] ** 2 + Y[i] ** 2) / n for i in range(n)]


def _exact_sum(iv, num, den, mask):
    """sum num/den over the mask, exact at 50 digits; +inf past a zero den."""
    if np.any(den[mask] == 0.0):
        return iv.mpf("inf")
    return sum((iv.mpf(a) / iv.mpf(d) for a, d in zip(num[mask], den[mask])), iv.mpf(0))


def _nudged(v, ulps=3):
    """The floats from `ulps` steps below v to `ulps` steps above it."""
    out = [v]
    for _ in range(ulps):
        out = [np.nextafter(out[0], -np.inf)] + out + [np.nextafter(out[-1], np.inf)]
    return np.array(out)


class TestMpmathOracle:
    """Each enclosure the battery compares is checked at its own float
    inputs against the exact value (inf U against sum m_i m_j / sup r, sup
    U against sum m_i m_j / inf r), and those inputs against the exact
    ranges over the box: a missing outward step shows even where an
    earlier step's slack would hide it.  A result of NaN or an infinity
    must lie on the side that fires no test."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_potential_and_inertia(self, iv50, n):
        ctx, free, fr, md = _search_frame(n)
        assert np.all(ctx.mmlo <= iv50.mpf(1) / n**2) and np.all(ctx.mmhi >= iv50.mpf(1) / n**2)
        box, groups = exclusion.cluster_groups(ctx, fr, md)
        free_rows = np.flatnonzero(np.all(fr.pair_ok, axis=-1))
        U_hi = dict(zip(free_rows, exclusion._u_hi(ctx, fr.rlo[free_rows], fr.rhi[free_rows])))
        colliding = 0
        for b in range(len(md)):
            r, mq2 = _mp_box(iv50, ctx, free, b)
            assert all(fr.rlo[b, p] <= r[p].a and r[p].b <= fr.rhi[b, p] for p in range(ctx.P))
            members = np.vstack([np.ones(n, dtype=bool), groups[box == b]])
            pairs = members[:, ctx.ii] & members[:, ctx.jj]
            colliding += np.count_nonzero(pairs & ~fr.pair_ok[b])
            U_lo = exclusion._u_lo(ctx, fr.rhi[[b] * len(pairs)], pairs)
            for u, mask in zip(U_lo, pairs):
                assert u <= _exact_sum(iv50, ctx.mmlo, fr.rhi[b], mask).a, (n, b, mask)
            if b in U_hi:
                assert U_hi[b] >= _exact_sum(iv50, ctx.mmhi, fr.rlo[b], np.ones(ctx.P, bool)).b
            rows = [b] * len(members)
            I_lo, I_hi = bxo.isum(fr.mq2lo[rows], fr.mq2hi[rows], axis=-1, where=members)
            for lo, hi, mask in zip(I_lo, I_hi, members):
                exact = sum((mq2[i] for i in np.flatnonzero(mask)), iv50.mpf(0))
                assert lo <= exact.a and exact.b <= hi, (n, b, mask)
        assert colliding and len(groups) and 0 < len(U_hi) < len(md)

    @pytest.mark.parametrize("n", [4, 5])
    def test_derived_body_is_tight(self, iv50, n):
        """The derived body encloses -sum q_i, and each displacement against
        it, a plain difference, encloses its exact range 2 q_i + sum_{j != i}
        q_j and is wider by at most 4n ulps of the sum of its terms'
        magnitudes: every coordinate enters the enclosure once."""
        ctx, free, fr, _ = _search_frame(n)
        last = np.flatnonzero(ctx.jj == n - 1)
        for b in range(len(fr.bxlo)):
            for (clo, chi), (blo, bhi), (dlo, dhi) in (
                (free[0:2], (fr.bxlo, fr.bxhi), (fr.dxlo, fr.dxhi)),
                (free[2:4], (fr.bylo, fr.byhi), (fr.dylo, fr.dyhi)),
            ):
                X = [iv50.mpf([lo, hi]) for lo, hi in zip(clo[b], chi[b])]
                mag = np.maximum(np.abs(clo[b]), np.abs(chi[b]))
                exact = -sum(X)
                assert blo[b, -1] <= exact.a and exact.b <= bhi[b, -1], (n, b)
                for p in last:
                    i = ctx.ii[p]
                    exact = 2 * X[i] + sum(X[k] for k in range(n - 1) if k != i)
                    lo, hi = dlo[b, p], dhi[b, p]
                    assert lo <= exact.a and exact.b <= hi, (n, b, p)
                    slack = (hi - lo) - float(exact.b - exact.a)
                    assert slack <= 4 * n * math.ulp(mag[i] + mag.sum()), (n, b, p)

    def test_overflowing_terms_fire_nothing(self, iv50):
        """Distances of 0 and below 1e-308: the sums overflow, and inf U
        comes out below the exact value or NaN, sup U out +inf; no warning."""
        ctx, _, fr, _ = _search_frame(4, B=6)
        rhi = fr.rhi.copy()
        rhi[0, 0] = 0.0
        rhi[1, :2] = 0.0
        rhi[2, :2] = 1e-310
        rhi[3, 3] = 5e-324
        rlo = np.where(fr.pair_ok, fr.rlo, 1.0)
        rlo[4, :2] = 1e-310
        rlo[5, 3] = 5e-324
        every = np.ones(ctx.P, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U_lo = exclusion._u_lo(ctx, rhi, every)
            U_hi = exclusion._u_hi(ctx, rlo, np.maximum(rlo, fr.rhi))
        for b in range(4):
            exact = _exact_sum(iv50, ctx.mmlo, rhi[b], every)
            assert np.isnan(U_lo[b]) or U_lo[b] <= exact.a, b
        assert U_lo[0] > 1e307 and np.isnan(U_lo[1]) and np.isnan(U_lo[2])
        assert np.all(U_hi[4:] == np.inf)

    @pytest.mark.parametrize("n", [4, 5])
    def test_apriori_collision_floor(self, iv50, n):
        """A pair distance fires the collision floor only below the exact
        m_i m_j / (M R^2), R^2 the box's sup max |q_i|^2: distances a few
        ulps either side of it, every other a priori test kept silent."""
        ctx, _, fr, _ = _search_frame(n)
        bset = compute_bounds(n, Masses.equal(n))
        fired_any = False
        for q2hi in fr.q2hi[fr.q2hi.max(axis=-1) >= bset.R_min_sq]:
            R_sq = min(q2hi.max(), bset.R_max_sq)
            exact = iv50.mpf(bset.mm_over_M_lo[1]) / iv50.mpf(R_sq)
            t = _nudged(float(exact.a))
            rhi = np.ones((len(t), ctx.P))
            rhi[:, 1] = t
            q2 = np.tile(q2hi, (len(t), 1))
            fired = check_apriori_batch(bset, np.zeros_like(q2), q2, rhi)
            assert all(v < exact.a for v in t[fired]) and not fired.all()
            fired_any |= fired.any()
        assert fired_any

    @pytest.mark.parametrize("n", [4, 5])
    def test_furthest_body_bound(self, iv50, n):
        """inf |q_0|^2 past sup x_{n-2}^2 fires the body-order test only
        above the exact square, on boxes where nothing else fires."""
        ctx, _, fr, _ = _search_frame(n)
        ordering = SearchConfig(n=n).ordering
        quiet = np.flatnonzero(~exclusion.distance_order_excluded_batch(fr, ordering))
        assert len(quiet)
        pin = n - 2
        for b in quiet:
            exact = iv50.mpf([fr.bxlo[b, pin], fr.bxhi[b, pin]]) ** 2
            t = _nudged(float(exact.b))
            sub = fr.take(np.full(len(t), b))
            sub.q2lo[:, 0] = t
            fired = exclusion.distance_order_excluded_batch(sub, ordering)
            assert all(v > exact.b for v in t[fired]) and fired.any(), (n, b)

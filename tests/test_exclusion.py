"""Exclusion battery: worked examples per test, partition properties, and
the master soundness property (no test excludes a box around a true
configuration)."""

import numpy as np
import pytest

from ccenum import exclusion, model
from ccenum import reduced as reduced_mod
from ccenum.bounds import compute_bounds
from ccenum.errors import RefusedUnequalMasses
from ccenum.interval import Interval
from ccenum.model import BodyBox, ConfigurationBox, Masses
from conftest import load_listed
from oracles import polish_listed

D3 = (5.0 / 12.0) ** (1.0 / 3.0)
R3 = 3.0**-0.5


def config_around(bodies, w):
    return ConfigurationBox(
        [BodyBox(Interval(x - w, x + w), Interval(y - w, y + w)) for x, y in bodies[:-1]]
    )


def equilateral_box(w):
    return config_around([(-R3 / 2, -0.5), (R3, 0.0), (-R3 / 2, 0.5)], w)


class TestCheckZero:
    def test_refines_near_cc(self):
        # off-center box (the configuration still inside): the acceleration
        # enclosure clips the box from one side
        w, s = 1e-2, 0.8e-2
        bodies = [
            BodyBox(Interval(-R3 / 2 - w + s, -R3 / 2 + w + s), Interval(-0.5 - w + s, -0.5 + w + s)),
            BodyBox(Interval(R3 - w - s, R3 + w - s), Interval(-w, w)),
        ]
        c = ConfigurationBox(bodies)
        v = exclusion.check_zero_refine(c, Masses.equal(3))
        assert v.outcome == "Refined"
        widths_before = [b.x.width + b.y.width for b in c.bodies]
        widths_after = [b.x.width + b.y.width for b in v.refined.bodies]
        assert sum(widths_after) < sum(widths_before)

    def test_excludes_scaled(self):
        c = config_around([(-R3, -1.0), (2 * R3, 0.0), (-R3, 1.0)], 1e-3)
        v = exclusion.check_zero_refine(c, Masses.equal(3))
        assert v.outcome == "Excluded"

    def test_collision_tolerant(self):
        bodies = [
            BodyBox(Interval(0.4, 0.6), Interval(-0.1, 0.1)),
            BodyBox(Interval(0.45, 0.65), Interval(-0.1, 0.1)),
        ]
        v = exclusion.check_zero_refine(ConfigurationBox(bodies), Masses.equal(3))
        assert v.outcome in ("Refined", "Unknown", "Excluded")


class TestClusterPartition:
    def test_separated_singletons(self):
        c = config_around([(-1.0, 0.0), (1.0, 0.0), (0.0, 0.0)], 1e-3)
        parts = exclusion.cluster_partition(c, Masses.equal(3), 0.1)
        assert sorted(len(p.members) for p in parts) == [1, 1, 1]

    def test_overlapping_pair(self):
        bodies = [
            BodyBox(Interval(0.4, 0.6), Interval(-0.1, 0.1)),
            BodyBox(Interval(0.45, 0.65), Interval(-0.1, 0.1)),
        ]
        parts = exclusion.cluster_partition(ConfigurationBox(bodies), Masses.equal(3), 0.0)
        sizes = sorted(len(p.members) for p in parts)
        assert sizes == [1, 2]

    def test_huge_epsilon_single_cluster(self):
        c = config_around([(-1.0, 0.0), (1.0, 0.0), (0.0, 0.0)], 1e-3)
        parts = exclusion.cluster_partition(c, Masses.equal(3), 100.0)
        assert len(parts) == 1 and len(parts[0].members) == 3

    def test_partition_covers_and_disjoint(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.choice([3, 4, 5]))
            pts = rng.uniform(-1, 1, (n - 1, 2))
            c = config_around(np.vstack([pts, [[0, 0]]]), rng.uniform(0, 0.05))
            eps = float(rng.uniform(0, 1.0))
            parts = exclusion.cluster_partition(c, Masses.equal(n), eps)
            seen = set()
            for p in parts:
                assert not (seen & p.members)
                seen |= p.members
            assert seen == set(range(n))


class TestClusterTests:
    def test_full_cluster_zero_skipped(self):
        # center of mass vanishes by construction, the test never fires
        c = config_around([(0.2, 0.0), (0.5, 0.0), (0.9, 0.0)], 1e-3)
        cl = exclusion.Cluster(frozenset({0, 1, 2}), 0.0)
        assert exclusion.cluster_zero_test(c, cl, Masses.equal(3)) == "Unknown"

    def test_pair_cluster_zero(self):
        # two tight boxes near (0.5, 0) with the third far left; the summed
        # equation for the pair cannot vanish
        bodies = [
            BodyBox(Interval(0.495, 0.505), Interval(-0.005, 0.005)),
            BodyBox(Interval(0.505, 0.515), Interval(-0.005, 0.005)),
        ]
        c = ConfigurationBox(bodies)  # derived body lands near (-1, 0)
        cl = exclusion.Cluster(frozenset({0, 1}), 0.05)
        out = exclusion.cluster_zero_test(c, cl, Masses.equal(3))
        assert out == "Excluded"

    def test_fui_near_collision(self):
        m = Masses.equal(3)
        bodies = [
            BodyBox(Interval(0.4995, 0.5005), Interval(-0.0005, 0.0005)),
            BodyBox(Interval(0.4995, 0.5005), Interval(-0.0005, 0.0005)),
        ]
        c = ConfigurationBox(bodies)
        cl = exclusion.Cluster(frozenset({0, 1}), 0.01)
        assert exclusion.cluster_fui_test(c, cl, m) == "Excluded"

    def test_fui_whole_set_complementary(self):
        c = config_around([(-2.0, 0.0), (2.0, 0.0), (0.0, 0.0)], 1e-4)
        cl = exclusion.Cluster(frozenset({0, 1, 2}), 0.0)
        assert exclusion.cluster_fui_test(c, cl, Masses.equal(3)) == "Excluded"

    def test_true_cc_unknown(self):
        c = equilateral_box(1e-4)
        for members in ({0, 1}, {0, 1, 2}):
            cl = exclusion.Cluster(frozenset(members), 0.0)
            assert exclusion.cluster_zero_test(c, cl, Masses.equal(3)) == "Unknown"
            assert exclusion.cluster_fui_test(c, cl, Masses.equal(3)) == "Unknown"


class TestUEqI:
    def test_disjoint_excludes(self):
        c = config_around([(-2.0, 0.0), (2.0, 0.0), (0.0, 0.0)], 1e-4)
        assert exclusion.check_u_eq_i(c, Masses.equal(3)) == "Excluded"

    def test_true_cc_unknown(self):
        assert exclusion.check_u_eq_i(equilateral_box(1e-4), Masses.equal(3)) == "Unknown"

    def test_collision_skipped(self):
        bodies = [
            BodyBox(Interval(0.4, 0.6), Interval(-0.1, 0.1)),
            BodyBox(Interval(0.45, 0.65), Interval(-0.1, 0.1)),
        ]
        assert exclusion.check_u_eq_i(ConfigurationBox(bodies), Masses.equal(3)) == "Unknown"


class TestDistanceOrder:
    def test_middle_order_violation_n5(self):
        m = Masses.equal(5)
        # derived body lands at (-0.7, 0.1); the n=5 chain is x_2 vs derived x
        bodies = [
            BodyBox(Interval(-0.7), Interval(0.3)),
            BodyBox(Interval(0.0), Interval(-0.5)),
            BodyBox(Interval(0.5), Interval(0.1)),
            BodyBox(Interval(0.9), Interval(0.0)),
        ]
        c = ConfigurationBox(bodies)
        assert exclusion.distance_order_test(c, 5, "increasing", m) == "Excluded"
        assert exclusion.distance_order_test(c, 5, "decreasing", m) == "Unknown"

    def test_negative_y0_excluded_n3(self):
        bodies = [
            BodyBox(Interval(-0.6), Interval(-0.4, -0.2)),
            BodyBox(Interval(0.7), Interval(0.0)),
        ]
        out = exclusion.distance_order_test(ConfigurationBox(bodies), 3, "increasing", Masses.equal(3))
        assert out == "Excluded"

    def test_derived_farther_than_pinned_excluded(self):
        # derived body provably farther from the origin than x_{n-2}
        bodies = [
            BodyBox(Interval(-2.0), Interval(0.5)),
            BodyBox(Interval(-1.5), Interval(-0.5)),
            BodyBox(Interval(0.6), Interval(0.0)),
        ]
        out = exclusion.distance_order_test(ConfigurationBox(bodies), 4, "increasing", Masses.equal(4))
        assert out == "Excluded"

    def test_unequal_masses_refused(self):
        bodies = [BodyBox(Interval(-0.5), Interval(0.1)), BodyBox(Interval(0.7), Interval(0.0))]
        with pytest.raises(RefusedUnequalMasses):
            exclusion.distance_order_test(
                ConfigurationBox(bodies), 3, "increasing", Masses.from_floats([0.2, 0.3, 0.5])
            )


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
            m = Masses.equal(n)
            bset = compute_bounds(n, m)
            for pts in load_listed(n):
                z, bodies = polish_listed(pts)
                c = config_around([tuple(p) for p in bodies], 1e-6)
                from ccenum.bounds import check_apriori

                assert check_apriori(c, bset, m) == "Possible", (n, pts)
                assert exclusion.check_u_eq_i(c, m) != "Excluded", (n, pts)
                v = exclusion.check_zero_refine(c, m)
                assert v.outcome != "Excluded", (n, pts)
                for eps in (0.0, 2e-6):
                    for cl in exclusion.cluster_partition(c, m, eps):
                        assert exclusion.cluster_zero_test(c, cl, m) != "Excluded"
                        assert exclusion.cluster_fui_test(c, cl, m) != "Excluded"

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

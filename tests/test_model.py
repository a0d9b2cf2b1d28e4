"""Model operations: eliminated body, residual, scalars, distances, and
the conservation identities on random point configurations.  Everything
comes from the array pipeline the search runs, on free-body arrays."""

import math

import numpy as np
import pytest

from ccenum import boxops as bxo
from ccenum import model
from ccenum import reduced as reduced_mod
from ccenum.errors import CollisionPossible
from ccenum.interval import Interval
from ccenum.model import Masses, scalars
from oracles import disjoint, full_residual

R3 = 1.0 / math.sqrt(3.0)


def config_from_points(points, w=0.0):
    """Free-body arrays (xlo, xhi, ylo, yhi) of the boxes of half-width w
    around the points of the n-1 free bodies."""
    p = np.asarray(points, dtype=float)
    return p[:, 0] - w, p[:, 0] + w, p[:, 1] - w, p[:, 1] + w


def equilateral_config():
    # pairwise distance exactly 1; bodies at radius 1/sqrt(3)
    return config_from_points([(-R3 / 2, -0.5), (R3, 0.0)])


def last_body(c):
    """The eliminated body's (x, y) enclosures, from `model.derived_last_arrays`."""
    dxlo, dxhi, dylo, dyhi = model.derived_last_arrays(*c)
    return Interval(float(dxlo), float(dxhi)), Interval(float(dylo), float(dyhi))


def full_residual_iv(c, masses: Masses):
    """Enclosures of q_i - accel_i for all n bodies, x and y interleaved,
    from `model.accel_arrays`; None when a pair may collide (where
    `reduced.residual_masked` reports the box not ok)."""
    ctx = model.nbody_ctx(masses)
    xlo, xhi, ylo, yhi = c
    d = model.pair_disp_arrays(ctx, xlo, xhi, ylo, yhi)
    r2lo = model.pair_r2_arrays(*d)[0]
    if np.any(r2lo <= 0.0):
        return None
    axlo, axhi, aylo, ayhi = model.accel_arrays(ctx, *d, pair_mask=r2lo > 0.0)
    bxlo, bxhi, bylo, byhi = model.all_body_arrays(xlo, xhi, ylo, yhi)
    fxlo, fxhi = bxo.isub(bxlo, bxhi, axlo, axhi)
    fylo, fyhi = bxo.isub(bylo, byhi, aylo, ayhi)
    out = []
    for i in range(ctx.n):
        out += [Interval(float(fxlo[i]), float(fxhi[i])), Interval(float(fylo[i]), float(fyhi[i]))]
    return out


def distances(c, masses: Masses):
    """{(i, j): distance enclosure} over the pairs i < j, as the battery
    frame computes them."""
    ctx = model.nbody_ctx(masses)
    d = model.pair_disp_arrays(ctx, *c)
    rlo, rhi = bxo.isqrt(*model.pair_r2_arrays(*d))
    return {
        (int(i), int(j)): Interval(float(lo), float(hi))
        for i, j, lo, hi in zip(ctx.ii, ctx.jj, rlo, rhi)
    }


class TestMasses:
    def test_equal_encloses_exact(self):
        m = Masses.equal(3)
        assert m.n == 3 and m.m.contains(1 / 3)
        assert m.total.contains(1.0)


class TestDeriveLast:
    def test_symmetric_pair(self):
        c = config_from_points([(-0.5, 0.0), (0.5, 0.0)])
        x, y = last_body(c)
        assert x.contains(0.0) and y.contains(0.0)
        assert x.width < 1e-14

    def test_direct_formula(self):
        c = config_from_points([(1.0, 0.0), (1.0, 0.0)])
        x, _ = last_body(c)
        assert x.contains(-2.0) and x.width < 1e-13

    def test_isosceles_fourth_body(self):
        pts = [(-0.3821936947, 0.6195346528), (-0.3821936947, -0.6195346528), (0.7436490828, 0.0)]
        x, y = last_body(config_from_points(pts))
        assert abs(x.mid - 0.0207383067) < 1e-9
        assert y.contains(0.0)


class TestResidual:
    def test_equilateral_is_zero(self):
        F = full_residual_iv(equilateral_config(), Masses.equal(3))
        for comp in F:
            assert comp.contains(0.0)
            assert comp.width < 1e-13

    def test_collinear_is_zero(self):
        d = (5.0 / 12.0) ** (1.0 / 3.0)
        c = config_from_points([(-d, 0.0), (d, 0.0)])
        F = full_residual_iv(c, Masses.equal(3))
        for comp in F:
            assert comp.contains(0.0)

    def test_scaled_excludes_zero(self):
        c = config_from_points([(-R3, -1.0), (2 * R3, 0.0)])
        F = full_residual_iv(c, Masses.equal(3))
        assert any(not comp.contains(0.0) for comp in F)

    def test_collision_raises(self):
        c = config_from_points([(0.0, 0.0), (0.0, 0.0)])
        assert full_residual_iv(c, Masses.equal(3)) is None
        rctx = reduced_mod.reduced_ctx(Masses.equal(3))
        z = np.zeros((1, 3))
        assert reduced_mod.residual_masked(rctx, z, z)[2].tolist() == [False]

    def test_contains_point_residuals(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 600:
            n = int(rng.choice([3, 4, 5]))
            pts = rng.uniform(-1.5, 1.5, (n - 1, 2))
            w = rng.uniform(0, 0.02)
            c = config_from_points(pts, w)
            m = Masses.equal(n)
            F = full_residual_iv(c, m)
            if F is None:
                continue
            done += 1
            samp = pts + rng.uniform(-w, w, pts.shape)
            q = np.zeros((n, 2))
            q[: n - 1] = samp
            q[n - 1] = -samp.sum(axis=0)
            exact = full_residual(q, np.full(n, 1.0 / n))
            for i in range(n):
                assert F[2 * i].lo <= exact[i, 0] + 1e-9
                assert exact[i, 0] <= F[2 * i].hi + 1e-9
                assert F[2 * i + 1].lo <= exact[i, 1] + 1e-9

    def test_force_identities(self):
        # momentum and angular momentum identities at random points
        rng = np.random.default_rng(32)
        done = 0
        while done < 200:
            n = int(rng.choice([3, 4, 5]))
            pts = rng.uniform(-1.5, 1.5, (n - 1, 2))
            c = config_from_points(pts)
            m = Masses.equal(n)
            F = full_residual_iv(c, m)
            if F is None:
                continue
            done += 1
            coords = [(Interval(x), Interval(y)) for x, y in pts] + [last_body(c)]
            fsumx = Interval(0.0)
            fsumy = Interval(0.0)
            ang = Interval(0.0)
            for i in range(n):
                mi = m.m
                fx = mi * (coords[i][0] - F[2 * i])
                fy = mi * (coords[i][1] - F[2 * i + 1])
                fsumx = fsumx + fx
                fsumy = fsumy + fy
                # planar exterior product f_i x q_i
                ang = ang + (fx * coords[i][1] - fy * coords[i][0])
            assert fsumx.contains(0.0) and fsumy.contains(0.0)
            assert ang.contains(0.0)


class TestScalars:
    def test_equilateral_values(self):
        sc = scalars(*equilateral_config(), Masses.equal(3))
        third = 1.0 / 3.0
        assert sc.U.contains(third) and sc.U.width < 1e-12
        assert sc.I.contains(third)
        assert sc.J.contains(1.0 / (3.0 * math.sqrt(3.0))) and sc.J.width < 1e-10
        assert sc.P_moeckel.contains(3.0) and sc.P_moeckel.width < 1e-11
        assert not disjoint(sc.U, sc.I)

    def test_collinear_values(self):
        d = (5.0 / 12.0) ** (1.0 / 3.0)
        c = config_from_points([(-d, 0.0), (d, 0.0)])
        sc = scalars(*c, Masses.equal(3))
        # J = (5/18) sqrt(2/3), P = 5/sqrt(2), both scale free
        assert abs(sc.J.mid - 5.0 * math.sqrt(6.0) / 54.0) < 1e-13
        assert abs(sc.P_moeckel.mid - 5.0 / math.sqrt(2.0)) < 1e-12
        assert sc.J.width < 1e-12

    def test_rational_point(self):
        c = config_from_points([(-2.0, 0.0), (2.0, 0.0)])
        sc = scalars(*c, Masses.equal(3))
        assert sc.I.contains(8.0 / 3.0) and sc.I.width < 1e-13
        assert sc.U.contains(5.0 / 36.0) and sc.U.width < 1e-13
        assert disjoint(sc.U, sc.I)

    def test_scale_invariance_of_J(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.choice([3, 4]))
            pts = rng.uniform(0.3, 1.5, (n - 1, 2)) * rng.choice([-1, 1], (n - 1, 2))
            m = Masses.equal(n)
            try:
                j1 = scalars(*config_from_points(pts), m).J
                s = rng.uniform(0.1, 10.0)
                j2 = scalars(*config_from_points(pts * s), m).J
            except CollisionPossible:
                continue
            assert not disjoint(j1, j2)

    def test_collision_raises(self):
        c = config_from_points([(0.5, 0.5), (0.5, 0.5)])
        with pytest.raises(CollisionPossible):
            scalars(*c, Masses.equal(3))


class TestPairwiseDistances:
    def test_point_distance(self):
        c = config_from_points([(0.0, 0.0), (3.0, 4.0)])
        D = distances(c, Masses.equal(3))
        assert D[0, 1].contains(5.0) and D[0, 1].width < 1e-13
        assert sorted(D) == [(0, 1), (0, 2), (1, 2)]

    def test_overlapping_boxes(self):
        c = config_from_points([(0.5, 0.5), (1.0, 1.0)], 0.5)  # [0, 1]^2 and [0.5, 1.5]^2
        D = distances(c, Masses.equal(3))
        assert D[0, 1].lo == 0.0

    def test_equilateral_unit_sides(self):
        D = distances(equilateral_config(), Masses.equal(3))
        for i in range(3):
            for j in range(i + 1, 3):
                assert D[i, j].contains(1.0)
                assert D[i, j].width < 1e-13

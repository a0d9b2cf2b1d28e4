"""Reduced system: residual and Jacobian enclosures (the array functions
the search and the operator call) against independent finite-difference
oracles, gauge validity, and the checks and copies of `ReducedBox`."""

import pickle

import mpmath
import numpy as np
import pytest

from ccenum import classify
from ccenum import reduced as reduced_mod
from ccenum.model import Masses
from ccenum.reduced import ReducedBox, gauge_validity
from oracles import fd_reduced_jacobian, reduced_residual as oracle_residual


def box_from_point(z, w=0.0):
    z = np.asarray(z, dtype=float)
    return ReducedBox.from_arrays(z - w, z + w)


def _ctx_for(z):
    return reduced_mod.reduced_ctx(Masses.equal(reduced_mod.n_for_dim(len(z))))


def residual(z, w=0.0):
    """`residual_masked` on the box of half-width w around z, equal masses;
    None when a pair of bodies may collide on the box."""
    z = np.asarray(z, dtype=float)[None]
    lo, hi, ok = reduced_mod.residual_masked(_ctx_for(z[0]), z - w, z + w)
    return (lo[0], hi[0]) if ok[0] else None


def jacobian(z, w=0.0):
    """`jacobian_masked` on the box of half-width w around z, equal masses."""
    z = np.asarray(z, dtype=float)[None]
    Jlo, Jhi, ok = reduced_mod.jacobian_masked(_ctx_for(z[0]), z - w, z + w)
    assert ok[0], "the test boxes are collision free"
    return Jlo[0], Jhi[0]


D3 = (5.0 / 12.0) ** (1.0 / 3.0)


class TestResidual:
    def test_collinear_zero(self):
        lo, hi = residual([-D3, 0.0, D3])
        assert np.all(lo <= 0.0) and np.all(0.0 <= hi)

    def test_equilateral_zero(self):
        # the 10-digit coordinates carry ~1e-10 rounding, so enclose the
        # true zero with a slightly inflated box
        lo, hi = residual([-0.2886751346, -0.5, 0.5773502692], 1e-9)
        assert np.all(lo <= 0.0) and np.all(0.0 <= hi)
        assert np.all(hi - lo < 1e-7)

    def test_scaled_excludes_zero(self):
        lo, hi = residual([-0.2886751346 * 1.1, -0.55, 0.5773502692 * 1.1])
        assert np.any((lo > 0.0) | (hi < 0.0))

    def test_matches_float_oracle(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 300:
            n = int(rng.choice([3, 4, 5]))
            z = rng.uniform(-1.3, 1.3, 2 * (n - 1) - 1)
            got = residual(z)
            if got is None:
                continue
            lo, hi = got
            done += 1
            exact = oracle_residual(z, n)
            assert np.all(lo <= exact + 1e-9) and np.all(exact <= hi + 1e-9)

    def test_refined_zero_has_small_residual(self):
        for n, seed in ((3, 1), (4, 2), (5, 3)):
            from conftest import load_listed

            pts = load_listed(n)[0]
            from oracles import polish_listed

            z, _ = polish_listed(pts)
            lo, hi = residual(z)
            assert np.all(np.maximum(np.abs(lo), np.abs(hi)) < 1e-10)


def _well_separated(z, n, floor=0.3):
    from oracles import reduced_point_to_bodies

    q = reduced_point_to_bodies(np.asarray(z, dtype=float), n)
    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(q[i] - q[j])) < floor:
                return False
    return True


class TestJacobian:
    def test_fd_containment(self):
        # central differences themselves degrade near collisions, so the
        # random configurations keep a minimum pairwise separation
        rng = np.random.default_rng(21)
        done = 0
        while done < 100:
            n = int(rng.choice([3, 4, 5]))
            z = rng.uniform(-1.3, 1.3, 2 * (n - 1) - 1)
            if not _well_separated(z, n):
                continue
            J = jacobian(z)
            done += 1
            fd = fd_reduced_jacobian(z, n, h=1e-6)
            d = len(z)
            for r in range(d):
                for c in range(d):
                    assert J[0][r, c] - 1e-5 <= fd[r, c] <= J[1][r, c] + 1e-5

    def test_fd_containment_boxes_n4(self):
        rng = np.random.default_rng(22)
        done = 0
        while done < 50:
            z = rng.uniform(-1.3, 1.3, 5)
            if not _well_separated(z, 4):
                continue
            Jlo, Jhi = jacobian(z, rng.uniform(0, 5e-3))
            done += 1
            fd = fd_reduced_jacobian(z, 4, h=1e-6)
            assert np.all(Jlo - 1e-5 <= fd) and np.all(fd <= Jhi + 1e-5)

    def test_collinear_midpoint_invertible(self):
        from ccenum.krawczyk import midpoint_inverse

        Jlo, Jhi = jacobian([-D3, 0.0, D3], 1e-6)
        C = midpoint_inverse(Jlo, Jhi)
        assert np.all(np.isfinite(C))

    def test_mixed_partial_symmetry(self):
        # the x_k derivative of the y residual equals the y_k derivative of
        # the x residual at point configurations
        Jlo, Jhi = jacobian([-0.9, 0.3, 0.25, -0.8, 0.95])
        # rows: (0,x),(0,y),(1,x),(1,y),(2,x); columns likewise
        pairs = [((0, 3), (1, 2)), ((1, 0), (0, 1)), ((3, 0), (2, 1))]
        for (r1, c1), (r2, c2) in pairs:
            assert abs(Jlo[r1, c1] - Jlo[r2, c2]) < 1e-9

    def test_point_jacobian_narrow(self):
        Jlo, Jhi = jacobian([-D3, 0.0, D3])
        mid = Jlo + 0.5 * (Jhi - Jlo)
        assert np.all(Jhi - Jlo <= 1e-12 * np.maximum(1.0, np.abs(mid)))


class TestGaugeAndConversions:
    def test_round_trip(self):
        """A box hands back its bounds bit for bit, and its bodies are the
        free-body arrays the search derives from the bounds, body n-2
        pinned to y = 0 and the last body at minus their sum."""
        lo = np.array([-0.7, 0.2, -0.4, -0.1, 0.9]) - 1e-3
        hi = lo + 2e-3
        rb = ReducedBox.from_arrays(lo, hi)
        assert [a.tolist() for a in rb.arrays()] == [lo.tolist(), hi.tolist()]
        blo, bhi = classify.full_bodies(rb)
        assert blo.shape == bhi.shape == (4, 2)
        xlo, xhi, ylo, yhi = reduced_mod.box_to_free_arrays(lo, hi)
        for k in range(3):
            assert blo[k].tolist() == [xlo[k], ylo[k]] and bhi[k].tolist() == [xhi[k], yhi[k]]
        assert blo[2, 1] == bhi[2, 1] == 0.0
        mid = lo + 0.5 * (hi - lo)
        last = [-(mid[0] + mid[2] + mid[4]), -(mid[1] + mid[3])]
        assert np.all((blo[3] <= last) & (last <= bhi[3]))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_layout_round_trip(self, n):
        """`free_to_box` inverts `box_to_free_arrays` bit for bit on a batch,
        the free bodies read z row by row, and the pinned y of body n-2 is 0."""
        rng = np.random.default_rng(n)
        z = rng.uniform(-2.0, 2.0, (4, reduced_mod.dim_for(n)))
        xlo, xhi, ylo, yhi = reduced_mod.box_to_free_arrays(z, z + 1.0)
        assert xlo.shape == ylo.shape == (4, n - 1)
        assert np.all(ylo[:, -1] == 0.0) and np.all(yhi[:, -1] == 0.0)
        assert xlo[:, 0].tolist() == z[:, 0].tolist() and ylo[:, 0].tolist() == z[:, 1].tolist()
        assert xlo[:, -1].tolist() == z[:, -1].tolist()
        assert reduced_mod.free_to_box(xlo, ylo).tolist() == z.tolist()
        assert reduced_mod.free_to_box(xhi, yhi).tolist() == (z + 1.0).tolist()

    def test_gauge_validity_collinear(self):
        rb = box_from_point([-D3, 0.0, D3], 1e-6)
        assert gauge_validity(*rb.arrays())

    def test_gauge_validity_equilateral(self):
        rb = box_from_point([-0.2886751346, -0.5, 0.5773502692], 1e-6)
        assert gauge_validity(*rb.arrays())

    def test_gauge_violation_synthetic(self):
        # derived body shares the pinned body's x enclosure
        rb = box_from_point([-1.0, 1.0, 0.5], 0.0)
        # derived x = -(x0 + x1)/1 with equal masses: -(-1.0 + 0.5) = 0.5
        assert not gauge_validity(*rb.arrays())

    def test_dimension_check(self):
        for d in (0, 2, 4):
            with pytest.raises(ValueError, match="dimension"):
                ReducedBox.from_arrays(np.zeros(d), np.zeros(d))


class TestBoxChecks:
    """`ReducedBox.from_arrays` refuses what no box is, and no caller can
    change a box through the arrays it handed in or got back."""

    def test_nan_rejected(self):
        for k in range(2):
            bounds = [np.zeros(3), np.ones(3)]
            bounds[k][1] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                ReducedBox.from_arrays(*bounds)

    def test_lo_above_hi_rejected(self):
        with pytest.raises(ValueError, match="lo > hi"):
            ReducedBox.from_arrays(np.array([0.0, 2.0, 0.0]), np.array([1.0, 1.0, 1.0]))

    def test_shapes_rejected(self):
        for lo, hi in (
            (np.zeros(3), np.ones(5)),
            (np.zeros((1, 3)), np.ones((1, 3))),
            (np.float64(0.0), np.float64(1.0)),
        ):
            with pytest.raises(ValueError, match="1-D"):
                ReducedBox.from_arrays(lo, hi)

    def test_arrays_are_copies(self):
        lo, hi = np.zeros(3), np.ones(3)
        rb = ReducedBox.from_arrays(lo, hi)
        lo[0], hi[0] = -5.0, 5.0
        got_lo, got_hi = rb.arrays()
        got_lo[1], got_hi[1] = -7.0, 7.0
        thawed = pickle.loads(pickle.dumps(rb))
        thawed.arrays()[0][2] = -9.0
        for box in (rb, thawed):
            assert [a.tolist() for a in box.arrays()] == [[0.0] * 3, [1.0] * 3]


# ---------------------------------------------------------------------------
# independent oracle: the residual and the Jacobian written out here and
# evaluated in mpmath interval arithmetic at 50 digits


def _mp_residual_and_jacobian(z, n):
    """Exact-point enclosures of the reduced residual (d,) and Jacobian (d, d)
    for equal masses 1/n, from F_i = q_i - sum_j m_j (q_i - q_j) / r_ij^3."""
    iv = mpmath.iv
    L = n - 1
    m = iv.mpf(1) / n
    q = [[iv.mpf(z[2 * i]), iv.mpf(z[2 * i + 1])] for i in range(n - 2)]
    q.append([iv.mpf(z[-1]), iv.mpf(0)])
    q.append([-sum(p[0] for p in q), -sum(p[1] for p in q)])  # centre of mass at 0
    F = []
    G = {}  # d(d_ij / r^3) / d(d_ij) = I / r^3 - 3 d d^T / r^5
    for i in range(n):
        acc = [iv.mpf(0), iv.mpf(0)]
        for j in range(n):
            if i == j:
                continue
            d = [q[i][0] - q[j][0], q[i][1] - q[j][1]]
            r2 = d[0] ** 2 + d[1] ** 2
            r3 = r2 * iv.sqrt(r2)
            r5 = r3 * r2
            acc = [acc[0] + m * d[0] / r3, acc[1] + m * d[1] / r3]
            G[i, j] = [[(u == v) / r3 - 3 * d[u] * d[v] / r5 for v in (0, 1)] for u in (0, 1)]
        F.append([q[i][0] - acc[0], q[i][1] - acc[1]])
    # dq_L/dq_k = -(m_k/m_L) I, so d(d_ij)/dq_k = (delta_ik - delta_jk + delta_jL) I for i < L
    layout = [(i, ax) for i in range(n - 2) for ax in (0, 1)] + [(n - 2, 0)]
    res = [F[i][ax] for i, ax in layout]
    jac = []
    for i, u in layout:
        row = []
        for k, v in layout:
            e = iv.mpf(int(i == k and u == v))
            for j in range(n):
                if j != i:
                    c = int(i == k) - int(j == k) + int(j == L)
                    if c:
                        e -= c * m * G[i, j][u][v]
            row.append(e)
        jac.append(row)
    return res, jac


class TestMpmathOracle:
    @pytest.mark.parametrize("n", [4, 5])
    def test_enclosures_contain_exact_values(self, n):
        rng = np.random.default_rng(900 + n)
        rctx = reduced_mod.reduced_ctx(Masses.equal(n))
        d = rctx.d
        saved = mpmath.iv.dps
        mpmath.iv.dps = 50
        try:
            boxes = 0
            while boxes < 6:
                z = rng.uniform(-1.3, 1.3, d)
                if not _well_separated(z, n):
                    continue
                w = 10.0 ** rng.uniform(-12, -2, d)
                zlo, zhi = z - w, z + w
                Flo, Fhi, ok = reduced_mod.residual_masked(rctx, zlo[None], zhi[None])
                Jlo, Jhi, okj = reduced_mod.jacobian_masked(rctx, zlo[None], zhi[None])
                assert ok[0] and okj[0]
                boxes += 1
                corners = np.where(rng.random((6, d)) < 0.5, zlo, zhi)
                inside = zlo + rng.random((4, d)) * (zhi - zlo)
                for p in np.concatenate([corners, inside, [z]]):
                    p = np.clip(p, zlo, zhi)
                    res, jac = _mp_residual_and_jacobian(p.tolist(), n)
                    for r in range(d):
                        assert Flo[0, r] <= res[r].a and res[r].b <= Fhi[0, r], (n, r, p)
                        for c in range(d):
                            v = jac[r][c]
                            assert Jlo[0, r, c] <= v.a and v.b <= Jhi[0, r, c], (n, r, c, p)
        finally:
            mpmath.iv.dps = saved

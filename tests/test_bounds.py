"""A priori bound computation and the box violation checks."""

import math

import mpmath
import numpy as np
import pytest

from ccenum import exclusion, model
from ccenum.bounds import check_apriori_batch, compute_bounds, icbrt
from ccenum.interval import Interval, _next_up
from ccenum.model import Masses
from conftest import load_listed
from oracles import polish_listed


def excluded(b, xlo, xhi, ylo, yhi) -> bool:
    """`check_apriori_batch` on the battery frame of one box, given by its
    free-body coordinate ranges."""
    ctx = model.nbody_ctx(Masses.equal(b.n))
    fr = exclusion._BatchFrame(ctx, *(np.array([v], dtype=float) for v in (xlo, xhi, ylo, yhi)))
    return bool(check_apriori_batch(b, fr.q2lo, fr.q2hi, fr.rhi)[0])


def around(bodies, w):
    """Free-body ranges of half-width w around `bodies` (the last, derived
    body is ignored)."""
    x, y = np.array(bodies[:-1], dtype=float).T
    return x - w, x + w, y - w, y + w


class TestComputeBounds:
    def test_icbrt(self):
        v = icbrt(Interval(8.0))
        assert v.contains(2.0) and v.width < 1e-14
        v = icbrt(Interval(2.0, 27.0))
        assert v.lo <= 2 ** (1 / 3) and v.hi >= 3.0

    def test_n4_outer_radius_exactly_three(self):
        b = compute_bounds(4, Masses.equal(4))
        assert abs(b.R_max - 3.0) < 1e-12

    def test_n5_outer_radius(self):
        b = compute_bounds(5, Masses.equal(5))
        expected = (2 ** (1 / 3) + 2 ** (-2 / 3)) * 3 ** (2 / 3)
        assert abs(b.R_max - expected) < 1e-3
        assert b.R_max < 4.0

    def test_n3_equal_mass_inner_radius(self):
        b = compute_bounds(3, Masses.equal(3))
        assert abs(b.R_min - 0.550321) < 1e-6

    def test_observed_minimum_radii_consistent(self):
        # regular-polygon radii sit above the lower bound for each n
        observed = {3: 0.577350, 4: 0.620813, 5: 0.650513, 6: 0.672798}
        for n, rmin in observed.items():
            b = compute_bounds(n, Masses.equal(n))
            assert b.R_min <= rmin + 1e-6

    def test_cached_per_problem(self):
        b = compute_bounds(5, Masses.equal(5))
        assert compute_bounds(5, Masses.equal(5)) is b
        with pytest.raises(ValueError):
            b.mm_over_M_lo[0] = 0.0
        with pytest.raises(ValueError):
            compute_bounds(4, Masses.equal(5))

    def test_directional_rounding(self):
        b = compute_bounds(7, Masses.equal(7))
        iv = b.R_max_interval
        steps = 0
        x = iv.lo
        while x < iv.hi and steps <= 4:
            x = _next_up(x)
            steps += 1
        assert steps <= 4
        assert b.R_max == iv.hi


# ---------------------------------------------------------------------------
# independent oracle: mpmath interval arithmetic at 60 digits


@pytest.fixture
def iv60():
    saved = mpmath.iv.dps
    mpmath.iv.dps = 60
    try:
        yield mpmath.iv
    finally:
        mpmath.iv.dps = saved


def _ulps_inside(got: float, exact, side: str, ulps: int = 4) -> bool:
    """got lies on the given side of the enclosure `exact`, within `ulps`."""
    if side == "below":
        return got <= exact.a and got + ulps * math.ulp(got) >= exact.b
    return got >= exact.b and got - ulps * math.ulp(got) <= exact.a


class TestMpmathOracle:
    def test_icbrt(self, iv60):
        """Each end's cube, exact at 60 digits, lies on the right side of the
        input; 4 ulps further in, it lies on the wrong side."""
        rng = np.random.default_rng(2718)
        values = [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0, 4.0, 8.0, 27.0, 1e-300]
        values += [float((n - 2) ** 2) for n in range(5, 11)]
        values += [(n - 1) / (4 * n) for n in range(3, 11)]
        values += np.ldexp(rng.uniform(1.0, 2.0, 300), rng.integers(-900, 900, 300)).tolist()
        values += rng.uniform(0.0, 100.0, 300).tolist()

        # v ** (1/3) starts from a rounded 1/3, off by about |ln v| * 2e-17
        # relative, and the loops only step outward: tight near the
        # constants compute_bounds takes roots of, merely sound far away
        def tight(v):
            return 1e-2 <= v <= 1e2

        for k, v in enumerate(values):
            w = values[k - 1]
            lo, hi = min(v, w), max(v, w)
            got = icbrt(Interval(lo, hi))
            assert (iv60.mpf(got.lo) ** 3).b <= lo, lo
            assert (iv60.mpf(got.hi) ** 3).a >= hi, hi
            if tight(lo):
                assert (iv60.mpf(got.lo + 4 * math.ulp(got.lo)) ** 3).a > lo, lo
            if tight(hi):
                assert (iv60.mpf(got.hi - 4 * math.ulp(got.hi)) ** 3).b < hi, hi

    @pytest.mark.parametrize("n", range(3, 11))
    def test_compute_bounds(self, iv60, n):
        b = compute_bounds(n, Masses.equal(n))
        third = iv60.mpf(1) / 3
        if n <= 4:
            r_max = iv60.mpf(n - 1)
        else:
            c = iv60.mpf(2) ** third + 1 / iv60.mpf(4) ** third
            r_max = c * iv60.mpf((n - 2) ** 2) ** third
            assert r_max.b < n - 1  # the min with n - 1 never bites for n <= 10
        r_min = (iv60.mpf(n - 1) / (4 * n)) ** third  # above 1/2 for every n >= 3
        assert _ulps_inside(b.R_max, r_max, "above", ulps=8)
        assert _ulps_inside(b.R_min, r_min, "below", ulps=8)
        assert b.R_max_sq >= (r_max * r_max).b
        assert b.R_min_sq <= (r_min * r_min).a
        assert b.dist_one == 1.0
        assert all(v <= (iv60.mpf(1) / n**2).a for v in b.mm_over_M_lo)


class TestCheckApriori:
    def test_all_inside_inner_radius(self):
        b = compute_bounds(3, Masses.equal(3))
        assert excluded(b, [0.1, 0.3], [0.1, 0.3], [0.0, 0.0], [0.0, 0.0])

    def test_body_outside_outer_radius(self):
        b = compute_bounds(5, Masses.equal(5))
        y = [0.0, 0.5, -0.5, 0.0]
        assert excluded(b, [4.5, -1.0, 0.5, 0.7], [4.6, -1.0, 0.5, 0.7], y, y)

    def test_true_cc_possible(self):
        b = compute_bounds(3, Masses.equal(3))
        r3 = 1 / math.sqrt(3)
        assert not excluded(b, *around([(-r3 / 2, -0.5), (r3, 0.0), (-r3 / 2, 0.5)], 1e-3))

    def test_listed_ccs_possible(self):
        for n in (3, 4, 5, 6, 7):
            b = compute_bounds(n, Masses.equal(n))
            for pts in load_listed(n):
                _, bodies = polish_listed(pts)
                assert not excluded(b, *around(bodies, 1e-3)), (n, pts)

"""Kernel range bounds: worked examples, the dense-grid oracle, the
tightness guarantees against the naive evaluation, the dense 24-slot
reference for the compacted evaluation, an mpmath containment oracle, and
the shared pair path against one call per kernel."""

import warnings

import mpmath
import numpy as np
import pytest

from ccenum import boxops as bx
from ccenum import kernels
from ccenum.interval import Interval
from ccenum.kernels import (
    SingularBox,
    _r_pow,
    _slope,
    bound_kernel_batch,
    bound_pair_kernels,
)
from ccenum.model import ACCEL_KINDS, Masses, pair_disp_arrays
from ccenum.reduced import JAC_KINDS, box_to_free_arrays, reduced_ctx
from oracles import kernel_grid_range


def bound_one(xlo, xhi, ylo, yhi, a, b):
    """`bound_kernel_batch` on a 1-row batch, as floats."""
    lo, hi = bound_kernel_batch(*(np.array([float(v)]) for v in (xlo, xhi, ylo, yhi)), a, b)
    return float(lo[0]), float(hi[0])


class TestExamples:
    def test_point_evaluation(self):
        lo, hi = bound_one(1, 1, 0, 0, 1, 3)
        assert lo <= 1.0 <= hi and hi - lo < 1e-12

    def test_monotone_edge(self):
        lo, hi = bound_one(3, 4, 0, 0, 1, 3)
        assert lo <= 1 / 16 and 1 / 9 <= hi
        assert lo >= 1 / 16 - 1e-12 and hi <= 1 / 9 + 1e-12

    def test_square_box(self):
        lo, hi = bound_one(1, 2, 1, 2, 1, 3)
        glo, ghi = kernel_grid_range(1, 2, 1, 2, 1, 3, grid=2000)
        assert lo <= glo and ghi <= hi
        assert abs(lo - glo) < 1e-3 and abs(hi - ghi) < 1e-3
        # extrema at the corners (1,1) and (2,2)
        assert abs(hi - 1 / (2 * np.sqrt(2))) < 1e-6
        assert abs(lo - 2 / (8 * np.sqrt(8))) < 1e-6

    def test_singular_box_rejected(self):
        with pytest.raises(SingularBox):
            bound_one(-1, 1, -1, 1, 1, 3)

    @pytest.mark.parametrize("a", [0, 3])
    def test_numerator_exponent_outside_one_two_rejected(self, a):
        """Only x and x^2 are numerators; any other exponent raises, as a
        scalar or per row, on a thin (point) row and on a wide one, rather
        than bound another kernel."""
        with pytest.raises(ValueError):
            bound_one(2, 2, 1, 1, a, 3)
        with pytest.raises(ValueError):
            bound_one(1, 2, 1, 2, a, 5)
        box = [np.array([v, v]) for v in (1.0, 2.0, 1.0, 2.0)]
        s = _slope(1, 3)
        slopes = (np.full(2, s.lo), np.full(2, s.hi))
        with pytest.raises(ValueError):
            bound_kernel_batch(*box, np.array([1, a]), np.array([3, 3]), *slopes)

    def test_axis_swap(self):
        """The "Y" kernel of (dx, dy) is the "X" kernel of (dy, dx)."""
        box = [np.array([v]) for v in (1.0, 2.0, 3.0, 4.0)]
        lo, hi = bound_pair_kernels(*box, ((1, 3, "X"), (1, 3, "Y")))
        assert (lo[0, 0], hi[0, 0]) == bound_one(1, 2, 3, 4, 1, 3)
        assert (lo[1, 0], hi[1, 0]) == bound_one(3, 4, 1, 2, 1, 3)


class TestOracleContainment:
    def test_grid_oracle_and_naive(self):
        rng = np.random.default_rng(2024)
        cases = 0
        while cases < 1000:
            a = int(rng.choice([1, 2]))
            b = int(rng.choice([2, 3, 5]))
            if not a < b:
                continue
            cx = rng.uniform(-3, 3)
            cy = rng.uniform(-3, 3)
            wx = rng.uniform(0.01, 2.0)
            wy = rng.uniform(0.01, 2.0)
            xlo, xhi = cx - wx, cx + wx
            ylo, yhi = cy - wy, cy + wy
            if xlo <= 0 <= xhi and ylo <= 0 <= yhi:
                continue
            cases += 1
            lo, hi = bound_kernel_batch(
                np.array([xlo]), np.array([xhi]), np.array([ylo]), np.array([yhi]), a, b
            )
            glo, ghi = kernel_grid_range(xlo, xhi, ylo, yhi, a, b, grid=64)
            assert lo[0] <= glo and ghi <= hi[0], (a, b, xlo, xhi, ylo, yhi)
            # contained in the naive evaluation
            x = Interval(xlo, xhi)
            y = Interval(ylo, yhi)
            r2 = x.sqr() + y.sqr()
            rb = r2.pow_int(b).sqrt() if b % 2 else r2.pow_int(b // 2)
            naive = x.pow_int(a) / rb
            assert naive.lo <= lo[0] + 1e-14 * max(1.0, abs(naive.lo))
            assert hi[0] <= naive.hi + 1e-14 * max(1.0, abs(naive.hi))
            assert hi[0] - lo[0] <= naive.width * (1 + 1e-12) + 1e-300

    def test_critical_line_candidates_complete(self):
        # [1,2]x[1,2] straddles y = x*sqrt(2); extremes happen to sit at
        # corners there, so also exercise a box whose edge maximum lies on
        # the critical line strictly inside an edge
        lo, hi = bound_kernel_batch(
            np.array([1.0]), np.array([2.0]), np.array([1.0]), np.array([2.0]), 1, 3
        )
        glo, ghi = kernel_grid_range(1.0, 2.0, 1.0, 2.0, 1, 3, grid=800)
        assert lo[0] <= glo and ghi <= hi[0]

        lo2, hi2 = bound_kernel_batch(
            np.array([1.0]), np.array([2.0]), np.array([2.0]), np.array([2.5]), 1, 3
        )
        corner_vals = [x / np.hypot(x, y) ** 3 for x in (1.0, 2.0) for y in (2.0, 2.5)]
        glo2, ghi2 = kernel_grid_range(1.0, 2.0, 2.0, 2.5, 1, 3, grid=800)
        assert lo2[0] <= glo2 and ghi2 <= hi2[0]
        # the edge maximum on y=2 sits at x = 2/sqrt(2); corners alone miss it
        assert ghi2 > max(corner_vals) + 1e-4
        assert hi2[0] >= ghi2


class TestBatchDegenerate:
    def test_degenerate_fast_path(self):
        lo, hi = bound_kernel_batch(
            np.array([1.0, 2.0]),
            np.array([1.0, 2.0]),
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            1,
            3,
        )
        assert lo[0] <= 1.0 <= hi[0]
        v = 2.0 / np.hypot(2.0, 1.0) ** 3
        assert lo[1] <= v <= hi[1]


# ---------------------------------------------------------------------------
# dense 24-slot reference: every candidate is evaluated, invalid slots are
# parked on the (dxlo, dylo) corner and masked out afterwards


def _dense_pow(xlo, xhi, a):
    sqlo, sqhi = bx.isqr(xlo, xhi)
    return np.where(a == 1, xlo, sqlo), np.where(a == 1, xhi, sqhi)


def _dense_r_pow(r2lo, r2hi, b):
    rlo, rhi = bx.isqrt(r2lo, r2hi)
    r3lo, r3hi = bx.imul(r2lo, r2hi, rlo, rhi)
    r4lo, r4hi = bx.imul(r2lo, r2hi, r2lo, r2hi)
    r5lo, r5hi = bx.imul(r4lo, r4hi, rlo, rhi)
    lo = np.where(b == 2, r2lo, np.where(b == 3, r3lo, r5lo))
    hi = np.where(b == 2, r2hi, np.where(b == 3, r3hi, r5hi))
    return lo, hi


def _dense_at(cxlo, cxhi, cylo, cyhi, a, b):
    tlo, thi = _dense_pow(cxlo, cxhi, a)
    x2lo, x2hi = bx.isqr(cxlo, cxhi)
    y2lo, y2hi = bx.isqr(cylo, cyhi)
    r2lo, r2hi = bx.iadd(x2lo, x2hi, y2lo, y2hi)
    rblo, rbhi = _dense_r_pow(r2lo, r2hi, b)
    return bx.idiv_pos(tlo, thi, rblo, rbhi)


def dense_reference(dxlo, dxhi, dylo, dyhi, a, b, slope_lo, slope_hi):
    """The kernel bound with all 24 candidate slots evaluated; a, b, slopes per row."""
    if np.all(dxlo == dxhi) and np.all(dylo == dyhi):
        return _dense_at(dxlo, dxhi, dylo, dyhi, a, b)
    zeros = np.zeros_like(dxlo)
    cols = []
    for xe in (dxlo, dxhi):
        for ye in (dylo, dyhi):
            cols.append(((xe, xe), (ye, ye)))
    cols += [((zeros, zeros), (dylo, dylo)), ((zeros, zeros), (dyhi, dyhi))]
    cols += [((dxlo, dxlo), (zeros, zeros)), ((dxhi, dxhi), (zeros, zeros))]
    for c in (dylo, dyhi):
        q1 = bx.idiv_pos(c, c, slope_lo, slope_hi)
        q2 = bx.imul(c, c, slope_lo, slope_hi)
        for q in (q1, q2, (-q1[1], -q1[0]), (-q2[1], -q2[0])):
            cols.append((q, (c, c)))
    for c in (dxlo, dxhi):
        q1 = bx.imul(c, c, slope_lo, slope_hi)
        q2 = bx.idiv_pos(c, c, slope_lo, slope_hi)
        for q in (q1, q2, (-q1[1], -q1[0]), (-q2[1], -q2[0])):
            cols.append(((c, c), q))
    cxlo = np.maximum(np.stack([c[0][0] for c in cols], axis=1), dxlo[:, None])
    cxhi = np.minimum(np.stack([c[0][1] for c in cols], axis=1), dxhi[:, None])
    cylo = np.maximum(np.stack([c[1][0] for c in cols], axis=1), dylo[:, None])
    cyhi = np.minimum(np.stack([c[1][1] for c in cols], axis=1), dyhi[:, None])
    valid = (cxlo <= cxhi) & (cylo <= cyhi)
    vlo, vhi = _dense_at(
        np.where(valid, cxlo, dxlo[:, None]),
        np.where(valid, cxhi, dxlo[:, None]),
        np.where(valid, cylo, dylo[:, None]),
        np.where(valid, cyhi, dylo[:, None]),
        a[:, None],
        b[:, None],
    )
    lo = np.min(np.where(valid, vlo, np.inf), axis=1)
    hi = np.max(np.where(valid, vhi, -np.inf), axis=1)
    nlo, nhi = _dense_at(dxlo, dxhi, dylo, dyhi, a, b)
    return np.maximum(lo, nlo), np.minimum(hi, nhi)


def _random_boxes(rng, count):
    """Boxes away from the origin with widths from 1e-12 to 1e3, some sides
    on an axis, some of zero width, and some point boxes."""
    cx = rng.uniform(-3, 3, count)
    cy = rng.uniform(-3, 3, count)
    wx = 10.0 ** rng.uniform(-12, 3, count)
    wy = 10.0 ** rng.uniform(-12, 3, count)
    wx[rng.random(count) < 0.05] = 0.0
    wy[rng.random(count) < 0.05] = 0.0
    point = rng.random(count) < 0.02
    wx[point] = wy[point] = 0.0
    xlo, xhi, ylo, yhi = cx - wx, cx + wx, cy - wy, cy + wy
    # some edges exactly on an axis
    on = rng.random(count) < 0.05
    xlo[on & (cx > 0)] = 0.0
    xhi[on & (cx < 0)] = 0.0
    on = rng.random(count) < 0.05
    ylo[on & (cy > 0)] = 0.0
    yhi[on & (cy < 0)] = 0.0
    keep = ~((xlo <= 0) & (xhi >= 0) & (ylo <= 0) & (yhi >= 0))
    return xlo[keep], xhi[keep], ylo[keep], yhi[keep]


def _special_boxes(a, b):
    """Hand-picked rows: edges on an axis, zero-width sides, point boxes,
    widths 1e-12 and 1e3, and a critical line through a corner."""
    s = float(np.sqrt((b - a) / a))
    rows = [
        (0.0, 1.0, 1.0, 2.0),  # left edge on x = 0
        (-1.0, 1.0, 0.5, 0.5),  # zero-height side crossing x = 0
        (1.0, 1.0, -2.0, 3.0),  # zero-width side crossing y = 0
        (1.5, 1.5, 0.25, 0.25),  # point box
        (2.0, 2.0 + 1e-12, 1.0, 1.0 + 1e-12),
        (-1e3, 1e3, 1.0, 1e3),
        (1.0, 2.0, s, 3.0),  # y = s*x passes through the corner (1, s)
        (s, 3.0, 1.0, 2.0),  # x = s*y passes through the corner (s, 1)
        (-2.0, -1.0, -3.0, -s),  # the same line through (-1, -s)
        (1.0, 2.0, 1.0 / s, 4.0),  # y = x/s through (1, 1/s)
    ]
    return tuple(np.array(col) for col in zip(*rows))


def _thin(xlo, xhi, ylo, yhi):
    r2lo = bx.iadd(*bx.isqr(xlo, xhi), *bx.isqr(ylo, yhi))[0]
    return kernels._thin_rows(xlo, xhi, ylo, yhi, r2lo)


def _assert_dense_or_naive(out, xlo, xhi, ylo, yhi, a, b, slo, shi):
    """Thin rows carry `_naive`, every other row the dense reference, bit for bit."""
    ref = dense_reference(xlo, xhi, ylo, yhi, a, b, slo, shi)
    naive = kernels._naive(xlo, xhi, ylo, yhi, a, b)
    thin = _thin(xlo, xhi, ylo, yhi)
    for o, r, v in zip(out, ref, naive):
        assert np.array_equal(o[~thin], r[~thin]) and np.array_equal(o[thin], v[thin])
    return thin


def _check_against_dense(xlo, xhi, ylo, yhi, a, b, per_row=False):
    s = _slope(a, b)
    k = len(xlo)
    av, bv = np.full(k, a), np.full(k, b)
    slo, shi = np.full(k, s.lo), np.full(k, s.hi)
    out = (
        bound_kernel_batch(xlo, xhi, ylo, yhi, av, bv, slo, shi)
        if per_row
        else bound_kernel_batch(xlo, xhi, ylo, yhi, a, b)
    )
    return _assert_dense_or_naive(out, xlo, xhi, ylo, yhi, av, bv, slo, shi)


class TestCompactionMatchesDense:
    @pytest.mark.parametrize("a,b", [(1, 3), (1, 2), (2, 5)])
    def test_seeded_batch(self, a, b):
        rng = np.random.default_rng(100 * a + b)
        boxes = _random_boxes(rng, 24000)
        assert len(boxes[0]) >= 20000
        thin = _check_against_dense(*boxes, a, b)
        assert 0.02 < thin.mean() < 0.2  # both rules are exercised
        _check_against_dense(*boxes, a, b, per_row=True)

    @pytest.mark.parametrize("a,b", [(1, 3), (1, 2), (2, 5)])
    def test_special_boxes(self, a, b):
        boxes = _special_boxes(a, b)
        _check_against_dense(*boxes, a, b)
        for i in range(len(boxes[0])):  # one row at a time: thin rows alone
            _check_against_dense(*(c[i : i + 1] for c in boxes), a, b)

    def test_per_row_layout_of_the_reduced_jacobian(self):
        rctx = reduced_ctx(Masses.equal(5))
        rng = np.random.default_rng(7)
        k = 600
        P = rctx.m.P
        xlo, xhi, ylo, yhi = (c[: k * 4 * P] for c in _random_boxes(rng, 5 * k * 4 * P))
        assert len(xlo) == k * 4 * P
        # the four (a, b) Jacobian kernels as one stacked per-row batch
        a, b, _ = zip(*JAC_KINDS[:4])
        slopes = [_slope(ai, bi) for ai, bi in zip(a, b)]
        a = np.tile(np.repeat(a, P), k)
        b = np.tile(np.repeat(b, P), k)
        slo = np.tile(np.repeat([s.lo for s in slopes], P), k)
        shi = np.tile(np.repeat([s.hi for s in slopes], P), k)
        out = bound_kernel_batch(xlo, xhi, ylo, yhi, a, b, slo, shi)
        _assert_dense_or_naive(out, xlo, xhi, ylo, yhi, a, b, slo, shi)

    def test_singular_box_raises_before_any_float_warning(self):
        # underflow stays quiet: the outward step of boxops from 0.0 is the
        # subnormal -5e-324, which numpy flags as underflow in every box that
        # touches an axis, singular or not
        xlo = np.array([1.0, 0.0, -1.0])
        xhi = np.array([2.0, 1.0, 1.0])
        ylo = np.array([1.0, 0.0, 0.0])
        yhi = np.array([2.0, 1.0, 0.0])
        for rows in (slice(1, 2), slice(0, 2), slice(2, 3), slice(0, 3)):
            with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
                warnings.simplefilter("error")
                with pytest.raises(SingularBox):
                    bound_kernel_batch(xlo[rows], xhi[rows], ylo[rows], yhi[rows], 1, 3)


# ---------------------------------------------------------------------------
# independent oracle: mpmath interval arithmetic at 50 digits, evaluation
# points computed in mpmath


def _mp_points(xlo, xhi, ylo, yhi, a, b, rng):
    """Corners, axis crossings, critical-line crossings and 16 random points."""
    mp = mpmath.mp
    X = (mp.mpf(xlo), mp.mpf(xhi))
    Y = (mp.mpf(ylo), mp.mpf(yhi))
    pts = [(x, y) for x in X for y in Y]
    if X[0] <= 0 <= X[1]:
        pts += [(mp.mpf(0), y) for y in Y]
    if Y[0] <= 0 <= Y[1]:
        pts += [(x, mp.mpf(0)) for x in X]
    s = mp.sqrt(mp.mpf(b - a) / a)
    for m in (s, -s, 1 / s, -1 / s):
        pts += [(y / m, y) for y in Y if X[0] <= y / m <= X[1]]
        pts += [(x, m * x) for x in X if Y[0] <= m * x <= Y[1]]
    for _ in range(16):
        pts.append((mp.mpf(rng.uniform(xlo, xhi)), mp.mpf(rng.uniform(ylo, yhi))))
    return pts


def _iv_kernel(x, y, a, b):
    iv = mpmath.iv
    x, y = iv.mpf(x), iv.mpf(y)
    return x**a / iv.sqrt(x * x + y * y) ** b


class TestMpmathOracle:
    def test_enclosure_contains_exact_values(self):
        rng = np.random.default_rng(31415)
        boxes = []
        for a, b in ((1, 3), (1, 2), (2, 5)):
            xs = [np.concatenate(p) for p in zip(_random_boxes(rng, 60), _special_boxes(a, b))]
            boxes += [(a, b, *row) for row in zip(*xs)]
        saved = mpmath.iv.dps
        mpmath.iv.dps = 50
        try:
            with mpmath.workdps(50):
                for a, b, xlo, xhi, ylo, yhi in boxes:
                    lo, hi = bound_kernel_batch(
                        np.array([xlo]), np.array([xhi]), np.array([ylo]), np.array([yhi]), a, b
                    )
                    for x, y in _mp_points(xlo, xhi, ylo, yhi, a, b, rng):
                        v = _iv_kernel(x, y, a, b)
                        assert lo[0] <= v.a and v.b <= hi[0], (a, b, xlo, xhi, ylo, yhi, x, y)
        finally:
            mpmath.iv.dps = saved


# ---------------------------------------------------------------------------
# the shared pair path against one bound_kernel_batch call per kernel


def _per_kernel(xlo, xhi, ylo, yhi, a, b, axis):
    """The reference for one kind: bound_kernel_batch, or 1/r^b for a = 0."""
    if axis == "Y":
        xlo, xhi, ylo, yhi = ylo, yhi, xlo, xhi
    if a > 0:
        return bound_kernel_batch(xlo, xhi, ylo, yhi, a, b)
    r2 = bx.iadd(*bx.isqr(xlo, xhi), *bx.isqr(ylo, yhi))
    return bx.irecip_pos(*_r_pow(*r2, b))


def _check_pair(boxes, kinds):
    # huge sides give inf/inf = NaN on both paths
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lo, hi = bound_pair_kernels(*boxes, kinds)
        assert lo.shape == hi.shape == (len(kinds), len(boxes[0]))
        for k, kind in enumerate(kinds):
            rlo, rhi = _per_kernel(*boxes, *kind)
            assert np.array_equal(lo[k], rlo, equal_nan=True), kind
            assert np.array_equal(hi[k], rhi, equal_nan=True), kind


def _nudged(v, ulps):
    for _ in range(abs(ulps)):
        v = np.nextafter(v, np.inf if ulps > 0 else 0.0)
    return v


def _critical_rows():
    """Boxes with a critical line y = +-m x, m in {s, 1/s}, through a corner or
    up to 3 ulps either side of it, in all four quadrants, for all three
    slopes.  Random corners make some of the near misses round onto the box."""
    rng = np.random.default_rng(77)
    rows = []
    for a, b in ((1, 3), (1, 2), (2, 5)):
        s = float(np.sqrt((b - a) / a))
        for m in (s, 1.0 / s):
            for x0 in rng.uniform(0.5, 4.0, 60):
                y0 = m * x0
                for y in (_nudged(y0, k) for k in range(-3, 4)):
                    # the line leaves through the lower-right or the upper-left corner
                    rows += [(x0 / 2, x0, y, 2 * y), (x0, 2 * x0, y / 2, y)]
                # a zero-width side on the line
                rows += [(x0, x0, y0, 2 * y0), (x0 / 2, x0, y0, y0)]
    xlo, xhi, ylo, yhi = (np.array(col) for col in zip(*rows))
    quadrants = [(xlo, xhi), (-xhi, -xlo)], [(ylo, yhi), (-yhi, -ylo)]
    out = [(*x, *y) for x in quadrants[0] for y in quadrants[1]]
    return tuple(np.concatenate(col) for col in zip(*out))


def _edge_case_rows():
    """+-0.0 edges, zero-width sides and subnormal or huge magnitudes."""
    rows = [
        (0.0, 1.0, 1.0, 2.0),
        (-0.0, 1.0, 1.0, 2.0),
        (-1.0, -0.0, 1.0, 2.0),
        (-1.0, 0.0, -2.0, -1.0),
        (1.0, 2.0, -0.0, 0.5),
        (1.0, 2.0, -0.5, -0.0),
        (-0.0, -0.0, 1.0, 2.0),
        (1.0, 2.0, 0.0, 0.0),
        (1.5, 1.5, 0.25, 3.0),
        (0.25, 3.0, 1.5, 1.5),
        (1.5, 1.5, 0.25, 0.25),
        (1e-310, 2e-310, 0.5, 3.0),
        (1e-310, 1.0, 1.0, 2.0),
        (1.0, 2.0, -3e-310, -1e-310),
        (1e-151, 1e-150, 1e-151, 1e-150),
        (1e200, 2e200, 1e200, 3e200),
        (1.0, 1e200, 1.0, 2.0),
        (-2e200, -1e200, 1.0, 1.0),
        (1e-310, 1e-310, 1e200, 1e200),
    ]
    return tuple(np.array(col) for col in zip(*rows))


class TestPairKernelsMatchPerKernel:
    @pytest.mark.parametrize("kinds", [ACCEL_KINDS, JAC_KINDS], ids=["accel", "jacobian"])
    def test_random_boxes(self, kinds):
        rng = np.random.default_rng(4242)
        boxes = _random_boxes(rng, 24000)
        plain = kernels._plain_rows(*boxes, tuple(k for k in kinds if k[0]))
        assert 0.2 < plain.mean() < 0.8  # both paths are exercised
        # the edge candidates take several slices of EDGE_ROWS rows, the last one partial
        edge_rows = np.count_nonzero(~plain & ~_thin(*boxes))
        assert edge_rows > 2 * kernels.EDGE_ROWS and edge_rows % kernels.EDGE_ROWS
        _check_pair(boxes, kinds)
        for i in range(0, 40):  # single rows, where bound_kernel_batch may short-circuit
            _check_pair(tuple(c[i : i + 1] for c in boxes), kinds)

    @pytest.mark.parametrize(
        "kinds",
        [ACCEL_KINDS, JAC_KINDS, ((1, 2, "X"), (1, 2, "Y"))],
        ids=["accel", "jacobian", "12"],
    )
    def test_hand_made_rows(self, kinds):
        _check_pair(_critical_rows(), kinds)
        boxes = _edge_case_rows()
        _check_pair(boxes, kinds)
        for i in range(len(boxes[0])):
            _check_pair(tuple(c[i : i + 1] for c in boxes), kinds)

    def test_reduced_jacobian_layout_n5(self):
        rctx = reduced_ctx(Masses.equal(5))
        rng = np.random.default_rng(55)
        z = rng.uniform(-1.3, 1.3, (3000, rctx.d))
        w = 10.0 ** rng.uniform(-12, -1, (3000, 1))
        xlo, xhi, ylo, yhi = box_to_free_arrays(z - w, z + w)
        d = [c.reshape(-1) for c in pair_disp_arrays(rctx.m, xlo, xhi, ylo, yhi)]
        ok = bx.iadd(*bx.isqr(d[0], d[1]), *bx.isqr(d[2], d[3]))[0] > 0.0
        _check_pair(tuple(c[ok] for c in d), JAC_KINDS)

    @pytest.mark.parametrize("kinds", [ACCEL_KINDS, JAC_KINDS], ids=["accel", "jacobian"])
    def test_singular_box_raises_before_any_float_warning(self, kinds):
        xlo = np.array([1.0, 0.0, -1.0])
        xhi = np.array([2.0, 1.0, 1.0])
        ylo = np.array([1.0, 0.0, 0.0])
        yhi = np.array([2.0, 1.0, 0.0])
        for rows in (slice(1, 2), slice(0, 2), slice(2, 3), slice(0, 3)):
            with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
                warnings.simplefilter("error")
                with pytest.raises(SingularBox):
                    bound_pair_kernels(xlo[rows], xhi[rows], ylo[rows], yhi[rows], kinds)
        # r^2 underflows to 0 on a subnormal box: singular on both paths
        tiny = (np.array([1e-310]), np.array([2e-310]), np.array([1e-310]), np.array([3e-310]))
        with pytest.raises(SingularBox):
            bound_pair_kernels(*tiny, kinds)
        with pytest.raises(SingularBox):
            bound_kernel_batch(*tiny, 1, 3)


# ---------------------------------------------------------------------------
# thin rows keep the naive enclosure


def _thin_sample(rng, count):
    """Boxes with sides up to THIN/2 * r wide: a third straddle y = 0 or x = 0,
    as the pair boxes of a symmetric configuration do, a sixth sit on a
    critical line and some are points."""
    cx = rng.uniform(-3, 3, count)
    cy = rng.uniform(-3, 3, count)
    third = count // 3
    cy[:third:2] = 0.0
    cx[1:third:2] = 0.0
    s = float(np.sqrt(2.0))  # y = sqrt(2) x, the critical line of x / r^3
    cy[third : third + count // 6] = s * cx[third : third + count // 6]
    r = np.hypot(cx, cy)
    keep = r > 0.05
    cx, cy, r = cx[keep], cy[keep], r[keep]
    wx = 0.25 * kernels.THIN * r * 10.0 ** rng.uniform(-6, 0, len(r))
    wy = 0.25 * kernels.THIN * r * 10.0 ** rng.uniform(-6, 0, len(r))
    point = rng.random(len(r)) < 0.05
    wx[point] = wy[point] = 0.0
    boxes = cx - wx, cx + wx, cy - wy, cy + wy
    assert _thin(*boxes).all()
    return boxes


def _naive_kind(xlo, xhi, ylo, yhi, a, b, axis):
    if axis == "Y":
        xlo, xhi, ylo, yhi = ylo, yhi, xlo, xhi
    return kernels._naive(xlo, xhi, ylo, yhi, a, b)


class TestThinRows:
    def test_naive_bit_for_bit(self):
        boxes = _thin_sample(np.random.default_rng(2718), 3000)
        kinds = tuple(k for k in JAC_KINDS + ACCEL_KINDS if k[0])
        # most rows would run the edge candidates without the thin rule
        assert (~kernels._plain_rows(*boxes, kinds)).mean() > 0.3
        for a, b in ((1, 3), (1, 2), (2, 5)):
            lo, hi = bound_kernel_batch(*boxes, a, b)
            nlo, nhi = kernels._naive(*boxes, a, b)
            assert np.array_equal(lo, nlo) and np.array_equal(hi, nhi), (a, b)
        lo, hi = bound_pair_kernels(*boxes, kinds)
        for k, kind in enumerate(kinds):
            nlo, nhi = _naive_kind(*boxes, *kind)
            assert np.array_equal(lo[k], nlo) and np.array_equal(hi[k], nhi), kind

    def test_enclosure_contains_exact_values(self):
        rng = np.random.default_rng(1618)
        boxes = _thin_sample(rng, 90)
        saved = mpmath.iv.dps
        mpmath.iv.dps = 50
        try:
            with mpmath.workdps(50):
                for a, b in ((1, 3), (1, 2), (2, 5)):
                    lo, hi = bound_kernel_batch(*boxes, a, b)
                    for i, row in enumerate(zip(*boxes)):
                        for x, y in _mp_points(*row, a, b, rng):
                            v = _iv_kernel(x, y, a, b)
                            assert lo[i] <= v.a and v.b <= hi[i], (a, b, row, x, y)
        finally:
            mpmath.iv.dps = saved

    @pytest.mark.parametrize("kinds", [ACCEL_KINDS, JAC_KINDS], ids=["accel", "jacobian"])
    def test_same_bits_alone_and_in_a_mixed_batch(self, kinds):
        """A row's bound does not depend on the rows that share its batch: a
        thin row alone takes the naive path, in a mixed batch the candidate
        path runs for the other rows."""
        rng = np.random.default_rng(1414)
        thin = _thin_sample(rng, 300)
        mixed = [np.concatenate(c) for c in zip(_random_boxes(rng, 3000), thin)]
        order = rng.permutation(len(mixed[0]))
        mixed = [c[order] for c in mixed]
        is_thin = _thin(*mixed)
        assert 0.05 < is_thin.mean() < 0.5
        lo, hi = bound_pair_kernels(*mixed, kinds)
        for i in np.flatnonzero(is_thin)[:60].tolist() + np.flatnonzero(~is_thin)[:20].tolist():
            alo, ahi = bound_pair_kernels(*(c[i : i + 1] for c in mixed), kinds)
            assert np.array_equal(alo[:, 0], lo[:, i]) and np.array_equal(ahi[:, 0], hi[:, i])
        at = np.flatnonzero(is_thin)
        tlo, thi = bound_pair_kernels(*(c[at] for c in mixed), kinds)
        assert np.array_equal(tlo, lo[:, at]) and np.array_equal(thi, hi[:, at])

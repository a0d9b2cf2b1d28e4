"""Scalar interval arithmetic: examples and containment fuzzing."""

import math

import numpy as np
import pytest

from ccenum.errors import DomainError, EmptyIntervalError, IntervalDivisionError
from ccenum.interval import Interval, IntervalMatrix, IntervalVector


class TestArith:
    def test_mul_sign_cases(self):
        assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)

    def test_div(self):
        assert Interval(1, 2) / Interval(2, 4) == Interval(0.25, 1.0)

    def test_sub_exact(self):
        assert Interval(1) - Interval(1) == Interval(0.0, 0.0)

    def test_div_by_zero_interval(self):
        with pytest.raises(IntervalDivisionError):
            Interval(1) / Interval(-1, 1)

    def test_outward_rounding_third(self):
        third = Interval(1) / Interval(3)
        assert third.width > 0
        assert third.lo < 1 / 3 < third.hi or third.contains(1 / 3)

    def test_empty_arithmetic_raises(self):
        with pytest.raises(EmptyIntervalError):
            Interval.empty() + Interval(1)


class TestElem:
    def test_sqrt(self):
        assert Interval(4, 9).sqrt() == Interval(2, 3)

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            Interval(-2, -1).sqrt()

    def test_square_even_symmetry(self):
        assert Interval(-1, 2).sqr() == Interval(0, 4)

    def test_pow_int(self):
        assert Interval(2).pow_int(3) == Interval(8, 8)
        assert Interval(-1, 2).pow_int(3) == Interval(-1, 8)

    def test_abs(self):
        assert abs(Interval(-3, 2)) == Interval(0, 3)


class TestMetrics:
    def test_mid_diam_argmax(self):
        v = IntervalVector([Interval(0, 2), Interval(0, 1)])
        assert v.mid() == [1.0, 0.5]
        assert v.diam() == [2.0, 1.0]

    def test_degenerate(self):
        v = IntervalVector([Interval(1, 1)])
        assert v.diam() == [0.0]

    def test_mid_inside(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            lo, hi = sorted(rng.uniform(-1e8, 1e8, 2))
            iv = Interval(lo, hi)
            assert iv.contains(iv.mid)


class TestMatOps:
    def test_identity_matvec(self):
        v = IntervalVector([Interval(-1, 1), Interval(2, 3)])
        out = IntervalMatrix.identity(2).matvec(v)
        for got, want in zip(out, v):
            assert got.lo <= want.lo and want.hi <= got.hi

    def test_zero_matrix(self):
        z = IntervalMatrix([[Interval(0)]])
        out = z.matvec(IntervalVector([Interval(-1, 1)]))
        assert out[0] == Interval(0, 0)

    def test_scalar_case(self):
        mat = IntervalMatrix([[Interval(1, 2)]])
        out = mat.matvec(IntervalVector([Interval(1)]))
        assert out[0].lo <= 1 and 2 <= out[0].hi

    def test_shape_error(self):
        from ccenum.errors import ShapeError

        with pytest.raises(ShapeError):
            IntervalMatrix.identity(2).matvec(IntervalVector([Interval(1)]))


def _rand_interval(rng) -> Interval:
    a, b = sorted(rng.uniform(-100, 100, 2))
    return Interval(a, b)


class TestContainmentFuzz:
    """Fundamental theorem of interval arithmetic on random samples."""

    N = 25000

    def test_arith_containment(self):
        rng = np.random.default_rng(12345)
        for _ in range(self.N):
            ia = _rand_interval(rng)
            ib = _rand_interval(rng)
            x = rng.uniform(ia.lo, ia.hi)
            y = rng.uniform(ib.lo, ib.hi)
            assert (ia + ib).contains(x + y)
            assert (ia - ib).contains(x - y)
            assert (ia * ib).contains(x * y)
            if not ib.contains_zero():
                assert (ia / ib).contains(x / y)

    def test_elem_containment(self):
        rng = np.random.default_rng(54321)
        for _ in range(self.N):
            ia = _rand_interval(rng)
            x = rng.uniform(ia.lo, ia.hi)
            assert ia.sqr().contains(x * x)
            assert ia.pow_int(3).contains(x**3)
            assert abs(ia).contains(abs(x))
            if ia.lo >= 0:
                assert ia.sqrt().contains(math.sqrt(x))

    def test_matvec_containment(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            m = 3
            rows = [[_rand_interval(rng) for _ in range(m)] for _ in range(m)]
            vec = [_rand_interval(rng) for _ in range(m)]
            A = IntervalMatrix(rows)
            v = IntervalVector(vec)
            pa = np.array([[rng.uniform(e.lo, e.hi) for e in r] for r in rows])
            pv = np.array([rng.uniform(e.lo, e.hi) for e in vec])
            exact = pa @ pv
            out = A.matvec(v)
            for k in range(m):
                assert out[k].contains(float(exact[k]))

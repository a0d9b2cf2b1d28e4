"""Scalar interval arithmetic: examples and containment fuzzing."""

import math

import numpy as np
import pytest

import oracles
from ccenum import interval as iv_mod
from ccenum.errors import DomainError, IntervalDivisionError
from ccenum.interval import Interval, IntervalMatrix


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
    def test_mid_width(self):
        assert [Interval(0, 2).mid, Interval(0, 1).mid] == [1.0, 0.5]
        assert [Interval(0, 2).width, Interval(0, 1).width] == [2.0, 1.0]

    def test_degenerate(self):
        assert Interval(1, 1).width == 0.0 and Interval(1, 1).mid == 1.0

    def test_mid_inside(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            lo, hi = sorted(rng.uniform(-1e8, 1e8, 2))
            iv = Interval(lo, hi)
            assert iv.contains(iv.mid)


class TestMatOps:
    def test_identity_matvec(self):
        v = [Interval(-1, 1), Interval(2, 3)]
        out = IntervalMatrix.identity(2).matvec(v)
        for got, want in zip(out, v):
            assert got.lo <= want.lo and want.hi <= got.hi

    def test_zero_matrix(self):
        z = IntervalMatrix([[Interval(0)]])
        out = z.matvec([Interval(-1, 1)])
        assert out[0] == Interval(0, 0)

    def test_scalar_case(self):
        mat = IntervalMatrix([[Interval(1, 2)]])
        out = mat.matvec([Interval(1)])
        assert out[0].lo <= 1 and 2 <= out[0].hi

    def test_shape_error(self):
        from ccenum.errors import ShapeError

        with pytest.raises(ShapeError):
            IntervalMatrix.identity(2).matvec([Interval(1)])


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
            if not ib.contains(0.0):
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
            pa = np.array([[rng.uniform(e.lo, e.hi) for e in r] for r in rows])
            pv = np.array([rng.uniform(e.lo, e.hi) for e in vec])
            exact = pa @ pv
            out = A.matvec(vec)
            for k in range(m):
                assert out[k].contains(float(exact[k]))


def _operand_pairs(rng) -> tuple[np.ndarray, np.ndarray]:
    """About 55k finite operand pairs: random bit patterns, everyday
    magnitudes, products and factors near the overflow, normal and
    subnormal thresholds, exact products and a grid of special values."""
    out_a, out_b = [], []

    def signed(x):
        return x * rng.choice([-1.0, 1.0], size=x.shape)

    bits = rng.integers(0, 2**63, size=(2, 16000), dtype=np.int64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, 1.0)
    out_a.append(bits[0])
    out_b.append(signed(bits[1]))

    k = 18000
    mant = rng.uniform(1.0, 2.0, size=(2, k))
    out_a.append(signed(np.ldexp(mant[0], rng.integers(-60, 61, k))))
    out_b.append(signed(np.ldexp(mant[1], rng.integers(-60, 61, k))))

    # a*b near 2**1020, the overflow threshold, 2**-969, the normal range's
    # end and the subnormal range; factors near 2**995
    targets = np.array([1018, 1019, 1020, 1021, 1023, -967, -968, -969, -970, -1022, -1050])

    def at_edges(mant_a, mant_b):
        ea = rng.integers(-1000, 1000, len(mant_a))
        eb = rng.choice(targets, len(mant_a)) - ea
        ok = (eb > -1075) & (eb < 1023)
        out_a.append(signed(np.ldexp(mant_a[ok], ea[ok])))
        out_b.append(signed(np.ldexp(mant_b[ok], eb[ok])))

    at_edges(*rng.uniform(1.0, 2.0, size=(2, k)))
    ea = rng.integers(993, 998, 2000)
    out_a.append(signed(np.ldexp(rng.uniform(1.0, 2.0, 2000), ea)))
    out_b.append(signed(np.ldexp(rng.uniform(1.0, 2.0, 2000), rng.integers(-1000, 30, 2000))))
    # long mantissas 1 + j*2**-52, whose products round by a tiny error
    at_edges(*(1.0 + rng.integers(1, 1000, size=(2, 4000)) * 2.0**-52))

    # exact products: integers times powers of two
    m = 6000
    ints = rng.integers(1, 2**26, size=(2, m)).astype(float)
    out_a.append(signed(np.ldexp(ints[0], rng.integers(-500, 500, m))))
    out_b.append(signed(np.ldexp(ints[1], rng.integers(-500, 500, m))))

    specials = [
        0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 2.225073858507201e-308,
        2.0**-969, 2.0**-500, 1e-16, 0.1, 1.0 / 3.0, 1.0, 3.0, 2.0**27 + 1.0,
        2.0**995, 2.0**1020, 1e300, 1.7976931348623157e308,
    ]  # fmt: skip
    grid = np.array(specials + [-x for x in specials])
    out_a.append(np.repeat(grid, len(grid)))
    out_b.append(np.tile(grid, len(grid)))
    return np.concatenate(out_a), np.concatenate(out_b)


class TestExactRounding:
    """Directed rounding of *, / and sqrt equals the rounding of the
    independent rational reference in `oracles`, bit for bit."""

    def test_matches_rational_remainders(self):
        a_all, b_all = _operand_pairs(np.random.default_rng(20240613))
        assert len(a_all) >= 50000
        ops = [
            ("mul_down", iv_mod._mul_down, oracles.mul_down, False),
            ("mul_up", iv_mod._mul_up, oracles.mul_up, False),
            ("div_down", iv_mod._div_down, oracles.div_down, False),
            ("div_up", iv_mod._div_up, oracles.div_up, False),
            ("sqrt_down", iv_mod._sqrt_down, oracles.sqrt_down, True),
            ("sqrt_up", iv_mod._sqrt_up, oracles.sqrt_up, True),
        ]
        bad = []
        for a, b in zip(a_all.tolist(), b_all.tolist()):
            for name, ours, ref, unary in ops:
                if unary:
                    args = (abs(a),)
                elif name.startswith("div") and b == 0.0:
                    continue
                else:
                    args = (a, b)
                got, want = ours(*args), ref(*args)
                if got.hex() != want.hex():
                    bad.append((name, args, got, want))
        assert not bad, f"{len(bad)} mismatches, first: {bad[:5]}"

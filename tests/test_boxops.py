"""Vectorized interval engine: containment fuzzing against point samples
and against the scalar layer, plus the padded linear-algebra enclosures."""

import numpy as np

from ccenum import boxops as bxo
from ccenum.interval import Interval, IntervalMatrix


def _rand_boxes(rng, k, span=50.0):
    a = rng.uniform(-span, span, (2, k))
    return np.minimum(a[0], a[1]), np.maximum(a[0], a[1])


class TestElementwise:
    N = 80

    def test_containment_against_points(self):
        rng = np.random.default_rng(42)
        for _ in range(self.N):
            k = 64
            alo, ahi = _rand_boxes(rng, k)
            blo, bhi = _rand_boxes(rng, k)
            x = rng.uniform(alo, ahi)
            y = rng.uniform(blo, bhi)
            lo, hi = bxo.iadd(alo, ahi, blo, bhi)
            assert np.all((lo <= x + y) & (x + y <= hi))
            lo, hi = bxo.isub(alo, ahi, blo, bhi)
            assert np.all((lo <= x - y) & (x - y <= hi))
            lo, hi = bxo.imul(alo, ahi, blo, bhi)
            assert np.all((lo <= x * y) & (x * y <= hi))
            lo, hi = bxo.isqr(alo, ahi)
            assert np.all((lo <= x * x) & (x * x <= hi))
            pos = np.abs(blo) + 0.1
            lo, hi = bxo.idiv_pos(alo, ahi, pos, pos + 1.0)
            yy = rng.uniform(pos, pos + 1.0)
            assert np.all((lo <= x / yy) & (x / yy <= hi))
            lo, hi = bxo.isqrt(np.abs(alo), np.abs(alo) + 2.0)
            xx = rng.uniform(np.abs(alo), np.abs(alo) + 2.0)
            assert np.all((lo <= np.sqrt(xx)) & (np.sqrt(xx) <= hi))

    def test_isum_containment(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            k = rng.integers(1, 40)
            alo, ahi = _rand_boxes(rng, int(k))
            x = rng.uniform(alo, ahi)
            lo, hi = bxo.isum(alo, ahi)
            assert lo <= x.sum() <= hi

    def test_scale(self):
        lo, hi = bxo.iscale(np.array([1.0]), np.array([2.0]), -3.0)
        assert lo[0] <= -6.0 and hi[0] >= -3.0


class TestLinearAlgebra:
    """The batched products of the operator step, on batches of one box
    and of several."""

    BATCHES = (1, 5)

    def test_matvec_point_containment(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            for B in self.BATCHES:
                d = int(rng.integers(1, 8))
                C = rng.uniform(-3, 3, (B, d, d))
                vlo, vhi = _rand_boxes(rng, B * d, span=2.0)
                vlo, vhi = vlo.reshape(B, d), vhi.reshape(B, d)
                v = rng.uniform(vlo, vhi)
                lo, hi = bxo.bmatvec_point(C, vlo, vhi)
                exact = np.einsum("bij,bj->bi", C, v)
                assert np.all((lo <= exact) & (exact <= hi))

    def test_matmul_point_containment(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            for B in self.BATCHES:
                d = int(rng.integers(1, 7))
                C = rng.uniform(-3, 3, (B, d, d))
                alo = rng.uniform(-2, 2, (B, d, d))
                ahi = alo + rng.uniform(0, 1, (B, d, d))
                A = rng.uniform(alo, ahi)
                lo, hi = bxo.bmatmul_point(C, alo, ahi)
                exact = C @ A
                assert np.all((lo <= exact) & (exact <= hi))

    def test_matvec_iv_containment(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            for B in self.BATCHES:
                d = int(rng.integers(1, 7))
                Mlo = rng.uniform(-2, 2, (B, d, d))
                Mhi = Mlo + rng.uniform(0, 0.5, (B, d, d))
                vlo, vhi = _rand_boxes(rng, B * d, span=2.0)
                vlo, vhi = vlo.reshape(B, d), vhi.reshape(B, d)
                M = rng.uniform(Mlo, Mhi)
                v = rng.uniform(vlo, vhi)
                lo, hi = bxo.bmatvec_iv(Mlo, Mhi, vlo, vhi)
                exact = np.einsum("bij,bj->bi", M, v)
                assert np.all((lo <= exact) & (exact <= hi))

    def test_batched_variants_match(self):
        """Each row of a batch gets the enclosure it gets alone."""
        rng = np.random.default_rng(8)
        d, B = 5, 9
        C = rng.uniform(-2, 2, (B, d, d))
        vlo = rng.uniform(-1, 1, (B, d))
        vhi = vlo + rng.uniform(0, 0.3, (B, d))
        Mlo = rng.uniform(-2, 2, (B, d, d))
        Mhi = Mlo + rng.uniform(0, 0.3, (B, d, d))
        products = (
            lambda r: bxo.bmatvec_point(C[r], vlo[r], vhi[r]),
            lambda r: bxo.bmatmul_point(C[r], Mlo[r], Mhi[r]),
            lambda r: bxo.bmatvec_iv(Mlo[r], Mhi[r], vlo[r], vhi[r]),
        )
        for product in products:
            blo, bhi = product(slice(None))
            for b in range(B):
                slo, shi = product(slice(b, b + 1))
                assert np.array_equal(blo[b], slo[0]) and np.array_equal(bhi[b], shi[0])

    def test_agrees_with_scalar_matvec(self):
        rng = np.random.default_rng(9)
        d = 4
        rows = [[Interval(*sorted(rng.uniform(-2, 2, 2))) for _ in range(d)] for _ in range(d)]
        vec = [Interval(*sorted(rng.uniform(-2, 2, 2))) for _ in range(d)]
        exact = IntervalMatrix(rows).matvec(vec)
        Mlo = np.array([[e.lo for e in r] for r in rows])
        Mhi = np.array([[e.hi for e in r] for r in rows])
        vlo, vhi = bxo.pack(vec)
        lo, hi = bxo.bmatvec_iv(Mlo[None], Mhi[None], vlo[None], vhi[None])
        for k in range(d):
            # the padded fast enclosure must contain the scalar tight one
            assert lo[0, k] <= exact[k].lo and exact[k].hi <= hi[0, k]

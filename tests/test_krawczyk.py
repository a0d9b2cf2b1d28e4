"""Certification operator: the worked 1-D check of the formula, operator
behavior near a known zero, iteration outcomes, and zero preservation."""

import numpy as np
import pytest

from ccenum import krawczyk
from ccenum import reduced as reduced_mod
from ccenum.errors import SingularMidpoint
from ccenum.interval import Interval
from ccenum.model import Masses
from ccenum.verify import gauge_candidate
from oracles import newton_polish, polish_listed
from conftest import load_listed

D3 = (5.0 / 12.0) ** (1.0 / 3.0)


def test_one_dimensional_formula():
    """K for F(x) = x^2 - 2 on [1.3, 1.5] with x0 = 1.4 and C = 1/2.8,
    assembled from scalar interval pieces."""
    x0 = Interval(1.4)
    box = Interval(1.3, 1.5)
    C = Interval(1.0) / Interval(2.8)
    Fx0 = x0.sqr() - Interval(2.0)
    dF = Interval(2.0) * box
    K = x0 - C * Fx0 + (Interval(1.0) - C * dF) * (box - x0)
    assert abs(K.lo - 1.4071) < 1e-3 and abs(K.hi - 1.4214) < 1e-3
    assert box.lo < K.lo and K.hi < box.hi
    assert K.contains(np.sqrt(2.0))


class TestOperator:
    def setup_method(self):
        self.rctx = reduced_mod.reduced_ctx(Masses.equal(3))
        self.z = newton_polish(np.array([-D3, 0.0, D3]), 3)

    def test_contracts_near_zero(self):
        """One operator step maps a small box around the zero strictly inside."""
        lo, hi = self.z - 1e-4, self.z + 1e-4
        out = krawczyk.iterate_arrays(self.rctx, lo, hi, max_iter=1)
        assert out.tag == "unique_zero"
        assert np.all(lo < out.lo) and np.all(out.hi < hi)

    def test_excludes_shifted_box(self):
        shifted = self.z + 0.05
        out = krawczyk.iterate_arrays(self.rctx, shifted - 5e-4, shifted + 5e-4)
        assert out.tag == "no_zero"

    def test_large_box_fails(self):
        out = krawczyk.iterate_arrays(self.rctx, self.z - 0.25, self.z + 0.25)
        assert out.tag == "failed"

    def test_unique_zero_on_small_box(self):
        zeq = newton_polish(np.array([-0.2886751346, 0.5, 0.5773502692]), 3)
        lo, hi = zeq - 1e-4, zeq + 1e-4
        out = krawczyk.iterate_arrays(self.rctx, lo, hi)
        assert out.tag == "unique_zero"
        assert np.all(lo < out.lo) and np.all(out.hi < hi)

    def test_collision_box_fails_cleanly(self):
        lo, hi = np.array([0.4, -0.1, 0.45]), np.array([0.6, 0.1, 0.65])
        out = krawczyk.iterate_arrays(self.rctx, lo, hi)
        assert out.tag == "failed"


class TestZeroPreservation:
    def test_zero_stays_in_every_operator_image(self):
        """Refined zeros lie inside the box after every operator step
        (n = 3..5), one step per call as `contract` takes them.

        The float-polished proxy sits within ~1e-13 of the true zero while
        the operator can contract far below that, so containment is checked
        at the oracle's own precision, and no step may rule the zero out.
        """
        tol = 1e-12
        for n in (3, 4, 5):
            m = Masses.equal(n)
            rctx = reduced_mod.reduced_ctx(m)
            for pts in load_listed(n):
                z, _ = polish_listed(pts)
                lo = z - 5e-5
                hi = z + 5e-5
                for _ in range(6):
                    out = krawczyk.iterate_arrays(rctx, lo, hi, max_iter=1)
                    assert out.tag != "no_zero", (n, pts)
                    if out.tag == "failed" and not out.refined:
                        break
                    assert np.all(out.lo - tol <= z) and np.all(z <= out.hi + tol), (n, pts)
                    lo, hi = out.lo, out.hi

    def test_failed_refinements_nested(self):
        m = Masses.equal(4)
        rctx = reduced_mod.reduced_ctx(m)
        z = newton_polish(np.array([-0.9051285388, 0.0, -0.2862410122, 0.0, 0.9051285343]), 4)
        lo, hi = z - 8e-3, z + 8e-3
        prev_w = hi - lo
        out = krawczyk.iterate_arrays(rctx, lo, hi)
        if out.tag == "failed":
            assert np.all(out.lo >= lo - 1e-15) and np.all(out.hi <= hi + 1e-15)
            assert np.all(out.hi - out.lo <= prev_w + 1e-15)


class TestMaxIter:
    def test_box_stops_after_max_iter_steps(self):
        """A box that needs 7 steps to certify gives up after `max_iter`
        steps below that, keeping the box its last step left."""
        rctx = reduced_mod.reduced_ctx(Masses.equal(4))
        z = newton_polish(np.array([-0.9051285388, 0.0, -0.2862410122, 0.0, 0.9051285343]), 4)
        prev_lo, prev_hi = lo, hi = z - 1e-2, z + 1e-2
        for max_iter in range(1, 8):
            it = krawczyk.Iteration(rctx, max_iter)
            it.add(lo[None], hi[None])
            outs, steps = [], 0
            while it:
                outs += it.step(1)[1]
                steps += 1
            (out,) = outs
            assert steps == max_iter
            if max_iter < 7:
                assert out.tag == "failed" and out.refined
                assert np.all(out.lo >= prev_lo) and np.all(out.hi <= prev_hi)
                assert np.any(out.lo > prev_lo) or np.any(out.hi < prev_hi)
                prev_lo, prev_hi = out.lo, out.hi
            else:
                assert out.tag == "unique_zero"


class TestUniqueZeroSubdivision:
    def test_subboxes_away_from_zero_are_refutable(self):
        """Inside a certified box, sub-boxes clearly away from the certified
        point admit a no-zero verdict; only those containing it cannot."""
        m = Masses.equal(3)
        rctx = reduced_mod.reduced_ctx(m)
        z = newton_polish(np.array([-D3, 0.0, D3]), 3)
        out = krawczyk.iterate_arrays(rctx, z - 2e-4, z + 2e-4)
        assert out.tag == "unique_zero"
        lo, hi = out.lo, out.hi
        mid = lo + 0.5 * (hi - lo)
        import itertools

        for corner in itertools.product((0, 1), repeat=3):
            clo = np.where(np.array(corner) == 0, lo, mid)
            chi = np.where(np.array(corner) == 0, mid, hi)
            inside = np.all((clo <= z) & (z <= chi))
            sub = krawczyk.iterate_arrays(rctx, clo, chi)
            if inside:
                assert sub.tag != "no_zero"
            margin = np.min(np.maximum(clo - z, z - chi))
            if margin > 0.2 * np.max(hi - lo):
                assert sub.tag == "no_zero", (corner, sub.tag)


class TestContract:
    def test_contract_tightens(self):
        m = Masses.equal(3)
        rctx = reduced_mod.reduced_ctx(m)
        z = newton_polish(np.array([-D3, 0.0, D3]), 3)
        out = krawczyk.iterate_arrays(rctx, z - 1e-4, z + 1e-4)
        assert out.tag == "unique_zero"
        lo, hi = krawczyk.contract(rctx, out.lo, out.hi)
        assert np.max(hi - lo) < 1e-12
        assert np.all(lo <= z) and np.all(z <= hi)

    def test_candidates_contract_inside_certified_box(self):
        """Every n = 6..10 candidate, certified as `verify` does it, contracts
        to a box nested in the certified one and narrower than 1e-11; a
        single operator step leaves boxes up to ~4e-9 wide."""
        for n in range(6, 11):
            m = Masses.equal(n)
            rctx = reduced_mod.reduced_ctx(m)
            for pts in load_listed(n):
                z = gauge_candidate(pts, m)
                delta = 1e-6
                out = krawczyk.iterate_arrays(rctx, z - delta, z + delta)
                while out.tag != "unique_zero":
                    delta *= 2.0
                    assert delta <= 1e-3, (n, pts)
                    out = krawczyk.iterate_arrays(rctx, z - delta, z + delta)
                lo, hi = krawczyk.contract(rctx, out.lo, out.hi)
                assert np.all(out.lo <= lo) and np.all(hi <= out.hi), (n, pts)
                assert np.max(hi - lo) < 1e-11, (n, pts)


class TestBatchedInverse:
    """The batched preconditioner rejects bad rows one by one and gives
    the others exactly what a per-row inverse gives."""

    def _stack(self):
        rng = np.random.default_rng(11)
        d = 5
        regular = rng.normal(size=(4, d, d)) + 3.0 * np.eye(d)
        singular = np.eye(d)
        singular[1] = 2.0 * singular[0]  # two equal rows up to scale: no inverse
        near = np.eye(d)
        near[1, 0], near[1, 1] = 1.0, 1e-15  # numerically singular, not exactly
        nan = regular[0].copy()
        nan[2, 3] = np.nan
        bad = {"singular": singular, "zero": np.zeros((d, d)), "nan": nan, "near": near}
        mids = [regular[0], singular, regular[1], bad["zero"], regular[2], nan, near, regular[3]]
        good = [True, False, True, False, True, False, False, True]
        return np.array(mids), np.array(good), bad

    def test_only_bad_rows_rejected(self):
        mids, good, _ = self._stack()
        rad = np.where(np.isfinite(mids), 1e-9, 0.0)
        Jlo, Jhi = mids - rad, mids + rad
        C, ok = krawczyk.midpoint_inverse_batch(Jlo, Jhi)
        assert ok.tolist() == good.tolist()
        for k in np.nonzero(good)[0]:
            mid = Jlo[k] + 0.5 * (Jhi[k] - Jlo[k])
            assert np.array_equal(C[k], np.linalg.inv(mid))

    def test_single_box_raises_for_each_bad_case(self):
        _, _, bad = self._stack()
        for mid in bad.values():
            with pytest.raises(SingularMidpoint):
                krawczyk.midpoint_inverse(mid, mid.copy())
        eye = np.eye(3)
        assert np.array_equal(krawczyk.midpoint_inverse(eye, eye), eye)

    def test_empty_batch(self):
        C, ok = krawczyk.midpoint_inverse_batch(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))
        assert C.shape == (0, 3, 3) and ok.shape == (0,)

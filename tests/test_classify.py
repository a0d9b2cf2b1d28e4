"""Testing stage: solution equivalence, hull inflation, symmetry proofs
and collinearity detection."""

import numpy as np
import pytest

from ccenum import classify
from ccenum import reduced as reduced_mod
from ccenum.classify import blow_up, detect_collinear, same_solution, symmetry_check
from ccenum.model import Masses
from ccenum.search import make_solution
from oracles import newton_polish

D3 = (5.0 / 12.0) ** (1.0 / 3.0)


def certified_solution(z, n, w=1e-5):
    from ccenum import krawczyk

    m = Masses.equal(n)
    rctx = reduced_mod.reduced_ctx(m)
    out = krawczyk.iterate_arrays(rctx, z - w, z + w)
    assert out.tag == "unique_zero", "test setup expects a certifiable seed"
    return make_solution(rctx, out.lo, out.hi, m)


@pytest.fixture(scope="module")
def collinear3():
    z = newton_polish(np.array([-D3, 0.0, D3]), 3)
    return certified_solution(z, 3)


@pytest.fixture(scope="module")
def equilateral3():
    z = newton_polish(np.array([-0.2886751346, 0.5, 0.5773502692]), 3)
    return certified_solution(z, 3)


class TestSameSolution:
    def test_reflexive(self, collinear3):
        assert same_solution(collinear3, collinear3, Masses.equal(3))

    def test_two_enclosures_same_zero(self, collinear3):
        z = newton_polish(np.array([-D3, 0.0, D3]), 3)
        other = certified_solution(z + np.array([2e-6, 0.0, -1e-6]), 3, w=8e-6)
        m = Masses.equal(3)
        assert same_solution(collinear3, other, m)
        assert same_solution(other, collinear3, m)

    def test_relabeled_same_zero(self, run_n4):
        """The two collinear labelings found by the search merge."""
        m = run_n4.masses
        col = [r for r in run_n4.records if r.collinear]
        assert len(col) == 1
        assert len(col[0].members) >= 2

    def test_distinct_ccs_differ(self, collinear3, equilateral3):
        m = Masses.equal(3)
        assert not same_solution(collinear3, equilateral3, m)
        assert not same_solution(equilateral3, collinear3, m)


class TestBlowUp:
    def setup_method(self):
        self.rctx = reduced_mod.reduced_ctx(Masses.equal(3))

    def test_already_certified(self, collinear3):
        assert blow_up(self.rctx, *collinear3.reduced.arrays()) == "UniqueZero"

    def test_tight_hull_inflates_to_success(self):
        z = newton_polish(np.array([-D3, 0.0, D3]), 3)
        assert blow_up(self.rctx, z - 1e-13, z + 1e-13) == "UniqueZero"

    def test_hull_of_two_ccs_gives_up(self, collinear3, equilateral3):
        a = collinear3.reduced.arrays()
        b = equilateral3.reduced.arrays()
        hull = np.minimum(a[0], b[0]), np.maximum(a[1], b[1])
        assert blow_up(self.rctx, *hull) == "GiveUp"


class TestSymmetry:
    def test_collinear_n3(self, collinear3):
        sym = symmetry_check(collinear3, Masses.equal(3))
        assert sym.ox_permutation == (0, 1, 2)
        assert sym.line is not None and sym.line.permutation == (1, 0, 2)
        assert sym.verdict == "OXSymmetric"

    def test_equilateral_n3(self, equilateral3):
        sym = symmetry_check(equilateral3, Masses.equal(3))
        assert sym.ox_permutation == (2, 1, 0)
        assert sym.line is not None and sym.line.permutation == (1, 0, 2)

    def test_symmetry_maps_midpoint_into_box(self, equilateral3):
        """Applying the certified reflection and permutation to the body
        midpoints lands back inside the certified enclosures."""
        m = Masses.equal(3)
        sym = symmetry_check(equilateral3, m)
        bodies = classify.full_bodies(equilateral3.reduced, m)
        mids = [(x.mid, y.mid) for x, y in bodies]
        perm = sym.ox_permutation
        for i, (px, py) in enumerate(mids):
            rx, ry = px, -py
            tx, ty = mids[perm[i]]
            assert abs(rx - tx) < 1e-7 and abs(ry - ty) < 1e-7

    @pytest.mark.parametrize("n", [5, 6])
    def test_stored_line_axis_maps_bodies(self, n):
        """Reflecting the body midpoints about the stored axis maps body k to
        body sigma(k) for every listed candidate with a line symmetry."""
        from conftest import load_listed
        from ccenum.verify import verify_candidate

        m = Masses.equal(n)
        lines = 0
        for k, pts in enumerate(load_listed(n)):
            res = verify_candidate(k, pts, m)
            line = res.symmetry.line
            if line is None:
                continue
            lines += 1
            assert line.axis_x.width < 1e-9 and line.axis_y.width < 1e-9
            cx, cy = line.axis_x.mid, line.axis_y.mid
            assert abs(np.hypot(cx, cy) - 1.0) < 1e-12
            rxx, rxy = cx * cx - cy * cy, 2.0 * cx * cy
            mids = [(x.mid, y.mid) for x, y in classify.full_bodies(res.solution.reduced, m)]
            for (px, py), j in zip(mids, line.permutation):
                tx, ty = mids[j]
                assert np.hypot(rxx * px + rxy * py - tx, rxy * px - rxx * py - ty) < 1e-6, k
        assert lines == {5: 5, 6: 9}[n]

    def test_asymmetric_candidate(self):
        from conftest import load_listed
        from ccenum.verify import verify_candidate

        pts = load_listed(8)[0]
        res = verify_candidate(0, pts, Masses.equal(8))
        assert res.certified
        assert res.symmetry.verdict == "ProvedAsymmetric"
        # re-assert the disjointness that backs the verdict for the OX axis
        bodies = classify.full_bodies(res.solution.reduced, Masses.equal(8))
        refl = classify.reflect_ox(bodies)
        assert any(
            rx.disjoint(ox) or ry.disjoint(oy)
            for (rx, ry), (ox, oy) in zip(refl, bodies)
        )


class TestCollinear:
    def test_collinear_detected(self, collinear3):
        assert detect_collinear(collinear3, Masses.equal(3))

    def test_equilateral_not_collinear(self, equilateral3):
        assert not detect_collinear(equilateral3, Masses.equal(3))

    def test_collinear_n5(self):
        z = newton_polish(
            np.array([-1.019255982, 0.0, -0.480767439, 0.0, 0.480767439, 0.0, 1.019255982]), 5
        )
        sol = certified_solution(z, 5)
        assert detect_collinear(sol, Masses.equal(5))

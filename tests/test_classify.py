"""Testing stage: solution equivalence, hull inflation, symmetry proofs,
collinearity detection and the matching behind asymmetry proofs."""

import itertools

import mpmath
import numpy as np
import pytest

from ccenum import classify
from ccenum import reduced as reduced_mod
from ccenum.classify import SymmetryResult, blow_up, same_solution, symmetry_check
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
    return make_solution(out.lo, out.hi, m)


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
        col = [r for r in run_n4.records if r.symmetry.collinear]
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
        assert blow_up(self.rctx, *collinear3.reduced.arrays())

    def test_tight_hull_inflates_to_success(self):
        z = newton_polish(np.array([-D3, 0.0, D3]), 3)
        assert blow_up(self.rctx, z - 1e-13, z + 1e-13)

    def test_hull_of_two_ccs_gives_up(self, collinear3, equilateral3):
        a = collinear3.reduced.arrays()
        b = equilateral3.reduced.arrays()
        hull = np.minimum(a[0], b[0]), np.maximum(a[1], b[1])
        assert not blow_up(self.rctx, *hull)


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
        lo, hi = classify.full_bodies(equilateral3.reduced)
        mids = (0.5 * (lo + hi)).tolist()
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
            lo, hi = classify.full_bodies(res.solution.reduced)
            mids = (0.5 * (lo + hi)).tolist()
            for (px, py), j in zip(mids, line.permutation):
                tx, ty = mids[j]
                assert np.hypot(rxx * px + rxy * py - tx, rxy * px - rxx * py - ty) < 1e-6, k
        assert lines == {5: 5, 6: 9}[n]

    def test_line_is_not_the_ox_reflection(self, run_n4):
        """The pairing decides which reflection certifies: sigma(n-2) = n-2
        gives the x axis, sigma(n-2) = i the bisector of bodies n-2 and i.
        So every OX permutation fixes body n-2, and every line verdict is
        another reflection, whose certified axis_y excludes 0.  A line
        question that accepts sigma(n-2) = n-2 reports the OX reflection
        again for n = 4 class 2 and n = 7 candidates 6, 9 and 11."""
        from conftest import load_listed
        from ccenum.verify import verify_candidate

        m7 = Masses.equal(7)
        syms = [(4, r.symmetry) for r in run_n4.records] + [
            (7, verify_candidate(k, pts, m7).symmetry) for k, pts in enumerate(load_listed(7))
        ]
        lines = 0
        for n, sym in syms:
            if sym.ox_permutation is not None:
                assert sym.ox_permutation[n - 2] == n - 2
            if sym.line is not None:
                lines += 1
                assert sym.line.permutation[n - 2] != n - 2
                assert not sym.line.axis_y.contains(0.0), (n, sym.line)
        assert lines >= 3

    def test_each_question_tries_only_its_reflection(self, run_n4, monkeypatch):
        """Every pairing the OX question may try fixes body n-2, and every one
        the question for body i may try sends body n-2 to body i.  All the
        pairings a question offers are checked, not only those it reaches."""
        offered = []
        pairings = classify.candidate_pairings

        def spy(image, orig, target=None):
            every = list(pairings(image, orig, target))
            offered.append((target, every))
            yield from every

        monkeypatch.setattr(classify, "candidate_pairings", spy)
        for rec in run_n4.records:
            classify.symmetry_check(rec.representative, run_n4.masses)
        targets = {t for t, every in offered if every}
        assert 2 in targets and len(targets) > 1
        for target, every in offered:
            for sigma in every:
                assert sigma[2] == target, (target, sigma)

    def test_asymmetric_candidate(self):
        from conftest import load_listed
        from ccenum.verify import verify_candidate

        pts = load_listed(8)[0]
        res = verify_candidate(0, pts, Masses.equal(8))
        assert res.certified
        assert res.symmetry.verdict == "ProvedAsymmetric"
        # re-assert the disjointness that backs the verdict for the OX axis
        lo, hi = classify.full_bodies(res.solution.reduced)
        rlo, rhi = classify.reflect_ox((lo, hi))
        assert np.any((rhi < lo) | (hi < rlo))


class TestDisjointHullSkip:
    def test_disjoint_hulls_never_certify(self, monkeypatch):
        """Of the (za, zb) pairs symmetry_check tries on the asymmetric n = 8
        candidate 0 and the line-symmetric n = 7 candidate 7, the disjoint
        ones skip blow_up, which gives up on them anyway; the overlapping
        ones still reach it."""
        from conftest import load_listed
        from ccenum.verify import verify_candidate

        hull_certifies, unchanged_blow_up = classify._hull_certifies, classify.blow_up
        overlapping = 0
        for n, k, verdict in [(8, 0, "ProvedAsymmetric"), (7, 7, "LineSymmetric")]:
            m = Masses.equal(n)
            res = verify_candidate(k, load_listed(n)[k], m)
            assert res.symmetry.verdict == verdict
            pairs, blow_ups = [], []

            def record_pair(rctx, za, zb):
                pairs.append((za, zb))
                return hull_certifies(rctx, za, zb)

            def record_blow_up(rctx, lo, hi):
                blow_ups.append((lo, hi))
                return unchanged_blow_up(rctx, lo, hi)

            monkeypatch.setattr(classify, "_hull_certifies", record_pair)
            monkeypatch.setattr(classify, "blow_up", record_blow_up)
            assert symmetry_check(res.solution, m) == res.symmetry
            monkeypatch.undo()

            disjoint = [np.any(za[1] < zb[0]) or np.any(zb[1] < za[0]) for za, zb in pairs]
            assert any(disjoint)
            assert len(blow_ups) == disjoint.count(False)
            overlapping += len(blow_ups)
            rctx = reduced_mod.reduced_ctx(m)
            for (za, zb), skip in zip(pairs, disjoint):
                if skip:
                    hull = np.minimum(za[0], zb[0]), np.maximum(za[1], zb[1])
                    assert not blow_up(rctx, *hull)
        assert overlapping > 0


class TestCollinear:
    """Collinearity is read from the OX certificate of `symmetry_check`."""

    def test_collinear_detected(self, collinear3):
        assert symmetry_check(collinear3, Masses.equal(3)).collinear

    def test_equilateral_not_collinear(self, equilateral3):
        assert not symmetry_check(equilateral3, Masses.equal(3)).collinear

    def test_collinear_n5(self):
        z = newton_polish(
            np.array([-1.019255982, 0.0, -0.480767439, 0.0, 0.480767439, 0.0, 1.019255982]), 5
        )
        sol = certified_solution(z, 5)
        assert symmetry_check(sol, Masses.equal(5)).collinear

    def test_only_the_identity_is_collinear(self):
        """A certified OX permutation that moves a body, or none, proves no
        collinearity; the identity does."""
        for perm in ((1, 0, 2), (0, 2, 1, 3), None):
            assert not SymmetryResult(perm, None, asymmetric=False).collinear
        assert SymmetryResult((0, 1, 2, 3), None, asymmetric=False).collinear


class TestPerfectMatching:
    """`has_perfect_matching`, which refutes symmetry axes, against brute
    force over every permutation."""

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        hall_violations = first_fit_misses = 0
        for _ in range(800):
            n = int(rng.integers(1, 8))
            edges = rng.random((n, n)) < rng.uniform(0.2, 0.8)
            if n > 1 and rng.random() < 0.5:
                # k rows that see only k - 1 columns violate Hall's condition
                k = int(rng.integers(2, n + 1))
                edges[rng.choice(n, k, replace=False)] &= np.isin(
                    np.arange(n), rng.choice(n, k - 1, replace=False)
                )
            perms = np.array(list(itertools.permutations(range(n))))
            brute = bool(edges[np.arange(n), perms].all(axis=1).any())
            assert classify.has_perfect_matching(edges) == brute, edges.astype(int)
            # no empty row or column, yet some rows see too few columns
            hall_violations += not brute and edges.any(axis=0).all() and edges.any(axis=1).all()
            # taking each row's first free column fails: only an augmenting
            # path finds the matching
            free = set(range(n))
            for row in edges:
                j = next((j for j in np.flatnonzero(row) if j in free), None)
                free.discard(j)
            first_fit_misses += brute and len(free) > 0
        assert hall_violations >= 20 and first_fit_misses >= 20

    def test_pinned_body(self):
        """The OX reflection of a triangle symmetric about the x axis swaps
        bodies 1 and 2: refuted only once body 1 is pinned to itself."""
        pts = np.array([[1.0, 0.0], [-0.5, 0.75], [-0.5, -0.75]])
        bodies = (pts, pts.copy())
        reflected = classify.reflect_ox(bodies)
        assert not classify._axis_refuted(bodies, reflected, pinned=0)
        assert classify._axis_refuted(bodies, reflected, pinned=1)


# ---------------------------------------------------------------------------
# independent oracle: the geometry written out here and evaluated in mpmath
# interval arithmetic at 50 digits, at points of seeded body boxes.  The
# boxes are points on even trials, and some bodies are placed where a
# coordinate of the result cancels to nearly 0: there the rounding error of
# an earlier step is no longer covered by the outward step of a later one.


@pytest.fixture
def iv():
    saved = mpmath.iv.dps
    mpmath.iv.dps = 50
    try:
        yield mpmath.iv
    finally:
        mpmath.iv.dps = saved


def _boxes(rng, centers, trial):
    w = 0.0 if trial % 2 == 0 else 10.0 ** rng.uniform(-12, -3, centers.shape)
    return centers - w, centers + w


def _points(rng, lo, hi, k=4):
    """Random corners of the boxes, random points inside and both bounds."""
    corners = np.where(rng.random((k,) + lo.shape) < 0.5, lo, hi)
    inside = np.clip(lo + rng.random((k,) + lo.shape) * (hi - lo), lo, hi)
    return np.concatenate([corners, inside, [lo, hi]])


def _inside(lo, hi, exact) -> bool:
    return all(a <= e.a and e.b <= b for a, b, e in zip(lo, hi, exact))


def _mp_unit(iv, v):
    r = iv.sqrt(v[0] ** 2 + v[1] ** 2)
    return [v[0] / r, v[1] / r]


class TestMpmathOracle:
    """Each enclosure of the array geometry contains the exact image of
    every sampled point of its input boxes."""

    def test_reflect_line(self, iv):
        rng = np.random.default_rng(4101)
        for trial in range(30):
            # near 45 degrees, c^2 - s^2 cancels
            t = np.pi / 4 + rng.uniform(-1e-6, 1e-6) if trial % 3 == 0 else rng.uniform(0, 7)
            c, s = np.cos(t), np.sin(t)
            rxx, rxy = c * c - s * s, 2 * c * s
            # bodies 0 and 1 are mapped near the y and the x axis
            centers = np.concatenate(
                [[rng.uniform(0.2, 1.5) * np.array([rxy, -rxx])],
                 [rng.uniform(0.2, 1.5) * np.array([rxx, rxy])],
                 rng.uniform(-1.5, 1.5, (3, 2))]
            )
            lo, hi = _boxes(rng, centers, trial)
            axis = _boxes(rng, np.array([c, s]), trial)
            rlo, rhi = classify.reflect_line((lo, hi), axis)
            for p, (c, s) in zip(_points(rng, lo, hi), _points(rng, *axis)):
                c, s = iv.mpf(c), iv.mpf(s)
                rxx, rxy = c * c - s * s, 2 * c * s
                for k, (x, y) in enumerate(p.tolist()):
                    image = [rxx * x + rxy * y, rxy * x - rxx * y]
                    assert _inside(rlo[k], rhi[k], image), (trial, k)

    def test_regauge_to_reduced(self, iv):
        rng = np.random.default_rng(4102)
        n = 5
        for trial in range(30):
            pin = np.array([rng.uniform(0.3, 1.5), rng.uniform(-1.5, 1.5)])
            # body 0 along body n-2 and body 1 across it: rotated y and x cancel
            centers = np.concatenate(
                [[rng.uniform(-1.5, 1.5) * pin],
                 [rng.uniform(-1.5, 1.5) * np.array([-pin[1], pin[0]])],
                 rng.uniform(-1.5, 1.5, (1, 2)), [pin], rng.uniform(-1.5, 1.5, (1, 2))]
            )
            lo, hi = _boxes(rng, centers, trial)
            zlo, zhi = classify.regauge_to_reduced((lo, hi), Masses.equal(n))
            for p in _points(rng, lo, hi):
                q = [[iv.mpf(x), iv.mpf(y)] for x, y in p.tolist()]
                c, s = _mp_unit(iv, q[n - 2])
                rot = [[x * c + y * s, y * c - x * s] for x, y in q[: n - 1]]
                exact = [v for body in rot[: n - 2] for v in body] + [rot[n - 2][0]]
                assert _inside(zlo, zhi, exact), trial

    def test_bisector_direction_holds_every_corner_bisector(self, iv):
        """The asymmetry proof needs every true bisector inside, so each of
        the 16 corner pairs of the two boxes is checked."""
        rng = np.random.default_rng(4103)
        for trial in range(30):
            a = rng.uniform(-1.5, 1.5, 2)
            # b mirrors a about the x or the y axis, so one sum of units cancels
            flip = [(1, -1), (-1, 1), rng.uniform(-1.5, 1.5, 2) / a][trial % 3]
            b = rng.uniform(0.2, 1.5) * np.multiply(flip, a)
            lo, hi = _boxes(rng, np.array([a, b]), trial)
            axis = classify.bisector_direction((lo[0], hi[0]), (lo[1], hi[1]))
            assert axis is not None
            corners = [np.where([i & 1, i & 2], hi, lo) for i in range(4)]
            for ca in corners:
                for cb in corners:
                    u = _mp_unit(iv, [iv.mpf(v) for v in ca[0].tolist()])
                    v = _mp_unit(iv, [iv.mpf(v) for v in cb[1].tolist()])
                    assert _inside(*axis, _mp_unit(iv, [u[0] + v[0], u[1] + v[1]])), trial

    @pytest.mark.parametrize("through_origin", [False, True])
    def test_reflection_axis(self, iv, through_origin):
        """Boxes around a configuration that a reflection maps onto itself,
        swapping bodies 0 and 1 and fixing body 2.  With `through_origin`,
        bodies 0 and 1 are opposite, every q_k + q_sigma(k) may vanish, and
        the axis comes from the perpendicular of q_k - q_sigma(k).  For one
        k and one of the two constructions, the enclosure holds the exact
        unit vector at every sampled point."""
        rng = np.random.default_rng(4104 + through_origin)
        sigma = (1, 0, 2)
        for trial in range(12):
            t = rng.uniform(0.0, 2.0 * np.pi)
            e = np.array([np.cos(t), np.sin(t)])
            a = rng.uniform(-1.5, 1.5, 2)
            if through_origin:
                a -= (a @ e) * e  # q_0 on the normal, so its mirror image is -q_0
                centers = np.array([a, -a, np.zeros(2)])
            else:
                centers = np.array([a, 2 * (a @ e) * e - a, rng.uniform(0.3, 1.5) * e])
            lo, hi = _boxes(rng, centers, trial)
            axis = classify.reflection_axis((lo, hi), sigma)
            assert axis is not None
            held = np.ones((2, 3), dtype=bool)  # [sum or perpendicular, k]
            for p in _points(rng, lo, hi):
                q = [[iv.mpf(x), iv.mpf(y)] for x, y in p.tolist()]
                for k, j in enumerate(sigma):
                    s = [q[k][0] + q[j][0], q[k][1] + q[j][1]]
                    d = [q[j][1] - q[k][1], q[k][0] - q[j][0]]
                    for m, w in enumerate((s, d)):
                        if 0 in w[0] ** 2 + w[1] ** 2:
                            held[m, k] = False
                        else:
                            held[m, k] &= _inside(*axis, _mp_unit(iv, w))
            assert held.any(), trial

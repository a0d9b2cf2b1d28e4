"""Verification mode: candidate parsing, re-gauging and certification."""

import numpy as np
import pytest

from ccenum.model import Masses
from ccenum.report import render_verify_report
from ccenum.verify import gauge_candidate, parse_candidates, verify_candidate
from conftest import DATA_DIR, load_listed


class TestParsing:
    def test_blocks_and_comments(self):
        text = "# first\n1.0 2.0\n-0.5, 0.25\n\n# second\n0 0\n1 1\n"
        configs = parse_candidates(text)
        assert len(configs) == 2
        assert configs[0] == [(1.0, 2.0), (-0.5, 0.25)]

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_candidates("1.0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_coordinate(self, value):
        with pytest.raises(ValueError, match="finite"):
            parse_candidates(f"0 0\n0.5 {value}\n1 0\n")


class TestGauge:
    def test_furthest_on_axis(self):
        pts = [(0.2, 0.9), (-0.4, -0.3), (0.3, -0.5)]
        z = gauge_candidate(pts, Masses.equal(3))
        # slot n-2 coordinate is the furthest body's radius
        assert z[-1] > 0
        assert len(z) == 3

    def test_listed_candidates_already_gauged(self):
        pts = load_listed(8)[0]
        z = gauge_candidate(pts, Masses.equal(8))
        assert abs(z[-1] - 0.9158898541) < 1e-6


class TestVerify:
    def test_equilateral_candidate(self):
        pts = [(-0.2886751346, -0.5), (0.5773502692, 0.0), (-0.2886751346, 0.5)]
        res = verify_candidate(0, pts, Masses.equal(3))
        assert res.certified
        assert res.solution.scalars.P_moeckel.contains(3.0)
        assert res.symmetry.symmetric
        assert res.solution.gauge_valid

    def test_rotated_translated_candidate(self):
        # certification is insensitive to the input pose
        rng = np.random.default_rng(5)
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        base = np.array([(-0.2886751346, -0.5), (0.5773502692, 0.0), (-0.2886751346, 0.5)])
        moved = base @ np.array([[c, -s], [s, c]]).T + np.array([0.3, -0.8])
        res = verify_candidate(0, [tuple(p) for p in moved], Masses.equal(3))
        assert res.certified
        assert res.solution.scalars.P_moeckel.contains(3.0)

    @pytest.mark.parametrize("delta", [0.0, -1e-6, 2e-3, float("nan"), float("inf")])
    def test_delta_out_of_range_rejected(self, delta, monkeypatch):
        """A delta doubling can never lift to a certifiable box (0, below
        0, NaN) or one above delta_max is refused before any operator step."""
        from ccenum import krawczyk

        def stepped(*args):
            raise AssertionError("an operator step ran")

        monkeypatch.setattr(krawczyk, "iterate_arrays", stepped)
        pts = [(-0.2886751346, -0.5), (0.5773502692, 0.0), (-0.2886751346, 0.5)]
        with pytest.raises(ValueError, match="delta"):
            verify_candidate(0, pts, Masses.equal(3), delta=delta)

    def test_garbage_candidate_fails(self):
        pts = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]
        res = verify_candidate(0, pts, Masses.equal(3))
        assert not res.certified
        assert res.message


def test_golden_report_n6_10():
    """All 39 listed n = 6..10 candidates, in file order with delta = 1e-6,
    render byte for byte as stored: every verdict, permutation, retry count
    and printed enclosure is pinned (the line axis is not printed)."""
    results = [
        verify_candidate(k, pts, Masses.equal(n), delta=1e-6)
        for n in range(6, 11)
        for k, pts in enumerate(load_listed(n))
    ]
    golden = (DATA_DIR / "golden_verify_n6_10.txt").read_text()
    assert render_verify_report(results, 1e-6) == golden

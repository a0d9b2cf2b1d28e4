"""Report emission: solution-file round trips, report structure against the
stored golden outputs, figures and the bench table."""

import json
import re
from pathlib import Path

import pytest

from ccenum import report as report_mod
from ccenum.model import Masses

DATA = Path(__file__).parent / "data"


class TestSolutionsFile:
    def test_bit_exact_round_trip(self, run_n3):
        m = run_n3.masses
        text = report_mod.dump_solutions(run_n3.solutions, m)
        loaded = report_mod.load_solutions(text, m)
        assert len(loaded) == len(run_n3.solutions)
        for a, b in zip(loaded, run_n3.solutions):
            for ia, ib in zip(a.reduced.arrays(), b.reduced.arrays()):
                assert ia.tolist() == ib.tolist()

    def test_empty_dump(self):
        assert report_mod.dump_solutions([], Masses.equal(3)) == ""

    def test_corrupted_line_rejected(self, run_n3, run_n4):
        """A line whose box is no box, or a box of another n, fails to load
        instead of loading a solution that was never certified."""
        m = run_n3.masses
        line = report_mod.dump_solutions(run_n3.solutions[:1], m)
        rec = json.loads(line)
        (lo, hi), rest = rec["reduced"][0], rec["reduced"][1:]
        # lo > hi, a NaN bound, a dimension no n gives
        for reduced in ([[hi, lo]] + rest, [[float("nan").hex(), hi]] + rest, rest):
            bad = json.dumps({**rec, "reduced": reduced})
            with pytest.raises(ValueError):
                report_mod.load_solutions(line + bad + "\n", m)
        # an n = 4 line loaded as n = 3 (it would get a J computed for 3
        # bodies) or as n = 5 (numpy could not broadcast it)
        line4 = report_mod.dump_solutions(run_n4.solutions[:1], run_n4.masses)
        for n in (3, 5):
            with pytest.raises(ValueError, match="n = 4"):
                report_mod.load_solutions(line4, Masses.equal(n))
        # the "n" field has to agree with the box as well
        with pytest.raises(ValueError):
            report_mod.load_solutions(json.dumps({**rec, "n": 4}) + "\n", m)


def _normalize(text: str):
    """Structure skeleton and the numeric payload of a report."""
    skeleton = []
    numbers = []
    float_re = re.compile(r"-?\d+\.?\d*(?:[eE][-+]?\d+)?")
    for line in text.splitlines():
        if line.startswith("Program computed"):
            skeleton.append("Program computed <time>")
            continue
        nums = [float(v) for v in float_re.findall(line)]
        numbers.extend(nums)
        skeleton.append(float_re.sub("<num>", line))
    return skeleton, numbers


class TestGoldenReports:
    def _compare(self, run, golden_path):
        text = report_mod.render_search_report(
            run.cfg, run.masses, run.domain, run.stats, run.records, minutes=0.0
        )
        golden = golden_path.read_text()
        skel_a, nums_a = _normalize(text)
        skel_b, nums_b = _normalize(golden)
        assert skel_a == skel_b
        assert len(nums_a) == len(nums_b)
        for x, y in zip(nums_a, nums_b):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y)) + 1e-9

    def test_golden_n3(self, run_n3):
        self._compare(run_n3, DATA / "golden_report_n3.txt")

    def test_golden_n4(self, run_n4):
        self._compare(run_n4, DATA / "golden_report_n4.txt")

    def test_report_has_expected_sections(self, run_n3):
        text = report_mod.render_search_report(
            run_n3.cfg, run_n3.masses, run_n3.domain, run_n3.stats, run_n3.records, 0.0
        )
        for token in (
            "Number of bodies = 3",
            "Input data:",
            "The number of undecided cubes: 0",
            "The number of zeros in the method:",
            "Tests usage:",
            "U*(I)^(1/2)/(M)^(5/2)",
            "Moeckel's potential",
            "collinear solution no 1",
            "symmetric with respect to OX no",
            "reflectional symmetry with respect to other line",
            "Number of different cc = 2",
        ):
            assert token in text, token


class TestSvg:
    def test_svg_contains_bodies_and_axis(self, run_n3):
        rec = next(r for r in run_n3.records if not r.symmetry.collinear)
        svg = report_mod.render_svg(rec.representative, rec.symmetry)
        assert svg.count("<circle") == 3
        assert 'stroke="red"' in svg
        assert svg.startswith("<svg")


class TestBenchCsv:
    def test_empty_grid(self):
        out = report_mod.render_bench_csv([])
        assert out.splitlines()[0].startswith("n,bias,ordering")
        assert len(out.splitlines()) == 1

    def test_rows(self):
        rows = [
            dict(n=4, bias=1e-2, ordering="decreasing", seconds=1.5, calls=10, zeros=1,
                 undecided=0, excluded_total=5)
        ]
        out = report_mod.render_bench_csv(rows)
        assert "4,0.01,decreasing,1.500,10,1,0,5" in out

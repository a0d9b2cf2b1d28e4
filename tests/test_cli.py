"""Command line driver: the three subcommands end to end on small inputs."""

import pytest

from ccenum import cli
from ccenum.cli import main


class TestSearchCommand:
    def test_n3_full_outputs(self, tmp_path):
        report = tmp_path / "report.txt"
        sols = tmp_path / "solutions.jsonl"
        svg_dir = tmp_path / "figs"
        code = main(
            [
                "search",
                "--n",
                "3",
                "--report",
                str(report),
                "--solutions",
                str(sols),
                "--svg-dir",
                str(svg_dir),
            ]
        )
        assert code == 0
        text = report.read_text()
        assert "Number of different cc = 2" in text
        assert "The number of undecided cubes: 0" in text
        assert len(sols.read_text().splitlines()) >= 2
        assert len(list(svg_dir.glob("*.svg"))) == 2

    def test_large_n_guard(self, capsys):
        assert main(["search", "--n", "9"]) == 2

    @pytest.mark.parametrize("value", ["0", "false", "No", ""])
    def test_allow_large_env_off(self, value, monkeypatch):
        def started(*args):
            raise AssertionError("a search started")

        monkeypatch.setattr(cli, "search", started)
        monkeypatch.setenv("CCENUM_ALLOW_LARGE", value)
        assert main(["search", "--n", "9"]) == 2

    def test_allow_large_env_on(self, monkeypatch):
        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(cli, "search", started)
        monkeypatch.setenv("CCENUM_ALLOW_LARGE", "1")
        with pytest.raises(Started):
            main(["search", "--n", "9"])


class TestVerifyCommand:
    def test_verify_file(self, tmp_path):
        cand = tmp_path / "cands.txt"
        cand.write_text(
            "-0.2886751346 -0.5\n0.5773502692 0\n-0.2886751346 0.5\n"
            "\n"
            "-0.7469007911 0\n0.7469007911 0\n0 0\n"
        )
        report = tmp_path / "verify.txt"
        code = main(["verify", "--candidates", str(cand), "--report", str(report)])
        assert code == 0
        text = report.read_text()
        assert "Certified candidates: 2 / 2" in text
        assert "collinear solution" in text

    def test_too_few_bodies_not_certified(self, tmp_path):
        """Candidates of 2 and 1 bodies are reported as not certified, and
        the candidates around them are still verified."""
        cand = tmp_path / "cands.txt"
        cand.write_text(
            "-0.2886751346 -0.5\n0.5773502692 0\n-0.2886751346 0.5\n"
            "\n"
            "-0.5 0\n0.5 0\n"
            "\n"
            "0 0\n"
        )
        report = tmp_path / "verify.txt"
        code = main(["verify", "--candidates", str(cand), "--report", str(report)])
        assert code == 1
        blocks = report.read_text().split("---------------------")[1:]
        assert "unique zero certified" in blocks[0]
        assert "NOT CERTIFIED: a candidate needs at least 3 bodies, got 2" in blocks[1]
        assert "NOT CERTIFIED: a candidate needs at least 3 bodies, got 1" in blocks[2]
        assert "Certified candidates: 1 / 3" in blocks[2]

    def test_invalid_gauge_is_not_a_proof(self, tmp_path, monkeypatch):
        """A certified candidate whose pinned and derived bodies may share x
        is reported NOT PROVEN and fails the run."""
        from ccenum import reduced

        monkeypatch.setattr(reduced, "gauge_validity", lambda *args: False)
        cand = tmp_path / "cands.txt"
        cand.write_text("-0.2886751346 -0.5\n0.5773502692 0\n-0.2886751346 0.5\n")
        report = tmp_path / "verify.txt"
        code = main(["verify", "--candidates", str(cand), "--report", str(report)])
        text = report.read_text()
        assert "Certified candidates: 1 / 1" in text
        assert "NOT PROVEN: the pinned and derived bodies may share x" in text
        assert code == 1

    def test_verify_failure_exit_code(self, tmp_path):
        cand = tmp_path / "bad.txt"
        cand.write_text("0 0\n0.5 0\n1.0 0\n")
        report = tmp_path / "verify.txt"
        code = main(["verify", "--candidates", str(cand), "--report", str(report)])
        assert code == 1


class TestBenchCommand:
    def test_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--n-list", "3", "--bias-list", "1e-2,1e-1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n,bias,ordering")

    def test_undecided_boxes_fail(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--n-list", "3", "--eps", "0.2", "--bias-list", "0.3", "--out", str(out)]
        )
        assert code == 1
        row = out.read_text().splitlines()[1].split(",")
        assert row[6] == "9"  # the undecided column

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n-list", "", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1

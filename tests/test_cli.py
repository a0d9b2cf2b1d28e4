"""Command line driver: the three subcommands end to end on small inputs."""

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

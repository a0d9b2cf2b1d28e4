"""Command line driver: the three subcommands end to end on small inputs."""

from dataclasses import asdict, fields
from inspect import signature
from pathlib import Path

import pytest

from ccenum import cli
from ccenum.cli import main
from ccenum.search import SearchConfig
from ccenum.verify import verify_candidate

N3_CANDIDATES = Path(__file__).parent / "data" / "cc_n3.txt"


def _started(*args, **kwargs):
    raise AssertionError("a search started")


class Started(Exception):
    pass


def _raise_started(*args, **kwargs):
    raise Started


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

    @pytest.mark.parametrize(
        "flag, value",
        [("eps", "0"), ("eps", "nan"), ("bias", "nan"), ("bias", "1e-6"), ("threads", "0"), ("threads", "-5")],
    )
    def test_bad_setting_exits_2(self, flag, value, monkeypatch, capsys):
        """A setting the search refuses ends the run with a message and
        code 2, not with the code of "not a proof"."""
        monkeypatch.setattr(cli, "search", _started)
        assert main(["search", "--n", "3", f"--{flag}={value}"]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["report", "solutions"])
    def test_missing_output_directory_exits_2(self, flag, tmp_path, monkeypatch, capsys):
        """An output file that could not be written is refused before the
        search, not after it."""
        monkeypatch.setattr(cli, "search", _started)
        missing = tmp_path / "missing" / "out.txt"
        assert main(["search", "--n", "3", f"--{flag}", str(missing)]) == 2
        assert str(missing.parent) in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["report", "solutions"])
    def test_output_naming_a_directory_exits_2(self, flag, tmp_path, monkeypatch, capsys):
        """An output path that is a directory is refused before the search,
        not with an IsADirectoryError after it."""
        monkeypatch.setattr(cli, "search", _started)
        assert main(["search", "--n", "3", f"--{flag}", str(tmp_path)]) == 2
        assert f"{tmp_path} is a directory" in capsys.readouterr().err

    def test_allow_large_flag(self, monkeypatch):
        monkeypatch.setattr(cli, "search", _raise_started)
        with pytest.raises(Started):
            main(["search", "--n", "9", "--allow-large"])

    def test_svg_dir_naming_a_file_exits_2(self, tmp_path, monkeypatch, capsys):
        """An `--svg-dir` that cannot be a directory is refused before the
        search, not after it."""
        monkeypatch.setattr(cli, "search", _started)
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["search", "--n", "3", "--svg-dir", str(afile)]) == 2
        assert str(afile) in capsys.readouterr().err

    def test_svg_dir_created_before_the_search(self, tmp_path, monkeypatch):
        svg_dir = tmp_path / "a" / "figs"

        def search(*args):
            assert svg_dir.is_dir()
            raise Started

        monkeypatch.setattr(cli, "search", search)
        with pytest.raises(Started):
            main(["search", "--n", "3", "--svg-dir", str(svg_dir)])

    def test_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["search"])
        assert {f.name: getattr(args, f.name) for f in fields(SearchConfig)} == asdict(SearchConfig(n=3))


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

    def test_svg_dir(self, tmp_path):
        """One figure per certified candidate, named by its index; the
        symmetric equilateral triangle's figure draws its axis in red."""
        cand = tmp_path / "cands.txt"
        cand.write_text(
            "-0.2886751346 -0.5\n0.5773502692 0\n-0.2886751346 0.5\n"
            "\n"
            "-0.5 0\n0.5 0\n"
            "\n"
            "-0.7469007911 0\n0.7469007911 0\n0 0\n"
        )
        svg_dir = tmp_path / "figs"
        args = ["verify", "--candidates", str(cand), "--report", str(tmp_path / "r.txt")]
        code = main(args + ["--svg-dir", str(svg_dir)])
        assert code == 1  # the two-body candidate is not certified
        names = sorted(p.name for p in svg_dir.glob("*.svg"))
        assert names == ["candidate_0.svg", "candidate_2.svg"]
        svg = (svg_dir / "candidate_0.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 3
        assert 'stroke="red"' in svg

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

    @pytest.mark.parametrize(
        "delta, text, message",
        [
            ("0", "-0.2886751346 -0.5\n0.5773502692 0\n-0.2886751346 0.5\n", "delta"),
            ("-1e-6", "-0.2886751346 -0.5\n0.5773502692 0\n-0.2886751346 0.5\n", "delta"),
            ("1e-6", "-0.2886751346 -0.5\n0.5773502692\n", "two coordinates"),
            # a non-finite coordinate is malformed, not a candidate that fails
            ("1e-6", "-0.2886751346 -0.5\nnan 0\n-0.2886751346 0.5\n", "finite"),
            ("1e-6", "-0.2886751346 -0.5\n0.5773502692 0\n-0.2886751346 inf\n", "finite"),
            # no candidate proves nothing, so it is no "0 / 0 certified" with code 0
            ("1e-6", "", "no candidate"),
            ("0", "# x y per line\n\n# none listed\n", "no candidate"),
        ],
    )
    def test_bad_input_exits_2(self, delta, text, message, tmp_path, monkeypatch, capsys):
        """A delta the doubling can never lift to a certifiable box, or a
        malformed or empty candidates file, ends the run with a message
        before any operator step."""
        from ccenum import krawczyk

        def stepped(*args):
            raise AssertionError("an operator step ran")

        monkeypatch.setattr(krawczyk, "iterate_arrays", stepped)
        cand = tmp_path / "cands.txt"
        cand.write_text(text)
        assert main(["verify", "--candidates", str(cand), f"--delta={delta}"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing.txt", "."])
    def test_unreadable_candidates_exit_2(self, where, tmp_path, capsys):
        assert main(["verify", "--candidates", str(tmp_path / where)]) == 2
        assert "ccenum verify:" in capsys.readouterr().err

    def test_missing_report_directory_exits_2(self, tmp_path, monkeypatch, capsys):
        from ccenum import krawczyk

        def stepped(*args):
            raise AssertionError("an operator step ran")

        monkeypatch.setattr(krawczyk, "iterate_arrays", stepped)
        missing = tmp_path / "missing" / "r.txt"
        assert main(["verify", "--candidates", str(N3_CANDIDATES), "--report", str(missing)]) == 2
        assert str(missing.parent) in capsys.readouterr().err

    def test_report_naming_a_directory_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_candidate", _started)
        assert main(["verify", "--candidates", str(N3_CANDIDATES), "--report", str(tmp_path)]) == 2
        assert f"{tmp_path} is a directory" in capsys.readouterr().err

    def test_svg_dir_naming_a_file_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_candidate", _started)
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["verify", "--candidates", str(N3_CANDIDATES), "--svg-dir", str(afile)]) == 2
        assert str(afile) in capsys.readouterr().err

    def test_svg_dir_created_before_the_work(self, tmp_path, monkeypatch):
        svg_dir = tmp_path / "a" / "figs"

        def verify(*args, **kwargs):
            assert svg_dir.is_dir()
            raise Started

        monkeypatch.setattr(cli, "verify_candidate", verify)
        with pytest.raises(Started):
            main(["verify", "--candidates", str(N3_CANDIDATES), "--svg-dir", str(svg_dir)])

    def test_environment_is_not_read(self, tmp_path, monkeypatch):
        """Flags are the only settings: a variable of a former settings
        mirror that is not even a number changes nothing."""
        monkeypatch.setenv("CCENUM_THREADS", "abc")
        monkeypatch.setenv("CCENUM_DELTA", "abc")
        report = tmp_path / "r.txt"
        assert main(["verify", "--candidates", str(N3_CANDIDATES), "--report", str(report)]) == 0

    def test_delta_default_is_verify_candidate_default(self):
        args = cli.build_parser().parse_args(["verify", "--candidates", "c.txt"])
        assert args.delta == signature(verify_candidate).parameters["delta"].default

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

    @pytest.mark.parametrize(
        "args", [["--bias-list", "1e-2,nan"], ["--eps", "0"], ["--ordering-list", "decreasing,up"]]
    )
    def test_bad_setting_exits_2(self, args, monkeypatch, capsys):
        """Every point of the grid is checked before the first search runs."""
        monkeypatch.setattr(cli, "search", _started)
        assert main(["bench", "--n-list", "3", *args]) == 2
        assert "ccenum bench:" in capsys.readouterr().err

    @pytest.mark.parametrize("n_list", ["9", "3,8", "10,4"])
    def test_large_n_guard(self, n_list, monkeypatch, capsys):
        """n outside 3..7 exits 2 before any search, as in `search`."""
        monkeypatch.setattr(cli, "search", _started)
        assert main(["bench", "--n-list", n_list]) == 2
        assert "--allow-large" in capsys.readouterr().err

    def test_allow_large_flag(self, monkeypatch):
        monkeypatch.setattr(cli, "search", _raise_started)
        with pytest.raises(Started):
            main(["bench", "--n-list", "9", "--allow-large"])

    def test_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["bench"])
        cfg = SearchConfig(n=4)
        assert args.eps == cfg.eps
        assert [float(b) for b in args.bias_list.split(",")] == [cfg.bias]
        assert args.ordering_list.split(",") == [cfg.ordering]

    def test_missing_out_directory_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "search", _started)
        missing = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--n-list", "3", "--out", str(missing)]) == 2
        assert str(missing.parent) in capsys.readouterr().err

    def test_out_naming_a_directory_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "search", _started)
        assert main(["bench", "--n-list", "3", "--out", str(tmp_path)]) == 2
        assert f"{tmp_path} is a directory" in capsys.readouterr().err

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n-list", "", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1

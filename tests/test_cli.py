"""Tests for the command-line front end."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_formats_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["theory", "--markdown", "--csv"])

    @pytest.mark.parametrize(
        "name",
        [
            "fig5a",
            "fig5b",
            "fig6",
            "fig7a",
            "fig7b",
            "headline",
            "theory",
            "ablations",
            "stragglers",
            "all",
        ],
    )
    def test_known_experiments_parse(self, name):
        args = build_parser().parse_args([name])
        assert args.experiment == name


class TestMain:
    def test_theory_runs(self, capsys):
        assert main(["theory", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "dominance ability" in out
        assert "True" in out

    def test_quick_fig5a(self, capsys):
        assert main(["fig5a", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out
        assert "MR-Angle" in out

    def test_markdown_output(self, capsys):
        assert main(["theory", "--quick", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "|---" in out

    def test_csv_output(self, capsys):
        assert main(["theory", "--quick", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "x,y,D_angle_eq3" in out


class TestOutputFile:
    def test_output_file_appended(self, tmp_path, capsys):
        target = tmp_path / "tables.txt"
        assert main(["theory", "--quick", "--output", str(target)]) == 0
        assert main(["theory", "--quick", "--output", str(target)]) == 0
        content = target.read_text()
        assert content.count("dominance ability") == 2

    def test_stragglers_quick(self, capsys):
        assert main(["stragglers", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "speculative" in out


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "theory", "--quick", "--csv"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert "D_angle_eq3" in proc.stdout


class TestServeCommand:
    def test_invalid_config_exits_2(self, capsys):
        assert main(["serve", "--max-inflight", "0"]) == 2
        assert "max_inflight" in capsys.readouterr().err

    def test_bad_tcp_spec_exits_2(self, capsys):
        assert main(["serve", "--tcp", "not-a-port"]) == 2
        assert "cannot bind" in capsys.readouterr().err

    def test_help_mentions_protocol(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "JSON-lines" in capsys.readouterr().out

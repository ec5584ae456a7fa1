"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestColorCommand:
    def test_default_pipeline(self, capsys):
        rc = main(["color", "--n", "60", "--k", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "colors used" in out
        assert "AMPC rounds" in out

    def test_variant_selection(self, capsys):
        rc = main(["color", "--n", "50", "--variant", "alpha_squared", "--alpha", "2"])
        assert rc == 0
        assert "variant=alpha_squared" in capsys.readouterr().out

    def test_from_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        rc = main(["color", "--input", str(path), "--alpha", "1"])
        assert rc == 0
        assert "n=4" in capsys.readouterr().out


class TestPartitionCommand:
    def test_reports_resources(self, capsys):
        rc = main(["partition", "--n", "80", "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "layers:" in out
        assert "valid: True" in out

    def test_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        path.write_text("# empty\n")
        rc = main(["partition", "--input", str(path)])
        assert rc == 0
        assert "layers: 0  rounds: 0" in capsys.readouterr().out


class TestExperimentsCommand:
    def test_runs_by_prefix(self, capsys):
        rc = main(["experiments", "E11"])
        assert rc == 0
        assert "alpha_exact" in capsys.readouterr().out

    def test_unknown_prefix_errors(self, capsys):
        rc = main(["experiments", "ZZ"])
        assert rc == 1
        assert "no experiment" in capsys.readouterr().err


class TestInfoCommand:
    def test_basic_stats(self, capsys):
        rc = main(["info", "--n", "50", "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degeneracy" in out

    def test_exact_arboricity_flag(self, capsys):
        rc = main(["info", "--n", "40", "--k", "2", "--exact"])
        assert rc == 0
        assert "exact arboricity" in capsys.readouterr().out

    def test_generators(self, capsys):
        for gen in ("tree", "grid", "pref-attach", "gnm"):
            rc = main(["info", "--generator", gen, "--n", "30", "--k", "2"])
            assert rc == 0


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["color", "--generator", "gnm", "--n", "4", "--k", "3"],
             "G(4, m) has at most 6 edges"),
            (["info", "--generator", "forests", "--n", "-5"],
             "n must be non-negative"),
            (["partition", "--generator", "forests", "--k", "-1"],
             "k must be non-negative"),
            (["partition", "--beta", "0"], "beta must be >= 1"),
            (["color", "--alpha", "0"],
             "alpha must be >= 1 on a graph with edges, got 0"),
            (["color", "--eps", "0"], "eps must be > 0, got 0.0"),
            (["partition", "--alpha", "0"], "--alpha must be >= 1, got 0"),
        ],
    )
    def test_bad_generator_argument_is_a_one_line_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"repro: error: {message}\n"

    def test_bad_input_file_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2 2\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["info", "--input", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["color", "partition"])
    def test_beta_below_the_degeneracy_is_a_one_line_error(self, command, capsys):
        # The default graph, 4 random forests on 300 vertices, has
        # degeneracy 5, so --alpha 1 (β = 3) leaves a residual graph of
        # min degree > β: a bad argument, not a crash.
        argv = [command, "--n", "300", "--k", "4", "--alpha", "1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "repro: error: β=3 is below the graph's degeneracy: no vertex "
            "became layered in a round (every residual degree > β)\n"
        )

"""Command-line harness: outcome tables, file outputs, determinism, errors."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qubuslab
from qubuslab import growth
from qubuslab.cli import GROWTH_CSV_COLUMNS, main, parse_amount


@pytest.fixture
def runner():
    return CliRunner()


class TestParseAmount:
    def test_plain_float(self):
        assert parse_amount("0.25") == 0.25

    def test_sqrt_pi_fraction(self):
        assert parse_amount("sqrt(pi/8)") == pytest.approx(math.sqrt(math.pi / 8))

    def test_pi_fraction(self):
        assert parse_amount("pi/4") == pytest.approx(math.pi / 4)

    def test_garbage_rejected(self):
        import click

        with pytest.raises(click.BadParameter):
            parse_amount("eleven")


class TestGateCommand:
    def test_three_qubit_table(self, runner):
        result = runner.invoke(
            main, ["gate", "three-qubit", "--alpha", "1000", "--theta", "0.003"]
        )
        assert result.exit_code == 0
        assert "ghz" in result.output
        assert "0.250000000" in result.output
        assert "0.125000000" in result.output

    @pytest.mark.parametrize("n", [2, 4])
    def test_cascade_table_any_size(self, runner, n):
        result = runner.invoke(main, ["gate", "cascade", "--n", str(n)])
        assert result.exit_code == 0, result.output
        rows = [line.split() for line in result.output.splitlines()]
        assert [row[2] for row in rows if row[0] == "ghz"] == ["1.00000000"]

    def test_cascade_of_a_gate_that_does_nothing(self, runner):
        result = runner.invoke(
            main, ["gate", "cascade", "--n", "3", "--alpha", "1", "--theta", "0"]
        )
        assert result.exit_code == 0, result.output
        assert "pair success: 0 " in result.output
        rows = [line.split() for line in result.output.splitlines()]
        assert [row[0] for row in rows if row[0] in ("mixed", "entangled")] == ["mixed"]

    def test_three_qubit_bell_rows_show_fidelity(self, runner):
        for name in ("three-qubit", "cascade"):
            result = runner.invoke(main, ["gate", name, "--n", "3"])
            assert result.exit_code == 0, result.output
            rows = [line.split() for line in result.output.splitlines()]
            fids = {row[0]: row[2] for row in rows if row[0].startswith("bell-q3")}
            assert fids == {"bell-q3-0": "1.00000000", "bell-q3-1": "1.00000000"}

    def test_degenerate_regime_warns(self, runner):
        result = runner.invoke(
            main, ["gate", "parity-momentum", "--alpha", "1", "--theta", "0"]
        )
        assert result.exit_code == 0
        assert "0.5" in result.output  # error budget shows 1/2
        assert "warning" in result.output.lower()

    def test_chain_stabilizer_check(self, runner):
        result = runner.invoke(
            main, ["gate", "chain", "--n", "5", "--beta", "sqrt(pi/8)"]
        )
        assert result.exit_code == 0
        assert "stabilizer check: PASS" in result.output

    def test_sequences_do_not_import_scipy(self):
        """The graph-state check is a dense oracle that needs no SciPy."""
        code = (
            "import sys\n"
            "import qubuslab.cli\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            "for name in ('chain', 'star'):\n"
            "    try:\n"
            "        qubuslab.cli.main(['gate', name, '--n', '4'])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code in (0, None), exc.code\n"
            "    assert 'scipy' not in sys.modules, name\n"
        )
        src = Path(qubuslab.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("stabilizer check: PASS") == 2

    @pytest.mark.parametrize("name", ["chain", "star"])
    def test_sixteen_qubit_sequence(self, runner, name):
        """65,536 branches: the program and the spread must not be O(branches^2)."""
        result = runner.invoke(main, ["gate", name, "--n", "16"])
        assert result.exit_code == 0, result.output
        assert "bus spread after sequence: 0.0\n" in result.output
        assert "stabilizer check: PASS" in result.output

    def test_star_with_custom_graph_file(self, runner, tmp_path):
        graph = tmp_path / "star.txt"
        graph.write_text("0 1\n0 2\n0 3\n")
        result = runner.invoke(
            main,
            ["gate", "star", "--n", "4", "--beta", "sqrt(pi/8)",
             "--graph", str(graph)],
        )
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_star_wrong_graph_fails(self, runner, tmp_path):
        graph = tmp_path / "chain.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        result = runner.invoke(
            main,
            ["gate", "star", "--n", "4", "--beta", "sqrt(pi/8)",
             "--graph", str(graph)],
        )
        assert result.exit_code != 0

    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "outcomes.csv"
        result = runner.invoke(
            main,
            ["gate", "parity-momentum", "--alpha", "1000", "--theta", "0.003",
             "--csv", str(out)],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(out.open()))
        assert {r["label"] for r in rows} == {"odd-bell", "product-00", "product-11"}

    def test_invalid_alpha_rejected(self, runner):
        result = runner.invoke(
            main, ["gate", "parity-momentum", "--alpha", "-3", "--theta", "0.1"]
        )
        assert result.exit_code != 0

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1000.0, "theta": 0.5}))
        result = runner.invoke(
            main,
            ["gate", "parity-momentum", "--config", str(cfg), "--theta", "0.003"],
        )
        assert result.exit_code == 0
        # flag overrides the file: the budget reflects theta = 0.003
        assert "1.3499e-03" in result.output


class TestGrowthCommand:
    def test_vertical_run_csv_columns(self, runner, tmp_path):
        out = tmp_path / "agg.csv"
        result = runner.invoke(
            main,
            ["growth", "vertical_link", "--p", "0.75", "--trials", "4000",
             "--seed", "3", "--csv", str(out)],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(out.open()))
        assert list(rows[0]) == list(GROWTH_CSV_COLUMNS)
        assert float(rows[0]["mean_ops"]) == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_sequential_stats_and_jsonl(self, runner, tmp_path):
        jsonl = tmp_path / "trials.jsonl"
        result = runner.invoke(
            main,
            ["growth", "sequential", "--p", "0.75", "--L", "21",
             "--trials", "500", "--seed", "7", "--jsonl", str(jsonl)],
        )
        assert result.exit_code == 0
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(records) == 500
        assert records[0]["config"]["p"] == 0.75
        assert records[0]["config"]["target_L"] == 21

    def test_rejected_config_exits_nonzero(self, runner):
        result = runner.invoke(
            main, ["growth", "sequential", "--p", "0.4", "--L", "10",
                   "--trials", "10", "--seed", "0"],
        )
        assert result.exit_code != 0
        assert "does not terminate" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["growth", "vertical_link", "--p", "1.5", "--trials", "10"],
            ["growth", "vertical_link", "--p", "0.5", "--trials", "0"],
            ["growth", "vertical_link", "--p", "0.5", "--t", "nan"],
            ["growth", "vertical_link", "--p", "0.5", "--t", "0"],
        ],
    )
    def test_out_of_range_parameters_rejected(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code != 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_time_refused_in_jsonl(self, runner, tmp_path):
        out = tmp_path / "t.jsonl"
        result = runner.invoke(
            main, ["growth", "vertical_link", "--p", "0.5", "--t", "1e308",
                   "--trials", "20", "--seed", "1", "--jsonl", str(out)])
        assert result.exit_code == 1
        assert "non-finite elapsed_rounds" in result.output
        assert not out.exists()

    def test_config_file_round_cap_rejected(self, runner, tmp_path):
        cfg = tmp_path / "growth.json"
        cfg.write_text(json.dumps({"max_rounds": -3}))
        result = runner.invoke(
            main, ["growth", "sequential", "--L", "5", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "max_rounds must be at least 1" in result.output

    def test_seed_determinism_across_reruns(self, runner, tmp_path):
        outputs = []
        for run in ("a", "b"):
            csv_path = tmp_path / f"{run}.csv"
            jsonl_path = tmp_path / f"{run}.jsonl"
            result = runner.invoke(
                main,
                ["growth", "sequential", "--p", "0.75", "--L", "15",
                 "--trials", "400", "--seed", "11",
                 "--csv", str(csv_path), "--jsonl", str(jsonl_path)],
            )
            assert result.exit_code == 0
            outputs.append((csv_path.read_bytes(), jsonl_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_seed_from_environment(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            result = runner.invoke(
                main,
                ["growth", "vertical_link", "--p", "0.5", "--trials", "200",
                 "--csv", str(path)],
                env={"QUBUSLAB_SEED": "424242"},
            )
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args", [
        ["sequential", "--p", "0.75", "--L", "11", "--trials", "300"],
        ["merge", "--p", "0.75", "--L", "41", "--trials", "40"],
        ["divide_conquer", "--p", "0.5", "--n", "256", "--k", "4", "--trials", "200"],
        ["vertical_link", "--p", "0.5", "--trials", "300"],
    ])
    def test_csv_file_equals_printed_csv(self, runner, tmp_path, monkeypatch, args):
        calls = []
        real = growth.compare_to_analytic

        def spy(*a):
            calls.append(a)
            return real(*a)

        monkeypatch.setattr(growth, "compare_to_analytic", spy)
        out = tmp_path / "agg.csv"
        result = runner.invoke(main, ["growth", *args, "--seed", "5", "--csv", str(out)])
        assert result.exit_code == 0, result.output
        text = out.read_text()
        lines = result.output.splitlines()
        assert lines[:2] == text.splitlines()
        assert len(calls) == 1
        assert len([line for line in lines if "empirical" in line]) >= 1
        assert lines[-1] == f"wrote {out}"

    def test_config_file_growth(self, runner, tmp_path):
        cfg = tmp_path / "growth.json"
        cfg.write_text(json.dumps(
            {"p": 0.75, "target_L": 11, "trials": 100, "master_seed": 5}
        ))
        result = runner.invoke(
            main, ["growth", "sequential", "--config", str(cfg)]
        )
        assert result.exit_code == 0
        assert "sequential,0.75,11,100" in result.output


class TestScalingCommand:
    def test_table_rows(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        result = runner.invoke(
            main,
            ["scaling", "--p", "0.75", "--l-min", "5", "--l-max", "300",
             "--series", "dc,merge,seq", "--csv", str(out)],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(out.open()))
        table = {(int(r["L"]), r["series"]): float(r["value"]) for r in rows}
        # the doubling strategy is cheaper below the crossover, dearer above
        assert table[(100, "dc")] < table[(100, "merge")]
        assert table[(300, "dc")] > table[(300, "merge")]
        assert table[(100, "seq")] < table[(100, "dc")]

    def test_time_metric_ordering(self, runner, tmp_path):
        out = tmp_path / "times.csv"
        result = runner.invoke(
            main,
            ["scaling", "--p", "0.75", "--l-min", "50", "--l-max", "200",
             "--series", "dc,merge,seq", "--metric", "T", "--csv", str(out)],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(out.open()))
        table = {(int(r["L"]), r["series"]): float(r["value"]) for r in rows}
        assert table[(200, "dc")] < table[(200, "merge")] < table[(200, "seq")]

    def test_single_point(self, runner, tmp_path):
        out = tmp_path / "one.csv"
        result = runner.invoke(
            main,
            ["scaling", "--p", "0.75", "--l-min", "41", "--l-max", "41",
             "--series", "seq", "--csv", str(out)],
        )
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(80.0)

    def test_svg_output(self, runner, tmp_path):
        svg = tmp_path / "plot.svg"
        result = runner.invoke(
            main,
            ["scaling", "--p", "0.75", "--l-min", "5", "--l-max", "100",
             "--series", "dc,merge", "--svg", str(svg)],
        )
        assert result.exit_code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text and "</svg>" in text

    def test_unknown_series(self, runner):
        result = runner.invoke(main, ["scaling", "--series", "nonsense"])
        assert result.exit_code != 0


class TestVerifyCommand:
    def test_quick_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--quick"])
        assert result.exit_code == 0, result.output
        assert "criterion 10" in result.output
        assert "FAIL" not in result.output.replace("FLAG", "")
        # the two quoted-constant discrepancies are reported, not failed
        assert "e^-16" in result.output
        assert "94, not 70" in result.output

"""Command-line harness: outcome tables, file outputs, determinism, errors."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import qubuslab
from qubuslab import analytics, gates, growth
from qubuslab.cli import main, parse_amount


@pytest.fixture
def runner():
    return CliRunner()


def assert_one_line_error(result):
    """click's ``Error:`` line, not a traceback from an uncaught exception."""
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Error:" in result.output
    assert "Traceback" not in result.output


_KNOWN = "dc, merge, seq, rus-pf-0.6, rus-pf-0.4, linear-optics-p-half"

# sha256 of `scaling --l-min 1 --l-max 400 --series dc,merge,seq --csv` at
# each (p, metric options); the same digests are pinned in ci/installed_command.sh
_SCALING_CSV_SHA256 = {
    ("0.75", "N"): "644079a1e29e015a6bc1c472f7c8e1c610a75702731bdea39864dfac391e1a1a",
    ("0.75", "T --t 0.37"): "a9ca8a4cb5eb97845d6ab192d20b8c06f26cfbf499ca9c3b2aa5b9acc5cf8a32",
    ("0.6", "N"): "8baa8c9241650beecc4ce72fa57594a1b65b67611768e2b76cefcfdf760e2ea6",
    ("0.6", "T --t 0.37"): "26389016def2573c2ba0a6214f5fcac7dc516740058376f5f8c3c5cfc5925364",
}


class TestCommandErrors:
    """A ValueError raised while a command runs exits 1 with one Error: line."""

    @pytest.mark.parametrize("args", [
        ["gate", "cascade", "--n", "1"],
        ["gate", "chain", "--n", "1"],
        ["scaling", "--p", "0"],
        ["scaling", "--p", "1.5"],
        ["growth", "divide_conquer", "--n", "64", "--L", "10", "--trials", "5"],
        ["growth", "divide_conquer", "--n", "64", "--L", "0", "--trials", "5"],
        ["gate", "chain", "--n", "4", "--beta", "0.3"],
        ["gate", "chain", "--n", "4", "--beta", "0"],
        ["gate", "star", "--n", "3", "--beta", "0.3"],
        ["gate", "geometric-cz", "--beta", "0.3"],
        ["gate", "geometric-cz", "--beta", "0"],
    ])
    def test_value_error_is_one_line(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert_one_line_error(result)
        assert len(result.output.strip().splitlines()) == 1, result.output

    @pytest.mark.parametrize("args, message", [
        (["growth", "divide_conquer", "--n", "1024", "--k", "6", "--L", "9"],
         "divide and conquer needs exactly one of rounds_k and target_L"),
        (["growth", "divide_conquer", "--n", "1024", "--k", "6", "--L", "33"],
         "divide and conquer needs exactly one of rounds_k and target_L"),
        (["scaling", "--metric", "T", "--series", "rus-pf-0.6"],
         "series rus-pf-0.6 only defines operation counts"),
        (["scaling", "--p", "0.5", "--series", "seq"],
         "no average growth for p <= 1/2; expectation diverges"),
        (["scaling", "--l-min", "500", "--l-max", "400"],
         "empty length range: --l-min 500 is above --l-max 400"),
        (["scaling", "--l-min", "-3", "--l-max", "2", "--series", "rus-pf-0.6"],
         "--l-min -3 is below 1: a chain holds at least one qubit"),
        (["scaling", "--l-min", "0"], "--l-min 0 is below 1: a chain holds at least one qubit"),
        (["gate", "chain", "--n", "1000000"],
         "gate chain holds at most 20 qubits, got n = 1000000"),
        (["gate", "cascade", "--n", "1000000"],
         "gate cascade holds at most 13 qubits, got n = 1000000"),
        (["gate", "star", "--config", "<n of 330 digits>"],
         f"gate star holds at most 20 qubits, got n = {10**329}"),
        (["scaling", "--p", "1e-40", "--series", "dc"],
         "the dc series overflows a float at L = 2e+40, p = 1e-40"),
        (["gate", "cascade", "--n", "6", "--alpha", "1e300", "--theta", "1"],
         "alpha*theta = 1e+300 is too large: its square overflows a float"),
        (["gate", "three-qubit", "--alpha", "2", "--theta", "1e200"],
         "alpha*theta = 2e+200 is too large: its square overflows a float"),
        (["gate", "parity-bucket", "--alpha", "2", "--theta", "1e200"],
         "alpha*theta = 2e+200 is too large: its square overflows a float"),
        (["gate", "parity-bucket", "--alpha", "1e300", "--theta", "1"],
         "alpha*theta = 1e+300 is too large: its square overflows a float"),
        (["gate", "parity-momentum", "--alpha", "1e308", "--theta", "3"],
         "alpha*theta = inf is too large: its square overflows a float"),
        (["gate", "parity-bucket", "--alpha", "1e154", "--theta", "1"],
         "2*alpha*sin(theta) = 1.683e+154 is too large: its square overflows a float"),
        (["gate", "parity-bucket", "--alpha", "1e200", "--theta", "1e-60"],
         "alpha = 1e+200 is too large: its square overflows a float"),
        (["gate", "parity-position", "--alpha", "2e154", "--theta", "0.5"],
         "alpha = 2e+154 is too large: its square overflows a float"),
        (["gate", "three-qubit", "--alpha", "2e154", "--theta", "0.5"],
         "alpha = 2e+154 is too large: its square overflows a float"),
        (["gate", "parity-momentum", "--alpha", "1e200", "--theta", "1e-60"],
         "alpha = 1e+200 is too large: its square overflows a float"),
        (["gate", "cascade", "--n", "4", "--alpha", "2e154", "--theta", "0.5"],
         "alpha = 2e+154 is too large: its square overflows a float"),
        (["scaling", "--t", "-2"], "gate_time must be finite and > 0, got -2.0"),
        (["scaling", "--t", "0"], "gate_time must be finite and > 0, got 0.0"),
        (["scaling", "--t", "nan"], "gate_time must be finite and > 0, got nan"),
        (["scaling", "--t", "inf", "--metric", "T"], "gate_time must be finite and > 0, got inf"),
        (["scaling", "--metric", "T", "--t", "1e308"], "the dc series is not finite at L = 5: inf"),
        (["scaling", "--series", ","], f"--series ',' names no series; known: {_KNOWN}"),
        (["scaling", "--series", ",", "--svg", "<tmp>/x.svg"],
         f"--series ',' names no series; known: {_KNOWN}"),
        (["scaling", "--series", ",", "--svg", "<tmp>/x.svg", "--csv", "<tmp>/x.csv"],
         f"--series ',' names no series; known: {_KNOWN}"),
        (["scaling", "--series", "rus-pf-0.6", "--l-max", "6", "--svg", "<tmp>/y.svg"],
         "no series has a value at L = 5..6: rus-pf-0.6 starts at L = 7"),
        (["scaling", "--series", "dc,linear-optics-p-half", "--l-min", "1", "--l-max", "1",
          "--csv", "<tmp>/y.csv"],
         "no series has a value at L = 1..1: dc starts at L = 2, linear-optics-p-half starts at L = 4"),
        (["scaling", "--p", "1e-320", "--series", "merge"],
         "the critical length overflows a float at p = 1e-320"),
        (["growth", "vertical_link", "--p", "1e-12", "--trials", "1"],
         "vertical_link at p = 1e-12 expects 1/p = 1e+12 attempts per trial; "
         "p must be at least 1e-06"),
        (["growth", "merge", "--p", "0.1", "--L", "50", "--trials", "1", "--seed", "1"],
         "merge at p = 0.1 and L = 50 expects 5.22e+07 ops per trial by its law; "
         "the budget is 1e+06 ops per trial"),
        (["growth", "sequential", "--p", "0.5000001", "--L", "400", "--trials", "200"],
         "sequential at p = 0.5000001 and L = 400 expects 2e+09 ops per trial by its law; "
         "the budget is 1e+06 ops per trial"),
        (["growth", "divide_conquer", "--n", "64", "--k", "2000", "--trials", "3"],
         "divide and conquer needs rounds_k <= 63; round 2000's chains of 2**1999 + 1 "
         "qubits overflow the int64 length column"),
    ], ids=["dc-k-and-off-grid-L", "dc-k-and-L", "scaling-reference-time",
            "scaling-seq-half", "scaling-empty-range", "scaling-negative-length",
            "scaling-zero-length", "chain-million", "cascade-million",
            "star-config-330-digits", "scaling-dc-overflow", "cascade-budget-overflow",
            "three-qubit-budget-overflow", "bucket-budget-overflow",
            "bucket-photon-and-budget-overflow", "momentum-alpha-theta-inf",
            "bucket-photon-scale-overflow", "bucket-displacement-overflow",
            "position-alpha-overflow", "three-qubit-alpha-overflow",
            "momentum-alpha-overflow", "cascade-alpha-overflow", "scaling-negative-time",
            "scaling-zero-time", "scaling-nan-time", "scaling-inf-time",
            "scaling-time-overflow", "scaling-no-series", "scaling-no-series-svg",
            "scaling-no-series-svg-csv", "scaling-no-row-svg", "scaling-no-row-csv",
            "scaling-critical-length-overflow", "vertical-link-never-finishes",
            "merge-over-budget", "sequential-over-budget", "dc-rounds-past-int64"])
    def test_refused_before_any_work(self, runner, tmp_path, args, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10**329}))
        args = [str(cfg) if a == "<n of 330 digits>" else a.replace("<tmp>", str(tmp_path))
                for a in args]
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1
        assert_one_line_error(result)
        assert result.output.strip().splitlines() == [f"Error: {message}"]
        assert list(tmp_path.iterdir()) == [cfg]  # no file written

    @pytest.mark.parametrize("name, n, builder", [
        ("chain", 20, "chain_sequence"), ("star", 20, "star_sequence"),
        ("cascade", 13, "cascade_outcomes"),
    ])
    def test_largest_register_is_not_refused(self, runner, name, n, builder, monkeypatch):
        # stop at the builder call: the size check has passed by then
        def reached(*args):
            raise RuntimeError("builder reached")

        monkeypatch.setattr(gates, builder, reached)
        result = runner.invoke(main, ["gate", name, "--n", str(n)])
        assert str(result.exception) == "builder reached"

    @pytest.mark.parametrize("args, config, message", [
        (["gate", "chain"], {"n": 4.7}, "n must be an integer, got 4.7"),
        (["gate", "cascade"], {"n": 4.7}, "n must be an integer, got 4.7"),
        (["gate", "chain"], {"n": True}, "n must be an integer, got True"),
        (["gate", "star"], {"n": "4"}, "n must be an integer, got '4'"),
        (["gate", "parity-momentum"], {"alpha": True}, "alpha must be a number, got True"),
        (["gate", "parity-bucket"], {"alpha": "2"}, "alpha must be a number, got '2'"),
        (["gate", "three-qubit"], {"theta": False}, "theta must be a number, got False"),
        (["growth", "sequential"], {"p": True, "target_L": 5}, "p must be a number, got True"),
        (["growth", "sequential"], {"p": "0.75", "target_L": 5},
         "p must be a number, got '0.75'"),
        (["growth", "sequential"], {"gate_time": True, "target_L": 5},
         "gate_time must be a number, got True"),
        (["gate", "parity-momentum"], {"alpha": 10**400}, "alpha is too large for a float"),
    ])
    def test_config_file_number_checked_not_coerced(self, runner, tmp_path, args,
                                                    config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, [*args, "--config", str(cfg)])
        assert result.exit_code == 1
        assert_one_line_error(result)
        assert result.output.strip().splitlines() == [f"Error: {message}"]

    @pytest.mark.parametrize("args", [
        ["growth", "sequential", "--L", "5", "--trials", "10"],
        ["gate", "chain"],
    ], ids=["growth", "gate"])
    def test_config_file_unknown_keys_refused(self, runner, tmp_path, args):
        """A key the command does not read is refused, not silently ignored."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1, "gate_backend": "nope", "n": 4, "p": 0.75}))
        result = runner.invoke(main, [*args, "--config", str(cfg)])
        assert result.exit_code == 1
        assert_one_line_error(result)
        unread = "bogus, gate_backend, " + ("n" if args[0] == "growth" else "p")
        assert result.output.strip().splitlines() == [
            f"Error: config keys this command does not read: {unread}"]

    @pytest.mark.parametrize("args, config, line", [
        (["gate", "chain"], {"n": 4}, "interactions: 8 (two per qubit)"),
        (["gate", "parity-momentum"], {"alpha": 1000, "theta": 0.003},
         "error budget: momentum 1.3499e-03, position 4.9820e-01, vacuum 2.3195e-16, "
         "separation parameter 3.0000  [below the alpha*sin(theta) >= pi regime]"),
        (["growth", "sequential"], {"p": 1, "gate_time": 2, "target_L": 5, "trials": 10},
         "  elapsed_rounds: empirical 8.0000 vs analytic 8.0000 (z = +0.00, pass)"),
    ])
    def test_config_file_integer_numbers_run(self, runner, tmp_path, args, config, line):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, [*args, "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert line in result.output.splitlines()

    def test_off_grid_beta_names_the_grid(self, runner):
        result = runner.invoke(main, ["gate", "star", "--n", "3", "--beta", "0.3"])
        assert "beta 0.3 is off the gate grid" in result.output
        assert "odd multiple of pi/8" in result.output

    def test_length_below_one_named(self, runner):
        result = runner.invoke(
            main, ["growth", "divide_conquer", "--n", "64", "--L", "0", "--trials", "5"])
        assert "length 0 is below 1" in result.output


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

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "sqrt(pi/0)", "pi/0"])
    def test_non_finite_rejected(self, text):
        import click

        with pytest.raises(click.BadParameter, match="finite"):
            parse_amount(text)


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
        for name in ("three-qubit", "cascade"):  # the cascade's default n is 3
            result = runner.invoke(main, ["gate", name])
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

    def test_geometric_cz_stabilizer_check(self, runner):
        """The four-displacement loop runs on the path of chain and star."""
        result = runner.invoke(main, ["gate", "geometric-cz"])
        assert result.exit_code == 0, result.output
        assert result.output == (
            "interactions: 4 (two per qubit)\n"
            "bus spread after sequence: 0.0\n"
            "stabilizer check: PASS\n"
        )

    def test_sequences_do_not_import_scipy(self):
        """The graph-state check is a dense oracle that needs no SciPy."""
        code = (
            "import sys\n"
            "import qubuslab.cli\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            "for name, *n in (('chain', '--n', '4'), ('star', '--n', '4'), ('geometric-cz',)):\n"
            "    try:\n"
            "        qubuslab.cli.main(['gate', name, *n])\n"
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
        assert proc.stdout.count("stabilizer check: PASS") == 3

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
        assert_one_line_error(result)

    @pytest.mark.parametrize("name", ["parity-bucket", "parity-momentum"])
    def test_invalid_alpha_rejected_before_any_table(self, runner, name):
        result = runner.invoke(main, ["gate", name, "--alpha", "-3"])
        assert_one_line_error(result)
        assert "label" not in result.output

    @pytest.mark.parametrize("args", [
        ["gate", "three-qubit", "--alpha", "inf"],
        ["gate", "three-qubit", "--alpha", "nan"],
        ["gate", "three-qubit", "--theta", "nan"],
        ["gate", "cascade", "--n", "3", "--theta", "inf"],
        ["gate", "parity-bucket", "--alpha", "nan"],
        ["gate", "parity-momentum", "--theta", "-inf"],
        ["gate", "star", "--n", "3", "--beta", "nan"],
    ])
    def test_non_finite_input_rejected_before_any_table(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert_one_line_error(result)
        assert "finite" in result.output
        assert "label" not in result.output and "PASS" not in result.output

    @pytest.mark.parametrize("args", [
        ["gate", "parity-momentum", "--alpha", "1e154", "--theta", "1"],
        ["gate", "parity-position", "--alpha", "1.3e154", "--theta", "1"],
        ["gate", "parity-bucket", "--alpha", "1.3e154", "--theta", "1e-152"],
    ])
    def test_squares_inside_the_float_range_run(self, runner, args):
        """Next to the overflow refusals: these squares fit a float and print tables."""
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "nan" not in result.output and "inf" not in result.output
        assert "error budget:" in result.output

    def test_largest_alpha_heralds_odd_bell(self, runner):
        """Just below sqrt(float max) the zero-net branches keep alpha exactly."""
        result = runner.invoke(
            main, ["gate", "parity-momentum", "--alpha", "1.34e154", "--theta", "0.5"])
        assert result.exit_code == 0, result.output
        rows = [line.split() for line in result.output.splitlines()]
        assert ["odd-bell", "0.500000000", "1.00000000"] in rows

    @pytest.mark.parametrize("alpha, theta, shown", [
        ("1.34e154", "0.5", "6.7000e+153"), ("1e6", "1", "1.0000e+06"),
        ("999999.99", "1", "999999.9900"), ("1e6", "-1", "-1.0000e+06"),
    ])
    def test_separation_parameter_in_exponent_form_from_1e6(self, runner, alpha, theta, shown):
        result = runner.invoke(
            main, ["gate", "parity-momentum", "--alpha", alpha, "--theta", theta])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[-1].endswith(f"separation parameter {shown}")

    @pytest.mark.parametrize("args", [
        ["--alpha", "1000", "--theta", "0.5"],
        ["--alpha", "1e4", "--theta", "0.5"],
        ["--alpha", "1e4", "--theta", "0.5", "--number-resolving"],
    ])
    def test_bucket_table_at_large_photon_numbers(self, args):
        """A bucket table computes only the photon numbers it lists.

        At alpha = 1e4, theta = 0.5 the click spreads over about 9.2e7 photon
        numbers; listing them all took minutes.
        """
        src = Path(qubuslab.__file__).resolve().parents[1]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qubuslab.cli", "gate", "parity-bucket", *args],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=20,
        )
        assert time.perf_counter() - start < 10.0
        assert proc.returncode == 0, proc.stderr
        labels = [line.split()[0] for line in proc.stdout.splitlines()[1:-1]]
        resolved = args[-1] == "--number-resolving"
        expected = [f"even-bell-{n}" for n in range(1, 7)] if resolved else ["click"]
        assert labels == ["odd-bell"] + expected

    @pytest.mark.parametrize("args", [
        ["gate", "three-qubit", "--theta", "-0.003"],
        ["gate", "parity-momentum", "--alpha", "1000", "--theta", "-0.003"],
    ])
    def test_negative_theta_runs(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "momentum 1.3499e-03" in result.output

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


# What each gate reads, beside --config, with a value that every gate that
# reads the option runs with.  Written out here, not read from the command's
# table, so that the test checks the table.
_TABLE_GATE = {"--alpha": "3", "--theta": "0.3", "--csv": "<tmp>/x.csv"}
_PROGRAM_GATE = {"--beta": "sqrt(pi/8)", "--graph": "<tmp>/graph.txt"}
_GATE_READS = {
    "parity-momentum": _TABLE_GATE,
    "parity-position": _TABLE_GATE,
    "parity-bucket": {**_TABLE_GATE, "--number-resolving": None},
    "three-qubit": _TABLE_GATE,
    "cascade": {**_TABLE_GATE, "--n": "4"},
    "geometric-cz": _PROGRAM_GATE,
    "star": {**_PROGRAM_GATE, "--n": "4"},
    "chain": {**_PROGRAM_GATE, "--n": "4"},
}
_GATE_GRAPHS = {"geometric-cz": "0 1\n", "star": "0 1\n0 2\n0 3\n", "chain": "0 1\n1 2\n2 3\n"}
_ANY_OPTION = {**_TABLE_GATE, **_PROGRAM_GATE, "--n": "4", "--number-resolving": None}


def _option_args(options, tmp_path):
    args = []
    for flag in options:
        value = _ANY_OPTION[flag]
        args += [flag] if value is None else [flag, value.replace("<tmp>", str(tmp_path))]
    return args


class TestGateReadsOnlyItsOptions:
    """``gate`` refuses, in one Error: line naming it, every option and config
    key that the chosen gate does not read, before it writes anything."""

    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, reads in _GATE_READS.items()
        for flag in _ANY_OPTION if flag not in reads])
    def test_unread_option_refused(self, runner, tmp_path, name, flag):
        (tmp_path / "graph.txt").write_text("0 1\n")
        result = runner.invoke(main, ["gate", name, *_option_args([flag], tmp_path)])
        assert result.exit_code == 1
        assert_one_line_error(result)
        assert result.output.splitlines() == [f"Error: gate {name} does not read {flag}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.txt"]

    def test_every_unread_option_named(self, runner, tmp_path):
        result = runner.invoke(main, ["gate", "geometric-cz", "--number-resolving", "--n", "14",
                                      "--alpha", "3", "--csv", str(tmp_path / "x.csv")])
        assert result.output.splitlines() == [  # in the order they were given
            "Error: gate geometric-cz does not read --number-resolving, --n, --alpha, --csv"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, key", [
        (name, key) for name, reads in _GATE_READS.items()
        for key in ("alpha", "theta", "beta", "n") if f"--{key}" not in reads])
    def test_unread_config_key_refused(self, runner, tmp_path, name, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 4}))
        result = runner.invoke(main, ["gate", name, "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: config keys this command does not read: {key}"]

    @pytest.mark.parametrize("name", _GATE_READS)
    def test_every_read_option_runs(self, runner, tmp_path, name):
        (tmp_path / "graph.txt").write_text(_GATE_GRAPHS.get(name, ""))
        result = runner.invoke(main, ["gate", name, *_option_args(_GATE_READS[name], tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "x.csv").exists() == ("--csv" in _GATE_READS[name])


_POSITION_WARNING = ("warning: position peaks poorly separated at alpha=1000.0, "
                     "theta=0.003: misassignment error 0.498\n")


class TestGateOutputsPinned:
    """sha256 of each gate's stdout and of the CSV file it writes with
    ``--csv gate.csv``, with its stderr, as the per-name code wrote them before
    the gates became one table.  The program gates (CSV None) write no CSV and
    refuse ``--csv``, so they run without it."""

    PINS = {
        ("parity-momentum",): (
            "03c6f1e62e1fcf2be19c029e161793de8f2707818fc69955df048b34c8915230",
            "d59b60fd46f7069c115c4078b0c91194b07c01143070ad9a8fab7fc35aaaeebe", ""),
        ("parity-position",): (
            "23990acbaa89d6e7a8bac6a99ed7ba3e8fe9807a72e3edb560d37bd4fa32df68",
            "e5b432092f37804e602dcbeb1d643010ece5c8142c2da7c475960a681189972b",
            _POSITION_WARNING),
        ("parity-bucket",): (
            "9c547d1e1ebeb3700704a653ca8050570e519a25361d4e77a6789b5195f8dbb4",
            "ba2164326f1fff53605f6d5b04e48d561107b6308d9ccba047dee1b6b5507cb6", ""),
        ("three-qubit",): (
            "693df024fd2c50d18dcdba3270ef1a76176756262ada23233db62782f1493376",
            "f0e316d05cfefc05a43717124f9d3a269dd857f3173fe9b953fdb59ba06c5d4d", ""),
        ("cascade",): (
            "ba29b0cb0b742d6472a9dc9fbcaf4c7ecbad8ce14077b48e8a566253a9b8b961",
            "f0e316d05cfefc05a43717124f9d3a269dd857f3173fe9b953fdb59ba06c5d4d", ""),
        ("geometric-cz",): (
            "85db5027a036c6c8ca9091927c6e6962b2410321c2e63c9cc7a903a62b70aaf2", None, ""),
        ("star",): (
            "7fdcaf4e2eda5d07b65547862855cab4640651425f73f6fe1a8d2628873b798f", None, ""),
        ("chain",): (
            "7fdcaf4e2eda5d07b65547862855cab4640651425f73f6fe1a8d2628873b798f", None, ""),
        ("parity-bucket", "--alpha", "2", "--theta", "0.4", "--number-resolving"): (
            "1d71e219cb5f052c3d476ec2144d2a8fc508f354f5aaffef779ace80880e72f7",
            "3a9793fb31a2710b6393c436ae29002dcb69e59fcb4802dcd87394c86f6645b5", ""),
    }

    @pytest.mark.parametrize("args", list(PINS), ids=" ".join)
    def test_bytes_pinned(self, runner, tmp_path, args):
        stdout, csv_digest, stderr = self.PINS[args]
        with runner.isolated_filesystem(temp_dir=tmp_path):
            csv = ["--csv", "gate.csv"] if csv_digest is not None else []
            result = runner.invoke(main, ["gate", *args, *csv])
            written = Path("gate.csv")
            got_csv = (hashlib.sha256(written.read_bytes()).hexdigest()
                       if written.exists() else None)
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == stdout
        assert got_csv == csv_digest
        assert result.stderr == stderr


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
        assert list(rows[0]) == [
            "variant", "p", "L", "trials", "mean_ops", "ci_ops", "mean_time", "ci_time",
            "mean_wasted", "analytic_ops", "z_score"]
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

    def test_merge_at_a_rounded_critical_length(self, runner, tmp_path):
        """At p = 0.4, L_c = 4 reads 3.9999999999999996: minimal chains are 5
        long, so the law is 637.5 at L = 12, not 3.15e17 from dividing by 4e-16."""
        out = tmp_path / "m.csv"
        result = runner.invoke(main, ["growth", "merge", "--p", "0.4", "--L", "12",
                                      "--trials", "50", "--seed", "1", "--csv", str(out)])
        assert result.exit_code == 0, result.output
        assert next(csv.DictReader(out.open()))["analytic_ops"] == "637.4999999999998"

    def test_one_trial_has_no_z(self, runner, tmp_path):
        """One trial has no spread: the CSV leaves z_score empty and each
        comparison line says so, where a zero spread once printed z = +inf."""
        out = tmp_path / "one.csv"
        result = runner.invoke(main, ["growth", "sequential", "--p", "0.75", "--L", "5",
                                      "--trials", "1", "--seed", "1", "--csv", str(out)])
        assert result.exit_code == 0, result.output
        assert next(csv.DictReader(out.open()))["z_score"] == ""
        lines = [line for line in result.output.splitlines() if "vs analytic" in line]
        assert len(lines) == 2
        assert all(line.endswith("(one trial has no spread, so no z)") for line in lines)
        assert "inf" not in result.output

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
        assert_one_line_error(result)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("csv_name", [None, "t.csv"])
    def test_overflowing_time_refused_without_jsonl(self, runner, tmp_path, csv_name):
        """The run refuses the overflow, so stdout and CSV end as JSONL does."""
        args = ["growth", "sequential", "--L", "11", "--trials", "50", "--t", "1e308"]
        if csv_name:
            args += ["--csv", str(tmp_path / csv_name)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "Error: non-finite elapsed_rounds at gate_time 1e+308"]
        assert not list(tmp_path.iterdir())

    def test_config_file_round_cap_rejected(self, runner, tmp_path):
        cfg = tmp_path / "growth.json"
        cfg.write_text(json.dumps({"max_rounds": -3}))
        result = runner.invoke(
            main, ["growth", "sequential", "--L", "5", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "max_rounds must be at least 1" in result.output

    @pytest.mark.parametrize("variant, config, name", [
        ("merge", {"target_L": 41.5}, "target_L"),
        ("divide_conquer", {"initial_qubits": 64, "rounds_k": 2.5}, "rounds_k"),
        ("sequential", {"target_L": 11, "trials": 100.7}, "trials"),
        ("sequential", {"target_L": 11, "trials": 100.0}, "trials"),
        ("sequential", {"target_L": 11, "master_seed": 1.5}, "master_seed"),
        ("sequential", {"target_L": True}, "target_L"),
    ])
    def test_config_file_non_integer_count_rejected(self, runner, tmp_path,
                                                    variant, config, name):
        cfg = tmp_path / "growth.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["growth", variant, "--config", str(cfg)])
        assert result.exit_code == 1
        assert_one_line_error(result)
        assert result.output.strip().splitlines() == [
            f"Error: {name} must be an integer, got {config[name]!r}"]

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

    def test_dc_time_is_the_closed_form(self, runner, tmp_path):
        """On the doubling grid the dc time column is dc_scaling's T_dc."""
        out = tmp_path / "dc.csv"
        result = runner.invoke(
            main,
            ["scaling", "--l-min", "2", "--l-max", "129", "--series", "dc",
             "--metric", "T", "--t", "0.37", "--csv", str(out)],
        )
        assert result.exit_code == 0
        table = {int(r["L"]): float(r["value"]) for r in csv.DictReader(out.open())}
        for k in range(1, 9):
            vals = analytics.dc_scaling(0.75, 1, k=k, t=0.37)
            assert table[vals["L"]] == vals["T_dc"]

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

    def test_reference_fit_starts_above_its_root(self, runner):
        """185 L - 1115 is negative at L = 5 and 6; its first row is L = 7."""
        result = runner.invoke(main, ["scaling", "--series", "rus-pf-0.6", "--l-max", "7"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["L,series,value", "7,rus-pf-0.6,180.0"]

    def test_merge_starts_above_a_rounded_critical_length(self, runner):
        result = runner.invoke(main, ["scaling", "--p", "0.4", "--series", "merge",
                                      "--l-max", "6"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "L,series,value", "5,merge,77.5", "6,merge,157.49999999999997"]

    @pytest.mark.parametrize("p, metric", sorted(_SCALING_CSV_SHA256))
    def test_pinned_csv_digests(self, runner, tmp_path, p, metric):
        out = tmp_path / "table.csv"
        result = runner.invoke(main, [
            "scaling", "--l-min", "1", "--l-max", "400", "--series", "dc,merge,seq",
            "--p", p, "--metric", *metric.split(), "--csv", str(out)])
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _SCALING_CSV_SHA256[p, metric]


# every command a user runs without the test dependencies: verify, each gate,
# each growth strategy and a scaling plot
_SCIPY_FREE_COMMANDS = [
    ["verify", "--quick"],
    *(["gate", name] for name in ("parity-momentum", "parity-position", "parity-bucket",
                                  "three-qubit", "cascade", "geometric-cz", "star", "chain")),
    ["gate", "parity-bucket", "--alpha", "2", "--theta", "0.4", "--number-resolving"],
    ["growth", "sequential", "--L", "21", "--trials", "500", "--seed", "7"],
    ["growth", "merge", "--L", "21", "--trials", "200", "--seed", "7"],
    ["growth", "divide_conquer", "--n", "1024", "--k", "6", "--trials", "50", "--seed", "7"],
    ["growth", "vertical_link", "--trials", "500", "--seed", "7"],
    ["scaling", "--svg", "scaling.svg"],
]


def _run_commands(cwd: Path, block_scipy: bool):
    """(exit code, output) of each command, in one interpreter run from ``cwd``.

    Elapsed times in verify's lines are masked; the SVG's bytes are appended.
    """
    code = (
        "import json, re, sys\n"
        + ("sys.modules['scipy'] = None\n" if block_scipy else "")
        + "from click.testing import CliRunner\n"
        "from qubuslab.cli import main\n"
        "out = []\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    r = CliRunner().invoke(main, args)\n"
        "    out.append([r.exit_code, re.sub(r'\\(\\d+\\.\\ds\\)', '(-s)', r.output)])\n"
        "out.append([0, open('scaling.svg').read()])\n"
        "print(json.dumps(out))\n"
    )
    src = Path(qubuslab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(_SCIPY_FREE_COMMANDS)], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_run_without_scipy(tmp_path):
    """SciPy is a test dependency: with its import blocked every command prints the same."""
    runs = {}
    for blocked in (True, False):
        cwd = tmp_path / ("blocked" if blocked else "open")
        cwd.mkdir()
        runs[blocked] = _run_commands(cwd, blocked)
    assert len(runs[True]) == len(_SCIPY_FREE_COMMANDS) + 1
    for args, got, want in zip(_SCIPY_FREE_COMMANDS + [["scaling.svg"]], runs[True],
                               runs[False]):
        assert got == want, args
    assert [code for code, _ in runs[True]] == [0] * len(runs[True])
    assert "(-s)" in runs[True][0][1]


class TestVerifyCommand:
    def test_quick_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--quick"])
        assert result.exit_code == 0, result.output
        assert "criterion 10" in result.output
        assert "FAIL" not in result.output.replace("FLAG", "")
        # the three quoted-constant discrepancies are reported, not failed
        assert "e^-16" in result.output
        assert "94, not 70" in result.output
        assert "flag: minimal-build-cost-p-1/2: " in result.output

    def test_row_whose_status_and_cause_disagree_fails(self, runner, monkeypatch):
        """A flagged row whose code comes to give the quoted value, while it
        keeps its cause, is a FAIL line and exit 1."""
        from qubuslab import verify

        vertical_cost = analytics.vertical_cost
        monkeypatch.setattr(analytics, "vertical_cost",
                            lambda p: (6.0, 70.0) if p == 0.5 else vertical_cost(p))
        monkeypatch.setattr(verify, "CRITERIA", (verify.check_constants, verify.check_flags))
        result = runner.invoke(main, ["verify", "--quick"])
        assert result.exit_code == 1
        fails = [line for line in result.output.splitlines() if "FAIL:" in line]
        assert fails == ["    FAIL: vertical-ops-p-1/2: code gives 70.0, the formula's 94.0",
                         "    FAIL: vertical-ops-p-1/2 is reproduced with cause 'composing "
                         "V = 6 with N[L] = 16L - 50 gives 2*46 + 2 = 94, not 70'; a gap has "
                         "a cause, a reproducing row has none"]
        assert result.output.splitlines()[-1] == "result: FAIL"

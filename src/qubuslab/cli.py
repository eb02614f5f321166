"""Command-line experiment harness.

Subcommands: ``gate`` (outcome tables and stabilizer checks), ``growth``
(Monte Carlo strategy runs with JSONL/CSV output), ``scaling`` (closed-form
tables and SVG plots), ``verify`` (the cross-verification suite).

Every command is deterministic given its options and seed; the default seed
comes from the QUBUSLAB_SEED environment variable.  Options may also be
supplied as a JSON file via --config; explicit flags override file values.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import analytics, busim, gates, graphstab, growth, oracles

GATE_NAMES = (
    "parity-momentum",
    "parity-position",
    "parity-bucket",
    "three-qubit",
    "cascade",
    "geometric-cz",
    "star",
    "chain",
)

GROWTH_CSV_COLUMNS = (
    "variant",
    "p",
    "L",
    "trials",
    "mean_ops",
    "ci_ops",
    "mean_time",
    "ci_time",
    "mean_wasted",
    "analytic_ops",
    "z_score",
)


def parse_amount(text: str) -> float:
    """Parse a float or a sqrt(pi/<d>) / pi/<d> expression such as sqrt(pi/8)."""
    text = text.strip().lower()
    m = re.fullmatch(r"sqrt\(\s*pi\s*/\s*([0-9.]+)\s*\)", text)
    if m:
        return math.sqrt(math.pi / float(m.group(1)))
    m = re.fullmatch(r"pi\s*/\s*([0-9.]+)", text)
    if m:
        return math.pi / float(m.group(1))
    try:
        return float(text)
    except ValueError:
        raise click.BadParameter(
            f"expected a number, pi/<d> or sqrt(pi/<d>), got {text!r}"
        ) from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise click.BadParameter("config file must hold a JSON object")
    return data


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged command parameters (config-file values overridden by flags).

    ``validated()`` enforces the shared ranges before dispatch: success
    probability in (0, 1], positive bus amplitude, at least one trial.
    """

    command: str
    params: dict

    @classmethod
    def build(cls, command: str, config_path: str | None, **flags):
        merged = dict(_load_config(config_path))
        for key, value in flags.items():
            if value is not None:
                merged[key] = value
        return cls(command=command, params=merged)

    def validated(self) -> "ExperimentConfig":
        p = self.params.get("p")
        if p is not None and not 0.0 < float(p) <= 1.0:
            raise click.BadParameter(f"p must lie in (0, 1], got {p}")
        alpha = self.params.get("alpha")
        if alpha is not None and float(alpha) <= 0.0:
            raise click.BadParameter(f"alpha must be positive, got {alpha}")
        trials = self.params.get("trials")
        if trials is not None and int(trials) < 1:
            raise click.BadParameter(f"trials must be at least 1, got {trials}")
        return self

    def get(self, key, default=None):
        return self.params.get(key, default)


@click.group()
@click.version_option()
def main():
    """Exact coherent-bus gate laboratory and growth-statistics harness."""


# ---------------------------------------------------------------------------
# gate command


def _print_outcome_table(outcomes):
    click.echo(f"{'label':<16} {'probability':>12} {'fidelity':>10} corrections")
    for o in outcomes:
        fid = ""
        if o.target is not None:
            corrected = gates.apply_corrections(o.posterior, o.corrections)
            fid = f"{busim.fidelity(corrected, o.target):10.8f}"
        corr = "; ".join(
            f"q{c.qubit}:{c.op}" + (f"({c.angle:.4f})" if c.angle is not None else "")
            for c in o.corrections
        )
        click.echo(f"{o.label:<16} {o.probability:>12.9f} {fid:>10} {corr}")


def _outcome_rows(outcomes):
    for o in outcomes:
        yield {
            "label": o.label,
            "probability": repr(o.probability),
            "window_probability": ""
            if o.window_probability is None
            else repr(o.window_probability),
            "gate_time": o.gate_time,
        }


def _write_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


@main.command("gate")
@click.argument("name", type=click.Choice(GATE_NAMES))
@click.option("--alpha", type=float, default=None, help="Bus amplitude.")
@click.option("--theta", type=float, default=None, help="Per-qubit rotation angle.")
@click.option("--beta", type=str, default=None, help="Displacement, e.g. sqrt(pi/8).")
@click.option("--n", "n_qubits", type=int, default=None, help="Register size.")
@click.option("--number-resolving", is_flag=True, help="Resolve photon numbers.")
@click.option("--graph", "graph_file", type=click.Path(exists=True), default=None,
              help="Edge-list file ('u v' per line) to check star/chain output against.")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def cmd_gate(name, alpha, theta, beta, n_qubits, number_resolving, graph_file,
             csv_path, config_path):
    """Print the exhaustive outcome table and error budget of one gate."""
    cfg = ExperimentConfig.build(
        "gate", config_path, alpha=alpha, theta=theta, beta=beta, n=n_qubits
    ).validated()
    alpha = float(cfg.get("alpha", 1000.0))
    theta = float(cfg.get("theta", 0.003))
    n_qubits = int(cfg.get("n", 3 if name in ("three-qubit", "cascade") else 5))
    beta_val = parse_amount(str(cfg.get("beta", "sqrt(pi/8)")))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if name in ("parity-momentum", "parity-position", "parity-bucket",
                    "three-qubit", "cascade"):
            _gate_table_command(name, alpha, theta, n_qubits, number_resolving,
                                csv_path)
        else:
            _geometric_command(name, beta_val, n_qubits, graph_file)
        for w in caught:
            click.echo(f"warning: {w.message}", err=True)


def _gate_table_command(name, alpha, theta, n_qubits, number_resolving, csv_path):
    quadrature = "position" if name == "parity-position" else "momentum"
    if name != "parity-bucket":
        gates._warn_if_unresolved(alpha, theta, quadrature)
    if name == "parity-momentum":
        outcomes = gates.momentum_parity_outcomes(alpha, theta)
    elif name == "parity-position":
        outcomes = gates.position_parity_outcomes(alpha, theta)
    elif name == "parity-bucket":
        outcomes = gates.bucket_parity_outcomes(
            alpha, theta, number_resolving=number_resolving, n_max=6
        )
    elif name == "three-qubit":
        outcomes = gates.three_qubit_outcomes(alpha, theta)
    else:
        outcomes = gates.cascade_outcomes(n_qubits, alpha, theta)
        click.echo(
            f"pair success: {gates.cascade_pair_success(outcomes)} "
            f"(gate time {gates.cascade_gate_time(n_qubits)} units)"
        )
    if csv_path:
        _write_csv(
            csv_path,
            _outcome_rows(outcomes),
            ("label", "probability", "window_probability", "gate_time"),
        )
    _print_outcome_table(outcomes)
    budget = gates.error_budget(alpha, theta)
    click.echo(
        f"error budget: momentum {budget.p_err_momentum:.4e}, "
        f"position {budget.p_err_position:.4e}, "
        f"vacuum {budget.p_err_vacuum:.4e}, "
        f"separation parameter {budget.separation_parameter:.4f}"
        + ("" if budget.momentum_regime_ok else "  [below the alpha*sin(theta) >= pi regime]")
    )
    if csv_path:
        click.echo(f"wrote {csv_path}")


def _geometric_command(name, beta_val, n_qubits, graph_file):
    if name == "geometric-cz":
        res = gates.geometric_cz(beta_val, 1j * beta_val)
        click.echo(f"bus spread: {res.bus_spread!r}")
        click.echo(f"controlled-Z fidelity after corrections: {res.cz_fidelity!r}")
        corr = "; ".join(f"q{c.qubit}:Z({c.angle:.4f})" for c in res.corrections or ())
        click.echo(f"corrections: {corr or 'none'}")
        return
    maker = gates.star_sequence if name == "star" else gates.chain_sequence
    seq, corrections = maker(n_qubits, beta_val)
    out = gates.run_sequence(
        busim.attach_bus(busim.QubitState.plus(n_qubits), 0.0), seq
    )
    spread = busim.bus_spread(out)
    state = gates.apply_corrections(busim.extract_qubits(out), corrections)
    if graph_file:
        spec = graphstab.parse_edge_list(Path(graph_file).read_text(), n=n_qubits)
    elif name == "star":
        spec = graphstab.GraphSpec.star(n_qubits)
    else:
        spec = graphstab.GraphSpec.chain(n_qubits)
    ok = oracles.is_graph_state(state.amplitudes, spec.n, spec.edges)
    click.echo(f"interactions: {len(seq.steps)} (two per qubit)")
    click.echo(f"bus spread after sequence: {spread!r}")
    click.echo(f"stabilizer check: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# growth command


def render_growth_jsonl(stats: growth.GrowthStats) -> str:
    """One line per trial, as ``json.dumps(record, sort_keys=True)`` writes it.

    The config is serialised once; each line fills one format over the
    sorted record keys from the columns' Python floats, whose repr is what
    ``json`` writes for a finite float.  ``StrategyConfig`` rejects the
    inputs that make a value non-finite, short of an overflow (a gate time
    near the float maximum), which raises ValueError.
    """
    columns = {"trial": range(stats.config.trials)}
    for key, values in stats.columns().items():
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite {key} in a growth record")
        columns[key] = values.tolist()
    config = json.dumps(stats.record_config(), sort_keys=True).replace("%", "%%")
    keys = sorted([*columns, "config"])
    line = "{" + ", ".join(
        f"{json.dumps(k)}: {config if k == 'config' else '%r'}" for k in keys) + "}\n"
    return "".join(line % row for row in zip(*(columns[k] for k in keys if k != "config")))


def _analytic_point(config: growth.StrategyConfig):
    try:
        return analytics.scaling_point(
            config.variant,
            config.p,
            L=config.target_L,
            t=config.gate_time,
            n=config.initial_qubits,
            k=config.rounds_k,
        )
    except (ValueError, TypeError):
        return None


def render_growth_csv(stats: growth.GrowthStats) -> str:
    return _growth_report(stats)[0]


def _growth_report(stats: growth.GrowthStats):
    """The one-row CSV of ``stats`` and its rows against the closed forms."""
    cfg = stats.config
    summary = stats.summary()
    point = _analytic_point(cfg)
    rows = () if point is None else growth.compare_to_analytic(stats, point)
    analytic_ops = "" if point is None or point.N is None else repr(point.N)
    z = ""
    for row in rows:
        if row.metric == "entangling_ops":
            z = f"{row.z:.4f}"
    if cfg.variant == "divide_conquer":
        L = analytics.dc_round_length(cfg.rounds())
    elif cfg.variant == "vertical_link":
        L = 2
    else:
        L = cfg.target_L
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=GROWTH_CSV_COLUMNS)
    writer.writeheader()
    writer.writerow(
        {
            "variant": cfg.variant,
            "p": repr(cfg.p),
            "L": L,
            "trials": cfg.trials,
            "mean_ops": repr(summary["entangling_ops"].mean),
            "ci_ops": repr(summary["entangling_ops"].ci95),
            "mean_time": repr(summary["elapsed_rounds"].mean),
            "ci_time": repr(summary["elapsed_rounds"].ci95),
            "mean_wasted": repr(summary["qubits_wasted"].mean),
            "analytic_ops": analytic_ops,
            "z_score": z,
        }
    )
    return buf.getvalue(), rows


@main.command("growth")
@click.argument("variant", type=click.Choice(growth.VARIANTS))
@click.option("--p", type=float, default=None, help="Entangling success probability.")
@click.option("--L", "target_l", type=int, default=None, help="Target chain length.")
@click.option("--k", "rounds_k", type=int, default=None, help="Doubling rounds.")
@click.option("--n", "initial_qubits", type=int, default=None, help="Initial qubits.")
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=None, envvar="QUBUSLAB_SEED",
              show_envvar=True)
@click.option("--t", "gate_time", type=float, default=None, help="Time per attempt.")
@click.option("--jsonl", "jsonl_path", type=click.Path(), default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def cmd_growth(variant, p, target_l, rounds_k, initial_qubits, trials, seed,
               gate_time, jsonl_path, csv_path, config_path):
    """Run a growth strategy and compare against its closed forms."""
    cfg = ExperimentConfig.build(
        "growth", config_path,
        p=p, target_L=target_l, rounds_k=rounds_k, initial_qubits=initial_qubits,
        trials=trials, master_seed=seed, gate_time=gate_time,
    ).validated()
    try:
        config = growth.StrategyConfig(
            variant=variant,
            p=float(cfg.get("p", 0.75)),
            trials=int(cfg.get("trials", 10_000)),
            master_seed=int(cfg.get("master_seed", 0)),
            target_L=cfg.get("target_L"),
            rounds_k=cfg.get("rounds_k"),
            initial_qubits=cfg.get("initial_qubits"),
            gate_time=float(cfg.get("gate_time", 1.0)),
            max_rounds=cfg.get("max_rounds"),
        )
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    stats = growth.simulate(config)
    text, rows = _growth_report(stats)
    # files land before any stdout write so a closed pipe cannot lose them
    if jsonl_path:
        try:
            jsonl = render_growth_jsonl(stats)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc
        Path(jsonl_path).write_text(jsonl)
    if csv_path:
        Path(csv_path).write_text(text)
    click.echo(text.rstrip())
    for row in rows:
        click.echo(
            f"  {row.metric}: empirical {row.empirical:.4f} vs analytic "
            f"{row.analytic:.4f} (z = {row.z:+.2f}, {row.status})"
        )
    for path in (jsonl_path, csv_path):
        if path:
            click.echo(f"wrote {path}")


# ---------------------------------------------------------------------------
# scaling command


_SCALING_SERIES = (
    "dc", "merge", "seq", "rus-pf-0.6", "rus-pf-0.4", "linear-optics-p-half"
)


def _series_value(name, L, p, t, metric):
    if name == "dc":
        if metric == "N":
            return analytics.dc_series_value(L, p)
        return t * (1.0 + math.log2(L - 1.0))
    if name == "merge":
        ms = analytics.merge_scaling(L, p, t=t)
        if metric == "N":
            return ms.n_quoted_law if ms.n_quoted_law is not None else ms.n_sum_floor
        return ms.t_sum_ceil
    if name == "seq":
        n_seq, t_seq = analytics.seq_scaling(L, p, t)
        return n_seq if metric == "N" else t_seq
    series = analytics.reference_series(name)
    if metric != "N":
        raise click.ClickException(f"series {name} only defines operation counts")
    return series.value(L)


@main.command("scaling")
@click.option("--p", type=float, default=0.75, show_default=True)
@click.option("--l-min", type=int, default=5, show_default=True)
@click.option("--l-max", type=int, default=400, show_default=True)
@click.option("--series", "series_names", type=str, default="dc,merge,seq",
              show_default=True, help="Comma-separated series names.")
@click.option("--metric", type=click.Choice(["N", "T"]), default="N",
              show_default=True, help="Operations (N) or time (T).")
@click.option("--t", "gate_time", type=float, default=1.0, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
def cmd_scaling(p, l_min, l_max, series_names, metric, gate_time, csv_path, svg_path):
    """Tabulate the closed-form scaling series over a range of lengths."""
    names = [s.strip() for s in series_names.split(",") if s.strip()]
    for name in names:
        if name not in _SCALING_SERIES:
            raise click.ClickException(
                f"unknown series {name!r}; known: {', '.join(_SCALING_SERIES)}"
            )
    rows = []
    lc = analytics.critical_length(p)
    for L in range(l_min, l_max + 1):
        for name in names:
            if name in ("merge", "seq") and L <= lc + 1e-9:
                continue
            try:
                value = _series_value(name, float(L), p, gate_time, metric)
            except (ValueError, click.ClickException):
                continue
            rows.append({"L": L, "series": name, "value": repr(float(value))})
    if csv_path:
        _write_csv(csv_path, rows, ("L", "series", "value"))
        click.echo(f"wrote {csv_path} ({len(rows)} rows)")
    else:
        click.echo("L,series,value")
        for row in rows[:40]:
            click.echo(f"{row['L']},{row['series']},{row['value']}")
        if len(rows) > 40:
            click.echo(f"... {len(rows) - 40} more rows (use --csv to keep them)")
    if svg_path:
        from . import svgplot

        series = {}
        for row in rows:
            series.setdefault(row["series"], []).append(
                (row["L"], float(row["value"]))
            )
        Path(svg_path).write_text(
            svgplot.line_plot(
                series,
                xlabel="chain length L",
                ylabel="entangling operations" if metric == "N" else "time (t units)",
                title=f"growth cost comparison at p = {p}",
                log_y=metric == "N",
            )
        )
        click.echo(f"wrote {svg_path}")


# ---------------------------------------------------------------------------
# verify command


@main.command("verify")
@click.option("--quick", is_flag=True, help="Reduced trial counts, 5% tolerances.")
def cmd_verify(quick):
    """Run the full cross-verification suite; nonzero exit only on failure."""
    from . import verify

    results = verify.run_all(quick=quick)
    failed = False
    for res in results:
        mark = {"pass": "PASS", "flag": "FLAG", "fail": "FAIL"}[res.status]
        click.echo(f"[{mark}] criterion {res.number}: {res.name} ({res.elapsed:.1f}s)")
        for line in res.details:
            click.echo(f"    {line}")
        failed = failed or res.status == "fail"
    click.echo(
        "result: "
        + ("FAIL" if failed else "all criteria pass (flags are expected findings)")
    )
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

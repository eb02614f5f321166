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

# The largest registers the dense gate paths hold, by measurement on a
# 2-vCPU Xeon: a 20-qubit star or chain program runs on 2**20 branches
# (274 MB, 5 s), and the 13-qubit cascade table has 4**13 rows (551 MB, 2.4 s).
_MAX_PROGRAM_QUBITS = 20
_MAX_CASCADE_QUBITS = 13

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
    try:
        if m := re.fullmatch(r"sqrt\(\s*pi\s*/\s*([0-9.]+)\s*\)", text):
            value = math.sqrt(math.pi / float(m.group(1)))
        elif m := re.fullmatch(r"pi\s*/\s*([0-9.]+)", text):
            value = math.pi / float(m.group(1))
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise click.BadParameter(
            f"expected a finite number, pi/<d> or sqrt(pi/<d>), got {text!r}"
        )
    return value


def _merged_config(path: str | None, file_only=(), **flags) -> dict:
    """Config-file values (a JSON object) overridden by the flags that are set.

    The file may hold the flags' keys and the ``file_only`` keys, the ones
    the command reads; any other key is refused rather than ignored.
    """
    merged = {} if path is None else json.loads(Path(path).read_text())
    if not isinstance(merged, dict):
        raise click.BadParameter("config file must hold a JSON object")
    unknown = sorted(set(merged).difference(flags, file_only))
    if unknown:
        raise ValueError(f"config keys this command does not read: {', '.join(unknown)}")
    merged.update((key, value) for key, value in flags.items() if value is not None)
    return merged


def _config_number(cfg: dict, key: str, default, kind=float):
    """``cfg[key]`` (else ``default``) as ``kind``: an int, or for float any real.

    A bool or a string from a config file is refused, not coerced.
    """
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int,) if kind is int else (int, float)):
        raise ValueError(
            f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{key} is too large for a float") from None


class _Commands(click.Group):
    """The command group: a ValueError from a command is a one-line error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
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
        corr = "; ".join(f"q{c.qubit}:{c.op}({c.angle:.4f})" for c in o.corrections)
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
              help="Edge-list file ('u v' per line) to check a geometric gate against.")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def cmd_gate(name, alpha, theta, beta, n_qubits, number_resolving, graph_file,
             csv_path, config_path):
    """Print the exhaustive outcome table and error budget of one gate."""
    cfg = _merged_config(config_path, alpha=alpha, theta=theta, beta=beta, n=n_qubits)
    alpha = _config_number(cfg, "alpha", 1000.0)
    theta = _config_number(cfg, "theta", 0.003)
    # checked here, not left to error_budget: the bucket gate prints its table first
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise click.BadParameter(f"alpha must be positive and finite, got {alpha!r}")
    if not math.isfinite(theta):
        raise click.BadParameter(f"theta must be finite, got {theta!r}")
    n_qubits = _config_number(cfg, "n", 3 if name in ("three-qubit", "cascade") else 5, int)
    limit = {"star": _MAX_PROGRAM_QUBITS, "chain": _MAX_PROGRAM_QUBITS,
             "cascade": _MAX_CASCADE_QUBITS}.get(name, math.inf)
    if n_qubits > limit:
        raise ValueError(f"gate {name} holds at most {limit} qubits, got n = {n_qubits}")
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
    # every square a table computes must fit a float: the printed error budget
    # squares alpha*theta, every table's overlap or displacement phase squares
    # alpha, and the bucket gate counts photons up to (2 alpha sin theta)**2
    scales = {"alpha*theta": alpha * theta, "alpha": alpha}
    if name == "parity-bucket":
        scales["2*alpha*sin(theta)"] = 2.0 * alpha * math.sin(theta)
    for label, x in scales.items():
        if not math.isfinite(x * x):
            raise ValueError(f"{label} = {x:.4g} is too large: its square overflows a float")
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
    sep = budget.separation_parameter  # fixed point below 1e6, else exponent form
    click.echo(
        f"error budget: momentum {budget.p_err_momentum:.4e}, "
        f"position {budget.p_err_position:.4e}, "
        f"vacuum {budget.p_err_vacuum:.4e}, "
        f"separation parameter {sep:.4{'f' if abs(sep) < 1e6 else 'e'}}"
        + ("" if budget.momentum_regime_ok else "  [below the alpha*sin(theta) >= pi regime]")
    )
    if csv_path:
        click.echo(f"wrote {csv_path}")


def _geometric_command(name, beta_val, n_qubits, graph_file):
    if name == "geometric-cz":
        n_qubits = 2
        seq, corrections = gates.geometric_cz(beta_val, 1j * beta_val)
    else:
        maker = gates.star_sequence if name == "star" else gates.chain_sequence
        seq, corrections = maker(n_qubits, beta_val)
    if corrections is None:
        raise ValueError(f"beta {beta_val!r} is off the gate grid: beta**2 must be "
                         "an odd multiple of pi/8 for the couplings to be controlled-Z")
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
    ``json`` writes for a finite float.  ``growth.simulate`` refuses a run
    with a non-finite value; stats built another way raise ValueError here.
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
    except ValueError:  # sequential growth at p <= 1/2 has no closed form
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
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=GROWTH_CSV_COLUMNS)
    writer.writeheader()
    writer.writerow(
        {
            "variant": cfg.variant,
            "p": repr(cfg.p),
            "L": cfg.target_L if point is None else point.L,
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
    cfg = _merged_config(
        config_path, ("max_rounds",),
        p=p, target_L=target_l, rounds_k=rounds_k, initial_qubits=initial_qubits,
        trials=trials, master_seed=seed, gate_time=gate_time,
    )
    config = growth.StrategyConfig(
        variant=variant,
        p=_config_number(cfg, "p", 0.75),
        trials=cfg.get("trials", 10_000),
        master_seed=cfg.get("master_seed", 0),
        target_L=cfg.get("target_L"),
        rounds_k=cfg.get("rounds_k"),
        initial_qubits=cfg.get("initial_qubits"),
        gate_time=_config_number(cfg, "gate_time", 1.0),
        max_rounds=cfg.get("max_rounds"),
    )
    stats = growth.simulate(config)
    text, rows = _growth_report(stats)
    # files land before any stdout write so a closed pipe cannot lose them
    if jsonl_path:
        Path(jsonl_path).write_text(render_growth_jsonl(stats))
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
        return analytics.dc_series_time(L, t)
    if name == "merge":
        point = analytics.scaling_point("merge", p, L, t)
        return point.N if metric == "N" else point.T
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
    if not (math.isfinite(gate_time) and gate_time > 0):
        raise ValueError(f"gate_time must be finite and > 0, got {gate_time}")
    names = [s.strip() for s in series_names.split(",") if s.strip()]
    lc = analytics.critical_length(p)
    for name in names:
        if name not in _SCALING_SERIES:
            raise click.ClickException(
                f"unknown series {name!r}; known: {', '.join(_SCALING_SERIES)}"
            )
        # a series with no value at this p and metric raises at any length
        _series_value(name, lc + 1.0, p, gate_time, metric)
    if l_min > l_max:
        raise ValueError(f"empty length range: --l-min {l_min} is above --l-max {l_max}")
    # the longest length with no value: merge and seq grow only above L_c
    below = {"merge": lc + 1e-9, "seq": lc + 1e-9, "dc": 1}
    rows = []
    for L in range(l_min, l_max + 1):
        for name in names:
            if L > below.get(name, -math.inf):
                value = _series_value(name, float(L), p, gate_time, metric)
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

"""The benchmark's three workloads: seeded inputs, one round of work, output checks.

Each workload is a pair of functions.  ``make_inputs(rng, sizes)`` draws every
input of one round from a seeded generator, before any timing starts, so the
program sees only generated inputs.  ``run_round(inputs, rnd)`` performs the
round's operations one after another (a closed loop with a single caller),
times them, checks each output and feeds the outputs into the round's digest.

Why each workload exists (later changes cite these names):

mc_sweep
    ``growth`` does nearly all the work: its per-trial kernels and its
    per-trial ``trial_rng`` setup.  ``cli`` rendering does the rest, and
    ``busim`` and ``graphstab`` do none, so a change to the growth kernels
    shows here and must not show elsewhere.  The gate-backed run uses
    ``gates`` the opposite way to gate_tables: it rebuilds one small table
    with fixed inputs on every trial, so a table cache would show here and
    nowhere else.
gate_tables
    The ``busim`` branch algebra and the ``gates`` table assembly do nearly all
    the work, and ``growth`` and ``graphstab`` do none.  The O(4^n) cascade
    sits here.  No input repeats (every call draws its own alpha and theta),
    so a cache cannot hit, and the prediction for a caching change on this
    workload is no change.
fusion
    ``graphstab`` does nearly all the work: GF(2) eliminations, row-product
    phases and ``canonical_form``.  No other layer runs, so a change to the
    stabilizer engine shows only here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
import traceback
from collections import defaultdict, deque

import numpy as np

from qubuslab import analytics, busim, cli, gates, graphstab, growth

# |z| above this fails a gated statistical check.  Each run makes a few
# hundred gated comparisons at most; a correct program exceeds 6 with
# probability about 2e-9 per comparison, so it passes for any seed.
Z_GATE = 6.0
PROB_TOL = 1e-9
FIDELITY_TOL = 1e-9

SIZES = {
    "full": {
        "sequential": 5000, "vertical_link": 5000, "divide_conquer": 2000,
        "merge": 1000, "gate3": 40,
        "cascade_n": range(3, 9), "sequence_n": range(10, 15),
        "registers": (64, 96, 128, 160, 192),
    },
    "tiny": {
        "sequential": 40, "vertical_link": 40, "divide_conquer": 20,
        "merge": 10, "gate3": 3,
        "cascade_n": range(3, 5), "sequence_n": range(4, 6),
        "registers": (12, 20),
    },
}


class Round:
    """Operation counts, per-stage timings and the output digest of one round.

    With a running ``RefClock``, the probe time that falls inside an
    operation is taken out of the operation's seconds.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.items = 0  # unit operations behind items_per_ref
        self.item_s = 0.0
        self.stage_count = defaultdict(float)
        self.stage_s = defaultdict(float)
        self.samples = defaultdict(list)  # stage -> per-call seconds
        self.info: list[str] = []  # reported, never gated
        self.digest = hashlib.sha256()

    def op(self, label: str, func, check=None):
        """Run, time and check one operation; returns (result, seconds).

        An operation fails when it raises or when ``check(result)`` returns
        a description of what is wrong.
        """
        self.attempted += 1
        start = time.perf_counter()
        probed = self._probe_s()
        try:
            result = func()
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds = self._since(start, probed)
            self._fail(label, "".join(traceback.format_exception_only(exc)).strip())
            return None, seconds
        seconds = self._since(start, probed)
        if check is not None:
            try:
                problem = check(result)
            except Exception as exc:
                problem = "check raised " + "".join(
                    traceback.format_exception_only(exc)).strip()
            if problem:
                self._fail(label, problem)
        return result, seconds

    def _probe_s(self) -> float:
        return 0.0 if self.clock is None else self.clock.probe_s

    def _since(self, start: float, probed: float) -> float:
        """Seconds since ``start`` less the probe time since ``probed``.

        The probe total is read inside the two clock readings, so a probe
        that lands between a clock reading and a probe-total reading counts
        as work and is never subtracted without being timed.
        """
        probe_s = self._probe_s()
        return time.perf_counter() - start - (probe_s - probed)

    def _fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {problem}")

    def stage(self, name: str, count: float, seconds: float) -> None:
        self.stage_count[name] += count
        self.stage_s[name] += seconds
        self.samples[name].append(seconds)

    def feed(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                part = part.tobytes()
            elif not isinstance(part, bytes):
                part = repr(part).encode()
            self.digest.update(part)


def _z(values: np.ndarray, expected: float) -> float:
    stderr = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    diff = float(np.mean(values)) - expected
    if diff == 0.0:
        return 0.0
    return diff / stderr if stderr > 0 else math.inf


def _z_gate(values, expected: float, what: str):
    z = _z(np.asarray(values, dtype=np.float64), expected)
    if abs(z) > Z_GATE:
        return f"{what}: mean {float(np.mean(values)):.6g} vs exact {expected:.6g}, z = {z:+.2f}"
    return None


# ---------------------------------------------------------------------------
# mc_sweep


def mc_inputs(rng: np.random.Generator, sizes: dict) -> tuple:
    """Growth configurations, each with its own master seed from ``rng``.

    Alongside them: for the gate-backed config, the exact per-attempt
    success chance its check needs (None for the others).
    """
    seeds = [int(s) for s in rng.integers(0, 2**63, size=7)]
    cfg = growth.StrategyConfig
    configs = [
        cfg("sequential", 0.75, sizes["sequential"], seeds[0], target_L=41),
        cfg("vertical_link", 0.75, sizes["vertical_link"], seeds[1]),
        cfg("vertical_link", 0.5, sizes["vertical_link"], seeds[2]),
        cfg("divide_conquer", 0.5, sizes["divide_conquer"], seeds[3],
            initial_qubits=2**16, rounds_k=8),
        cfg("divide_conquer", 0.75, sizes["divide_conquer"], seeds[4],
            initial_qubits=2**16, rounds_k=8),
        cfg("merge", 0.75, sizes["merge"], seeds[5], target_L=41),
        cfg("sequential", 0.75, sizes["gate3"], seeds[6], target_L=21,
            gate_backend="three-qubit", alpha=1000.0, theta=0.003),
    ]
    return configs, [_gate3_success(c.alpha, c.theta) if c.gate_backend else None
                     for c in configs]


def _gate3_success(alpha: float, theta: float) -> float:
    """Exact per-attempt success chance of the gate-backed walk (GHZ or Bell)."""
    table = gates.three_qubit_outcomes(alpha, theta)
    total = sum(o.exact_probability for o in table)
    wins = sum(o.exact_probability for o in table
               if o.label == "ghz" or o.label.startswith("bell"))
    return float(wins / total)


def _mc_check(cfg, p_gate3: float | None):
    """Gate on expectations that are exact for the rules as simulated."""
    if cfg.variant == "sequential":
        p = cfg.p if p_gate3 is None else p_gate3
        exact = (cfg.target_L - 1) / (2.0 * p - 1.0)
        return lambda s: _z_gate(s.entangling_ops, exact, "mean ops vs (L-1)/(2p-1)")
    if cfg.variant == "vertical_link":
        exact = 2.0 * (1.0 / cfg.p + 1.0)
        return lambda s: _z_gate(s.qubits_consumed, exact, "mean qubits vs 2(1/p+1)")
    if cfg.variant == "divide_conquer":
        exact = (cfg.initial_qubits // 2) * cfg.p
        return lambda s: _z_gate(s.extras["chains_round_1"], exact,
                                 "round-1 survivors vs floor(n/2) p")
    return None  # merge: closed form known not to match the rules; info only


def _stage_name(cfg) -> str:
    return "gate3" if cfg.gate_backend else cfg.variant


def _jsonl_check(stats):
    def check(text: str):
        lines = text.splitlines()
        if len(lines) != stats.config.trials:
            return f"{len(lines)} JSONL records for {stats.config.trials} trials"
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["trial"] != i or rec["entangling_ops"] != float(stats.entangling_ops[i]):
                return f"JSONL record {i} does not match trial {i}"
        return None
    return check


def _csv_check(stats):
    def check(text: str):
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 1:
            return f"{len(rows)} CSV rows, expected 1"
        row, summ = rows[0], stats.summary()
        want = {
            "trials": stats.config.trials,
            "mean_ops": summ["entangling_ops"].mean,
            "ci_ops": summ["entangling_ops"].ci95,
            "mean_time": summ["elapsed_rounds"].mean,
            "ci_time": summ["elapsed_rounds"].ci95,
            "mean_wasted": summ["qubits_wasted"].mean,
        }
        bad = [k for k, v in want.items() if float(row[k]) != float(v)]
        return f"CSV columns {bad} differ from summary()" if bad else None
    return check


def _comparison_info(stats) -> list[str]:
    cfg = stats.config
    point = analytics.scaling_point(cfg.variant, cfg.p, L=cfg.target_L,
                                    n=cfg.initial_qubits, k=cfg.rounds_k)
    return [
        f"{cfg.variant} p={cfg.p} {row.metric}: z = {row.z:+.2f} against the closed form"
        for row in growth.compare_to_analytic(stats, point)
    ]


def mc_round(inputs: tuple, rnd: Round) -> None:
    configs, p_gate3 = inputs
    first = None
    for cfg, p_eff in zip(configs, p_gate3):
        label = f"simulate {_stage_name(cfg)} p={cfg.p}"
        stats, seconds = rnd.op(label, lambda: growth.simulate(cfg, threads=1),
                                _mc_check(cfg, p_eff))
        rnd.items += cfg.trials
        rnd.item_s += seconds
        rnd.stage(f"mc.{_stage_name(cfg)}", cfg.trials, seconds)
        if stats is None:
            continue
        rnd.feed(stats.entangling_ops, stats.elapsed_rounds, stats.qubits_consumed,
                 stats.qubits_wasted, stats.final_length,
                 *(stats.extras[k] for k in sorted(stats.extras)))
        if cfg.variant in ("merge", "divide_conquer"):
            rnd.info.extend(_comparison_info(stats))
        if first is None and cfg.variant == "sequential" and not cfg.gate_backend:
            first = stats
    if first is None:
        return
    point = analytics.scaling_point("sequential", first.config.p, L=first.config.target_L)
    rnd.op("compare_to_analytic sequential",
           lambda: growth.compare_to_analytic(first, point),
           lambda rows: None if rows else "no comparison rows")
    text, t_jsonl = rnd.op("render_growth_jsonl",
                           lambda: cli.render_growth_jsonl(first), _jsonl_check(first))
    row, t_csv = rnd.op("render_growth_csv",
                        lambda: cli.render_growth_csv(first), _csv_check(first))
    rnd.stage("mc.render", first.config.trials, t_jsonl + t_csv)
    rnd.feed(text, row)


# ---------------------------------------------------------------------------
# gate_tables


def _draw_pair(rng, seen: set, regime: str) -> tuple[float, float]:
    """A fresh (alpha, theta) pair inside the resolved regime of ``regime``.

    Homodyne tables keep the peak separation alpha sin(theta) (momentum) or
    alpha (1 - cos(theta)) (position) between 2 and 5, where the
    misassignment error stays below ``gates.PEAK_ERROR_WARN``; bucket tables
    use a small bus so the photon-number tables stay short.
    """
    while True:
        if regime == "bucket":
            alpha, theta = rng.uniform(1.5, 3.0), rng.uniform(0.2, 0.6)
        else:
            alpha, sep = rng.uniform(800.0, 3000.0), rng.uniform(2.0, 5.0)
            if regime == "momentum":
                theta = math.asin(sep / alpha)
            else:
                theta = math.acos(1.0 - sep / alpha)
        pair = (float(alpha), float(theta))
        budget = gates.error_budget(*pair)
        err = budget.p_err_position if regime == "position" else budget.p_err_momentum
        if pair not in seen and (regime == "bucket" or err < gates.PEAK_ERROR_WARN):
            seen.add(pair)
            return pair


def tables_inputs(rng: np.random.Generator, sizes: dict) -> dict:
    seen: set = set()
    return {
        "cascade": [(n, *_draw_pair(rng, seen, "momentum")) for n in sizes["cascade_n"]],
        "momentum": _draw_pair(rng, seen, "momentum"),
        "position": _draw_pair(rng, seen, "position"),
        "bucket": _draw_pair(rng, seen, "bucket"),
        "bucket_resolving": _draw_pair(rng, seen, "bucket"),
        # initial bus amplitude of each sequence run
        "sequences": [
            (kind, n, complex(rng.normal(), rng.normal()))
            for n in sizes["sequence_n"] for kind in ("chain", "star")
        ],
    }


def _uniform_target(n: int, members) -> busim.QubitState:
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[list(members)] = 1.0 / math.sqrt(len(members))
    return busim.QubitState(n, amps)


def _target(outcome) -> busim.QubitState | None:
    """Canonical state an outcome heralds, or None for unheralded outcomes."""
    post = outcome.posterior
    label = outcome.label
    support = np.flatnonzero(np.abs(post.amplitudes) > 1e-12)
    if label == "odd-bell":
        return _uniform_target(2, (1, 2))
    if label == "even-bell":
        return _uniform_target(2, (0, 3))
    if label.startswith("even-bell-"):
        sign = 1 if int(label.rsplit("-", 1)[1]) % 2 == 0 else -1
        return busim.QubitState(2, np.array([1, 0, 0, sign]) / math.sqrt(2.0))
    if (label == "ghz" or label.startswith("bell-q3")) and support.size == 2:
        return _uniform_target(post.qubit_count, support)
    return None


def _table_check(exact: bool):
    def check(table):
        total = sum(o.probability for o in table)
        if abs(total - 1.0) > PROB_TOL:
            return f"probabilities sum to {total!r}"
        for o in table:
            if exact and (o.exact_probability is None
                          or abs(float(o.exact_probability) - o.probability) > PROB_TOL):
                return f"{o.label}: exact {o.exact_probability} vs peak weight {o.probability!r}"
            target = _target(o)
            if target is None:
                continue
            fid = busim.fidelity(gates.apply_corrections(o.posterior, o.corrections), target)
            if fid < 1.0 - FIDELITY_TOL:
                return f"{o.label}: corrected posterior fidelity {fid!r}"
        return None
    return check


def _graph_target(n: int, edges) -> np.ndarray:
    idx = np.arange(2**n)
    bit = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
    parity = sum(bit[a] & bit[b] for a, b in edges) % 2
    return (1 - 2 * parity) / math.sqrt(2**n)


def _sequence_check(kind: str, n: int):
    edges = ([(k, k + 1) for k in range(n - 1)] if kind == "chain"
             else [(0, k) for k in range(1, n)])

    def check(result):
        hybrid, posterior, corrections = result
        if not np.all(hybrid.bus == hybrid.bus[0]):
            return f"bus spread {busim.bus_spread(hybrid)!r}, expected exactly 0"
        if posterior is None:  # a common bus factors out: the register is the coefficients
            amps = np.zeros(2**n, dtype=np.complex128)
            amps[hybrid.bits] = hybrid.coeff
            posterior = busim.QubitState(n, amps, normalize=True)
        corrected = gates.apply_corrections(posterior, corrections)
        overlap = abs(np.vdot(_graph_target(n, edges), corrected.amplitudes)) ** 2
        if overlap < 1.0 - FIDELITY_TOL:
            return f"corrected register has fidelity {overlap!r} with the {kind} graph state"
        return None
    return check


def _feed_table(rnd: Round, table) -> None:
    for o in table:
        rnd.feed(o.label, o.probability, o.posterior.amplitudes, o.corrections)


def tables_round(inputs: dict, rnd: Round) -> None:
    def table(label, build, exact=False):
        result, seconds = rnd.op(label, build, _table_check(exact))
        rnd.items += 1
        rnd.item_s += seconds
        if result is not None:
            _feed_table(rnd, result)
        return seconds

    for n, alpha, theta in inputs["cascade"]:
        seconds = table(f"cascade_outcomes n={n}",
                        lambda: gates.cascade_outcomes(n, alpha, theta), exact=True)
        rnd.stage(f"tables.cascade_n{n}", 1, seconds)
    parity = [
        table("momentum_parity_outcomes",
              lambda: gates.momentum_parity_outcomes(*inputs["momentum"])),
        table("position_parity_outcomes",
              lambda: gates.position_parity_outcomes(*inputs["position"])),
        table("bucket_parity_outcomes",
              lambda: gates.bucket_parity_outcomes(*inputs["bucket"])),
        table("bucket_parity_outcomes number-resolving",
              lambda: gates.bucket_parity_outcomes(*inputs["bucket_resolving"],
                                                   number_resolving=True)),
    ]
    rnd.stage("tables.parity", len(parity), sum(parity))

    beta = math.sqrt(math.pi / 8.0)
    for kind, n, bus in inputs["sequences"]:
        build = gates.chain_sequence if kind == "chain" else gates.star_sequence

        def run(build=build, kind=kind, n=n, bus=bus):
            seq, corrections = build(n, beta)
            hybrid = gates.run_sequence(
                busim.attach_bus(busim.QubitState.plus(n), bus), seq)
            # chains are also disentangled (tables.chain_n14_s times both);
            # extracting the stars as well would add half again to a round
            # and run no code that the chains do not
            posterior = busim.extract_qubits(hybrid) if kind == "chain" else None
            return hybrid, posterior, corrections

        result, seconds = rnd.op(f"{kind}_sequence n={n}", run, _sequence_check(kind, n))
        rnd.items += 1
        rnd.item_s += seconds
        rnd.stage(f"tables.{kind}_n{n}", 1, seconds)
        if result is not None:
            rnd.feed(result[0].coeff, result[0].bus)


# ---------------------------------------------------------------------------
# fusion


def fusion_inputs(rng: np.random.Generator, sizes: dict) -> list:
    """Per register: chain lengths, then one (variant, outcome) draw per chain."""
    registers = []
    for size in sizes["registers"]:
        lengths = []
        while sum(lengths) < size:
            lengths.append(int(rng.integers(2, 6)))
        draws = []
        for _ in lengths:
            if rng.random() < 0.5:
                draws.append(("parity-2", str(rng.choice(graphstab.PARITY2_OUTCOMES))))
            else:
                draws.append(("gate-3", str(rng.choice(graphstab.GATE3_OUTCOMES))))
        registers.append((lengths, draws))
    return registers


def _implied_graph(reg: graphstab.ChainRegistry, n: int) -> graphstab.GraphSpec:
    """The graph the registry claims: backbones, dangling bonds and tee links."""
    edges = []
    for backbone in reg.backbones.values():
        edges.extend(zip(backbone, backbone[1:]))
    edges.extend(reg.danglers.items())
    for junction, cid in reg.tees:
        if cid in reg.backbones:
            edges.append((junction, reg.backbones[cid][0]))
    return graphstab.GraphSpec.from_edges(n, edges)


def _fuse_register(lengths, draws, rnd: Round):
    """Grow one main chain by fusing fresh chains onto its end.

    Successes extend the main chain; every failed fusion is followed by
    ``recover_failure`` on each projected qubit, and the main chain carries
    on from the recovered end's neighbour.  A main chain whose end is no
    longer a free end is abandoned for the next fresh chain: a free end has
    at most one neighbour and anchors no dangling bond, which stays reserved
    for a later vertical link.  (``ChainRegistry.remove`` keeps a dangling
    bond whose anchor is measured out, so fusing at an anchor and failing
    would leave the registry describing an edge the state no longer has.)
    Returns the final tableau, the registry and the Z outcome of every
    measured-out qubit.
    """
    reg, spec = graphstab.ChainRegistry.disjoint_chains(lengths)
    tab = graphstab.graph_state(spec)
    starts = np.cumsum([0] + lengths[:-1]).tolist()
    fresh = deque(starts[1:])
    main = lengths[0] - 1
    measured: dict[int, int] = {}
    draws = deque(draws)

    def call(label, func):
        result, seconds = rnd.op(label, func)
        rnd.items += 1
        rnd.item_s += seconds
        rnd.stage("fusion.ops", 1, seconds)
        if result is None:
            raise RuntimeError(f"{label} failed")
        return result

    while draws:
        if (main not in reg.chain_of or not reg.is_end(main)
                or main in reg.danglers.values()):
            if not fresh:
                break
            start = fresh.popleft()
            main = reg.backbones[reg.chain_of[start]][-1]
            continue
        variant, outcome = draws[0]
        partners = 1 if variant == "parity-2" else 2
        if len(fresh) < partners:
            break
        draws.popleft()
        qubits = (main,) + tuple(fresh.popleft() for _ in range(partners))
        label, tab, corrections = call(
            f"fuse {variant} {outcome}",
            lambda: graphstab.fuse(tab, qubits, variant, outcome, reg))
        rnd.feed(label, corrections)
        if outcome.startswith(("success", "ghz", "bell")):
            if outcome.startswith("bell"):
                measured[qubits[2]] = 1 if outcome.endswith("0") else -1
            main = reg.backbones[reg.chain_of[main]][-1]
            continue
        neighbour = reg.neighbour(main)
        for q in qubits:
            result, tab = call(f"recover_failure q{q}",
                               lambda: graphstab.recover_failure(tab, q, reg))
            measured[q] = result
        main = neighbour
    return tab, reg, measured


def fusion_round(inputs: list, rnd: Round) -> None:
    for lengths, draws in inputs:
        try:
            tab, reg, measured = _fuse_register(lengths, draws, rnd)
        except RuntimeError:
            continue  # the failed operation is already counted
        corrections = []
        for q, outcome in sorted(measured.items()):
            if outcome == -1:
                corrections.append((q, "X"))
            corrections.append((q, "H"))
        spec = _implied_graph(reg, tab.n)
        _, seconds = rnd.op(
            f"register of {tab.n} qubits matches its registry",
            lambda: graphstab.equals_up_to_corrections(tab, spec, corrections),
            lambda same: None if same else "group differs from the registry's graph")
        rnd.stage("fusion.check", 1, seconds)
        rnd.feed(tab.x, tab.z, tab.sign)


# ---------------------------------------------------------------------------


WORKLOADS = {
    "mc_sweep": (mc_inputs, mc_round),
    "gate_tables": (tables_inputs, tables_round),
    "fusion": (fusion_inputs, fusion_round),
}

ITEMS = {
    "mc_sweep": "Monte Carlo trials of growth.simulate",
    "gate_tables": "outcome tables and sequence runs",
    "fusion": "fuse plus recover_failure calls",
}

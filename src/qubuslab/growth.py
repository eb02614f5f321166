"""Seeded Monte Carlo for chain-growth strategies.

Each trial owns a counter-based random stream keyed by (master_seed,
trial_index), so a trial's result does not depend on which other trials run:
the first M trials of an N-trial run equal an M-trial run.  A run builds one
Philox generator and rekeys it to each trial's stream, and does the rest of
its per-run work (the gate backend's outcome table, merge's minimal chain
length, divide and conquer's round lengths and record keys) once, not per
trial.

Strategy rules (the accounting that the closed forms leave open) are stated
in each simulator's docstring; disagreements between the simulated means and
the printed laws are surfaced by :func:`compare_to_analytic` as flags.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import analytics, gates
from .analytics import ScalingPoint

__all__ = [
    "StrategyConfig",
    "GrowthStats",
    "ComparisonRow",
    "trial_rng",
    "simulate",
    "join_pair_experiment",
    "compare_to_analytic",
    "VARIANTS",
]

VARIANTS = ("sequential", "merge", "divide_conquer", "vertical_link")

# one-line summaries of the qubit-accounting rules, carried into the
# per-trial provenance records
ACCOUNTING_RULES = {
    "sequential": (
        "one fresh qubit and one attempt per round; success +1, failure "
        "loses the fresh qubit and the measured-out end; unrestricted walk"
    ),
    "merge": (
        "minimal chains built by halving without recycling, then joined to "
        "the main chain; a failed join shrinks both parties by one"
    ),
    "divide_conquer": (
        "equal-length pairs each round, failures discarded; odd chain out "
        "stranded as waste, a lone chain waits"
    ),
    "vertical_link": (
        "two qubits per chain up front, one more per chain per failed "
        "attempt; success measures out the two dangling qubits"
    ),
}

_MASK64 = (1 << 64) - 1
# uniforms drawn per block by the sequential walk and by merge's draws
_BLOCK = 256
_ZERO4 = (0, 0, 0, 0)


def trial_rng(
    master_seed: int, trial_index: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Independent per-trial stream: a Philox generator keyed by both values.

    The 128-bit Philox key is (master_seed << 64) | trial_index, so distinct
    trials get distinct counter-based streams with no shared state.  Given a
    Philox-backed ``rng``, rekey it to that stream and return it instead of
    building a new generator: key words [trial_index, master_seed], counter
    zero and an empty buffer are the state a fresh ``Philox(key=...)``
    starts from, so the draws are the same.
    """
    if rng is None:
        key = ((int(master_seed) & _MASK64) << 64) | (int(trial_index) & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": _ZERO4,
            "key": (int(trial_index) & _MASK64, int(master_seed) & _MASK64),
        },
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _uniforms(rng: np.random.Generator):
    """The scalar draws rng.random(), rng.random(), ... taken in blocks.

    A block of k doubles is the same k values as k scalar draws; the next
    block is drawn only when the last one runs out.  Values left over at the
    end of a trial change nothing, because each trial owns its stream.
    """
    while True:
        yield from rng.random(_BLOCK).tolist()


@dataclass(frozen=True)
class StrategyConfig:
    """One growth experiment: strategy variant, gate model and trial plan."""

    variant: str
    p: float
    trials: int
    master_seed: int
    target_L: int | None = None
    rounds_k: int | None = None
    initial_qubits: int | None = None
    gate_time: float = 1.0
    max_rounds: int | None = None
    gate_backend: str | None = None  # None (abstract p) or "three-qubit"
    alpha: float = 1000.0
    theta: float = 0.003

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("success probability must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.variant == "sequential":
            if self.target_L is None or self.target_L < 1:
                raise ValueError("sequential growth needs target_L >= 1")
            if self.p <= 0.5 and self.max_rounds is None:
                raise ValueError(
                    "sequential growth with p <= 1/2 does not terminate on "
                    "average; set max_rounds to cap trials"
                )
        if self.variant == "merge":
            if self.target_L is None:
                raise ValueError("merge growth needs target_L")
            lc = analytics.critical_length(self.p)
            if self.target_L <= lc:
                raise ValueError(
                    f"target length {self.target_L} is not above the "
                    f"critical length {lc}; no average growth"
                )
        if self.variant == "divide_conquer":
            if self.initial_qubits is None or self.initial_qubits < 2:
                raise ValueError("divide and conquer needs initial_qubits >= 2")
            if self.rounds_k is None and self.target_L is None:
                raise ValueError("divide and conquer needs rounds_k or target_L")

    def rounds(self) -> int:
        if self.variant != "divide_conquer":
            raise ValueError("rounds are only defined for divide and conquer")
        if self.rounds_k is not None:
            return self.rounds_k
        return analytics.dc_rounds_for_length(self.target_L)


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    variance: float
    ci95: float

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "MetricSummary":
        mean = float(np.mean(values))
        var = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
        half = 1.959963984540054 * math.sqrt(var / values.size)
        return cls(mean=mean, variance=var, ci95=half)


_BASE_METRICS = ("entangling_ops", "elapsed_rounds", "qubits_consumed",
                 "qubits_wasted", "final_length")


@dataclass(frozen=True)
class GrowthStats:
    """Per-trial arrays plus their aggregates for one strategy run."""

    config: StrategyConfig
    entangling_ops: np.ndarray
    elapsed_rounds: np.ndarray
    qubits_consumed: np.ndarray
    qubits_wasted: np.ndarray
    final_length: np.ndarray
    extras: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            name: MetricSummary.from_samples(getattr(self, name))
            for name in _BASE_METRICS
        }

    def trial_records(self):
        """One JSON-ready record per trial, carrying the full config."""
        cfg = asdict(self.config)
        cfg["accounting"] = {"rules": ACCOUNTING_RULES[self.config.variant]}
        for i in range(self.config.trials):
            yield {
                "trial": i,
                "entangling_ops": float(self.entangling_ops[i]),
                "elapsed_rounds": float(self.elapsed_rounds[i]),
                "qubits_consumed": float(self.qubits_consumed[i]),
                "qubits_wasted": float(self.qubits_wasted[i]),
                "final_length": float(self.final_length[i]),
                **{k: float(v[i]) for k, v in self.extras.items()},
                "config": cfg,
            }


# ---------------------------------------------------------------------------
# per-trial simulators


def _attempt_sampler(config: StrategyConfig):
    """Map a block of uniforms to arrays of (success, spare-bond) flags.

    The abstract backend succeeds where u < p.  The three-qubit gate backend
    picks an outcome per uniform by inverting :func:`gates.outcome_cdf`, as
    ``rng.choice(p=...)`` does, so a block picks what as many scalar choices
    would: GHZ is a success with a spare dangling bond, Bell a plain success
    and the product outcomes failures.  The table is built once per call.
    """
    if config.gate_backend is None:
        return lambda u: (u < config.p, np.zeros(u.shape, dtype=bool))
    if config.gate_backend != "three-qubit":
        raise ValueError(f"unknown gate backend {config.gate_backend!r}")
    outcomes = gates.three_qubit_outcomes(config.alpha, config.theta)
    cdf = gates.outcome_cdf(outcomes)
    success = np.array([o.label == "ghz" or o.label.startswith("bell")
                        for o in outcomes])
    spare = np.array([o.label == "ghz" for o in outcomes])

    def sample(u):
        k = cdf.searchsorted(u, side="right")
        return success[k], spare[k]

    return sample


def _sequential_trial(config: StrategyConfig, rng: np.random.Generator, sample):
    """Random-walk growth: one fresh qubit and one gate attempt per round.

    Success extends the chain by one; failure loses the fresh qubit and the
    measured-out chain end.  The walk is the unrestricted +-1 drift process
    underlying the closed form (L-1)/(2p-1): a trial that walks down to an
    empty chain keeps attempting from there, rebuilding through zero, so the
    expectation matches the closed form rather than a reflecting-boundary
    variant (which sits about one operation lower at p = 3/4, L = 41).
    Time advances by gate_time per attempt.

    The walk takes 256 uniforms at a time, which ``sample`` (the run's
    :func:`_attempt_sampler`) maps to success and spare-bond flags, and
    stops at the first attempt that reaches the target or at ``max_rounds``
    attempts.  The unused rest of the last block changes nothing, because
    each trial owns its stream.
    """
    target = config.target_L
    cap = math.inf if config.max_rounds is None else config.max_rounds
    length = 1
    ops = 0
    danglers = 0
    while length < target and ops < cap:
        success, spare = sample(rng.random(_BLOCK))
        path = length + np.cumsum(np.where(success, 1, -1))
        hit = np.flatnonzero(path >= target)
        stop = min(int(hit[0]) + 1 if hit.size else _BLOCK, cap - ops)
        ops += stop
        length = int(path[stop - 1])
        danglers += int(np.count_nonzero(spare[:stop]))
    return {
        "entangling_ops": ops,
        "elapsed_rounds": ops * config.gate_time,
        "qubits_consumed": 1 + ops,
        "qubits_wasted": 1 + ops - length,
        "final_length": length,
        "spare_danglers": danglers,
    }


def _dc_trial(config: StrategyConfig, rng: np.random.Generator, rounds):
    """Pairwise joins of equal-length chains, discarding failures.

    Round j pairs floor(C/2) survivors; only failed chains are discarded.
    The odd chain out of a pool of three or more is stranded as waste (an
    equal-length partner can never appear again), while a lone chain simply
    waits unchanged.  Survivor counts are binomial, so the trial runs at the
    aggregate level.  Time is one gate_time per round.  ``rounds`` holds,
    per round, the survivors' length and the two record keys, built once
    per run by :func:`_run_constants`.
    """
    n = config.initial_qubits
    chains = n
    length = 1
    ops = 0
    per_round = {}
    for round_length, chains_key, qubits_key in rounds:
        if chains > 1:
            pairs = chains // 2
            ops += pairs
            chains = int(rng.binomial(pairs, config.p))
            if chains:
                length = round_length
        # a lone chain waits unchanged; an empty pool stays empty
        per_round[chains_key] = chains
        per_round[qubits_key] = chains * length
    final_qubits = chains * length
    return {
        "entangling_ops": ops,
        "elapsed_rounds": len(rounds) * config.gate_time,
        "qubits_consumed": n,
        "qubits_wasted": n - final_qubits,
        "final_length": length if chains else 0,
        "surviving_chains": chains,
        "surviving_qubits": final_qubits,
        **per_round,
    }


def _build_chain_dc(length: int, p: float, draw, t: float):
    """Ops, time and qubits to build one chain without recycling.

    Two bare qubits fuse straight into a 2-chain; a longer chain of length l
    splits as a + b - 1 with a = ceil((l+1)/2) and both halves at least 2.
    Halves are built fresh (in parallel, so time takes the slower half) and
    a failed join discards them entirely.  ``draw()`` returns the trial's
    next uniform.
    """
    if length <= 1:
        return 0, 0.0, 1
    if length == 2:
        ops = 0
        time = 0.0
        qubits = 0
        while True:
            ops += 1
            time += t
            qubits += 2
            if draw() < p:
                return ops, time, qubits
    a = (length + 2) // 2
    b = length + 1 - a
    ops = 0
    time = 0.0
    qubits = 0
    while True:
        ops_a, t_a, q_a = _build_chain_dc(a, p, draw, t)
        ops_b, t_b, q_b = _build_chain_dc(b, p, draw, t)
        ops += ops_a + ops_b + 1
        time += max(t_a, t_b) + t
        qubits += q_a + q_b
        if draw() < p:
            return ops, time, qubits


def _merge_trial(config: StrategyConfig, rng: np.random.Generator, L0: int):
    """Minimal chains built without recycling, then joined to a main chain.

    A failed join shrinks both the main chain and the partner by one; the
    partner is retried until it is used up, then rebuilt.  The main chain is
    the first minimal chain.  Join attempts run one at a time (time
    gate_time each); partner builds are accounted with parallel-halves time.
    ``L0`` is the minimal chain length at p, computed once per run.
    """
    target = config.target_L
    t = config.gate_time
    draw = _uniforms(rng).__next__
    ops = 0
    time = 0.0
    consumed = 0
    b_ops, b_time, b_q = _build_chain_dc(L0, config.p, draw, t)
    ops, time, consumed = ops + b_ops, time + b_time, consumed + b_q
    main = L0
    while main < target:
        b_ops, b_time, b_q = _build_chain_dc(L0, config.p, draw, t)
        ops, time, consumed = ops + b_ops, time + b_time, consumed + b_q
        partner = L0
        while partner >= 1:
            ops += 1
            time += t
            if draw() < config.p:
                main += partner - 1
                break
            main -= 1
            partner -= 1
        if main < 1:
            main = 1  # rebuild from a bare qubit of the next partner
    return {
        "entangling_ops": ops,
        "elapsed_rounds": time,
        "qubits_consumed": consumed,
        "qubits_wasted": consumed - main,
        "final_length": main,
    }


def _vertical_trial(config: StrategyConfig, rng: np.random.Generator):
    """Qubit cost of one vertical link between two chains.

    Growing the two dangling bonds costs two qubits per chain up front; each
    failed link attempt costs one further qubit per chain; on success the
    two dangling qubits are measured out into the link.  Mean consumption is
    2 (1/p + 1).
    """
    consumed = 4
    ops = 0
    while True:
        ops += 1
        if rng.random() < config.p:
            break
        consumed += 2
    return {
        "entangling_ops": ops,
        "elapsed_rounds": ops * config.gate_time,
        "qubits_consumed": consumed,
        "qubits_wasted": consumed - 4,
        "final_length": 2,
    }


def _run_constants(config: StrategyConfig) -> dict:
    """Keyword arguments of the variant's trial function, computed once per run."""
    if config.variant == "sequential":
        return {"sample": _attempt_sampler(config)}
    if config.variant == "merge":
        return {"L0": analytics.minimal_chain_length(config.p)}
    if config.variant == "divide_conquer":
        return {"rounds": tuple(
            (analytics.dc_round_length(j), f"chains_round_{j}", f"qubits_round_{j}")
            for j in range(1, config.rounds() + 1)
        )}
    return {}


_TRIAL_FUNCS = {
    "sequential": _sequential_trial,
    "merge": _merge_trial,
    "divide_conquer": _dc_trial,
    "vertical_link": _vertical_trial,
}


def simulate(config: StrategyConfig, threads: int = 1) -> GrowthStats:
    """Run the configured strategy over independent seeded trials, in order.

    Trial i always uses the stream keyed by (master_seed, i) and lands in
    slot i of the output: one generator is rekeyed to it before the trial.
    Trials run in the calling thread; ``threads`` is kept for callers that
    pass ``threads=1`` and any other value is an error.
    """
    if threads != 1:
        raise ValueError(
            f"trials run in the calling thread; threads must be 1, got {threads}"
        )
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed before each trial
    func = functools.partial(_TRIAL_FUNCS[config.variant], **_run_constants(config))
    records = [
        func(config, trial_rng(config.master_seed, i, rng))
        for i in range(config.trials)
    ]

    extras = {k: np.array([r[k] for r in records], dtype=np.float64)
              for k in records[0]}
    base = {k: extras.pop(k) for k in _BASE_METRICS}
    return GrowthStats(config=config, extras=extras, **base)


def join_pair_experiment(p: float, L: int, trials: int, seed: int) -> float:
    """Mean final length of two L-chains retrying a join, shrinking on failure.

    Terminates on the first success (final length 2 l - 1 at current size l)
    or on exhaustion (final length 0 after L failures).
    """
    if L < 1:
        raise ValueError("chain length must be at least 1")
    total = 0.0
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed before each trial
    for i in range(trials):
        trial_rng(seed, i, rng)
        # geometric failure count, capped at exhaustion
        fails = 0
        while fails < L and rng.random() >= p:
            fails += 1
        total += 0.0 if fails == L else 2.0 * (L - fails) - 1.0
    return total / trials


# ---------------------------------------------------------------------------
# comparison against the closed forms


@dataclass(frozen=True)
class ComparisonRow:
    metric: str
    empirical: float
    analytic: float
    stderr: float
    z: float
    status: str  # "pass" or "flag"


def compare_to_analytic(stats: GrowthStats, point: ScalingPoint):
    """Per-metric z-scores of the Monte Carlo means against the closed forms.

    |z| <= 3 is a pass; larger deviations are flagged, never raised: several
    printed laws are known not to match their own strategy rules, and the
    flags are how those discrepancies surface.
    """
    cfg = stats.config
    if point.series != cfg.variant:
        raise ValueError(
            f"analytic point is for {point.series!r}, stats for {cfg.variant!r}"
        )
    if abs(point.p - cfg.p) > 1e-12:
        raise ValueError("mismatched success probability")
    pairs = []
    if cfg.variant in ("sequential", "merge"):
        pairs = [("entangling_ops", point.N), ("elapsed_rounds", point.T)]
    elif cfg.variant == "divide_conquer":
        pairs = [
            ("surviving_chains", point.extras["C"]),
            ("surviving_qubits", point.extras["Q"]),
            ("qubits_wasted", point.extras["W"]),
            ("entangling_ops", point.N),
        ]
    elif cfg.variant == "vertical_link":
        pairs = [("qubits_consumed", point.extras["V"]), ("entangling_ops", point.N)]
    rows = []
    for metric, analytic_value in pairs:
        if analytic_value is None:
            continue
        values = stats.extras.get(metric)
        if values is None:
            values = getattr(stats, metric)
        summ = MetricSummary.from_samples(values)
        stderr = math.sqrt(summ.variance / values.size)
        diff = summ.mean - analytic_value
        z = 0.0 if diff == 0.0 else (diff / stderr if stderr > 0 else math.inf)
        rows.append(
            ComparisonRow(
                metric=metric,
                empirical=summ.mean,
                analytic=float(analytic_value),
                stderr=stderr,
                z=z,
                status="pass" if abs(z) <= 3.0 else "flag",
            )
        )
    return rows

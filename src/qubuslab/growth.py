"""Seeded Monte Carlo for chain-growth strategies.

Each trial owns a counter-based random stream keyed by (master_seed,
trial_index), so a trial's result does not depend on which other trials run:
the first M trials of an N-trial run equal an M-trial run.  A run builds one
Philox generator and rekeys it to each trial's stream.  The sequential and
vertical-link kernels evaluate chunks of trials at once, one row of uniforms
per trial, and a row of k doubles is the same k values as k scalar draws.
Per-run work (the gate backend's outcome table, merge's minimal chain
length, divide and conquer's round lengths) is done once, not per trial.

Strategy rules (the accounting that the closed forms leave open) are stated
in each simulator's docstring; disagreements between the simulated means and
the printed laws are surfaced by :func:`compare_to_analytic` as flags.
"""

from __future__ import annotations

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
_ZERO4 = (0, 0, 0, 0)
# Trials go _CHUNK at a time, one row of _WIDTH uniforms each (fewer for
# first-success counts, which are short), so temporaries stay near 1 MB.  A
# width is a multiple of 4: Philox yields four doubles per counter step.
_CHUNK = 512
_WIDTH = 256
_FIRST_SUCCESS_WIDTH = 32
_NO_CAP = np.iinfo(np.int64).max


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
        yield from rng.random(_WIDTH).tolist()


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
        if not (math.isfinite(self.gate_time) and self.gate_time > 0):
            raise ValueError(f"gate_time must be finite and > 0, got {self.gate_time}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")
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
            if self.rounds_k is not None and self.rounds_k < 0:
                raise ValueError("divide and conquer needs rounds_k >= 0")

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

    def columns(self) -> dict:
        """Per-trial arrays by record key: the base metrics, then the extras."""
        return {**{name: getattr(self, name) for name in _BASE_METRICS}, **self.extras}

    def record_config(self) -> dict:
        """The config each per-trial record carries, with its accounting rules."""
        cfg = asdict(self.config)
        cfg["accounting"] = {"rules": ACCOUNTING_RULES[self.config.variant]}
        return cfg

    def trial_records(self):
        """One JSON-ready record per trial, carrying the full config."""
        cfg = self.record_config()
        columns = self.columns()
        for i in range(self.config.trials):
            yield {
                "trial": i,
                **{k: float(v[i]) for k, v in columns.items()},
                "config": cfg,
            }


# ---------------------------------------------------------------------------
# simulators: each returns the per-trial columns of one run


def _walk_blocks(seed: int, trials: int, rng: np.random.Generator, width: int,
                 step) -> None:
    """Feed each trial's stream to ``step`` one block at a time, across trials.

    Block b of a trial is its uniforms b*width to (b+1)*width - 1, the values
    as many scalar ``rng.random()`` draws give: ``rng`` is rekeyed through
    :func:`trial_rng` and advanced by b*width/4 Philox counter steps of four
    doubles each.  Trials go _CHUNK at a time; ``step(u, rows)`` consumes
    row r of u, a block of trial ``rows[r]``, and returns a mask of the rows
    that need their next block.  A trial that stops in its first block is
    rekeyed once.
    """
    buf = np.empty((_CHUNK, width))
    for start in range(0, trials, _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, trials))
        skip = 0
        while rows.size:
            u = buf[:rows.size]
            for row, i in zip(u, rows.tolist()):
                trial_rng(seed, i, rng)
                if skip:
                    rng.bit_generator.advance(skip)
                rng.random(out=row)
            rows = rows[step(u, rows)]
            skip += width // 4


def _attempt_sampler(config: StrategyConfig):
    """Map an array of uniforms to arrays of (success, spare-bond) flags.

    The abstract backend succeeds where u < p and has no spare bonds (None).
    The three-qubit gate backend picks an outcome per uniform by inverting
    :func:`gates.outcome_cdf`, as ``rng.choice(p=...)`` does, so a block
    picks what as many scalar choices would: GHZ is a success with a spare
    dangling bond, Bell a plain success and the product outcomes failures.
    The table is built once per call.
    """
    if config.gate_backend is None:
        return lambda u: (u < config.p, None)
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


def _sequential(config: StrategyConfig, rng: np.random.Generator) -> dict:
    """Random-walk growth: one fresh qubit and one gate attempt per round.

    Success extends the chain by one; failure loses the fresh qubit and the
    measured-out chain end.  The walk is the unrestricted +-1 drift process
    underlying the closed form (L-1)/(2p-1): a trial that walks down to an
    empty chain keeps attempting from there, rebuilding through zero, so the
    expectation matches the closed form rather than a reflecting-boundary
    variant (which sits about one operation lower at p = 3/4, L = 41).
    Time advances by gate_time per attempt.

    Each trial's uniforms come _WIDTH at a time, mapped by
    :func:`_attempt_sampler` to success and spare-bond flags; the walk is
    their running sum along the row.  A trial stops at the first attempt
    that reaches the target or at ``max_rounds`` attempts, and otherwise
    takes its next block.
    """
    n, target = config.trials, config.target_L
    cap = _NO_CAP if config.max_rounds is None else config.max_rounds
    sample = _attempt_sampler(config)
    ops = np.zeros(n, dtype=np.int64)
    length = np.ones(n, dtype=np.int64)
    danglers = np.zeros(n, dtype=np.int64)
    attempt = np.arange(1, _WIDTH + 1, dtype=np.int16)

    def step(u, rows):
        success, spare = sample(u)
        # the walk's move over a row's first k attempts, 2 (successes) - k,
        # stays within +-_WIDTH whatever the length, so int16 holds it
        moved = np.cumsum(success, axis=1, dtype=np.int16)
        moved *= 2
        moved -= attempt
        reached = moved >= (target - length[rows])[:, None]
        stop = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, _WIDTH)
        np.minimum(stop, cap - ops[rows], out=stop)
        ops[rows] += stop
        length[rows] += moved[np.arange(rows.size), stop - 1]
        if spare is not None:
            danglers[rows] += np.count_nonzero(spare & (attempt <= stop[:, None]), axis=1)
        return (length[rows] < target) & (ops[rows] < cap)

    if target > 1:
        _walk_blocks(config.master_seed, n, rng, _WIDTH, step)
    return {
        "entangling_ops": ops,
        "elapsed_rounds": ops * config.gate_time,
        "qubits_consumed": 1 + ops,
        "qubits_wasted": 1 + ops - length,
        "final_length": length,
        "spare_danglers": danglers,
    }


def _divide_conquer(config: StrategyConfig, rng: np.random.Generator) -> dict:
    """Pairwise joins of equal-length chains, discarding failures.

    Round j pairs floor(C/2) survivors; only failed chains are discarded.
    The odd chain out of a pool of three or more is stranded as waste (an
    equal-length partner can never appear again), while a lone chain simply
    waits unchanged.  Survivor counts are binomial, so a trial runs at the
    aggregate level: one scalar ``rng.binomial`` per round that pairs
    chains.  Time is one gate_time per round.
    """
    n, p, k = config.initial_qubits, config.p, config.rounds()
    # survivors[i, j]: trial i's chains after round j (column 0: n bare qubits)
    survivors = np.empty((config.trials, k + 1), dtype=np.int64)
    survivors[:, 0] = n
    binomial = rng.binomial
    for i in range(config.trials):
        trial_rng(config.master_seed, i, rng)
        row = survivors[i]
        chains = n
        for j in range(1, k + 1):
            if chains > 1:
                chains = binomial(chains // 2, p)
            row[j] = chains  # a lone chain waits; an empty pool stays empty
    before = survivors[:, :-1]
    paired = before > 1
    # pools only shrink, so the rounds that paired come first and their count
    # is the round whose length the survivors have (an empty pool has none)
    grown = np.zeros(survivors.shape, dtype=np.int64)
    np.cumsum(paired, axis=1, out=grown[:, 1:])
    length = np.array([analytics.dc_round_length(j) for j in range(k + 1)])[grown]
    qubits = survivors * length
    chains, final_qubits = survivors[:, -1], qubits[:, -1]
    columns = {
        "entangling_ops": np.sum(before // 2, axis=1, where=paired),
        "elapsed_rounds": np.full(config.trials, k * config.gate_time),
        "qubits_consumed": np.full(config.trials, n),
        "qubits_wasted": n - final_qubits,
        "final_length": np.where(chains > 0, length[:, -1], 0),
        "surviving_chains": chains,
        "surviving_qubits": final_qubits,
    }
    for j in range(1, k + 1):
        columns[f"chains_round_{j}"] = survivors[:, j]
        columns[f"qubits_round_{j}"] = qubits[:, j]
    return columns


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


def _merge(config: StrategyConfig, rng: np.random.Generator) -> dict:
    """Columns of :func:`_merge_trial` over the run's trials, in trial order."""
    L0 = analytics.minimal_chain_length(config.p)
    runs = (_merge_trial(config, trial_rng(config.master_seed, i, rng), L0).values()
            for i in range(config.trials))
    return dict(zip(_BASE_METRICS, zip(*runs)))


def _failures_before_success(seed: int, trials: int, p: float,
                             rng: np.random.Generator, cap: int = _NO_CAP):
    """Per trial, the draws u >= p before its first u < p, at most ``cap``.

    Trial i counts what ``while fails < cap and rng.random() >= p`` counts
    on its (seed, i) stream, _FIRST_SUCCESS_WIDTH draws at a time.
    """
    fails = np.zeros(trials, dtype=np.int64)

    def step(u, rows):
        hit = u < p
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), u.shape[1])
        fails[rows] = np.minimum(fails[rows] + first, cap)
        return (first == u.shape[1]) & (fails[rows] < cap)

    _walk_blocks(seed, trials, rng, _FIRST_SUCCESS_WIDTH, step)
    return fails


def _vertical_link(config: StrategyConfig, rng: np.random.Generator) -> dict:
    """Qubit cost of one vertical link between two chains.

    Growing the two dangling bonds costs two qubits per chain up front; each
    failed link attempt costs one further qubit per chain; on success the
    two dangling qubits are measured out into the link.  Mean consumption is
    2 (1/p + 1).
    """
    fails = _failures_before_success(config.master_seed, config.trials, config.p, rng)
    ops = fails + 1
    consumed = 4 + 2 * fails
    return {
        "entangling_ops": ops,
        "elapsed_rounds": ops * config.gate_time,
        "qubits_consumed": consumed,
        "qubits_wasted": consumed - 4,
        "final_length": np.full(config.trials, 2),
    }


_VARIANT_RUNS = {
    "sequential": _sequential,
    "merge": _merge,
    "divide_conquer": _divide_conquer,
    "vertical_link": _vertical_link,
}


def simulate(config: StrategyConfig, threads: int = 1) -> GrowthStats:
    """Run the configured strategy over independent seeded trials.

    Trial i draws exactly the stream keyed by (master_seed, i), from one
    generator rekeyed to it, and lands in slot i of the output, although
    the sequential and vertical-link kernels evaluate trials in chunks.
    Trials run in the calling thread; ``threads`` is kept for callers that
    pass ``threads=1`` and any other value is an error.
    """
    if threads != 1:
        raise ValueError(
            f"trials run in the calling thread; threads must be 1, got {threads}"
        )
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed to each trial's stream
    extras = {k: np.array(v, dtype=np.float64)
              for k, v in _VARIANT_RUNS[config.variant](config, rng).items()}
    base = {k: extras.pop(k) for k in _BASE_METRICS}
    return GrowthStats(config=config, extras=extras, **base)


def join_pair_experiment(p: float, L: int, trials: int, seed: int) -> float:
    """Mean final length of two L-chains retrying a join, shrinking on failure.

    Terminates on the first success (final length 2 l - 1 at current size l)
    or on exhaustion (final length 0 after L failures).
    """
    if L < 1:
        raise ValueError("chain length must be at least 1")
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed to each trial's stream
    fails = _failures_before_success(seed, trials, p, rng, cap=L)
    # integer lengths, so the sum is exact in any order
    return float(np.sum(np.where(fails == L, 0, 2 * (L - fails) - 1))) / trials


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

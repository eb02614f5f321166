"""Seeded Monte Carlo for chain-growth strategies.

Every random stream is counter-based, a Philox generator keyed by
(master_seed, index) (Salmon et al. 2011, "Parallel random numbers: as easy
as 1, 2, 3").  Divide and conquer keys one stream per block of _DC_BLOCK
trials and makes one vectorised binomial call per round over a block's
pools, the draws of as many scalar calls in trial order.  Every other
variant keys one stream per block of _BLOCK trials and reads it through one
walker, :func:`_walk_blocks`, which steps chunks of trials in passes, one row
of uniforms per trial and pass, by one address rule from the Philox counter
of the row and pass: pass k of a block is one contiguous counter range, read
in one draw while enough of its rows are live.  The variants differ in the
row width alone: _SEQ_WIDTH for sequential growth, _MERGE_WIDTH for merge,
and :func:`_link_width` (about 2/p) for vertical links and joins.  A row of
k doubles is the same k values as k scalar draws; merge steps its trials in
lockstep, draw j of every trial from column j of its row.  A trial's draws
depend on its index alone (divide and conquer simulates every block whole),
so results do not depend on how many trials run: the first M trials of an
N-trial run equal an M-trial run.  Per-run work (the gate backend's outcome
table, merge's automaton, divide and conquer's round lengths) is done once,
not per trial, and the table and the automaton once per input.

Strategy rules (the accounting that the closed forms leave open) are stated
in each simulator's docstring; disagreements between the simulated means and
the printed laws are surfaced by :func:`compare_to_analytic` as flags.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, asdict

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
    "z_score",
    "VARIANTS",
]

_MASK64 = (1 << 64) - 1
_ZERO4 = (0, 0, 0, 0)
# Trials go _CHUNK (sequential) or _MERGE_CHUNK (merge) at a time, one row of
# _SEQ_WIDTH or _MERGE_WIDTH uniforms each per pass, so temporaries stay near
# 1 MB.  A width is a multiple of 4: Philox yields four doubles per counter
# step.  Merge steps every trial of a chunk once per draw, so it takes larger
# chunks: 4096 rows ran 10**5 trials fastest of 512 to 8192.
_CHUNK = 512
_MERGE_CHUNK = 4096
# divide and conquer's trials per stream, part of its seed contract: another
# size draws other values.  Blocks of 1024 to 4096 ran 10**5 trials within
# 15 % of each other, 256 and 512 up to 25 % slower; a short run pays for a
# whole block, so the smallest of the fast sizes
_DC_BLOCK = 1024
# the walker's trials per stream, for every variant but divide and conquer,
# and its widths, all part of the seed contract.  Medians on a 2-vCPU Xeon:
# 5000 sequential trials at (3/4, 41) took 7.0 ms at width 128, 14.6 ms at 64
# (most walks need a second pass) and 12.6 ms at 256 (draws no walk reads);
# blocks of 32 to 256 rows ran within 10 % of each other.  Five merge runs of
# 1000 trials at (3/4, 41) took 58.7 ms in blocks of 64 at width 256, 71.3 ms
# with a stream per trial; width 128 was 16 % slower at (1/2, 41)
_BLOCK = 64
_SEQ_WIDTH = 128
_MERGE_WIDTH = 256
# a later pass draws a block's range from its first to its last live row in
# one call while at least 1/_LIVE_SHARE of its rows are live, and rekeys each
# live row once fewer are.  Medians on a 2-vCPU Xeon, share 2 against a range
# draw only while every row is live (1) and against one always (64):
# sequential capped at 700 (p = 1/2, L = 30, 2000 trials) 16.7 ms against
# 28.4 and 15.5, capped at 5000 (0.55, 300) 83 against 103 and 79; vertical
# links at p = 10**-3 (width 2000, 2000 trials) 25 against 25 and 41, at
# 10**-4 (width 4096, 500 trials) 43 against 37 and 84; share 4 ran 50 there
# and both ran the bench's configs within noise
_LIVE_SHARE = 2
# a vertical link or join reads _link_width(p) uniforms a row and pass, and a
# chunk of about _LINK_CHUNK of them
_LINK_CHUNK = 1 << 17
_NO_CAP = np.iinfo(np.int64).max
# a vertical link takes 1/p attempts on average: a trial at p = 1e-6 reads
# about 10**6 draws (0.05 s on a 2-vCPU Xeon), one at 1e-12 would not return
_MIN_LINK_P = 1e-6
# the ops per trial a sequential or merge run may expect by its law, or a
# capped sequential walk run up to: merge steps its trials in lockstep at
# about 15 us per op of the longest trial (2-vCPU Xeon), so 10**6 ops per
# trial is a run of 15 s or more, and a sequential trial at p = 0.5000001,
# L = 400 (2e9 ops) took 0.46 s per 4e5 ops
_OPS_BUDGET = 10**6


def trial_rng(
    master_seed: int, trial_index: int, rng: np.random.Generator | None = None,
    counter: int = 0,
) -> np.random.Generator:
    """Independent per-trial stream: a Philox generator keyed by both values.

    The 128-bit Philox key is (master_seed << 64) | trial_index, so distinct
    trials get distinct counter-based streams with no shared state; the
    stream starts at Philox counter ``counter`` (below 2**64), four doubles
    per step.  Given a Philox-backed ``rng``, rekey it there and return it
    instead of building a new generator: key words [trial_index,
    master_seed], counter words [counter, 0, 0, 0] and an empty buffer are
    the state a fresh ``Philox(key=..., counter=counter)`` starts from, so
    the draws are the same.
    """
    if rng is None:
        key = ((int(master_seed) & _MASK64) << 64) | (int(trial_index) & _MASK64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (counter, 0, 0, 0) if counter else _ZERO4,
            "key": (int(trial_index) & _MASK64, int(master_seed) & _MASK64),
        },
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _check_p_and_trials(p: float, trials: int) -> None:
    """Refuse a p outside (0, 1], nan included, and fewer than one trial."""
    analytics._check_probability(p)
    if trials < 1:
        raise ValueError("need at least one trial")


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
    # None (abstract p) or "three-qubit", sequential only; p is then the table's rate
    gate_backend: str | None = None
    alpha: float = 1000.0
    theta: float = 0.003

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for f in fields(self):  # the int fields, and the int | None fields when set
            value = getattr(self, f.name)
            if f.type.startswith("int") and (value is not None or f.default is not None) and (
                    isinstance(value, bool) or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        _check_p_and_trials(self.p, self.trials)
        if not (math.isfinite(self.gate_time) and self.gate_time > 0):
            raise ValueError(f"gate_time must be finite and > 0, got {self.gate_time}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")
        if self.gate_backend not in (None, "three-qubit"):
            raise ValueError(f"unknown gate backend {self.gate_backend!r}")
        if self.gate_backend is not None and self.variant != "sequential":
            raise ValueError("only sequential growth runs on a gate backend")
        gates._check_alpha_theta(self.alpha, self.theta)
        if self.gate_backend is not None:  # p is the rate the table's draws succeed at
            rate = _gate3_table(self.alpha, self.theta)[0]
            if abs(self.p - rate) > 1e-12:
                raise ValueError(
                    f"p = {self.p} is not the success rate {rate} of the three-qubit "
                    f"table at alpha={self.alpha}, theta={self.theta}")
        if self.variant == "sequential":
            if self.target_L is None or self.target_L < 1:
                raise ValueError("sequential growth needs target_L >= 1")
            if self.p <= 0.5 and self.max_rounds is None:
                raise ValueError(
                    "sequential growth with p <= 1/2 does not terminate on "
                    "average; set max_rounds to cap trials"
                )
            # the walk's mean ops, and a bound on the mean of a capped walk
            drift = (self.target_L - 1) / (2 * self.p - 1) if self.p > 0.5 else math.inf
            if drift <= (self.max_rounds or math.inf):
                self._check_ops_budget(drift)
            else:
                self._check_ops_budget(self.max_rounds, "may run up to", "by its max_rounds")
        if self.variant == "merge":
            if self.target_L is None:
                raise ValueError("merge growth needs target_L")
            if self.target_L < analytics.minimal_chain_length(self.p):
                raise ValueError(f"target length {self.target_L} is not above the critical "
                                 f"length {analytics.critical_length(self.p)}; no average growth")
            try:
                ops = analytics.SERIES["merge"].N(self.target_L, self.p)
            except OverflowError:
                ops = math.inf
            self._check_ops_budget(ops)
        if self.variant == "divide_conquer":
            if self.initial_qubits is None or self.initial_qubits < 2:
                raise ValueError("divide and conquer needs initial_qubits >= 2")
            if (self.rounds_k is None) == (self.target_L is None):
                raise ValueError("divide and conquer needs exactly one of rounds_k "
                                 "and target_L")
            if self.rounds_k is not None and self.rounds_k < 0:
                raise ValueError("divide and conquer needs rounds_k >= 0")
            k = self.rounds()  # a target_L off the 2**(k-1) + 1 grid raises here
            if k > 63:  # 2**62 + 1 is the last round length an int64 holds
                raise ValueError(f"divide and conquer needs rounds_k <= 63; round {k}'s "
                                 f"chains of 2**{k - 1} + 1 qubits overflow the int64 "
                                 "length column")
        if self.variant == "vertical_link" and self.p < _MIN_LINK_P:
            raise ValueError(
                f"vertical_link at p = {self.p:g} expects 1/p = {1 / self.p:.3g} attempts "
                f"per trial; p must be at least {_MIN_LINK_P:g}")

    def _check_ops_budget(self, ops: float, verb: str = "expects",
                          source: str = "by its law") -> None:
        """Refuse a run whose ops per trial, by its law or its cap, pass _OPS_BUDGET."""
        if ops > _OPS_BUDGET:
            raise ValueError(
                f"{self.variant} at p = {float(self.p)!r} and L = {self.target_L} {verb} "
                f"{ops:.3g} ops per trial {source}; the budget is {_OPS_BUDGET:.3g} ops "
                "per trial")

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
        cfg["accounting"] = {"rules": _STRATEGIES[self.config.variant][1]}
        return cfg


# ---------------------------------------------------------------------------
# simulators: each returns the per-trial columns of one run


def _walk_blocks(seed: int, trials: int, step, width: int, block: int, chunk: int) -> None:
    """Feed each trial's uniforms to ``step`` ``width`` at a time, across trials.

    Row i at pass k reads ``width`` doubles of the stream keyed by (seed,
    i // block) from Philox counter (k*block + i % block)*width/4, the values
    as many scalar ``rng.random()`` draws there give.  So pass k of a block
    of rows is one contiguous counter range, (k*block)*width/4 up to
    (k*block + block)*width/4: pass 0 is one draw after one rekey of one
    generator through :func:`trial_rng`, and a later pass is one draw too
    (from the first to the last live row) while at least 1/_LIVE_SHARE of
    the block's rows are live, and a rekey per live row at its own counter
    once fewer are.  Row i's draws depend on i alone, so the first M rows of
    a run are an M-trial run.  Trials go ``chunk`` (a multiple of ``block``)
    at a time; ``step(u, rows)`` consumes row r of u, the next ``width``
    uniforms of trial ``rows[r]``, and returns a mask of the rows that need
    another pass.
    """
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed to each block or row
    buf = np.empty((min(chunk, trials), width))
    whole = np.empty((block, width))  # a later pass of one block
    for start in range(0, trials, chunk):
        rows = np.arange(start, min(start + chunk, trials))
        for lo in range(0, rows.size, block):
            trial_rng(seed, (start + lo) // block, rng).random(out=buf[lo:lo + block])
        passes = 0
        while rows.size:
            u = buf[:rows.size]
            if passes:
                blocks, offsets = np.divmod(rows, block)
                cuts = [0, *(np.flatnonzero(np.diff(blocks)) + 1).tolist(), rows.size]
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    b, part = int(blocks[lo]), offsets[lo:hi]
                    if _LIVE_SHARE * (hi - lo) >= block:  # from the first live row on
                        first = int(part[0])
                        drawn = whole[:int(part[-1]) + 1 - first]
                        counter = (passes * block + first) * (width // 4)
                        trial_rng(seed, b, rng, counter).random(out=drawn)
                        u[lo:hi] = drawn[part - first]
                        continue
                    for r, offset in zip(range(lo, hi), part.tolist()):
                        counter = (passes * block + offset) * (width // 4)
                        trial_rng(seed, b, rng, counter).random(out=u[r])
            rows = rows[step(u, rows)]
            passes += 1


def _gate3_success(label: str) -> bool:
    """Whether a three-qubit outcome extends the chain: GHZ or Bell."""
    return label == "ghz" or label.startswith("bell")


@functools.lru_cache(maxsize=64)
def _gate3_table(alpha: float, theta: float) -> tuple:
    """The three-qubit table at (alpha, theta) as sampling arrays, built once
    per pair on first use: the exact success rate (GHZ or Bell), the table's
    :func:`gates.outcome_cdf`, and read-only success and spare-bond flags per
    outcome."""
    outcomes = gates.three_qubit_outcomes(alpha, theta)
    rate = float(sum(o.exact_probability for o in outcomes if _gate3_success(o.label)))
    arrays = (gates.outcome_cdf(outcomes), np.array([_gate3_success(o.label) for o in outcomes]),
              np.array([o.label == "ghz" for o in outcomes]))
    for array in arrays:
        array.flags.writeable = False
    return (rate, *arrays)


def _attempt_sampler(config: StrategyConfig):
    """Map an array of uniforms to arrays of (success, spare-bond) flags.

    The abstract backend succeeds where u < p and has no spare bonds (None).
    The three-qubit gate backend picks an outcome per uniform by inverting
    :func:`gates.outcome_cdf`, as ``rng.choice(p=...)`` does, so a block
    picks what as many scalar choices would: GHZ is a success with a spare
    dangling bond, Bell a plain success and the product outcomes failures.
    The table is built once per (alpha, theta).
    """
    if config.gate_backend is None:
        return lambda u: (u < config.p, None)
    _, cdf, success, spare = _gate3_table(config.alpha, config.theta)

    def sample(u):
        k = cdf.searchsorted(u, side="right")
        return success[k], spare[k]

    return sample


def _sequential(config: StrategyConfig) -> dict:
    """Random-walk growth: one fresh qubit and one gate attempt per round.

    Success extends the chain by one; failure loses the fresh qubit and the
    measured-out chain end.  The walk is the unrestricted +-1 drift process
    underlying the closed form (L-1)/(2p-1): a trial that walks down to an
    empty chain keeps attempting from there, rebuilding through zero, so the
    expectation matches the closed form rather than a reflecting-boundary
    variant (which sits about one operation lower at p = 3/4, L = 41).
    Time advances by gate_time per attempt.

    Trial i's uniforms come _SEQ_WIDTH a pass from :func:`_walk_blocks`,
    from the stream of its block of _BLOCK trials, mapped by
    :func:`_attempt_sampler` to success and spare-bond flags; the walk is
    their running sum along the row.  A trial stops at the first attempt
    that reaches the target or at ``max_rounds`` attempts, and otherwise
    takes another pass.
    """
    n, target = config.trials, config.target_L
    cap = _NO_CAP if config.max_rounds is None else config.max_rounds
    sample = _attempt_sampler(config)
    ops = np.zeros(n, dtype=np.int64)
    length = np.ones(n, dtype=np.int64)
    danglers = np.zeros(n, dtype=np.int64)
    attempt = np.arange(1, _SEQ_WIDTH + 1, dtype=np.int16)

    def step(u, rows):
        success, spare = sample(u)
        # the walk's move over a row's first k attempts, 2 (successes) - k,
        # stays within +-_SEQ_WIDTH whatever the length, so int16 holds it
        moved = np.cumsum(success, axis=1, dtype=np.int16)
        moved *= 2
        moved -= attempt
        reached = moved >= (target - length[rows])[:, None]
        stop = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, _SEQ_WIDTH)
        np.minimum(stop, cap - ops[rows], out=stop)
        ops[rows] += stop
        length[rows] += moved[np.arange(rows.size), stop - 1]
        if spare is not None:
            danglers[rows] += np.count_nonzero(spare & (attempt <= stop[:, None]), axis=1)
        return (length[rows] < target) & (ops[rows] < cap)

    if target > 1:
        _walk_blocks(config.master_seed, n, step, _SEQ_WIDTH, _BLOCK, _CHUNK)
    return {
        "entangling_ops": ops,
        "elapsed_rounds": ops * config.gate_time,
        "qubits_consumed": 1 + ops,
        "qubits_wasted": 1 + ops - length,
        "final_length": length,
        "spare_danglers": danglers,
    }


def _divide_conquer(config: StrategyConfig) -> dict:
    """Pairwise joins of equal-length chains, discarding failures.

    Round j pairs floor(C/2) survivors; only failed chains are discarded.
    The odd chain out of a pool of three or more is stranded as waste (an
    equal-length partner can never appear again), while a lone chain simply
    waits unchanged.  Survivor counts are binomial, so a trial runs at the
    aggregate level.  Trials go in blocks of _DC_BLOCK, block b drawing from
    the stream keyed by (master_seed, b): each round makes one
    ``rng.binomial`` call over the block's pools that still pair, in trial
    order, the draws that as many scalar calls in that order make.  A run
    simulates every block whole and keeps its first ``trials`` rows, so a
    shorter run is a prefix of a longer one.  Time is one gate_time per round.
    """
    n, p, k = config.initial_qubits, config.p, config.rounds()
    trials, blocks = config.trials, -(-config.trials // _DC_BLOCK)
    # chains[j, i], qubits[j, i]: trial i's survivors after round j, each as
    # long as the last round its pool paired in (row 0: n bare qubits)
    chains = np.empty((k + 1, blocks * _DC_BLOCK), dtype=np.int64)
    qubits = np.empty_like(chains)
    chains[0] = qubits[0] = n
    ops = np.zeros(chains.shape[1], dtype=np.int64)
    length = np.ones(chains.shape[1], dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed to each block's stream
    for b in range(blocks):
        trial_rng(config.master_seed, b, rng)
        rows = slice(b * _DC_BLOCK, (b + 1) * _DC_BLOCK)
        pool, pairs, size = chains[0, rows].copy(), ops[rows], length[rows]
        for j in range(1, k + 1):
            # a lone chain waits and an empty pool stays empty
            pairing = np.flatnonzero(pool > 1)
            if not pairing.size:  # so no pool pairs again
                chains[j:, rows] = pool
                qubits[j:, rows] = pool * size
                break
            half = pool[pairing] // 2
            pairs[pairing] += half
            pool[pairing] = rng.binomial(half, p)
            size[pairing] = analytics.dc_round_length(j)
            chains[j, rows] = pool
            np.multiply(pool, size, out=qubits[j, rows])
    final, final_qubits = chains[k, :trials], qubits[k, :trials]
    columns = {
        "entangling_ops": ops[:trials],
        "elapsed_rounds": np.full(trials, k * config.gate_time),
        "qubits_consumed": np.full(trials, n),
        "qubits_wasted": n - final_qubits,
        "final_length": np.where(final > 0, length[:trials], 0),
        "surviving_chains": final,
        "surviving_qubits": final_qubits,
    }
    for j in range(1, k + 1):
        columns[f"chains_round_{j}"] = chains[j, :trials]
        columns[f"qubits_round_{j}"] = qubits[j, :trials]
    return columns


# merge's float registers: a constant zero, a sink for the writes of finished
# trials, the trial's time, then one accumulator per node of the chain build
_ZERO, _SINK, _TIME, _NODE0 = 0, 1, 2, 3
# a merge reward packs ops + qubits * _QUBITS; a trial would need 2**32 draws
# to carry ops into qubits
_QUBITS = 1 << 32


@functools.lru_cache(maxsize=16)
def _merge_automaton(L0: int, target: int):
    """The merge rule's reachable control states, as read-only transition tables.

    A trial builds minimal chains of L0 qubits without recycling.  A 2-chain
    is two bare qubits fused, retried until it succeeds; a longer chain of
    length l splits as a + b - 1 with a = ceil((l+1)/2), both halves built
    fresh (in parallel, so time takes the slower half) and discarded on a
    failed join.  The first chain is the main chain.  Each later chain is a
    partner, joined to the main chain one attempt at a time: a success adds
    partner - 1, a failure shrinks both by one, and a used-up partner is
    rebuilt, the main chain restarting from one qubit if it fell below.
    Every draw is one op, and a 2-chain attempt consumes two qubits.

    A build state is (position in the post-order program of the build, the
    unfinished nodes that have attempted, as a bit mask, main length or None
    before the main chain exists); a join state is (main, partner length);
    an absorbing state is (final length,).  Row k = 2 state + (u < p) gives
    the next state (times 2), the packed reward and five register columns
    [a, r, x, y, w]: the draw sets register w to r + (a + (max(x, y) +
    gate_time)), the recursive build's sums in its order.  A node's first
    attempt reads the zero register as a, a 2-chain or a join reads it as
    x and y, and a finished chain adds to the trial's time as r.  Built once
    per (L0, target) and shared by every run and by the rule's exact law.
    """
    program = []  # post-order nodes: (child columns or None, first position)

    def lay(length):
        first = len(program)
        if length > 2:
            a = (length + 2) // 2
            lay(a)
            left = _NODE0 + len(program) - 1
            lay(length + 1 - a)
            program.append(((left, _NODE0 + len(program) - 1), first))
        else:
            program.append((None, first))

    lay(L0)
    root = len(program) - 1

    def loop_test(main):  # the end of a join loop, or of the first build
        main = max(main, 1)
        return ("build", 0, 0, main) if main < target else ("done", main)

    def step(state, ok):
        """(next state, reward, register columns) of one draw from ``state``."""
        if state[0] == "done":
            return state, 0, (_ZERO, _ZERO, _ZERO, _ZERO, _SINK)
        if state[0] == "join":
            _, main, partner = state
            if ok:
                after = loop_test(main + partner - 1)
            elif partner > 1:
                after = ("join", main - 1, partner - 1)
            else:
                after = loop_test(main - 1)
            return after, 1, (_TIME, _ZERO, _ZERO, _ZERO, _TIME)
        _, pos, tried, main = state
        children, first = program[pos]
        node, bit = _NODE0 + pos, 1 << pos
        x, y = children or (_ZERO, _ZERO)
        a = node if tried & bit else _ZERO
        reward = 1 if children else 1 + 2 * _QUBITS
        if not ok:
            return ("build", first, tried | bit, main), reward, (a, _ZERO, x, y, node)
        if pos < root:
            return ("build", pos + 1, tried & ~bit, main), reward, (a, _ZERO, x, y, node)
        after = loop_test(L0) if main is None else ("join", main, L0)
        return after, reward, (a, _TIME, x, y, _TIME)

    start = ("build", 0, 0, None)
    ids, queue, moves = {start: 0}, [start], []
    for state in queue:  # breadth first: the list grows while it is walked
        for ok in (False, True):
            after, reward, columns = step(state, ok)
            if after not in ids:
                ids[after] = len(ids)
                queue.append(after)
            moves.append((ids[after], reward, columns))
    # number the absorbing states last, so a trial has finished once its
    # state reaches the first of them; the start stays state 0
    order = sorted(range(len(queue)), key=lambda i: queue[i][0] == "done")
    index, reward, columns = zip(*(moves[2 * i + ok] for i in order for ok in (0, 1)))
    length = [queue[i][1] if queue[i][0] == "done" else 0 for i in order]
    tables = (2 * np.argsort(order)[list(index)], np.array(reward, dtype=np.int64),
              np.array(columns).T.copy(), np.array(length, dtype=np.int64))
    for table in tables:
        table.flags.writeable = False
    return (*tables, 2 * length.count(0), _NODE0 + len(program))


def _merge(config: StrategyConfig) -> dict:
    """Merge trials in lockstep through the rule's automaton.

    Step j of every live trial reads draw j of its own row of uniforms, so
    trial i gives what one scalar draw per op gives on the draws the walker's
    address rule gives it, _MERGE_WIDTH a pass from the stream of its block
    of _BLOCK trials.  Each trial holds a state (times 2), packed rewards and
    a row of float registers; a finished trial sits in its absorbing state,
    which writes only the sink, until its rows are dropped.
    """
    nxt2, reward, columns, length, done2, width = _merge_automaton(
        analytics.minimal_chain_length(config.p), config.target_L)
    p, t = config.p, config.gate_time
    state2 = np.zeros(config.trials, dtype=np.int64)
    packed = np.zeros(config.trials, dtype=np.int64)
    registers = np.zeros((config.trials, width))

    def step(u, rows):
        hits = np.ascontiguousarray((u < p).T)  # hits[j]: draw j of each row
        on = np.arange(rows.size)  # the rows of u still walking
        s2, w, reg = state2[rows], packed[rows], registers[rows]

        def save(sel):
            trials = rows[on[sel]]
            state2[trials], packed[trials], registers[trials] = s2[sel], w[sel], reg[sel]

        flat, base = reg.reshape(-1), np.arange(0, reg.size, width)
        for j in range(hits.shape[0]):
            k = s2 + hits[j]
            idx = columns.take(k, axis=1)
            idx += base
            v = flat.take(idx[:4])
            # r + (a + (max(x, y) + t)): each add commutes, so the order holds
            out = np.maximum(v[2], v[3])
            out += t
            out += v[0]
            out += v[1]
            flat[idx[4]] = out
            w += reward[k]
            s2 = nxt2[k]
            finished = s2 >= done2
            if 8 * np.count_nonzero(finished) > s2.size:  # drop the finished rows
                save(finished)
                live = ~finished
                on, s2, w, reg, hits = on[live], s2[live], w[live], reg[live], hits[:, live]
                flat, base = reg.reshape(-1), base[:on.size]
                if not on.size:
                    break
        save(slice(None))
        return state2[rows] < done2

    _walk_blocks(config.master_seed, config.trials, step, _MERGE_WIDTH, _BLOCK, _MERGE_CHUNK)
    ops, consumed = packed % _QUBITS, packed // _QUBITS
    final = length[state2 // 2]
    return {
        "entangling_ops": ops,
        "elapsed_rounds": registers[:, _TIME],
        "qubits_consumed": consumed,
        "qubits_wasted": consumed - final,
        "final_length": final,
    }


def _link_width(p: float, cap: int = _NO_CAP) -> int:
    """Uniforms per row and pass of a vertical link or a join, part of their
    seed contract: 4 ceil(1/(2p)), about 2/p, so nearly nine trials in ten
    end on their first pass, but no more than 4096 and, for a join capped at
    L draws, than 4 ceil(L/4), and no fewer than 8.  Medians of 5 runs of
    5000 trials on a 2-vCPU Xeon: rows of about 2/p took 2.6 ms at p = 0.1
    and 8.8 ms at 0.01, rows of about 1/p 3.5 and 9.7 ms, of about 3/p 1.9
    and 10.1 ms but 40 ms at 10**-3 (2000 trials) against 25 ms."""
    return max(8, min(4096, 4 * math.ceil(0.5 / p), 4 * -(-cap // 4)))


def _failures_before_success(seed: int, trials: int, p: float, cap: int = _NO_CAP):
    """Per trial, the draws u >= p before its first u < p, at most ``cap``.

    Trial i counts what ``while fails < cap and rng.random() >= p`` counts
    on the draws :func:`_walk_blocks` gives row i, with blocks of _BLOCK
    rows and :func:`_link_width` uniforms a row and pass; a row is live until
    a draw succeeds or the cap is reached.
    """
    width = _link_width(p, cap)
    fails = np.zeros(trials, dtype=np.int64)

    def step(u, rows):
        hit = u < p
        first = hit.argmax(axis=1)
        missed = ~hit[np.arange(rows.size), first]
        first[missed] = width
        total = np.minimum(fails[rows] + first, cap)
        fails[rows] = total
        return missed & (total < cap)

    chunk = max(_BLOCK, _LINK_CHUNK // width // _BLOCK * _BLOCK)
    _walk_blocks(seed, trials, step, width, _BLOCK, chunk)
    return fails


def _vertical_link(config: StrategyConfig) -> dict:
    """Qubit cost of one vertical link between two chains.

    Growing the two dangling bonds costs two qubits per chain up front; each
    failed link attempt costs one further qubit per chain; on success the
    two dangling qubits are measured out into the link.  Mean consumption is
    2 (1/p + 1).
    """
    fails = _failures_before_success(config.master_seed, config.trials, config.p)
    ops = fails + 1
    consumed = 4 + 2 * fails
    return {
        "entangling_ops": ops,
        "elapsed_rounds": ops * config.gate_time,
        "qubits_consumed": consumed,
        "qubits_wasted": consumed - 4,
        "final_length": np.full(config.trials, 2),
    }


# One row per strategy: its kernel, the one-line accounting rule each
# per-trial record carries, and the columns compared with its closed forms,
# as (column, "N" | "T" | a ScalingPoint.extras key), in report order.
_STRATEGIES = {
    "sequential": (_sequential, "one fresh qubit and one attempt per round; success +1, "
                   "failure loses the fresh qubit and the measured-out end; unrestricted walk",
                   (("entangling_ops", "N"), ("elapsed_rounds", "T"))),
    "merge": (_merge, "minimal chains built by halving without recycling, then joined to "
              "the main chain; a failed join shrinks both parties by one",
              (("entangling_ops", "N"), ("elapsed_rounds", "T"))),
    "divide_conquer": (_divide_conquer, "equal-length pairs each round, failures "
                       "discarded; odd chain out stranded as waste, a lone chain waits",
                       (("surviving_chains", "C"), ("surviving_qubits", "Q"),
                        ("qubits_wasted", "W"), ("entangling_ops", "N"))),
    "vertical_link": (_vertical_link, "two qubits per chain up front, one more per chain "
                      "per failed attempt; success measures out the two dangling qubits",
                      (("qubits_consumed", "V"), ("entangling_ops", "N"))),
}

VARIANTS = tuple(_STRATEGIES)


def simulate(config: StrategyConfig, threads: int = 1) -> GrowthStats:
    """Run the configured strategy over independent seeded trials.

    Trial i lands in slot i of the output.  A sequential, merge or
    vertical-link trial reads pass k of its draws from the stream
    (master_seed, i // _BLOCK) at Philox counter (k _BLOCK + i % _BLOCK) w/4,
    with w = _SEQ_WIDTH, _MERGE_WIDTH or _link_width(p); merge evaluates its
    trials in chunks, one draw of every trial per step.  A divide-and-conquer
    trial draws from the stream of its block, (master_seed, i // _DC_BLOCK),
    in trial order within each round.
    Trials run in the calling thread; ``threads`` is kept for callers that
    pass ``threads=1`` and any other value is an error.  A run with a
    non-finite column (a gate time near the float maximum) raises ValueError.
    """
    if threads != 1:
        raise ValueError(
            f"trials run in the calling thread; threads must be 1, got {threads}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        extras = {k: np.array(v, dtype=np.float64)
                  for k, v in _STRATEGIES[config.variant][0](config).items()}
    for key, values in extras.items():
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite {key} at gate_time {config.gate_time!r}")
    base = {k: extras.pop(k) for k in _BASE_METRICS}
    return GrowthStats(config=config, extras=extras, **base)


def join_pair_experiment(p: float, L: int, trials: int, seed: int) -> float:
    """Mean final length of two L-chains retrying a join, shrinking on failure.

    Terminates on the first success (final length 2 l - 1 at current size l)
    or on exhaustion (final length 0 after L failures).
    """
    # integer lengths, so the sum is exact in any order
    return float(np.sum(_join_lengths(p, L, trials, seed))) / trials


def _join_lengths(p: float, L: int, trials: int, seed: int) -> np.ndarray:
    """Each trial's final length in :func:`join_pair_experiment`."""
    _check_p_and_trials(p, trials)
    if L < 1:
        raise ValueError("chain length must be at least 1")
    fails = _failures_before_success(seed, trials, p, cap=L)
    return np.where(fails == L, 0, 2 * (L - fails) - 1)


# ---------------------------------------------------------------------------
# comparison against the closed forms


@dataclass(frozen=True)
class ComparisonRow:
    metric: str
    empirical: float
    analytic: float
    stderr: float
    z: float | None  # None for one trial, which has no spread
    status: str  # "pass", "flag", or "no spread" for one trial


def z_score(diff: float, stderr: float) -> float:
    """diff / stderr: 0 only for an exact match, inf for a miss with no spread."""
    return 0.0 if diff == 0.0 else (diff / stderr if stderr > 0 else math.inf)


def compare_to_analytic(stats: GrowthStats, point: ScalingPoint):
    """Per-metric z-scores of the Monte Carlo means against the closed forms.

    |z| <= 3 is a pass; larger deviations are flagged, never raised: several
    printed laws are known not to match their own strategy rules, and the
    flags are how those discrepancies surface.  One trial has no spread to
    measure a miss against, so it gets no z.
    """
    cfg = stats.config
    if point.series != cfg.variant:
        raise ValueError(
            f"analytic point is for {point.series!r}, stats for {cfg.variant!r}"
        )
    if abs(point.p - cfg.p) > 1e-12:
        raise ValueError("mismatched success probability")
    analytic = {"N": point.N, "T": point.T, **point.extras}
    columns = stats.columns()
    rows = []
    for metric, key in _STRATEGIES[cfg.variant][2]:
        values = columns[metric]
        summ = MetricSummary.from_samples(values)
        stderr = math.sqrt(summ.variance / values.size)
        z = None if values.size == 1 else z_score(summ.mean - analytic[key], stderr)
        rows.append(
            ComparisonRow(
                metric=metric,
                empirical=summ.mean,
                analytic=float(analytic[key]),
                stderr=stderr,
                z=z,
                status="no spread" if z is None else "pass" if abs(z) <= 3.0 else "flag",
            )
        )
    return rows

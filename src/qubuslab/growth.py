"""Seeded Monte Carlo for chain-growth strategies.

Each trial owns a counter-based random stream keyed by (master_seed,
trial_index), so a trial's result does not depend on which other trials run:
the first M trials of an N-trial run equal an M-trial run.  The sequential,
merge and vertical-link kernels evaluate chunks of trials at once, one row
of uniforms per trial, each block of a trial's stream read from its own
Philox counter.  A row of k doubles is the same k values as k scalar draws;
merge steps its trials in lockstep, draw j of every trial from column j of
its row.  Per-run work (the gate backend's outcome table, merge's
automaton, divide and conquer's round lengths) is done once, not per trial.

Strategy rules (the accounting that the closed forms leave open) are stated
in each simulator's docstring; disagreements between the simulated means and
the printed laws are surfaced by :func:`compare_to_analytic` as flags.
"""

from __future__ import annotations

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
# Trials go _CHUNK at a time, one row of _WIDTH uniforms each (fewer for
# first-success counts, which are short), so temporaries stay near 1 MB.  A
# width is a multiple of 4: Philox yields four doubles per counter step.
# Merge steps every trial of a chunk once per draw, so it takes larger
# chunks: 4096 rows ran 10**5 trials fastest of 512 to 8192.
_CHUNK = 512
_MERGE_CHUNK = 4096
_WIDTH = 256
_FIRST_SUCCESS_WIDTH = 32
_NO_CAP = np.iinfo(np.int64).max


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
    gate_backend: str | None = None  # None (abstract p) or "three-qubit", sequential only
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
        if not 0.0 < self.p <= 1.0:
            raise ValueError("success probability must lie in (0, 1]")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not (math.isfinite(self.gate_time) and self.gate_time > 0):
            raise ValueError(f"gate_time must be finite and > 0, got {self.gate_time}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")
        if self.gate_backend not in (None, "three-qubit"):
            raise ValueError(f"unknown gate backend {self.gate_backend!r}")
        if self.gate_backend is not None and self.variant != "sequential":
            raise ValueError("only sequential growth runs on a gate backend")
        if not (math.isfinite(self.alpha) and self.alpha > 0 and math.isfinite(self.theta)):
            raise ValueError(f"alpha must be finite and > 0 and theta finite, got "
                             f"alpha={self.alpha}, theta={self.theta}")
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
            if (self.rounds_k is None) == (self.target_L is None):
                raise ValueError("divide and conquer needs exactly one of rounds_k "
                                 "and target_L")
            if self.rounds_k is not None and self.rounds_k < 0:
                raise ValueError("divide and conquer needs rounds_k >= 0")
            self.rounds()  # a target_L off the 2**(k-1) + 1 grid raises here

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


def _walk_blocks(seed: int, trials: int, width: int, step, chunk: int = _CHUNK) -> None:
    """Feed each trial's stream to ``step`` one block at a time, across trials.

    Block b of a trial is its uniforms b*width to (b+1)*width - 1, the values
    as many scalar ``rng.random()`` draws give, read after rekeying one
    generator through :func:`trial_rng` to Philox counter b*width/4.  Trials
    go ``chunk`` at a time; ``step(u, rows)`` consumes row r of u, a block of
    trial ``rows[r]``, and returns a mask of the rows that need their next
    block.
    """
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed to each block
    buf = np.empty((min(chunk, trials), width))
    for start in range(0, trials, chunk):
        rows = np.arange(start, min(start + chunk, trials))
        counter = 0
        while rows.size:
            u = buf[:rows.size]
            for row, i in zip(u, rows.tolist()):
                trial_rng(seed, i, rng, counter).random(out=row)
            rows = rows[step(u, rows)]
            counter += width // 4


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
    outcomes = gates.three_qubit_outcomes(config.alpha, config.theta)
    cdf = gates.outcome_cdf(outcomes)
    success = np.array([o.label == "ghz" or o.label.startswith("bell")
                        for o in outcomes])
    spare = np.array([o.label == "ghz" for o in outcomes])

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
        _walk_blocks(config.master_seed, n, _WIDTH, step)
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
    aggregate level: one scalar ``rng.binomial`` per round that pairs
    chains.  Time is one gate_time per round.
    """
    n, p, k = config.initial_qubits, config.p, config.rounds()
    # survivors[i, j]: trial i's chains after round j (column 0: n bare qubits)
    survivors = np.empty((config.trials, k + 1), dtype=np.int64)
    survivors[:, 0] = n
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed to each trial's stream
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


# merge's float registers: a constant zero, a sink for the writes of finished
# trials, the trial's time, then one accumulator per node of the chain build
_ZERO, _SINK, _TIME, _NODE0 = 0, 1, 2, 3
# a merge reward packs ops + qubits * _QUBITS; a trial would need 2**32 draws
# to carry ops into qubits
_QUBITS = 1 << 32


def _merge_automaton(config: StrategyConfig):
    """The merge rule's reachable control states, as transition tables.

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
    x and y, and a finished chain adds to the trial's time as r.
    """
    L0, target = analytics.minimal_chain_length(config.p), config.target_L
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
    return (2 * np.argsort(order)[list(index)], np.array(reward, dtype=np.int64),
            np.array(columns).T.copy(), np.array(length, dtype=np.int64),
            2 * length.count(0), _NODE0 + len(program))


def _merge(config: StrategyConfig) -> dict:
    """Merge trials in lockstep through the rule's automaton.

    Step j of every live trial reads uniform j of its own stream, so trial i
    gives what one scalar draw per op on the (seed, i) stream gives.  Each
    trial holds a state (times 2), packed rewards and a row of float
    registers; a finished trial sits in its absorbing state, which writes
    only the sink, until its rows are dropped.
    """
    nxt2, reward, columns, length, done2, width = _merge_automaton(config)
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

    _walk_blocks(config.master_seed, config.trials, _WIDTH, step, _MERGE_CHUNK)
    ops, consumed = packed % _QUBITS, packed // _QUBITS
    final = length[state2 // 2]
    return {
        "entangling_ops": ops,
        "elapsed_rounds": registers[:, _TIME],
        "qubits_consumed": consumed,
        "qubits_wasted": consumed - final,
        "final_length": final,
    }


def _failures_before_success(seed: int, trials: int, p: float, cap: int = _NO_CAP):
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

    _walk_blocks(seed, trials, _FIRST_SUCCESS_WIDTH, step)
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

    Trial i draws exactly the stream keyed by (master_seed, i) and lands
    in slot i of the output, although the sequential, merge and
    vertical-link kernels evaluate trials in chunks, a block of each
    trial's stream at a time, merge one draw of every trial per step.
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
    if L < 1:
        raise ValueError("chain length must be at least 1")
    fails = _failures_before_success(seed, trials, p, cap=L)
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


def z_score(diff: float, stderr: float) -> float:
    """diff / stderr: 0 only for an exact match, inf for a miss with no spread."""
    return 0.0 if diff == 0.0 else (diff / stderr if stderr > 0 else math.inf)


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
    analytic = {"N": point.N, "T": point.T, **point.extras}
    columns = stats.columns()
    rows = []
    for metric, key in _STRATEGIES[cfg.variant][2]:
        analytic_value = analytic[key]
        if analytic_value is None:
            continue
        values = columns[metric]
        summ = MetricSummary.from_samples(values)
        stderr = math.sqrt(summ.variance / values.size)
        z = z_score(summ.mean - analytic_value, stderr)
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

"""Closed-form scaling laws for chain growth, evaluated exactly as printed.

Every function here is a pure evaluator.  Where a printed expression is
ambiguous (a non-integral sum limit) or disagrees with a quoted constant,
both readings are computed and the disagreement is carried as a flag in
``QUOTED_CONSTANTS`` instead of being silently repaired; the Monte Carlo
engine in :mod:`qubuslab.growth` provides the empirical counterpart.
One rule gives the first whole length above a bound (L0 and each series'
first length), one the build cost of a minimal chain, so no law is None.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import gates

__all__ = [
    "ScalingPoint",
    "MergeScaling",
    "join_yield",
    "critical_length",
    "minimal_chain_length",
    "merge_scaling",
    "dc_scaling",
    "dc_rule_moments",
    "seq_scaling",
    "seq_rule_pmf",
    "link_rule_pmf",
    "merge_rule_law",
    "vertical_cost",
    "SERIES",
    "dc_series_value",
    "dc_series_time",
    "merge_crossover",
    "QUOTED_CONSTANTS",
]


@dataclass(frozen=True)
class ScalingPoint:
    """Analytic expectations for one strategy configuration."""

    L: float
    p: float
    N: float
    T: float
    series: str
    extras: dict = field(default_factory=dict)


def _check_probability(p: float) -> None:
    """Refuse a success probability outside (0, 1], nan included."""
    if not 0.0 < p <= 1.0:
        raise ValueError("success probability must lie in (0, 1]")


# ---------------------------------------------------------------------------
# pairwise joins


def join_yield(L: int, p: float, mode: str = "approx") -> float:
    """Mean final length when two L-chains retry a join, shrinking on failure.

    ``exact-sum`` evaluates sum_{i=0..L} 2 (L - 1/2 - i) p (1-p)^i term by
    term; ``approx`` evaluates the closed form 2L - 1 - 2(1-p)/p.
    """
    if L < 1:
        raise ValueError("chain length must be at least 1")
    _check_probability(p)
    if mode == "approx":
        return 2.0 * L - 1.0 - 2.0 * (1.0 - p) / p
    if mode == "exact-sum":
        terms = [
            2.0 * (L - 0.5 - i) * p * (1.0 - p) ** i for i in range(L + 1)
        ]
        return math.fsum(terms)
    raise ValueError(f"mode must be 'exact-sum' or 'approx', got {mode!r}")


def critical_length(p: float) -> float:
    """Chain length above which joining equal chains grows on average."""
    _check_probability(p)
    lc = 1.0 + 2.0 * (1.0 - p) / p
    if math.isinf(lc):
        raise ValueError(f"the critical length overflows a float at p = {p}")
    return lc


def _first_above(bound: float) -> int:
    """The first whole length above ``bound``; 1e-9 above it is still below, so
    a bound that rounds just below a whole number (L_c = 4 at p = 0.4 reads
    3.9999999999999996) does not make that number the answer."""
    return math.floor(bound + 1e-9) + 1


def minimal_chain_length(p: float) -> int:
    """L0, the first whole chain length above the critical length."""
    return _first_above(critical_length(p))


# ---------------------------------------------------------------------------
# merge strategy (minimal chains joined onto a main chain)


@dataclass(frozen=True)
class MergeScaling:
    """Merge-law evaluations: printed sums (both limit readings) and laws.

    ``n_sum_floor``/``n_sum_ceil`` evaluate the printed operation count with
    the non-integral sum limit log2(L0 - 1) + 1 truncated down or up;
    ``n_law`` takes the build cost of one minimal chain: the quoted 14 at
    (p, L0) = (1/2, 4), else the floor reading's (1/p at L0 = 2).
    ``t_sum_ceil`` is the time law under the ceiling reading, which
    reproduces the quoted p = 1/2 time law.
    """

    L: float
    p: float
    L0: int
    n_sum_floor: float
    n_sum_ceil: float
    n_law: float
    t_sum_ceil: float


def _power_sum(ratio: float, L0: int, rounding) -> float:
    """sum_{i=1..k} ratio**i, k the printed limit log2(L0 - 1) + 1 rounded."""
    limit = math.log2(L0 - 1) + 1.0 if L0 > 1 else 1.0
    k = max(int(rounding(limit)), 1)
    return math.fsum(ratio ** i for i in range(1, k + 1))


def merge_n_law(L: float, p: float, L0: int, n0: float) -> float:
    """Operation count with an explicit minimal-chain build cost n0."""
    lc = critical_length(p)
    return (n0 + 1.0 / p) * (L - lc) / (L0 - lc) - 1.0 / p


def merge_scaling(L: float, p: float, t: float = 1.0) -> MergeScaling:
    """Expected operations and time to merge minimal chains up to length L.

    The printed law divides by L0 - L_c, so it has a pole, evaluated as printed,
    where L_c sits just below a whole number: at p = 0.5000001, L_c = 2.9999996
    makes L0 = 3, and N(10, p) jumps from 110.0 at p = 1/2 to 1.05e8.  Below
    L0 the law would extrapolate to negative counts, so L < L0 is refused."""
    lc = critical_length(p)
    L0 = minimal_chain_length(p)
    if L < L0:
        raise ValueError(f"length {L} is below the minimal chain length {L0}, the first "
                         f"whole length above the critical length {lc}; no average growth")
    n0_floor = _power_sum(2.0 / p, L0, math.floor) / 2.0
    n0 = QUOTED_CONSTANTS["minimal-build-cost-p-1/2"].value if (p, L0) == (0.5, 4) else n0_floor
    log_term = math.log2((L - lc) / (L0 - lc))
    return MergeScaling(
        L=L, p=p, L0=L0,
        n_sum_floor=merge_n_law(L, p, L0, n0_floor),
        n_sum_ceil=merge_n_law(L, p, L0, _power_sum(2.0 / p, L0, math.ceil) / 2.0),
        n_law=merge_n_law(L, p, L0, n0),
        t_sum_ceil=t * _power_sum(1.0 / p, L0, math.ceil) + (t / p) * log_term,
    )


# ---------------------------------------------------------------------------
# divide and conquer


def dc_round_length(k: int) -> int:
    """Chain length after round k of pairwise doubling (length 1 at k=0)."""
    if k < 0:
        raise ValueError("round index must be nonnegative")
    return 1 if k == 0 else 2 ** (k - 1) + 1


def dc_rounds_for_length(L: int) -> int:
    """Round count with survivors of length L; rejects off-grid lengths."""
    if L < 1:
        raise ValueError(f"length {L} is below 1; a surviving chain holds a qubit")
    if L == 1:
        return 0
    k = math.log2(L - 1) + 1.0
    if abs(k - round(k)) > 1e-12:
        raise ValueError(
            f"length {L} is not of the form 2**(k-1) + 1; no interpolation"
        )
    return int(round(k))


def dc_scaling(
    p: float,
    n: int,
    k: int | None = None,
    L: int | None = None,
    t: float = 1.0,
) -> dict:
    """Averages for the pairwise-join, discard-on-failure strategy.

    Returns surviving chains C, surviving qubits Q, wasted qubits W,
    cumulative operations G (printed form: rounds after the first),
    per-chain operations N_dc, and elapsed time T_dc.
    """
    if (k is None) == (L is None):
        raise ValueError("give exactly one of k or L")
    if k is None:
        k = dc_rounds_for_length(L)
    if k < 0:
        raise ValueError("round index must be nonnegative")
    L = dc_round_length(k)
    C = n * (p / 2.0) ** k
    Q = C * L
    if k == 0:
        G = N_dc = T_dc = 0.0
    else:
        G = (n / 2.0) * (1.0 - (p / 2.0) ** (k - 1)) / (2.0 / p - 1.0)
        N_dc = dc_series_value(L, p)
        T_dc = dc_series_time(L, t)
    return {
        "k": k,
        "L": L,
        "C": C,
        "Q": Q,
        "W": n - Q,
        "G": G,
        "N_dc": N_dc,
        "T_dc": T_dc,
    }


@functools.lru_cache(maxsize=1)
def _log_factorials(size: int) -> np.ndarray:
    """log m! for m = 0..size - 1, built on first use (never at import)."""
    return np.fromiter(map(math.lgamma, range(1, size + 1)), float, size)


def dc_rule_moments(p: float, n: int, k: int) -> dict:
    """Exact per-round moments of divide and conquer as ``growth`` simulates it.

    A pool of c >= 2 chains pairs floor(c/2) of them and keeps
    Binomial(floor(c/2), p) joined chains; a pool of 0 or 1 chains stops
    pairing, and a lone chain keeps the length of the round in which it
    stopped.  So the odd chain out of a pool is lost, and the mean falls below
    n (p/2)^k.  The law of the pools still pairing is propagated round by
    round: each binomial row is cut to mean +- (10 sigma + 10), the 10 for
    the heavier-than-normal tails of a row with a small mean, and normalised;
    pool sizes of probability below 1e-17 are dropped.  Returns the mean and
    variance of surviving chains ("C", "C_var") and qubits ("Q", "Q_var"),
    arrays over rounds 0..k.
    """
    _check_probability(p)
    if n < 2:
        raise ValueError("divide and conquer needs n >= 2")
    if k < 0:
        raise ValueError("round index must be nonnegative")
    log_fact = _log_factorials(1 << (n // 2).bit_length())
    log_p = math.log(p)
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    pools, probs = np.array([n]), np.array([1.0])  # the pools still pairing
    lone_mass, lone_length = [], []  # lone chains, by the round they stopped in
    out = {key: np.zeros(k + 1) for key in ("C", "C_var", "Q", "Q_var")}
    for j in range(k + 1):
        length = float(dc_round_length(j)) if pools.size else 0.0
        if j and pools.size:
            sizes = np.zeros(pools.max() // 2 + 1)
            half = pools // 2
            spread = 10.0 * np.sqrt(half * (p * (1.0 - p))) + 10.0
            lo = np.maximum(0, np.floor(half * p - spread)).astype(np.int64)
            hi = np.minimum(half, np.ceil(half * p + spread)).astype(np.int64)
            width = int((hi - lo).max()) + 1
            step = max(1, (1 << 20) // width)  # about 2**20 entries at a time
            for start in range(0, pools.size, step):
                h, first = half[start:start + step, None], lo[start:start + step, None]
                m = first + np.arange(width)
                inside = m <= hi[start:start + step, None]
                m = np.minimum(m, h)
                fails = h - m
                row = log_fact[h] - log_fact[m] - log_fact[fails] + m * log_p
                row += np.multiply(fails, log_q, out=np.zeros(row.shape), where=fails > 0)
                pmf = np.exp(row, where=inside, out=np.zeros(row.shape))
                pmf *= (probs[start:start + step] / pmf.sum(axis=1))[:, None]
                sizes += np.bincount(m[inside], pmf[inside], minlength=sizes.size)
            lone_mass.append(sizes[1])
            lone_length.append(length)
            keep = np.flatnonzero(sizes[2:] >= 1e-17) + 2
            pools, probs = keep, sizes[keep]
        chains = np.concatenate((pools, np.ones(len(lone_mass))))
        qubits = np.concatenate((pools * length, lone_length))
        weight = np.concatenate((probs, lone_mass))
        dead = 1.0 - weight.sum()  # an empty pool: no chains, no qubits
        for key, values in (("C", chains), ("Q", qubits)):
            mean = weight @ values
            out[key][j] = mean
            out[key + "_var"][j] = weight @ (values - mean) ** 2 + dead * mean**2
        if not pools.size:  # no pool pairs again, so the moments stay
            for values in out.values():
                values[j + 1:] = values[j]
            break
    return out


def dc_series_value(L: float, p: float) -> float:
    """Continuous extension of the per-chain operation count in L."""
    if L <= 1:
        raise ValueError("length must exceed 1")
    try:
        return ((2.0 / p) ** math.log2(L - 1.0) - 1.0) / (2.0 - p)
    except OverflowError:
        raise ValueError(f"the dc series overflows a float at L = {L}, p = {p}") from None


def dc_series_time(L: float, t: float) -> float:
    """Continuous extension in L of the elapsed time, one gate time per round."""
    return t * (1.0 + math.log2(L - 1))


# ---------------------------------------------------------------------------
# sequential adding


def seq_scaling(L: float, p: float, t: float = 1.0) -> tuple:
    """(expected operations, expected time) for one-qubit-at-a-time growth.

    Operations follow the drift of the +-1 length walk, (L-1)/(2p-1); the
    time value is the printed per-added-qubit form t (L-1)/p.  The two
    closed forms correspond to different retry accountings and are both
    exposed; the Monte Carlo engine reports which one its rules reproduce.
    """
    _check_probability(p)
    if p <= 0.5:
        raise ValueError("no average growth for p <= 1/2; expectation diverges")
    n_seq = (L - 1.0) / (2.0 * p - 1.0)
    t_seq = t * (L - 1.0) / p
    return n_seq, t_seq


# an exact law drops the mass past its last term (or op) once a bound on that
# mass is below _LAW_TAIL, and refuses a law that needs more terms than
# _LAW_TERMS (for the sequential law about 50 MB of temporaries, p just above
# 1/2 with no cap)
_LAW_TAIL = 1e-15
_LAW_TERMS = 1 << 20


def seq_rule_pmf(p: float, L: int, max_rounds: int | None = None) -> tuple:
    """Exact law of a sequential trial's entangling ops as ``growth`` simulates it.

    A trial takes T ops, the first time the unrestricted +-1 walk from length
    1 reaches L, or max_rounds when T would pass it: ops = min(T, max_rounds).
    By the hitting-time (ballot) theorem (Feller vol. 1, ch. III), with
    a = L - 1, P(T = n) = (a/n) C(n, (n+a)/2) p^((n+a)/2) q^((n-a)/2) for
    n >= a of a's parity; the terms come in log space from the log m! table,
    built on first use.  The ratio of term f + 1 (f failures) to term f,
    pq (a+2f)(a+2f+1) / ((f+1)(a+f+1)), is 4pq + pq (a^2 - 3a - 4 - 6f) /
    ((f+1)(a+f+1)): it falls with f while above 4pq and stays below once
    there, so no later ratio exceeds R, the larger of term f's ratio and 4pq,
    and the mass past term f is at most that term times R/(1 - R).  The terms
    stop once that bound is below 1e-15.  Under a cap the terms stop before
    it and the rest of the mass sits at the cap (for p <= 1/2, the walks that
    never reach L), so p <= 1/2 needs a cap.  Returns (ops, pmf) as arrays.
    """
    _check_probability(p)
    if L < 1:
        raise ValueError(f"length {L} is below 1; a chain holds a qubit")
    if max_rounds is None and p <= 0.5:
        raise ValueError("no average growth for p <= 1/2; the law needs max_rounds")
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    a = L - 1
    cap = max_rounds if max_rounds is not None else math.inf
    if a == 0 or p == 1.0 or cap <= a:  # one value: a, or the cap that cuts every walk
        return np.array([min(a, cap)], dtype=np.int64), np.array([1.0])
    last = math.inf if max_rounds is None else (max_rounds - a - 1) // 2  # last term below the cap
    pq, rho = p * (1.0 - p), 4.0 * p * (1.0 - p)
    count = 256
    while True:
        count = int(min(count, last + 1))
        f = np.arange(count)
        n = a + 2 * f
        log_fact = _log_factorials(1 << int(n[-1]).bit_length())
        terms = np.exp(np.log(a / n) + log_fact[n] - log_fact[a + f] - log_fact[f]
                       + (a + f) * math.log(p) + f * math.log1p(-p))
        R = np.maximum(pq * n * (n + 1) / ((f + 1) * (a + f + 1)), rho)
        below = np.flatnonzero((R < 1.0) & (terms * R < _LAW_TAIL * (1.0 - R)))
        if below.size or count == last + 1:
            break
        if 2 * count > _LAW_TERMS:
            raise ValueError(f"the exact law at p = {p} and L = {L} needs more than "
                             f"{_LAW_TERMS} terms")
        count *= 2
    ops, pmf = n, terms
    if below.size:
        ops, pmf = n[:below[0] + 1], terms[:below[0] + 1]
    if max_rounds is not None and (p <= 0.5 or not below.size):
        ops = np.append(ops, cap)
        pmf = np.append(pmf, max(0.0, 1.0 - math.fsum(pmf)))
    return ops.astype(np.int64), pmf


def link_rule_pmf(p: float, cap: int | None = None) -> tuple:
    """Exact law (fails, pmf) of the failed attempts F before a first
    success, as ``growth`` draws them: P(F = f) = q^f p.  A vertical link
    takes F + 1 ops and 4 + 2F qubits.  A join of two L-chains caps F at L,
    with mass q^L there, and ends at length 2(L - F) - 1, or 0 at F = L.
    With no cap the terms stop once the tail q^(f+1) is below 1e-15; a law
    that needs more than 2**20 terms is refused."""
    _check_probability(p)
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    count = 1 if p == 1.0 else math.ceil(math.log(_LAW_TAIL) / math.log1p(-p))
    if cap is None and count > _LAW_TERMS:
        raise ValueError(f"the exact law at p = {p} needs more than {_LAW_TERMS} terms")
    fails = np.arange(count if cap is None else min(count, cap + 1))
    pmf = p * (1.0 - p) ** fails
    if cap is not None and fails.size == cap + 1:
        pmf[-1] = (1.0 - p) ** cap
    return fails, pmf


def merge_rule_law(p: float, next_state, qubits, live: int) -> dict:
    """Exact law of a merge trial as ``growth`` simulates it, by propagation.

    A trial is an absorbing Markov chain (Kemeny & Snell 1960) on the
    automaton's own tables, two rows per state: a draw from live state s <
    ``live`` is one op, leads to state ``next_state[2 s + ok]`` (ok = 1 with
    chance p) and consumes ``qubits[2 s + ok]`` qubits; a state s >= ``live``
    absorbs.  From state 0 the mass of each state, with its first and second
    qubit moments, is carried op by op until the live mass is below 1e-15
    (and refused past 2**20 ops); the mass absorbed at op n is P(ops = n).
    Returns the ops and their pmf, and the mean and second moment of the
    qubits.
    """
    _check_probability(p)
    rows, states = np.arange(2 * live), len(next_state) // 2
    source, target = rows // 2, np.asarray(next_state[:2 * live])
    chance, spent = np.where(rows % 2, p, 1.0 - p), np.asarray(qubits[:2 * live], float)
    target = np.concatenate([target, target + states, target + 2 * states])
    law = np.zeros((3, states))  # per state: mass, qubits x mass, qubits**2 x mass
    law[0, 0] = 1.0
    pmf = []
    while law[0, :live].sum() >= _LAW_TAIL:
        if len(pmf) == _LAW_TERMS:
            raise ValueError(f"the exact merge law at p = {p} needs more than "
                             f"{_LAW_TERMS} ops of propagation")
        m0, m1, m2 = chance * law[:, source]
        moved = np.concatenate([m0, m1 + spent * m0, m2 + spent * (2.0 * m1 + spent * m0)])
        moved = np.bincount(target, moved, 3 * states).reshape(3, states)
        pmf.append(moved[0, live:].sum())
        moved[:, live:] += law[:, live:]
        law = moved
    return {"ops": np.arange(1, len(pmf) + 1), "ops_pmf": np.array(pmf),
            "qubits": law[1, live:].sum(), "qubits_sq": law[2, live:].sum()}


# ---------------------------------------------------------------------------
# vertical links


def vertical_cost(p: float) -> tuple:
    """(mean qubits consumed V, entangling ops N_V) for one vertical link.

    N_V = 2 N[V] + 1/p composes the merge law N[L] of ``merge_scaling``
    (``n_law``).
    """
    _check_probability(p)
    V = 2.0 * (1.0 / p + 1.0)
    return V, 2.0 * merge_scaling(V, p).n_law + 1.0 / p


# ---------------------------------------------------------------------------
# the quoted constants and the comparison series

EXACT = 1e-9  # the tolerance of a figure printed exactly


@dataclass(frozen=True)
class QuotedConstant:
    """A number the paper prints, beside a call into the code of its law
    (None for a figure stored for tables only) and the tolerance of the
    comparison: ``EXACT`` for an exact figure, half the last printed digit
    for a rounded one.  The code must also give ``formula``, where set, within
    ``EXACT``.  ``note`` is the cause of a gap, None on a row that reproduces.
    """

    name: str
    value: float
    code: Callable[[], float] | None = None
    tol: float = EXACT
    formula: float | None = None
    note: str | None = None

    @property
    def status(self) -> str | None:
        """"reproduced" when the code gives the value within ``tol``, else "flagged"."""
        if self.code is None:
            return None
        return "reproduced" if abs(self.code() - self.value) <= self.tol else "flagged"


def _merge_line(p: float) -> tuple:
    """(slope, intercept) of the merge law at p, read at its first two lengths."""
    L0 = minimal_chain_length(p)
    n0, n1 = SERIES["merge"].N(L0, p), SERIES["merge"].N(L0 + 1, p)
    return n1 - n0, n0 - L0 * (n1 - n0)


QUOTED_CONSTANTS = {c.name: c for c in (
    # 8L - 44/3 follows from the build cost 4/3 = 1/p at L0 = 2
    QuotedConstant("merge-law-p-3/4", 8.0, lambda: _merge_line(0.75)[0]),
    QuotedConstant("merge-intercept-p-3/4", -44.0 / 3.0, lambda: _merge_line(0.75)[1]),
    # 16L - 50 takes the quoted build cost 14 as given
    QuotedConstant("merge-law-p-1/2-slope", 16.0, lambda: _merge_line(0.5)[0]),
    QuotedConstant("merge-intercept-p-1/2", -50.0, lambda: _merge_line(0.5)[1]),
    # the merge law at L0 is the build cost; the code's is the printed sum
    QuotedConstant(
        "minimal-build-cost-p-1/2", 14.0, lambda: merge_scaling(4, 0.5).n_sum_floor,
        note="quoted ops to build the minimal chain at p = 1/2; the printed sum "
        "gives 10 (floor limit) or 42 (ceiling), and 14 matches the "
        "time sum for a 5-qubit chain instead",
    ),
    # V = 2(1/p + 1) is 14/3 up to the rounding of two float operations
    QuotedConstant("vertical-qubits-p-3/4", 14.0 / 3.0, lambda: vertical_cost(0.75)[0],
                   tol=1e-12),
    # 2 N[14/3] + 4/3 with N[L] = 8L - 44/3, printed rounded
    QuotedConstant("vertical-ops-p-3/4", 46.7, lambda: vertical_cost(0.75)[1],
                   tol=0.05, formula=140.0 / 3.0),
    QuotedConstant(
        "vertical-ops-p-1/2", 70.0, lambda: vertical_cost(0.5)[1], formula=94.0,
        note="composing V = 6 with N[L] = 16L - 50 gives 2*46 + 2 = 94, not 70",
    ),
    QuotedConstant(
        "vacuum-error-alpha-theta-2", 3e-4,
        lambda: gates.error_budget(2000.0, 0.001).p_err_vacuum, tol=5e-5,
        note="quoted false-vacuum probability at alpha*theta = 2; the stated "
        "formula exp(-4 |alpha theta|^2) evaluates to e^-16 = 1.13e-7",
    ),
    # the comparison scheme's vertical-link ops at failure probability 0.2
    QuotedConstant("rus-vertical-ops-pf-0.2", 32.5),
)}


@dataclass(frozen=True)
class Series:
    """Operations N(L, p), time T(L, p, t) (None if only counts are quoted),
    and ``empty_upto(p)``, the longest length with no value."""

    name: str
    N: Callable[[float, float], float]
    T: Callable[[float, float, float], float] | None
    empty_upto: Callable[[float], float]

    def start(self, p: float) -> int:
        """The shortest whole length with a value."""
        return _first_above(self.empty_upto(p))


def _fit(name: str, slope: float, intercept: float) -> Series:
    """A quoted straight-line fit of operation counts, valued above its root."""
    return Series(name, lambda L, p: slope * L + intercept, None, lambda p: -intercept / slope)


SERIES = {s.name: s for s in (
    # pairwise doubling, continuous in L; a chain of one qubit costs nothing
    Series("dc", dc_series_value, lambda L, p, t: dc_series_time(L, t), lambda p: 1.0),
    # merge and sequential adding grow only above the critical length
    Series("merge", lambda L, p: scaling_point("merge", p, L).N,
           lambda L, p, t: scaling_point("merge", p, L, t).T, critical_length),
    Series("seq", lambda L, p: seq_scaling(L, p)[0],
           lambda L, p, t: seq_scaling(L, p, t)[1], critical_length),
    # repeat-until-success at failure probability 0.6 and 0.4
    _fit("rus-pf-0.6", 185.0, -1115.0),
    _fit("rus-pf-0.4", 16.6, -47.7),
    # the theoretical limit of linear optics: the merge law at p = 1/2
    _fit("linear-optics-p-half", QUOTED_CONSTANTS["merge-law-p-1/2-slope"].value,
         QUOTED_CONSTANTS["merge-intercept-p-1/2"].value),
)}


def merge_crossover(p: float) -> float:
    """Length in [L0, 10000] where pairwise doubling stops beating the merge law (ops)."""
    f = lambda L: SERIES["dc"].N(L, p) - SERIES["merge"].N(L, p)
    lo, hi = float(SERIES["merge"].start(p)), 10000.0
    if f(lo) >= 0 or f(hi) <= 0:
        raise ValueError("no crossover inside the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scaling_point(variant: str, p: float, L: int | None = None, t: float = 1.0,
                  n: int | None = None, k: int | None = None) -> ScalingPoint:
    """Analytic expectations matching a growth-strategy configuration."""
    if variant == "sequential":
        n_seq, t_seq = seq_scaling(L, p, t)
        return ScalingPoint(L=L, p=p, N=n_seq, T=t_seq, series="sequential")
    if variant == "merge":
        ms = merge_scaling(L, p, t=t)
        return ScalingPoint(L=L, p=p, N=ms.n_law, T=ms.t_sum_ceil, series="merge")
    if variant == "divide_conquer":
        vals = dc_scaling(p, n, k=k, L=L, t=t)
        return ScalingPoint(
            L=vals["L"], p=p, N=vals["G"], T=vals["T_dc"], series="divide_conquer",
            extras={"C": vals["C"], "Q": vals["Q"], "W": vals["W"], "N_dc": vals["N_dc"]},
        )
    if variant == "vertical_link":
        V, N_V = vertical_cost(p)
        return ScalingPoint(
            L=2, p=p, N=1.0 / p, T=t / p, series="vertical_link",
            extras={"V": V, "N_V": N_V},
        )
    raise ValueError(f"unknown variant {variant!r}")

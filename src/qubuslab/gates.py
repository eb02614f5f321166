"""Entangling-gate protocols built from single bus interactions.

Every protocol enumerates its exhaustive outcome table (label, exact
probability from branch enumeration, posterior, local corrections).  A
caller that wants one outcome holds the table and draws from its
:func:`outcome_cdf`.  Probabilities are properties of the branch structure
alone; the dependence on the bus amplitude and interaction angle only enters
the separately reported error budget.  The measurement-free builders return
a bus program, whose steps are plain ``(qubit | None, beta)`` displacements.

Local corrections are Z phases diag(1, e^{i angle}); applying an outcome's
corrections to its posterior reaches the canonical target state up to a
global phase.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import busim
from .busim import HybridState, QubitState

__all__ = [
    "Correction",
    "GateOutcome",
    "GateErrorBudget",
    "InteractionSequence",
    "apply_corrections",
    "error_budget",
    "run_sequence",
    "outcome_cdf",
    "momentum_parity_outcomes",
    "position_parity_outcomes",
    "bucket_parity_outcomes",
    "three_qubit_outcomes",
    "cascade_outcomes",
    "cascade_pair_success",
    "cascade_gate_time",
    "geometric_cz",
    "conditional_displacement_by_rotations",
    "star_sequence",
    "chain_sequence",
    "solve_local_z_corrections",
]

PEAK_ERROR_WARN = 0.1
# amplitudes below this are off a state's support, and a fitted phase within
# it of 0 (mod 2 pi) is least-squares residue
Z_SOLVE_TOL = 1e-9


# ---------------------------------------------------------------------------
# corrections


@dataclass(frozen=True)
class Correction:
    """One single-qubit Z phase diag(1, e^{i angle}); ``op`` is always "phase"."""

    qubit: int
    op: str
    angle: float

    def __post_init__(self):
        if self.op != "phase":
            raise ValueError(f"unsupported correction op {self.op!r}")


def apply_corrections(state: QubitState, corrections) -> QubitState:
    """The corrections' Z phases, in order, on one amplitude array."""
    n, amps = state.qubit_count, state.amplitudes
    patterns = np.arange(2**n)
    for c in corrections:
        amps = busim.z_phase_action(amps, patterns, n, c.qubit, c.angle)
    return QubitState(n, amps)


def solve_local_z_corrections(posterior: QubitState, target: QubitState):
    """Per-qubit Z phases mapping posterior onto target up to a global phase.

    Works on the common support of the two states.  The amplitude ratios'
    angles are unwrapped onto sums of per-qubit steps read from single-bit
    flips of the support (see :func:`_unwrapped_angles`), then one
    least-squares solve fits a phase per qubit.  Returns None when the
    supports differ, the magnitudes disagree, or the fitted phases do not
    reproduce the ratios.  A phase with |e^{i d} - 1| <= ``Z_SOLVE_TOL`` is
    least-squares residue and is left out.
    """
    n = posterior.qubit_count
    a = posterior.amplitudes
    t = target.amplitudes
    support = np.flatnonzero(np.abs(a) > Z_SOLVE_TOL)
    if not np.array_equal(support, np.flatnonzero(np.abs(t) > Z_SOLVE_TOL)):
        return None
    ratios = t[support] / a[support]
    if np.max(np.abs(np.abs(ratios) - np.abs(ratios[0]))) > 1e-6:
        return None
    bits = (support[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rows = (bits - bits[0]).astype(np.float64)
    phis = _unwrapped_angles(support, ratios / ratios[0], rows)
    deltas, *_ = np.linalg.lstsq(rows, phis, rcond=None)
    if not _phases_match(a, t, support, deltas, n):
        return None
    return tuple(
        Correction(q, "phase", float(d))
        for q, d in enumerate(deltas)
        if abs(cmath.exp(1j * d) - 1.0) > Z_SOLVE_TOL
    )


def _unwrapped_angles(support, r, rows):
    """Angles of ``r`` shifted by multiples of 2 pi onto sums of qubit steps.

    A qubit's step is the angle across the first pair of support patterns
    that differ in that qubit alone (``support`` is sorted, so the pair's
    first pattern has the qubit's bit clear).  Each angle is brought within
    pi of the sum of the steps its ``rows`` select, so wrapped sums of
    per-qubit angles become exact sums that least squares fits, and a step
    of exactly pi counts the same way on every pattern.  Qubits with no
    such pair add nothing, and zero shifts leave angles as they were.
    """
    phis = np.angle(r)
    n = rows.shape[1]
    index = np.full(1 << n, -1)
    index[support] = np.arange(support.size)
    partner = index[support[:, None] ^ (1 << np.arange(n - 1, -1, -1))]
    i = np.argmax(partner >= 0, axis=0)
    j = partner[i, np.arange(n)]
    step = np.where(j >= 0, np.angle(r[j] / r[i]), 0.0)
    return phis + 2.0 * np.pi * np.round((rows @ step - phis) / (2.0 * np.pi))


def _phases_match(a, t, support, deltas, n) -> bool:
    corrected = a[support]
    for q, d in enumerate(deltas):
        corrected = busim.z_phase_action(corrected, support, n, q, d)
    g = t[support[0]] / corrected[0]
    return bool(np.max(np.abs(g * corrected - t[support])) <= math.sqrt(Z_SOLVE_TOL))


# ---------------------------------------------------------------------------
# outcome and budget records


@dataclass(frozen=True)
class GateOutcome:
    """One heralded protocol outcome.

    ``probability`` is exact from branch enumeration; ``window_probability``
    (when set) additionally accounts for Gaussian tail leakage across the
    homodyne decision thresholds.  ``gate_time`` counts interaction time in
    units of one unit-angle bus rotation.  ``target`` is the canonical state
    the outcome heralds (None for failures and unheralded outcomes); the
    corrections, when the solver found them, map the posterior onto it.
    ``exact_probability`` is the peak's share of the 2**n basis patterns, set
    only for cascade tables built from the default |+>^n register.
    """

    label: str
    probability: float
    posterior: QubitState
    corrections: tuple = ()
    gate_time: float = 0.0
    window_probability: float | None = None
    exact_probability: Fraction | None = None
    target: QubitState | None = None


@dataclass(frozen=True)
class GateErrorBudget:
    """Closed-form misassignment and false-vacuum error values.

    ``p_err_momentum`` and ``p_err_position`` are midpoint-threshold errors
    for Gaussian peaks whose phase-space angles differ by theta;
    ``p_err_vacuum`` is the false-vacuum weight exp(-4 (alpha theta)^2).
    """

    p_err_momentum: float
    p_err_position: float
    p_err_vacuum: float
    separation_parameter: float
    momentum_regime_ok: bool

    def __post_init__(self):
        if not (0.0 <= self.p_err_momentum <= 0.5 + 1e-12):
            raise ValueError("momentum error outside [0, 1/2]")
        if not (0.0 <= self.p_err_position <= 0.5 + 1e-12):
            raise ValueError("position error outside [0, 1/2]")
        if not (0.0 <= self.p_err_vacuum <= 1.0 + 1e-12):
            raise ValueError("vacuum error outside [0, 1]")


def error_budget(alpha: float, theta: float) -> GateErrorBudget:
    """Evaluate the three closed-form error expressions at (alpha, theta)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    # a negative theta mirrors the peaks and keeps their separation
    spread = abs(alpha * math.sin(theta))
    return GateErrorBudget(
        p_err_momentum=0.5 * math.erfc(spread / math.sqrt(2.0)),
        p_err_position=0.5 * math.erfc(alpha * (1.0 - math.cos(theta)) / math.sqrt(2.0)),
        p_err_vacuum=math.exp(-4.0 * abs(alpha * theta) ** 2),
        separation_parameter=alpha * theta,
        momentum_regime_ok=spread >= math.pi,
    )


def _warn_if_unresolved(alpha: float, theta: float, which: str) -> None:
    budget = error_budget(alpha, theta)
    err = budget.p_err_momentum if which == "momentum" else budget.p_err_position
    if err >= PEAK_ERROR_WARN:
        warnings.warn(
            f"{which} peaks poorly separated at alpha={alpha}, theta={theta}: "
            f"misassignment error {err:.3g}",
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# drawing outcomes from a table

# rng.choice(p=...) accepts probabilities that sum to 1 within this
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def outcome_cdf(outcomes) -> np.ndarray:
    """Cumulative distribution over a table's outcomes, in table order.

    The probabilities are normalised by their sum and checked as
    ``rng.choice(p=...)`` checks them; the cumulative sum is divided by its
    last entry, as ``rng.choice`` divides it.  So ``cdf.searchsorted(u,
    side="right")`` at one ``rng.random()`` draw ``u`` picks what
    ``rng.choice(len(outcomes), p=...)`` picks.
    """
    w = [o.probability for o in outcomes]
    probs = np.array(w) / sum(w)
    if not (np.isfinite(probs).all() and (probs >= 0.0).all()
            and abs(math.fsum(probs) - 1.0) <= _CHOICE_ATOL):
        raise ValueError(f"outcome probabilities {probs} are not a distribution")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


# ---------------------------------------------------------------------------
# interaction sequences


@dataclass(frozen=True)
class InteractionSequence:
    """A bus program: ``(qubit | None, beta)`` displacement steps on a register.

    A step displaces the bus by +-beta conditioned on ``qubit``, or by beta
    unconditionally when ``qubit`` is None.
    """

    register_size: int
    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("sequence must contain at least one interaction")
        for q, _ in self.steps:
            if q is not None and not 0 <= q < self.register_size:
                raise ValueError(f"qubit {q} outside register")


def run_sequence(state: HybridState, sequence: InteractionSequence) -> HybridState:
    """Run a program exactly: a closed loop restores the bus amplitude bit for bit."""
    if state.qubit_count != sequence.register_size:
        raise ValueError("register size mismatch")
    return busim.run_displacement_program(state, sequence.steps)


# ---------------------------------------------------------------------------
# canonical targets


# a peak with one of these labels heralds the equal superposition of its members
_HERALDED = ("odd-bell", "even-bell", "ghz", "bell-q3-0", "bell-q3-1")


def _heralded_target(n: int, label: str, members) -> QubitState | None:
    """The state a peak labelled ``label`` heralds, or None if it heralds none."""
    if label not in _HERALDED:
        return None
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[sorted(members)] = 1.0 / math.sqrt(len(members))
    return QubitState(n, amps)


def _bell_even(sign: int) -> QubitState:
    return QubitState(2, np.array([1, 0, 0, sign]) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# homodyne parity gates


def _prepare(alpha, theta, state, multiples):
    """Register (default |+>^n) on a bus |alpha>; qubit q rotates it by multiples[q] theta.

    Each branch's bus turns once, by its net multiple of theta: zero keeps alpha exactly."""
    n = len(multiples)
    if state is None:
        state = QubitState.plus(n)
    if state.qubit_count != n:
        raise ValueError(f"protocol needs a {n}-qubit register")
    bits = np.flatnonzero(np.abs(state.amplitudes) > 0)
    net = sum(m * busim._signs(bits, q, n) for q, m in enumerate(multiples))
    bus = complex(alpha) * np.exp(1j * theta * net)
    return state, HybridState(n, bits, state.amplitudes[bits], bus)


# the two-qubit peak labels by member patterns; any other peak is "mixed"
_TWO_QUBIT_LABELS = {frozenset(members): label for members, label in (
    ({1, 2}, "odd-bell"), ({0, 3}, "even-bell"), ({0}, "product-00"),
    ({3}, "product-11"), ({1}, "product-01"), ({2}, "product-10"))}


def _homodyne_outcomes(hybrid, phi, gate_time, classify, patterns=None):
    """One outcome per peak of a single peak model of ``hybrid``.

    ``classify(members, posterior)`` names a peak; :func:`_heralded_target`
    gives the state it heralds, or None.

    With ``patterns`` (the basis-pattern count of a uniform register) each
    outcome also gets its exact probability, members / patterns.
    """
    outcomes = []
    for projected in busim.homodyne_outcomes(hybrid, phi):
        peak = projected.peak
        label = classify(peak.members, projected.posterior)
        target = _heralded_target(hybrid.qubit_count, label, peak.members)
        solved = None
        if target is not None:
            solved = solve_local_z_corrections(projected.posterior, target)
        outcomes.append(
            GateOutcome(
                label=label,
                probability=peak.weight,
                posterior=projected.posterior,
                corrections=solved or (),
                gate_time=gate_time,
                window_probability=projected.probability,
                exact_probability=None if patterns is None else Fraction(len(peak.members), patterns),
                target=target,
            )
        )
    return tuple(outcomes)


def _parity_outcomes(alpha, theta, state, phi):
    """Both qubits rotate the bus by +-theta; X(phi) is then measured."""
    _, hybrid = _prepare(alpha, theta, state, (1, 1))
    return _homodyne_outcomes(
        hybrid, phi, 2.0, lambda members, _: _TWO_QUBIT_LABELS.get(members, "mixed"))


def momentum_parity_outcomes(alpha, theta, state: QubitState | None = None):
    """Outcome table of the two-qubit momentum-quadrature parity gate.

    Both qubits rotate the bus by +-theta; the momentum quadrature then
    resolves the odd subspace (unrotated bus) from |00> and |11>.
    """
    return _parity_outcomes(alpha, theta, state, math.pi / 2.0)


def position_parity_outcomes(alpha, theta, state: QubitState | None = None):
    """Outcome table of the position-quadrature parity gate.

    The even branches sit at 2 alpha cos(2 theta) and the odd branches at
    2 alpha, so both outcomes project onto entangled parity subspaces."""
    return _parity_outcomes(alpha, theta, state, 0.0)


# ---------------------------------------------------------------------------
# bucket (photon detection) parity gate


def bucket_parity_outcomes(
    alpha, theta, state: QubitState | None = None, number_resolving=False, n_max=None
):
    """Outcome table of the displaced-bus photon-detection parity gate.

    The bus is displaced back by -alpha so the odd branches reach the vacuum
    exactly; detection then distinguishes vacuum (odd Bell) from the
    displaced even branches.  With number resolution the photon count n
    heralds (|00> + (-1)^n |11>)/sqrt(2) up to the reported corrections, with
    weights sampled from the displaced-branch photon distribution.
    """
    state, hybrid = _prepare(alpha, theta, state, (1, 1))
    hybrid = busim.run_displacement_program(hybrid, [(None, -complex(alpha))])

    vac = busim.measure_bucket(hybrid, outcome="vacuum")
    # measure_bucket's click components, computed only as far as the table reads
    clicks = busim._photon_components(hybrid)
    outcomes = [
        GateOutcome(
            label="odd-bell",
            probability=vac.probability,
            posterior=vac.posterior,
            gate_time=2.0,
            target=_heralded_target(2, "odd-bell", (1, 2)),
        )
    ]
    if number_resolving:
        for n, pn, post in itertools.islice(clicks, n_max):
            target = _bell_even(1 if n % 2 == 0 else -1)
            outcomes.append(
                GateOutcome(
                    label=f"even-bell-{n}",
                    probability=pn,
                    posterior=post,
                    corrections=solve_local_z_corrections(post, target) or (),
                    gate_time=2.0,
                    target=target,
                )
            )
    else:
        first = next(clicks, None)
        outcomes.append(
            GateOutcome(
                label="click",
                probability=1.0 - vac.probability,
                posterior=state if first is None else first[2],
                gate_time=2.0,
            )
        )
    return tuple(outcomes)


# ---------------------------------------------------------------------------
# three-qubit gate and its cascade generalization


def _cascade_schedule(n: int):
    """Rotation multiples (theta, theta, 2 theta, ..., -2**(n-2) theta)."""
    if n < 2:
        raise ValueError("cascade needs at least two qubits")
    mult = [1, 1] + [2 ** (k - 2) for k in range(3, n + 1)]
    mult[-1] = -(2 ** (n - 2))
    return mult


def cascade_gate_time(n: int) -> int:
    """Interaction time in unit-angle rotations; doubles per added qubit."""
    return sum(abs(m) for m in _cascade_schedule(n))


def cascade_pair_success(outcomes) -> Fraction:
    """Exact chance that qubits 0 and 1 end entangled, from a cascade table.

    The sum of the exact probabilities of the ``ghz``, ``bell-q3-*`` and
    ``entangled`` outcomes; 1 - 2**(1-n) for the default |+>^n register
    when the peaks are resolved, 0 when theta = 0 leaves |+>^n a product.
    A table without exact probabilities raises.
    """
    if any(o.exact_probability is None for o in outcomes):
        raise ValueError("pair success needs a table with exact probabilities")
    return sum(
        (o.exact_probability for o in outcomes
         if o.label in ("ghz", "entangled") or o.label.startswith("bell-q3")),
        Fraction(0),
    )


def _cascade_label(n: int, members: list[int], posterior: QubitState) -> str:
    if len(members) == 1:
        return "product-" + format(members[0], f"0{n}b")
    pair_patterns = {((b >> (n - 1)) & 1, (b >> (n - 2)) & 1) for b in members}
    if n == 3 and pair_patterns == {(0, 1), (1, 0)}:
        third = members[0] & 1
        return f"bell-q3-{third}"
    if len(members) == 2 and members[0] + members[1] == 2**n - 1:
        return "ghz"
    if _entangled_with_rest(posterior, 0) and _entangled_with_rest(posterior, 1):
        return "entangled"
    return "mixed"


def _entangled_with_rest(state: QubitState, qubit: int) -> bool:
    """Schmidt rank 2 of ``qubit`` against the rest of the register.

    For a unit vector whose rows (qubit = 0, 1) have Gram matrix G, det G is
    the product of the two squared Schmidt coefficients; rank 2 means it
    exceeds 1e-9 (it is 1/4 for a maximally entangled qubit).
    """
    n = state.qubit_count
    rows = np.moveaxis(state.amplitudes.reshape((2,) * n), qubit, 0).reshape(2, -1)
    a, d = np.vdot(rows[0], rows[0]).real, np.vdot(rows[1], rows[1]).real
    return a * d - abs(np.vdot(rows[0], rows[1])) ** 2 > 1e-9


def cascade_outcomes(n: int, alpha, theta, state: QubitState | None = None):
    """Outcome table for the n-qubit single-pass entangler.

    Exact probabilities are reported for the default |+>^n register only.
    """
    patterns = 2**n if state is None else None
    _, hybrid = _prepare(alpha, theta, state, _cascade_schedule(n))
    gate_time = float(cascade_gate_time(n))

    def classify(members: frozenset, posterior: QubitState) -> str:
        return _cascade_label(n, sorted(members), posterior)

    return _homodyne_outcomes(hybrid, math.pi / 2.0, gate_time, classify, patterns)


def three_qubit_outcomes(alpha, theta, state: QubitState | None = None):
    """Five-peak outcome table of the theta, theta, -2 theta protocol."""
    return cascade_outcomes(3, alpha, theta, state)


# ---------------------------------------------------------------------------
# measurement-free geometric gates


def _zz_couplings(loop) -> dict | None:
    """J of a closed loop, whose register action is exp(i sum J_ab Z_a Z_b); else None.

    J_ab sums Im(beta_k conj(beta_j)) over (qubit, beta) steps j < k on
    qubits a != b.  A step closes its qubit's first open displacement equal
    to -beta; a closed pair's terms cancel, so only open ones add, and
    all-zero pairs are left out.  This per-qubit rule is stricter than
    :func:`busim.run_displacement_program`'s, which closes a branch's open
    displacement of opposite value whichever qubit opened it (in
    ``star_sequence(3, b)`` branch 001's step on qubit 2 closes qubit 1's),
    so a loop closed per qubit is closed on every branch.
    """
    held, coupling = {}, {}  # qubit -> open displacements in opening order; pair -> J
    for q, beta in loop:
        for a, values in held.items():
            for v in values if a != q else ():
                x = (beta * v.conjugate()).imag
                if x != 0.0:
                    pair = (min(a, q), max(a, q))
                    coupling[pair] = coupling.get(pair, 0.0) + x
        mine = held.setdefault(q, [])
        if -beta in mine:
            mine.remove(-beta)
            if not mine:
                del held[q]
        else:
            mine.append(beta)
    return None if held else coupling


def _geometric_gate(n: int, loop, edges):
    """A builder's loop as a sequence, and the Z phases that make it ``edges``.

    None unless the loop closes, exp(4 i J) = -1 on every edge (a controlled-Z
    up to Z(2 J) on both ends) and exp(2 i J) = 1 on every other pair.
    """
    seq = InteractionSequence(n, tuple(loop))
    coupling = _zz_couplings(loop)
    if coupling is None:
        return seq, None
    totals = [0.0] * n
    for a, b in edges:
        phi = coupling.pop((a, b), 0.0)
        if not abs(cmath.exp(4j * phi) + 1.0) <= 1e-9:
            return seq, None
        totals[a] += 2.0 * phi
        totals[b] += 2.0 * phi
    if not all(abs(cmath.exp(2j * phi) - 1.0) <= 1e-9 for phi in coupling.values()):
        return seq, None
    return seq, tuple(Correction(q, "phase", t % (2.0 * math.pi)) for q, t in enumerate(totals)
                      if abs(cmath.exp(1j * t) - 1.0) > 1e-12)


def geometric_cz(beta1: complex, beta2: complex):
    """Four-displacement loop coupling qubits 0 and 1 through its enclosed area.

    The loop closes for every branch so the bus disentangles exactly; when
    Im(conj(beta1) beta2) is an odd multiple of pi/8 the register unitary is
    a controlled-Z up to the returned Z-phase corrections, which are None
    off that grid.
    """
    b1, b2 = complex(beta1), complex(beta2)
    return _geometric_gate(2, ((0, b1), (1, b2), (0, -b1), (1, -b2)), [(0, 1)])


def conditional_displacement_by_rotations(
    state: HybridState, qubit: int, alpha: float, theta: float
) -> HybridState:
    """The conditional displacement D(2 i alpha sin(theta) Z) from rotations.

    Applies D(alpha cos theta) R(theta Z) D(-2 alpha) R(-theta Z)
    D(alpha cos theta), which composes to that displacement with no residual
    branch phase under this module's phase conventions.
    """
    if isinstance(alpha, complex) and alpha.imag != 0.0:
        raise ValueError("alpha must be real")
    a = float(alpha.real) if isinstance(alpha, complex) else float(alpha)
    state = busim.run_displacement_program(state, [(None, complex(a * math.cos(theta)))])
    state = busim.apply_conditional_rotation(state, qubit, float(theta))
    state = busim.run_displacement_program(state, [(None, complex(-2.0 * a))])
    state = busim.apply_conditional_rotation(state, qubit, float(-theta))
    return busim.run_displacement_program(state, [(None, complex(a * math.cos(theta)))])


def star_sequence(n: int, beta: float):
    """Out-and-back displacements generating a star graph centered on qubit 0.

    Qubit 0 is displaced along the imaginary axis and every other qubit along
    the real axis, each exactly twice.  With beta = sqrt(pi/8) the register
    unitary is a controlled-Z from qubit 0 to every leaf, up to the returned
    Z-phase corrections; leaves never couple to each other.
    """
    if n < 2:
        raise ValueError("star needs at least two qubits")
    b = float(beta)
    loop = [(0, 1j * b)] + [(q, complex(b)) for q in range(1, n)]
    loop += [(0, -1j * b)] + [(q, complex(-b)) for q in range(1, n)]
    return _geometric_gate(n, loop, [(0, q) for q in range(1, n)])


def chain_sequence(n: int, beta: float):
    """Interleaved displacements generating a linear cluster state.

    Even qubits are displaced along the imaginary axis, odd ones along the
    real axis, in an order that opens at most two qubits at a time: the bus
    carries information about at most two neighbours at any point and
    disentangles from each qubit as soon as its second interaction is done.
    """
    if n < 2:
        raise ValueError("chain needs at least two qubits")
    b = float(beta)
    order = [(0, +1), (1, +1)]
    for q in range(2, n):
        order += [(q - 2, -1), (q, +1)]
    order += [(n - 2, -1), (n - 1, -1)]
    loop = [(q, sign * (1j * b if q % 2 == 0 else complex(b))) for q, sign in order]
    return _geometric_gate(n, loop, [(k, k + 1) for k in range(n - 1)])

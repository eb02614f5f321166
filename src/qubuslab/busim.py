"""Exact simulator for qubit registers coupled to a single coherent bus mode.

The joint state of n matter qubits and the bus is always a finite
superposition sum_b c_b |b>|alpha_b>: each register pattern b drives the bus
into one coherent state, so there is one branch per pattern.  Rotations,
displacements and measurements of the bus all have closed forms, and since
distinct patterns are orthogonal the branch weights are just |c_b|**2.  No
Fock truncation is involved; amplitudes up to about 1e154 (alpha**2 within the
float range) are handled by evaluating the projections in the log domain.

Conventions used throughout:

* qubit q of an n-qubit pattern ``bits`` is the bit at position n-1-q, so
  ``bits`` doubles as the index into a dense amplitude vector;
* the Z eigenvalue of a qubit is +1 for bit 0 and -1 for bit 1;
* a displacement by beta maps |gamma> to exp(i Im(beta conj(gamma))) |gamma+beta>;
* a bus rotation by theta maps |gamma> to |gamma e^{i theta}> with no extra phase;
* the quadrature X(phi) = a^dag e^{i phi} + a e^{-i phi} has mean
  2 Re(beta e^{-i phi}) and variance 1 in a coherent state, and its
  eigenfunction phase convention is fixed by :func:`quadrature_overlap`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalParams",
    "HybridState",
    "QubitState",
    "Peak",
    "PeakModel",
    "HomodyneOutcome",
    "BucketOutcome",
    "init_plus_state",
    "attach_bus",
    "apply_conditional_rotation",
    "run_displacement_program",
    "homodyne_pdf",
    "homodyne_outcomes",
    "homodyne_project",
    "measure_bucket",
    "bus_spread",
    "extract_qubits",
    "quadrature_overlap",
    "fidelity",
    "z_phase_action",
]

PEAK_GROUP_TOL = 1e-9
# bus amplitudes this close count as equal: a vacuum branch's bus is within
# BUS_TOL of 0, and extract_qubits needs every branch's bus within BUS_TOL
BUS_TOL = 1e-9
# a click lists photon numbers until less than TAIL_TOL of the weight is left
TAIL_TOL = 1e-12


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PhysicalParams:
    """Dispersive coupling parameters of one qubit-bus interaction.

    ``chi`` and ``theta`` are stored exactly as derived: chi = g**2 / delta
    and theta = chi * t_int.
    """

    g: float
    delta: float
    chi: float
    t_int: float
    theta: float

    @classmethod
    def from_coupling(cls, g: float, delta: float, t_int: float) -> "PhysicalParams":
        if delta == 0:
            raise ValueError("detuning must be nonzero in the dispersive limit")
        chi = g**2 / delta
        return cls(g=g, delta=delta, chi=chi, t_int=t_int, theta=chi * t_int)

    def __post_init__(self):
        if self.chi != self.g**2 / self.delta:
            raise ValueError("chi must equal g**2/delta exactly")
        if self.theta != self.chi * self.t_int:
            raise ValueError("theta must equal chi*t_int exactly")


class QubitState:
    """Dense register state: 2**n complex amplitudes, unit L2 norm."""

    __slots__ = ("qubit_count", "amplitudes")

    def __init__(self, qubit_count: int, amplitudes, normalize: bool = False):
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != 2**qubit_count:
            raise ValueError(
                f"expected {2 ** qubit_count} amplitudes, got {amps.shape[0]}"
            )
        nrm = float(np.linalg.norm(amps))
        if normalize:
            if nrm == 0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / nrm
        elif abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"amplitudes not normalized (norm={nrm!r})")
        self.qubit_count = qubit_count
        self.amplitudes = amps

    @classmethod
    def plus(cls, n: int) -> "QubitState":
        return cls(n, np.full(2**n, 2.0 ** (-n / 2), dtype=np.complex128))

    def __repr__(self):
        return f"QubitState(n={self.qubit_count})"


def fidelity(a: QubitState, b: QubitState) -> float:
    """|<a|b>|**2 for two register states."""
    if a.qubit_count != b.qubit_count:
        raise ValueError("register sizes differ")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def z_phase_action(amps, patterns, n: int, qubit: int, angle: float) -> np.ndarray:
    """Amplitudes of the bit ``patterns`` after diag(1, e^{i angle}) on one of n
    qubits.  No norm check: the correction solver phases part of a register.
    The exponential of each bit value is taken once and gathered by bit."""
    _check_qubit(qubit, n)
    return amps * np.exp(1j * angle * np.arange(2))[(patterns >> (n - 1 - qubit)) & 1]


class HybridState:
    """Superposition of (bit-pattern, coefficient, bus amplitude) branches.

    One branch per bit pattern, sorted by pattern: the constructor rejects a
    repeated pattern and drops zero coefficients.  Instances are treated as
    immutable: every operation returns a new state.
    """

    __slots__ = ("qubit_count", "bits", "coeff", "bus")

    def __init__(self, qubit_count: int, bits, coeff, bus):
        if qubit_count < 1:
            raise ValueError("register must hold at least one qubit")
        bits = np.asarray(bits, dtype=np.int64).reshape(-1)
        coeff = np.asarray(coeff, dtype=np.complex128).reshape(-1)
        bus = np.asarray(bus, dtype=np.complex128).reshape(-1)
        if not (bits.shape == coeff.shape == bus.shape):
            raise ValueError("bits, coeff and bus must have equal lengths")
        if bits.size == 0:
            raise ValueError("state needs at least one branch")
        if bits.min() < 0 or bits.max() >= 2**qubit_count:
            raise ValueError("bit pattern out of range for register size")
        order = np.argsort(bits, kind="stable")
        bits, coeff, bus = bits[order], coeff[order], bus[order]
        repeated = np.flatnonzero(bits[1:] == bits[:-1])
        if repeated.size:
            raise ValueError(f"bit pattern {int(bits[repeated[0]])} appears more than once")
        keep = coeff != 0
        if not keep.any():
            raise ValueError("all coefficients are zero; zero state")
        self.qubit_count = qubit_count
        self.bits = bits[keep]
        self.coeff = coeff[keep]
        self.bus = bus[keep]

    def branch_count(self) -> int:
        return int(self.bits.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeff))

    def branch_map(self) -> dict[int, tuple[complex, complex]]:
        return {
            int(b): (complex(c), complex(u))
            for b, c, u in zip(self.bits, self.coeff, self.bus)
        }

    def __repr__(self):
        return f"HybridState(n={self.qubit_count}, branches={self.branch_count()})"


def _check_qubit(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n}-qubit register")


def _check_normalized(state: HybridState) -> None:
    nrm = state.norm()
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"state not normalized (norm={nrm!r})")


def _signs(bits: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Z eigenvalues (+1 for bit 0, -1 for bit 1) of one qubit per branch."""
    return 1.0 - 2.0 * ((bits >> (n - 1 - qubit)) & 1)


# ---------------------------------------------------------------------------
# overlaps


def quadrature_overlap(x, beta, phi: float):
    """Eigenfunction overlap <x|beta> of the X(phi) quadrature, at a point or
    points x, for one amplitude beta or an array of them.

    With b = beta e^{-i phi}, the convention is
    (2 pi)^{-1/4} exp(-(x - 2 Re b)^2 / 4 + i Im(b) x - i Im(b) Re(b)),
    which makes single-branch posteriors phase free and reproduces the
    closed-form coherent overlap <gamma|beta> when <gamma|x><x|beta> is
    integrated over x.  b is spelt out as Python's complex multiply (NumPy's
    array multiply may fuse multiply-adds) and the square is libm's pow, so
    an array of amplitudes gives each one's scalar result bit for bit.
    """
    rot, beta = cmath.exp(-1j * phi), np.asarray(beta, dtype=np.complex128)
    re = beta.real * rot.real - beta.imag * rot.imag
    im = beta.real * rot.imag + beta.imag * rot.real
    x = np.asarray(x, dtype=np.float64)
    logmag = -np.float_power(x - 2.0 * re, 2) / 4.0
    return (2.0 * math.pi) ** -0.25 * np.exp(logmag + 1j * (im * x - im * re))


# ---------------------------------------------------------------------------
# state preparation and unitary evolution


def init_plus_state(n: int, alpha: complex) -> HybridState:
    """Uniform superposition over all n-bit patterns, bus in |alpha>."""
    if n < 1:
        raise ValueError("register must hold at least one qubit")
    return attach_bus(QubitState.plus(n), alpha)


def attach_bus(state: QubitState, alpha: complex) -> HybridState:
    """Couple a fresh bus |alpha> to a register state (nonzero amplitudes only)."""
    nz = np.flatnonzero(np.abs(state.amplitudes) > 0)
    return HybridState(
        state.qubit_count,
        nz.astype(np.int64),
        state.amplitudes[nz],
        np.full(nz.size, complex(alpha), dtype=np.complex128),
    )


def apply_conditional_rotation(state: HybridState, qubit: int, theta: float) -> HybridState:
    """Rotate the bus by +theta (bit 0) or -theta (bit 1) of one qubit."""
    _check_qubit(qubit, state.qubit_count)
    s = _signs(state.bits, qubit, state.qubit_count)
    bus = state.bus * np.exp(1j * theta * s)
    return HybridState(state.qubit_count, state.bits, state.coeff.copy(), bus)


def run_displacement_program(state: HybridState, steps) -> HybridState:
    """Run a sequence of (qubit | None, beta) displacements with exact returns.

    A step closes a branch's first open displacement equal to its negation,
    else opens a new one; the branch's bus is its start amplitude plus its
    open displacements summed in opening order from 0j.  So a sequence in
    which every displacement is later undone restores the original amplitude
    bit for bit (bus spread exactly zero, not a rounding residue).  Phases
    follow the module's displacement convention, and a single displacement is a
    one-step program.

    Branches with the same start amplitude and the same open displacements
    share a class: the start, the tuple and its sum.  Each step works out,
    once per live (class, bit) pair and in Python floats, the phase
    increment Im(d conj(gamma)) and the next class; the branches gather
    both.  The start amplitudes are grouped only when they differ.
    """
    n = state.qubit_count
    gamma0 = state.bus
    if (gamma0 == gamma0[0]).all():
        starts, cls = [complex(gamma0[0])], np.zeros(gamma0.size, dtype=np.int64)
    else:  # NumPy 2.0 changed the shape of the inverse
        uniq, inverse = np.unique(gamma0, return_inverse=True)
        starts, cls = uniq.tolist(), inverse.reshape(-1)
    phase = np.zeros(gamma0.size)
    held = [(s, ()) for s in range(len(starts))]  # per class id: (start, open tuple)
    totals = [0j] * len(starts)
    for qubit, beta in steps:
        if qubit is None:
            key = 2 * cls
            values = np.full(2, complex(beta))
        else:
            _check_qubit(qubit, n)
            key = 2 * cls + ((state.bits >> (n - 1 - qubit)) & 1)
            values = np.array([1.0, -1.0]) * complex(beta)  # as _signs(...) * beta
        counts = np.bincount(key)
        inc = np.zeros(counts.size)
        trans = np.zeros(counts.size, dtype=np.int64)
        index: dict[tuple, tuple[int, complex]] = {}
        for k in np.flatnonzero(counts).tolist():
            (s, prev), total, v = held[k >> 1], totals[k >> 1], complex(values[k & 1])
            gamma = starts[s] + total
            # Im(v conj(gamma)) and the coefficient product below are spelt
            # out in real arithmetic, which rounds every product once, as the
            # textbook formula does; NumPy's array complex multiply may fuse
            # multiply-adds and round differently.
            inc[k] = v.real * -gamma.imag + v.imag * gamma.real
            if -v in prev:
                i = prev.index(-v)
                nxt, total = prev[:i] + prev[i + 1:], 0j
                for u in nxt:
                    total += u
            else:
                nxt, total = prev + (v,), total + v
            trans[k] = index.setdefault((s, nxt), (len(index), total))[0]
        held, totals = list(index), [total for _, total in index.values()]
        phase += inc[key]
        cls = trans[key]
    w = np.exp(1j * phase)
    c = state.coeff
    coeff = np.empty_like(c)
    coeff.real = c.real * w.real - c.imag * w.imag
    coeff.imag = c.real * w.imag + c.imag * w.real
    return HybridState(n, state.bits, coeff, gamma0 + np.array(totals)[cls])


# ---------------------------------------------------------------------------
# measurements


@dataclass(frozen=True)
class Peak:
    center: float
    weight: float
    members: frozenset


@dataclass(frozen=True)
class PeakModel:
    """Gaussian-mixture model of a homodyne outcome distribution.

    Each peak is a unit-variance Gaussian; centers are 2 Re(bus e^{-i phi})
    and weights are the summed |c|**2 of the member branches.
    """

    phi: float
    peaks: tuple

    # computed once per model; a frozen dataclass still has an instance dict
    @functools.cached_property
    def _windows(self) -> tuple:
        """Decision windows: midpoints between adjacent centers."""
        centers = [p.center for p in self.peaks]
        lows = [-math.inf] + [(a + b) / 2 for a, b in zip(centers, centers[1:])]
        highs = lows[1:] + [math.inf]
        return tuple(zip(lows, highs))

    @functools.cached_property
    def _centers(self) -> np.ndarray:
        return np.array([p.center for p in self.peaks], dtype=np.float64)

    def window_probability(self, index: int) -> float:
        """Chance of the outcome landing in peak ``index``'s window (all tails).

        A peak more than 9 below the window has both CDFs round to 1.0, and
        one more than 40 above it has both underflow to 0.0, so its term is
        exactly 0.0 and is skipped.  The other terms add in peak order, one
        by one: a NumPy sum adds in pairs and would round differently.
        """
        lo, hi = self._windows[index]
        t_lo, t_hi = lo - self._centers, hi - self._centers  # CDF arguments
        zero = ((t_lo > 9.0) & (t_hi > 9.0)) | (
            (t_lo < -40.0) & (t_hi < -40.0))
        total = 0.0
        for j in np.flatnonzero(~zero).tolist():
            p = self.peaks[j]
            total += p.weight * (_normal_cdf(hi - p.center) - _normal_cdf(lo - p.center))
        return total


def _normal_cdf(t) -> float:
    if t == math.inf:
        return 1.0
    if t == -math.inf:
        return 0.0
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def homodyne_pdf(state: HybridState, phi: float) -> PeakModel:
    """Group branches into quadrature peaks for the X(phi) measurement: the
    centre-sorted branches split where adjacent centres differ by more than
    ``PEAK_GROUP_TOL``."""
    centers = 2.0 * np.real(state.bus * cmath.exp(-1j * phi))
    power = state.coeff.real**2 + state.coeff.imag**2
    order = np.argsort(centers, kind="stable")
    peaks = []
    for idx in np.split(order, np.flatnonzero(np.diff(centers[order]) > PEAK_GROUP_TOL) + 1):
        weight = 0.0  # |c|**2 added one by one in pattern (= branch) order
        for w in power[np.sort(idx)].tolist():
            weight += w
        center = float(np.mean(centers[idx]))
        peaks.append(Peak(center, weight, frozenset(state.bits[idx].tolist())))
    return PeakModel(phi=phi, peaks=tuple(peaks))


@dataclass(frozen=True)
class HomodyneOutcome:
    probability: float  # window probability, tails of the other peaks included
    posterior: QubitState
    peak: Peak


def homodyne_outcomes(state: HybridState, phi: float) -> tuple[HomodyneOutcome, ...]:
    """Project on each peak of one X(phi) peak model, in peak order.

    A projection keeps the peak's branches (found by bisection: patterns are
    sorted and unique), weights each by the quadrature eigenfunction overlap
    at the peak center and renormalizes.  The probability is the window mass,
    tails of the other peaks included."""
    _check_normalized(state)
    model = homodyne_pdf(state, phi)
    return tuple(HomodyneOutcome(
        model.window_probability(k),
        _project_at(state, phi, peak.center, np.searchsorted(state.bits, sorted(peak.members))),
        peak) for k, peak in enumerate(model.peaks))


def homodyne_project(state: HybridState, phi: float, index: int) -> HomodyneOutcome:
    """Outcome ``index`` of :func:`homodyne_outcomes`."""
    outcomes = homodyne_outcomes(state, phi)
    if not (isinstance(index, (int, np.integer)) and 0 <= index < len(outcomes)):
        raise ValueError(f"no peak with index {index!r}")
    return outcomes[int(index)]


def _dense(state: HybridState, weights, keep=slice(None)) -> np.ndarray:
    """2**n amplitudes from branches ``keep``, added (a -0.0 weight lands as +0.0)."""
    amps = np.zeros(2**state.qubit_count, dtype=np.complex128)
    np.add.at(amps, state.bits[keep], weights)
    return amps


def _project_at(state: HybridState, phi: float, x: float, idx: np.ndarray) -> QubitState:
    """Branches ``idx`` (ascending) weighted by their overlaps at x, renormalized."""
    overlaps = quadrature_overlap(x, state.bus[idx], phi)
    amps = _dense(state, state.coeff[idx] * overlaps, idx)
    return QubitState(state.qubit_count, amps, normalize=True)


@dataclass(frozen=True)
class BucketOutcome:
    probability: float
    posterior: QubitState | None


def measure_bucket(state: HybridState) -> BucketOutcome:
    """Photon detection on the bus: the vacuum outcome.

    Vacuum keeps the branches whose bus amplitude is zero (within
    ``BUS_TOL``); the reported probability is the exact vacuum weight
    including the exponentially small contribution of displaced branches.
    A click is the heralded-unknown-phase mixture, whose per-n components
    :func:`_photon_components` lists.
    """
    _check_normalized(state)
    p_vac, posterior = _photon_projection(state, 0)
    keep = np.abs(state.bus) <= BUS_TOL
    if keep.any():
        amps = _dense(state, state.coeff[keep], keep)
        posterior = QubitState(state.qubit_count, amps, normalize=True)
    return BucketOutcome(p_vac, posterior)


def _photon_projection(state: HybridState, n: int):
    """Exact weight and posterior of the photon-number outcome n."""
    b = state.bus
    absb = np.abs(b)
    if n == 0:
        log_mag = -0.5 * absb**2
    else:  # a bus within BUS_TOL of 0 is the vacuum, as measure_bucket keeps it
        with np.errstate(divide="ignore"):
            log_mag = -0.5 * absb**2 + n * np.where(absb > BUS_TOL, np.log(absb), -np.inf)
        log_mag = log_mag - 0.5 * math.lgamma(n + 1)
    phase = n * np.angle(b)
    top = float(np.max(log_mag))
    if top == -math.inf:
        return 0.0, None
    w = np.exp(log_mag - top + 1j * phase)
    amps = _dense(state, state.coeff * w)
    nrm2 = float(np.vdot(amps, amps).real)
    prob = nrm2 * math.exp(2.0 * top)
    if nrm2 == 0.0:
        return prob, None
    return prob, QubitState(state.qubit_count, amps / math.sqrt(nrm2))


def _photon_components(state: HybridState):
    """Yield a click's (n, probability, posterior) for n = 1, 2, ... until less
    than ``TAIL_TOL`` of the weight is left past the largest mean photon number."""
    lam = float(np.max(np.abs(state.bus)) ** 2)
    n_max = int(lam + 12.0 * math.sqrt(lam + 1.0) + 25.0)
    total = 0.0
    for n in range(n_max + 1):
        pn, post = _photon_projection(state, n)
        if n > 0 and post is not None:
            yield n, pn, post
        total += pn
        if 1.0 - total < TAIL_TOL and n > lam:
            return


# ---------------------------------------------------------------------------
# disentanglement


def bus_spread(state: HybridState) -> float:
    """Largest pairwise distance between branch bus amplitudes."""
    b = np.sort(state.bus)
    b = b[np.concatenate(([True], b[1:] != b[:-1]))]
    best = 0.0
    for i in range(0, b.size, 512):
        chunk = b[i : i + 512]
        best = max(best, float(np.max(np.abs(chunk[None, :] - b[:, None]))))
    return best


def extract_qubits(state: HybridState) -> QubitState:
    """Drop a bus that is no longer entangled with the register.

    Requires the branch bus amplitudes to agree within ``BUS_TOL``; the common
    coherent factor carries no relative phase, so the register amplitudes
    are just the branch coefficients, renormalized.
    """
    spread = bus_spread(state)
    if spread >= BUS_TOL:
        raise ValueError(
            f"bus still entangled with the register (spread {spread:.3e} >= {BUS_TOL:.3e})"
        )
    return QubitState(state.qubit_count, _dense(state, state.coeff), normalize=True)

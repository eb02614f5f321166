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
import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "phase_form",
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
# OpenBLAS threads a dot over more than 10 000 elements, and then its sum
# depends on the thread count; a dot of DOT_CHUNK elements runs on one thread
DOT_CHUNK = 1 << 13


def chunked_dot(dot, a, b):
    """``dot(a, b)`` along the last axis as the sum, from left to right, of
    ``dot`` over fixed chunks of DOT_CHUNK elements of both.

    Each chunk's dot runs on one BLAS thread, so the bytes do not depend on
    the thread count, and no dot waits for an idle thread to wake: on a
    2-vCPU Xeon, after 2 ms idle, ``np.linalg.norm`` of 2**14 amplitudes took
    a median 14 ms on two threads and 34 us on one.  At most DOT_CHUNK
    elements make the one call ``dot(a, b)``.
    """
    if a.shape[-1] <= DOT_CHUNK:
        return dot(a, b)
    total = dot(a[..., :DOT_CHUNK], b[..., :DOT_CHUNK])
    for lo in range(DOT_CHUNK, a.shape[-1], DOT_CHUNK):
        total = total + dot(a[..., lo:lo + DOT_CHUNK], b[..., lo:lo + DOT_CHUNK])
    return total


def _norm(amps: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, the root of its real and its
    imaginary part's dots, each through :func:`chunked_dot`."""
    re, im = amps.real, amps.imag
    return math.sqrt(chunked_dot(np.dot, re, re) + chunked_dot(np.dot, im, im))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One BLAS dot per row: a stacked matmul of (1 x k) by (k x 1) views."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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
        nrm = _norm(amps)
        if normalize:
            if nrm == 0:
                raise ValueError("cannot normalize the zero vector")
            if not math.isfinite(nrm):
                raise ValueError(f"cannot normalize amplitudes of norm {nrm!r}")
            amps = amps / nrm
        elif not abs(nrm - 1.0) <= 1e-6:  # a NaN norm fails too
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
    return float(abs(chunked_dot(np.vdot, a.amplitudes, b.amplitudes)) ** 2)


def z_phase_action(amps, patterns, n: int, qubit: int, angle: float) -> np.ndarray:
    """Amplitudes of the bit ``patterns`` after diag(1, e^{i angle}) on one of n
    qubits.  No norm check: the correction solver phases part of a register.
    The exponential of each bit value is taken once and gathered by bit."""
    _check_qubit(qubit, n)
    return amps * np.exp(1j * angle * np.arange(2))[(patterns >> (n - 1 - qubit)) & 1]


class HybridState:
    """Superposition of (bit-pattern, coefficient, bus amplitude) branches.

    One branch per bit pattern, sorted by pattern: the constructor rejects a
    repeated pattern and drops zero coefficients.  Patterns that arrive
    strictly increasing, as every operation passes them, are copied, not
    sorted.  Instances are treated as immutable: every operation returns a
    new state.
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
        if not np.isfinite(bus).all():
            raise ValueError("bus amplitudes must be finite")
        increasing = bool((bits[1:] > bits[:-1]).all())
        if increasing:
            bits, coeff, bus = bits.copy(), coeff.copy(), bus.copy()
        else:
            order = np.argsort(bits, kind="stable")
            bits, coeff, bus = bits[order], coeff[order], bus[order]
        if bits[0] < 0 or bits[-1] >= 2**qubit_count:
            raise ValueError("bit pattern out of range for register size")
        if not increasing:
            repeated = np.flatnonzero(bits[1:] == bits[:-1])
            if repeated.size:
                raise ValueError(f"bit pattern {int(bits[repeated[0]])} appears more than once")
        keep = coeff != 0
        if not keep.all():
            if not keep.any():
                raise ValueError("all coefficients are zero; zero state")
            bits, coeff, bus = bits[keep], coeff[keep], bus[keep]
        self.qubit_count = qubit_count
        self.bits = bits
        self.coeff = coeff
        self.bus = bus

    def branch_count(self) -> int:
        return int(self.bits.size)

    def norm(self) -> float:
        return _norm(self.coeff)

    def __repr__(self):
        return f"HybridState(n={self.qubit_count}, branches={self.branch_count()})"


def _check_qubit(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for {n}-qubit register")


def _check_normalized(state: HybridState) -> None:
    nrm = state.norm()
    if not abs(nrm - 1.0) <= 1e-6:  # a NaN norm fails too
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


def phase_form(n: int, steps):
    """(global, h, J) of a closed program of (qubit | None, beta) steps, else None.

    A step closes the first open displacement of its own qubit (or of the
    bus, for None) equal to its negation, else opens one; the program is
    closed when none is left open.  Then every branch's displacements cancel
    (:func:`run_displacement_program` closes a branch's opposite value
    whichever qubit opened it, which leaves nothing open either), its bus
    returns to its start, and the register picks up
    exp(i (global + sum_a h_a Z_a + sum_{a<b} J_ab Z_a Z_b)) whatever the
    start.  Step k adds Im(beta_k conj(beta_j)) for every step j still open:
    to J_ab when j and k are on qubits a != b, to h_a when one of them is on
    the bus, and to the global phase when both are on one qubit or on the bus
    (a closed pair's terms cancel, so only open steps add).  Zero terms are
    left out, so h and J hold only what met a nonzero area.  A non-finite
    displacement makes no phase form.  Cost: O(steps * open displacements).
    """
    held, glob, h, J = {}, 0.0, {}, {}  # qubit | None -> open displacements in opening order
    for q, beta in steps:
        if q is not None:
            _check_qubit(q, n)
        beta = complex(beta)
        if not cmath.isfinite(beta):
            return None
        for a, values in held.items():
            for v in values:
                x = (beta * v.conjugate()).imag
                if x == 0.0:
                    continue
                if a == q:
                    glob += x
                elif a is None or q is None:
                    k = q if a is None else a
                    h[k] = h.get(k, 0.0) + x
                else:
                    pair = (min(a, q), max(a, q))
                    J[pair] = J.get(pair, 0.0) + x
        mine = held.setdefault(q, [])
        if -beta in mine:
            mine.remove(-beta)
            if not mine:
                del held[q]
        else:
            mine.append(beta)
    return None if held else (glob, h, J)


@functools.cache
def _bit_counts() -> np.ndarray:
    """Set bits of every 16-bit pattern (uint8), built on first use."""
    byte = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)
    return (byte[:, None] + byte[None, :]).reshape(-1)


def _parity_passes(pairs) -> dict:
    """Per pair (a, b), a < b: the pass that reads Z_a Z_b's parity, and the
    qubit whose bit holds it there.  A ("distance", d) pass XORs the patterns
    with themselves shifted by d, so b's bit holds a ^ b for every pair at
    distance d; a ("vertex", v) pass XORs them with v's bit, so the other
    end's bit holds the parity for every pair at v.  Every pair goes by its
    distance (one pass for a chain), or by its busier end (one for a star),
    whichever takes fewer passes."""
    by_distance = {(a, b): (("distance", b - a), b) for a, b in pairs}
    degree = collections.Counter(itertools.chain.from_iterable(pairs))
    by_vertex = {(a, b): (("vertex", a), b) if degree[a] >= degree[b] else (("vertex", b), a)
                 for a, b in pairs}
    passes = lambda rule: len({key for key, _ in rule.values()})
    return by_distance if passes(by_distance) <= passes(by_vertex) else by_vertex


def _pass_bits(bits: np.ndarray, n: int, key) -> np.ndarray:
    kind, k = key
    if kind == "distance":
        return bits ^ (bits >> k)
    if kind == "vertex":
        return bits ^ -((bits >> (n - 1 - k)) & 1)
    return bits


def _run_phase_form(state: HybridState, form) -> HybridState:
    """A closed program run from its :func:`phase_form`: each branch's
    coefficient times exp(i phase), its bus the start plus 0j (the kernel's
    bytes, a -0.0 part landing as +0.0).

    With Z = 1 - 2x for a term's odd bit x (a's bit for h_a, a ^ b for
    J_ab), the phase is global + sum c - 2 sum c x.  Terms of equal value c
    form a group, whose part is c times its count of odd terms; the counts
    are popcounts of masked patterns, one per pass of :func:`_parity_passes`
    (h terms read the patterns as they are).  Each group's factor is
    gathered from the exponentials of its count's few values.
    """
    glob, h, J = form
    n, bits = state.qubit_count, state.bits
    terms = [(c, ("bits", 0), a) for a, c in h.items()]
    terms += [(J[pair], key, r) for pair, (key, r) in _parity_passes(list(J)).items()]
    groups = {}  # value -> pass key -> mask of the bits that hold its terms' parities
    for c, key, r in terms:
        masks = groups.setdefault(c, {})
        masks[key] = masks.get(key, 0) | 1 << (n - 1 - r)
    table, passes = _bit_counts(), {}
    w = np.full(bits.size, cmath.exp(1j * (glob + sum(c for c, _, _ in terms))))
    for c, masks in groups.items():
        count = np.zeros(bits.size, dtype=np.int64)  # the group's odd terms per branch
        for key, mask in masks.items():
            if key not in passes:
                passes[key] = _pass_bits(bits, n, key)
            for shift in range(0, mask.bit_length(), 16):
                if chunk := (mask >> shift) & 0xFFFF:
                    count += table.take((passes[key] >> shift) & chunk)
        size = sum(mask.bit_count() for mask in masks.values())
        w *= np.exp(-2j * c * np.arange(size + 1)).take(count)
    return HybridState(n, bits, state.coeff * w, state.bus + 0j)


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
    and weights are the summed |c|**2 of the member branches.  Peak k's
    decision window runs between the midpoints to its neighbours.
    """

    phi: float
    peaks: tuple
    # set by homodyne_pdf: per member branch, peak by peak in pattern order,
    # its peak and its branch index
    _branches: tuple | None = field(default=None, repr=False, compare=False)

    # computed once per model; a frozen dataclass still has an instance dict
    @functools.cached_property
    def _masses(self) -> np.ndarray:
        return _window_masses(np.array([p.center for p in self.peaks], dtype=np.float64),
                              np.array([p.weight for p in self.peaks], dtype=np.float64))

    def window_probability(self, index: int) -> float:
        """Chance of the outcome landing in peak ``index``'s window (all tails)."""
        _check_peak_index(index, len(self.peaks))
        return float(self._masses[index])


def _check_peak_index(index, count: int) -> None:
    if isinstance(index, bool) or not (isinstance(index, (int, np.integer)) and 0 <= index < count):
        raise ValueError(f"no peak with index {index!r}")


_erfc = np.frompyfunc(math.erfc, 1, 1)
# window masses are summed in blocks of windows of about this many terms
_WINDOW_BLOCK_TERMS = 1 << 14


def _window_masses(centers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every window's mass: the sum over peaks j, added one by one in peak
    order, of w_j (Phi(hi - c_j) - Phi(lo - c_j)), in blocks of windows.

    A peak with lo - c > 9 has both CDFs round to 1.0, and one with
    hi - c < -40 has both underflow to 0.0, so its term is exactly 0.0 and
    the sum skips it.  With the centres in order, the other peaks of a
    window are one band, found by ``searchsorted``; otherwise every peak is
    in every band.  A band may also hold a peak within rounding of those
    cut-offs, or any peak in the second case, but that term is 0.0 too and
    leaves the sum unchanged (for finite weights).  Each CDF is libm's erfc
    of its own argument, as a scalar loop takes it.
    """
    count = centers.size
    bounds = np.concatenate(([-math.inf], (centers[:-1] + centers[1:]) / 2, [math.inf]))
    if (centers[1:] >= centers[:-1]).all() and (bounds[1:] >= bounds[:-1]).all():
        start = np.searchsorted(centers, bounds[:-1] - 9.0)
        width = np.searchsorted(centers, bounds[1:] + 40.0, "right") - start
    else:
        start, width = np.zeros(count, dtype=np.int64), np.full(count, count)
    per_block = max(1, _WINDOW_BLOCK_TERMS // max(int(width.max(initial=0)), 1))
    masses = np.empty(count)
    for k0 in range(0, count, per_block):
        k = slice(k0, k0 + per_block)
        masses[k] = _band_sums(bounds[k0:k0 + per_block + 1], centers, weights, start[k], width[k])
    return masses


def _band_sums(bounds, centers, weights, start, width) -> np.ndarray:
    """Masses of the windows between consecutive ``bounds``, window i summing
    the peaks start[i] .. start[i] + width[i] - 1.

    The CDFs at a boundary are worked out once, over the bands of the
    windows on both sides.  Terms add along each row in peak order
    (``add.accumulate`` is a running sum); the +0.0 past a band's end, and a
    final +0.0, leave the sum as a running sum from 0.0 has it."""
    if not width.any():
        return np.zeros(start.size)
    end = start + width
    first = np.minimum(np.concatenate((start[:1], start)), np.concatenate((start, start[-1:])))
    last = np.maximum(np.concatenate((end[:1], end)), np.concatenate((end, end[-1:])))
    size = np.maximum(last - first, 0)
    offset = np.cumsum(size) - size
    peak = np.arange(size.sum()) - np.repeat(offset - first, size)
    arg = -(np.repeat(bounds, size) - centers[peak]) / math.sqrt(2.0)
    cdf = 0.5 * _erfc(arg).astype(np.float64)
    band = np.arange(int(width.max()))
    hi = cdf.take((offset[1:] + start - first[1:])[:, None] + band, mode="clip")
    lo = cdf.take((offset[:-1] + start - first[:-1])[:, None] + band, mode="clip")
    terms = weights.take(start[:, None] + band, mode="clip") * (hi - lo)
    terms[band >= width[:, None]] = 0.0
    return np.add.accumulate(terms, axis=1)[:, -1] + 0.0


def homodyne_pdf(state: HybridState, phi: float) -> PeakModel:
    """Group branches into quadrature peaks for the X(phi) measurement: the
    centre-sorted branches split where adjacent centres differ by more than
    ``PEAK_GROUP_TOL``.

    The peaks of one size are worked out together, one pass per size: a
    (peaks x size) array of member branches in centre order gives the
    centres by ``np.mean`` along its rows, and the same rows sorted into
    pattern (= branch) order give the weights, the members' |c|**2 added one
    by one (``add.accumulate`` is a running sum)."""
    centers = 2.0 * np.real(state.bus * cmath.exp(-1j * phi))
    power = state.coeff.real**2 + state.coeff.imag**2
    order = np.argsort(centers, kind="stable")
    cuts = np.flatnonzero(np.diff(centers[order]) > PEAK_GROUP_TOL) + 1
    bounds = np.concatenate(([0], cuts, [order.size]))
    sizes = np.diff(bounds)
    center, weight = np.empty(sizes.size), np.empty(sizes.size)
    branch = np.empty_like(order)  # peak by peak, in pattern order
    for size in set(sizes.tolist()):
        peak = np.flatnonzero(sizes == size)
        slots = bounds[peak, None] + np.arange(size)
        center[peak] = np.mean(centers[order[slots]], axis=1)
        branch[slots] = np.sort(order[slots], axis=1)
        weight[peak] = np.add.accumulate(power[branch[slots]], axis=1)[:, -1]
    patterns = state.bits[branch].tolist()
    peaks = tuple(Peak(c, w, frozenset(patterns[a:b])) for c, w, a, b in
                  zip(center.tolist(), weight.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()))
    return PeakModel(phi, peaks, (np.repeat(np.arange(sizes.size), sizes), branch))


@dataclass(frozen=True)
class HomodyneOutcome:
    probability: float  # window probability, tails of the other peaks included
    posterior: QubitState
    peak: Peak


def homodyne_outcomes(state: HybridState, phi: float) -> tuple[HomodyneOutcome, ...]:
    """Project on each peak of one X(phi) peak model, in peak order.

    A projection keeps the peak's branches, weights each by the quadrature
    eigenfunction overlap at the peak center and renormalizes.  The
    probability is the window mass, tails of the other peaks included."""
    projected = _projections(state, phi)
    n = state.qubit_count
    return tuple(HomodyneOutcome(p, _wrap(n, a), peak) for p, a, peak in
                 zip(projected.masses, projected.posteriors, projected.model.peaks))


class _Projection(NamedTuple):
    model: PeakModel
    masses: list  # window masses, peak by peak
    posteriors: np.ndarray  # (peaks x 2**n), unit rows
    # per member branch, peak by peak in pattern order: its peak and its pattern
    row: np.ndarray
    patterns: np.ndarray


def _projections(state: HybridState, phi: float) -> _Projection:
    """Every peak of one X(phi) model projected at once.  Every overlap is
    one array expression, and the posteriors are divided once by a column of
    row norms."""
    _check_normalized(state)
    model = homodyne_pdf(state, phi)
    masses = model._masses.tolist()  # before the posteriors exist
    row, branch = model._branches
    patterns = state.bits[branch]
    x = np.array([peak.center for peak in model.peaks], dtype=np.float64)[row]
    amps = np.zeros((len(model.peaks), 2**state.qubit_count), dtype=np.complex128)
    # each (row, pattern) once: += adds to 0.0, so a -0.0 part lands as +0.0
    amps[row, patterns] += state.coeff[branch] * quadrature_overlap(x, state.bus[branch], phi)
    _divide_rows_by_norms(amps)
    return _Projection(model, masses, amps, row, patterns)


def homodyne_project(state: HybridState, phi: float, index: int) -> HomodyneOutcome:
    """Outcome ``index`` of :func:`homodyne_outcomes`."""
    outcomes = homodyne_outcomes(state, phi)
    _check_peak_index(index, len(outcomes))
    return outcomes[int(index)]


def _dense(state: HybridState, weights, keep=slice(None)) -> np.ndarray:
    """2**n amplitudes from branches ``keep``, added (a -0.0 weight lands as +0.0)."""
    amps = np.zeros(2**state.qubit_count, dtype=np.complex128)
    amps[state.bits[keep]] += weights  # patterns are unique
    return amps


def _divide_rows_by_norms(amps: np.ndarray) -> None:
    """Divide each row of ``amps`` in place by its norm, the bytes of
    ``QubitState(n, row, normalize=True)`` for every row, without a copy.

    A row's squared norm is the pair of BLAS dots that :func:`_norm` takes,
    over its real and its imaginary parts, one of each per row."""
    re, im = amps.real, amps.imag
    norms = np.sqrt(chunked_dot(_row_dots, re, re) + chunked_dot(_row_dots, im, im))
    if not norms.all():
        raise ValueError("cannot normalize the zero vector")
    amps /= norms[:, None]


def _wrap(n: int, amps: np.ndarray) -> QubitState:
    """A register state on unit-norm ``amps`` as they are, unchecked."""
    state = object.__new__(QubitState)
    state.qubit_count, state.amplitudes = n, amps
    return state


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
    (p_vac, posterior), = _photon_projections(state, 0, 1)
    keep = np.abs(state.bus) <= BUS_TOL
    if keep.any():
        amps = _dense(state, state.coeff[keep], keep)
        posterior = QubitState(state.qubit_count, amps, normalize=True)
    return BucketOutcome(p_vac, posterior)


# photon numbers worked out together in one pass of the click components
_PHOTON_PASS = 256


def _photon_projections(state: HybridState, first: int, stop: int):
    """Yield the exact weight and posterior of each photon-number outcome
    first .. stop - 1, from one (outcomes x branches) log-magnitude pass.

    A posterior is built when its outcome is read, so the pass stops where
    its reader stops."""
    n = np.arange(first, stop)[:, None]
    absb = np.abs(state.bus)
    vacuum = -0.5 * absb**2
    # a bus within BUS_TOL of 0 is the vacuum, as measure_bucket keeps it
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = np.where(absb > BUS_TOL, np.log(absb), -np.inf)
        half_lgamma = np.array([[0.5 * math.lgamma(k + 1)] for k in range(first, stop)])
        log_mag = np.where(n > 0, vacuum + n * log_b - half_lgamma, vacuum)
    top = np.max(log_mag, axis=1)
    # a row of -inf (no branch holds a photon) keeps its zeros: weight 0.0, no posterior
    shift = np.where(top > -math.inf, top, 0.0)[:, None]
    w = np.exp(log_mag - shift + 1j * (n * np.angle(state.bus)))
    amps = np.zeros((n.size, 2**state.qubit_count), dtype=np.complex128)
    amps[:, state.bits] += state.coeff * w  # patterns are unique: -0.0 parts land as +0.0
    # each row's <amps|amps>, the BLAS dot that np.vdot takes, one per row
    nrm2 = chunked_dot(_row_dots, amps.conj(), amps).real
    for t, norm2, a in zip(top.tolist(), nrm2.tolist(), amps):
        posterior = None if norm2 == 0.0 else QubitState(state.qubit_count, a / math.sqrt(norm2))
        yield norm2 * math.exp(2.0 * t), posterior


def _photon_components(state: HybridState):
    """Yield a click's (n, probability, posterior) for n = 1, 2, ... until less
    than ``TAIL_TOL`` of the weight is left past the largest mean photon number.
    The photon numbers are worked out in passes of up to ``_PHOTON_PASS``."""
    lam = float(np.max(np.abs(state.bus)) ** 2)
    n_max = int(lam + 12.0 * math.sqrt(lam + 1.0) + 25.0)
    total = 0.0
    for first in range(0, n_max + 1, _PHOTON_PASS):
        stop = min(first + _PHOTON_PASS, n_max + 1)
        for n, (pn, post) in enumerate(_photon_projections(state, first, stop), first):
            if n > 0 and post is not None:
                yield n, pn, post
            total += pn
            if 1.0 - total < TAIL_TOL and n > lam:
                return


# ---------------------------------------------------------------------------
# disentanglement


def bus_spread(state: HybridState) -> float:
    """Largest pairwise distance between branch bus amplitudes: 0.0 at once
    when every bus equals the first (a NaN equals nothing, so it is sorted)."""
    if (state.bus == state.bus[0]).all():
        return 0.0
    b = np.sort(state.bus)
    b = b[np.concatenate(([True], b[1:] != b[:-1]))]
    best = 0.0
    for i in range(0, b.size, 512):
        chunk = b[i : i + 512]
        best = float(np.maximum(best, np.max(np.abs(chunk[None, :] - b[:, None]))))  # NaN stays
    return best


def extract_qubits(state: HybridState) -> QubitState:
    """Drop a bus that is no longer entangled with the register.

    Requires the branch bus amplitudes to agree within ``BUS_TOL``; the common
    coherent factor carries no relative phase, so the register amplitudes
    are just the branch coefficients, renormalized.
    """
    spread = bus_spread(state)
    if not spread < BUS_TOL:
        raise ValueError(
            f"bus still entangled with the register (spread {spread:.3e} >= {BUS_TOL:.3e})"
        )
    amps = _dense(state, state.coeff)
    _divide_rows_by_norms(amps[None])
    return _wrap(state.qubit_count, amps)

"""Hybrid qubit+bus simulator: branch evolution, measurements, overlaps.

Cross-validation strategy: every closed-form branch rule is checked against
a dense truncated-number-basis simulation (FockOracle), and the measurement
models against direct quadrature integrals.
"""

import cmath
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubuslab import busim, gates
from qubuslab.busim import (
    HybridState,
    PhysicalParams,
    QubitState,
    apply_conditional_rotation,
    attach_bus,
    bus_spread,
    extract_qubits,
    fidelity,
    homodyne_pdf,
    homodyne_project,
    init_plus_state,
    measure_bucket,
    quadrature_overlap,
    run_displacement_program,
)


def basis_state(n, bits):
    """The register state |bits> of n qubits."""
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[bits] = 1.0
    return QubitState(n, amps)


def two_qubit_rotated(alpha=2.0, theta=0.4):
    state = init_plus_state(2, alpha)
    state = apply_conditional_rotation(state, 0, theta)
    return apply_conditional_rotation(state, 1, theta)



def _branch_map(state):
    """pattern -> (coefficient, bus) of every branch."""
    return {b: (c, u) for b, c, u in
            zip(state.bits.tolist(), state.coeff.tolist(), state.bus.tolist())}

class TestPhysicalParams:
    def test_derived_fields_exact(self):
        p = PhysicalParams.from_coupling(g=1.2e6, delta=3.0e9, t_int=2.0e-6)
        assert p.chi == 1.2e6**2 / 3.0e9
        assert p.theta == p.chi * p.t_int

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError):
            PhysicalParams(g=1.0, delta=1.0, chi=2.0, t_int=1.0, theta=2.0)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            PhysicalParams.from_coupling(g=1.0, delta=0.0, t_int=1.0)


class TestInitPlusState:
    def test_two_qubits(self):
        state = init_plus_state(2, 1.5 + 0.5j)
        assert state.branch_count() == 4
        assert_allclose(state.coeff, 0.5)
        assert_allclose(state.bus, 1.5 + 0.5j)

    def test_vacuum_bus_single_qubit(self):
        state = init_plus_state(1, 0.0)
        assert _branch_map(state) == {
            0: (pytest.approx(1 / math.sqrt(2)), 0j),
            1: (pytest.approx(1 / math.sqrt(2)), 0j),
        }

    def test_norm_is_one(self):
        assert init_plus_state(3, 2.0 - 1.0j).norm() == pytest.approx(1.0, abs=1e-12)

    def test_empty_register_rejected(self):
        with pytest.raises(ValueError):
            init_plus_state(0, 1.0)


class TestConditionalRotation:
    def test_reproduces_split_branch_buses(self):
        """Two per-qubit kicks of theta rotate |00> by +2 theta and |11> by -2."""
        alpha, theta = 2.0, 0.4
        state = two_qubit_rotated(alpha, theta)
        buses = {b: u for b, (_, u) in _branch_map(state).items()}
        assert buses[0] == pytest.approx(alpha * np.exp(2j * theta))
        assert buses[1] == pytest.approx(alpha)
        assert buses[2] == pytest.approx(alpha)
        assert buses[3] == pytest.approx(alpha * np.exp(-2j * theta))

    def test_zero_angle_is_identity(self):
        state = init_plus_state(2, 1.0)
        rotated = apply_conditional_rotation(state, 0, 0.0)
        assert_allclose(rotated.bus, state.bus)
        assert_allclose(rotated.coeff, state.coeff)

    def test_rotations_compose(self):
        state = init_plus_state(2, 1.3)
        once = apply_conditional_rotation(state, 1, 0.7)
        twice = apply_conditional_rotation(
            apply_conditional_rotation(state, 1, 0.3), 1, 0.4
        )
        assert_allclose(twice.bus, once.bus, atol=1e-12)
        assert_allclose(twice.coeff, once.coeff, atol=1e-12)

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            apply_conditional_rotation(init_plus_state(2, 1.0), 2, 0.1)


class TestConditionalDisplacement:
    def test_zero_is_identity(self):
        state = init_plus_state(2, 0.4)
        moved = run_displacement_program(state, [(0, 0.0)])
        assert_allclose(moved.bus, state.bus)
        assert_allclose(moved.coeff, state.coeff)

    def test_vacuum_start_real_kick(self):
        state = init_plus_state(1, 0.0)
        moved = run_displacement_program(state, [(0, 0.8)])
        branches = _branch_map(moved)
        assert branches[0] == (pytest.approx(1 / math.sqrt(2)), pytest.approx(0.8))
        assert branches[1] == (pytest.approx(1 / math.sqrt(2)), pytest.approx(-0.8))

    @pytest.mark.parametrize(
        "b1,b2,start",
        [
            (0.37 + 0.21j, (1j * math.pi / 8.0) / np.conj(0.37 + 0.21j), 0.6 - 0.3j),
            (1.1 - 0.4j, -0.3 + 0.9j, 0.0),
            (0.05j, 2.0, -1.4 + 2.2j),
        ],
    )
    def test_four_step_loop_phases(self, b1, b2, start):
        """A closed displacement loop leaves exactly the area phase per branch."""
        state = attach_bus(QubitState.plus(2), start)
        for qubit, beta in ((0, b1), (1, b2), (0, -b1), (1, -b2)):
            state = run_displacement_program(state, [(qubit, beta)])
        assert bus_spread(state) < 1e-12
        assert_allclose(state.bus, start, atol=1e-12)
        area = 2.0 * np.imag(np.conj(b1) * b2)
        for bits, (coeff, _) in _branch_map(state).items():
            s0 = 1 - 2 * ((bits >> 1) & 1)
            s1 = 1 - 2 * (bits & 1)
            assert coeff / 0.5 == pytest.approx(np.exp(1j * area * s0 * s1), abs=1e-12)


class TestUnconditionalDisplacement:
    def test_back_displacement_reaches_vacuum(self):
        alpha, theta = 2.0, 0.4
        state = run_displacement_program(two_qubit_rotated(alpha, theta), [(None, -alpha)])
        buses = {b: u for b, (_, u) in _branch_map(state).items()}
        assert buses[0] == pytest.approx(alpha * (np.exp(2j * theta) - 1))
        assert buses[3] == pytest.approx(alpha * (np.exp(-2j * theta) - 1))
        assert abs(buses[1]) < 1e-12 and abs(buses[2]) < 1e-12

    def test_zero_identity(self):
        state = two_qubit_rotated()
        moved = run_displacement_program(state, [(None, 0.0)])
        assert_allclose(moved.coeff, state.coeff)

    def test_there_and_back_restores_buses(self):
        state = two_qubit_rotated()
        there = run_displacement_program(state, [(None, 1.1 - 0.7j)])
        back = run_displacement_program(there, [(None, -1.1 + 0.7j)])
        assert_allclose(back.bus, state.bus, atol=1e-12)
        # relative branch phases cancel; only a global phase may remain
        ratios = back.coeff / state.coeff
        assert_allclose(ratios, ratios[0], atol=1e-12)


class TestOverlapConventions:
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, 0.9])
    def test_quadrature_overlap_consistent_with_coherent(self, phi):
        """Integrating <gamma|x><x|beta> over x must give the closed-form <gamma|beta>."""
        from scipy.integrate import quad

        beta, gamma = 0.7 + 0.3j, -0.2 + 0.5j

        def integrand(x, part):
            val = np.conj(quadrature_overlap(x, gamma, phi)) * quadrature_overlap(
                x, beta, phi
            )
            return val.real if part == 0 else val.imag

        re, _ = quad(integrand, -30, 30, args=(0,), epsabs=1e-13)
        im, _ = quad(integrand, -30, 30, args=(1,), epsabs=1e-13)
        closed = np.exp(-abs(gamma) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(gamma) * beta)
        assert re + 1j * im == pytest.approx(complex(closed), abs=1e-9)


class TestHomodynePdf:
    def test_three_peak_structure(self):
        alpha, theta = 2.0, 0.4
        model = homodyne_pdf(two_qubit_rotated(alpha, theta), math.pi / 2)
        centers = [p.center for p in model.peaks]
        weights = [p.weight for p in model.peaks]
        sep = 2.0 * alpha * math.sin(2.0 * theta)
        assert_allclose(centers, [-sep, 0.0, sep], atol=1e-9)
        assert_allclose(weights, [0.25, 0.5, 0.25], atol=1e-12)
        assert model.peaks[1].members == frozenset({1, 2})

    def test_single_branch_single_peak(self):
        state = attach_bus(basis_state(2, 3), 1.2 + 0.8j)
        model = homodyne_pdf(state, 0.35)
        assert len(model.peaks) == 1
        assert model.peaks[0].center == pytest.approx(
            2.0 * np.real((1.2 + 0.8j) * np.exp(-0.35j))
        )
        assert model.peaks[0].weight == pytest.approx(1.0)

    def test_five_peak_three_qubit_pattern(self):
        alpha, theta = 3.0, 0.3
        state = init_plus_state(3, alpha)
        for qubit, mult in ((0, 1.0), (1, 1.0), (2, -2.0)):
            state = apply_conditional_rotation(state, qubit, mult * theta)
        model = homodyne_pdf(state, math.pi / 2)
        weights = [p.weight for p in model.peaks]
        centers = [p.center for p in model.peaks]
        assert_allclose(weights, [0.125, 0.25, 0.25, 0.25, 0.125], atol=1e-12)
        expected = [2.0 * alpha * math.sin(k * theta) for k in (-4, -2, 0, 2, 4)]
        assert_allclose(centers, expected, atol=1e-9)

    def test_weights_invariant_under_global_displacement(self):
        state = two_qubit_rotated()
        before = [p.weight for p in homodyne_pdf(state, 0.2).peaks]
        moved = run_displacement_program(state, [(None, 2.5 - 1.0j)])
        after = [p.weight for p in homodyne_pdf(moved, 0.2).peaks]
        assert_allclose(after, before, atol=1e-12)

    def test_weights_sum_to_one(self):
        model = homodyne_pdf(two_qubit_rotated(3.0, 0.2), 1.1)
        assert sum(p.weight for p in model.peaks) == pytest.approx(1.0, abs=1e-9)


class TestHomodyneProject:
    def test_central_peak_heralds_odd_bell(self):
        out = homodyne_project(two_qubit_rotated(30.0, 0.4), math.pi / 2, 1)
        target = QubitState(2, np.array([0, 1, 1, 0]) / math.sqrt(2))
        assert fidelity(out.posterior, target) == pytest.approx(1.0, abs=1e-12)
        assert out.probability == pytest.approx(0.5, abs=1e-9)

    def test_side_peak_heralds_product(self):
        out = homodyne_project(two_qubit_rotated(30.0, 0.4), math.pi / 2, 2)
        assert fidelity(out.posterior, basis_state(2, 0)) == pytest.approx(1.0)
        assert out.probability == pytest.approx(0.25, abs=1e-9)

    def test_tail_leakage_at_small_separation(self):
        """Overlapping peaks cost the window the documented erfc mass."""
        alpha, theta = 3.0, 0.4
        out = homodyne_project(two_qubit_rotated(alpha, theta), math.pi / 2, 1)
        gap = 2.0 * alpha * math.sin(2 * theta)
        leak = 0.5 * math.erfc(gap / (2.0 * math.sqrt(2.0)))
        expected = 0.5 * (1.0 - 2.0 * leak) + 2.0 * 0.25 * leak
        assert out.probability == pytest.approx(expected, rel=1e-9)

    def test_window_probabilities_sum_to_one(self):
        state = two_qubit_rotated(2.0, 0.3)
        model = homodyne_pdf(state, math.pi / 2)
        total = sum(model.window_probability(i) for i in range(len(model.peaks)))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bad_peak_index_rejected(self):
        """Only a peak index selects an outcome; a quadrature value is refused."""
        for index in (7, -1, 1.0):
            with pytest.raises(ValueError, match="no peak with index"):
                homodyne_project(two_qubit_rotated(), math.pi / 2, index)


class TestMeasureBucket:
    def test_vacuum_outcome_heralds_odd_bell(self):
        alpha, theta = 2.0, 0.4
        state = run_displacement_program(two_qubit_rotated(alpha, theta), [(None, -alpha)])
        out = measure_bucket(state)
        target = QubitState(2, np.array([0, 1, 1, 0]) / math.sqrt(2))
        assert fidelity(out.posterior, target) == pytest.approx(1.0, abs=1e-12)
        overlap = math.exp(-4.0 * alpha**2 * math.sin(theta) ** 2)
        assert out.probability == pytest.approx(0.5 + 0.5 * overlap, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_resolved_outcome_parity(self, n):
        """Photon parity fixes the relative sign of |00> and |11>."""
        alpha, theta = 2.0, 0.4
        state = run_displacement_program(two_qubit_rotated(alpha, theta), [(None, -alpha)])
        components = busim._photon_components(state)
        amps = {m: post for m, _, post in components}[n].amplitudes
        assert abs(amps[1]) < 1e-12 and abs(amps[2]) < 1e-12
        ratio = amps[3] / amps[0]
        # magnitudes equal; the parity shows up after removing the known
        # branch phases, checked exactly in the gates layer via corrections
        assert abs(ratio) == pytest.approx(1.0, abs=1e-12)

    def test_resolved_probabilities_sum_to_one(self):
        alpha, theta = 1.5, 0.5
        state = run_displacement_program(two_qubit_rotated(alpha, theta), [(None, -alpha)])
        total = measure_bucket(state).probability
        total += sum(p for _, p, _ in busim._photon_components(state))
        assert total == pytest.approx(1.0, abs=1e-9)


def _ref_photon_projection(state, n):
    """Weight and posterior of photon number n, one number at a time: the
    per-number projection that the one-pass photon numbers replaced."""
    absb = np.abs(state.bus)
    if n == 0:
        log_mag = -0.5 * absb**2
    else:
        with np.errstate(divide="ignore"):
            log_mag = -0.5 * absb**2 + n * np.where(absb > busim.BUS_TOL, np.log(absb), -np.inf)
        log_mag = log_mag - 0.5 * math.lgamma(n + 1)
    top = float(np.max(log_mag))
    if top == -math.inf:
        return 0.0, None
    amps = busim._dense(state, state.coeff * np.exp(log_mag - top + 1j * (n * np.angle(state.bus))))
    nrm2 = float(np.vdot(amps, amps).real)
    prob = nrm2 * math.exp(2.0 * top)
    return prob, None if nrm2 == 0.0 else QubitState(state.qubit_count, amps / math.sqrt(nrm2))


def _ref_photon_components(state):
    lam = float(np.max(np.abs(state.bus)) ** 2)
    total = 0.0
    for n in range(int(lam + 12.0 * math.sqrt(lam + 1.0) + 25.0) + 1):
        pn, post = _ref_photon_projection(state, n)
        if n > 0 and post is not None:
            yield n, pn, post
        total += pn
        if 1.0 - total < busim.TAIL_TOL and n > lam:
            return


class TestPhotonPassMatchesPerNumberLoop:
    """A click's components from passes over photon numbers, byte for byte."""

    @pytest.mark.parametrize("alpha, theta, state", [
        (2.0, 0.4, None), (1.5, 0.5, None), (0.01, 0.3, None),
        # about 240 mean photons: the list runs on into a second pass
        (12.0, 0.7, None), (2.5, 0.45, (0.6, 0.3, 0.2j, -0.714)),
    ])
    def test_components(self, alpha, theta, state):
        if state is not None:
            state = QubitState(2, np.array(state), normalize=True)
        _, hybrid = gates._prepare(alpha, theta, state, (1, 1))
        hybrid = run_displacement_program(hybrid, [(None, -alpha)])
        got = list(busim._photon_components(hybrid))
        want = list(_ref_photon_components(hybrid))
        assert [(n, _f64(p), post.amplitudes.tobytes()) for n, p, post in got] == [
            (n, _f64(p), post.amplitudes.tobytes()) for n, p, post in want]
        vacuum = measure_bucket(hybrid)
        assert _f64(vacuum.probability) == _f64(_ref_photon_projection(hybrid, 0)[0])
        if alpha == 12.0:
            assert got[-1][0] > busim._PHOTON_PASS


class TestBusSpreadAndExtraction:
    def test_spread_of_rotated_state(self):
        alpha, theta = 2.0, 0.4
        state = two_qubit_rotated(alpha, theta)
        assert bus_spread(state) == pytest.approx(
            2.0 * alpha * math.sin(2.0 * theta), rel=1e-12
        )

    def test_spread_zero_for_fresh_state(self):
        assert bus_spread(init_plus_state(3, 1.7)) == 0.0

    def test_extract_uniform_state(self):
        out = extract_qubits(init_plus_state(2, 0.9))
        assert_allclose(out.amplitudes, 0.5)

    def test_extract_rejects_entangled_bus(self):
        with pytest.raises(ValueError):
            extract_qubits(two_qubit_rotated())


class TestNormAndMerging:
    def test_norm_preserved_by_evolution(self):
        rng = np.random.default_rng(7)
        state = init_plus_state(3, 1.0 + 0.5j)
        for _ in range(12):
            op = rng.integers(3)
            q = int(rng.integers(3))
            if op == 0:
                state = apply_conditional_rotation(state, q, rng.normal())
            elif op == 1:
                state = run_displacement_program(state, [(q, rng.normal() + 1j * rng.normal())])
            else:
                state = run_displacement_program(state, [(None, rng.normal() + 1j * rng.normal())])
        assert state.norm() == pytest.approx(1.0, abs=1e-9)
        assert state.branch_count() <= 8

    def test_measurements_reject_bad_norm(self):
        state = HybridState(1, [0, 1], [0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError, match="not normalized"):
            homodyne_project(state, math.pi / 2, 0)
        with pytest.raises(ValueError, match="not normalized"):
            measure_bucket(state)

    def test_large_amplitude_norm(self):
        """Overlaps at bus amplitudes ~1e4 must not underflow."""
        state = init_plus_state(2, 1.0e4)
        state = apply_conditional_rotation(state, 0, 1e-4)
        state = apply_conditional_rotation(state, 1, 1e-4)
        assert state.norm() == pytest.approx(1.0, abs=1e-9)
        model = homodyne_pdf(state, math.pi / 2)
        assert sum(p.weight for p in model.peaks) == pytest.approx(1.0, abs=1e-9)


class TestOneBranchPerPattern:
    """The constructor keeps one branch per bit pattern, sorted by pattern."""

    def test_repeated_pattern_rejected(self):
        with pytest.raises(ValueError, match="bit pattern 0 appears more than once"):
            HybridState(1, [0, 0], [0.6, 0.8], [0, 1])
        with pytest.raises(ValueError, match="bit pattern 2 appears more than once"):
            HybridState(2, [3, 2, 1, 2], [0.5] * 4, [0.3] * 4)

    def test_repeated_pattern_rejected_even_with_equal_bus(self):
        with pytest.raises(ValueError, match="appears more than once"):
            HybridState(1, [0, 0, 1], [0.5, 0.5, 1 / math.sqrt(2)], [0.3, 0.3, 0.3])

    def test_zero_coefficients_dropped(self):
        state = HybridState(2, [3, 0, 2, 1], [0.6, 0.0, 0.8j, 0.0], [1.0, 2.0, 3.0, 4.0])
        assert state.bits.tolist() == [2, 3]
        assert state.coeff.tolist() == [0.8j, 0.6]
        assert state.bus.tolist() == [3.0, 1.0]

    def test_all_zero_state_rejected(self):
        with pytest.raises(ValueError, match="zero state"):
            HybridState(2, [0, 3], [0.0, 0.0], [1.0, -1.0])

    def test_sorted_by_pattern_without_aliasing_inputs(self):
        bits = np.array([2, 0, 1])
        coeff = np.array([0.6, 0.0, 0.8], dtype=complex)
        bus = np.array([1.0, 2.0, 3.0], dtype=complex)
        state = HybridState(2, bits, coeff, bus)
        assert state.bits.tolist() == [1, 2]
        assert state.coeff.tolist() == [0.8, 0.6]
        state.coeff[0] = 5.0
        assert coeff.tolist() == [0.6, 0.0, 0.8]


# ---------------------------------------------------------------------------
# dense truncated-Fock reference for the branch algebra


class FockOracle:
    """Dense qubit-register x truncated-Fock simulator.

    State layout: vector of shape (2**n * dim,), index = bits * dim + k with
    k the photon number.  Same qubit conventions as busim (qubit 0 is the
    most significant bit, Z eigenvalue +1 for bit 0).
    """

    def __init__(self, n_qubits: int, fock_dim: int):
        self.n = n_qubits
        self.dim = fock_dim
        a = np.diag(np.sqrt(np.arange(1, fock_dim)), k=1)
        self._a = a
        self._num = np.diag(np.arange(fock_dim, dtype=np.float64))

    def coherent_vector(self, beta: complex) -> np.ndarray:
        ns = np.arange(self.dim)
        with np.errstate(divide="ignore"):
            logmag = -0.5 * abs(beta) ** 2 + ns * (
                math.log(abs(beta)) if beta != 0 else -math.inf
            )
        logmag -= np.array([0.5 * math.lgamma(k + 1) for k in ns])
        vec = np.exp(logmag) * np.exp(1j * ns * np.angle(beta))
        if beta == 0:
            vec = np.zeros(self.dim, dtype=np.complex128)
            vec[0] = 1.0
        return vec

    def initial_state(self, register: QubitState, alpha: complex) -> np.ndarray:
        return np.kron(register.amplitudes, self.coherent_vector(alpha))

    def displacement(self, beta: complex) -> np.ndarray:
        from scipy.linalg import expm

        return expm(beta * self._a.conj().T - np.conj(beta) * self._a)

    def rotation(self, theta: float) -> np.ndarray:
        return np.diag(np.exp(1j * theta * np.arange(self.dim)))

    def _qubit_signs(self, qubit: int) -> np.ndarray:
        bits = np.arange(2**self.n)
        return 1.0 - 2.0 * ((bits >> (self.n - 1 - qubit)) & 1)

    def _apply_conditional(self, state, qubit, op_plus, op_minus):
        psi = state.reshape(2**self.n, self.dim)
        signs = self._qubit_signs(qubit)
        out = np.empty_like(psi)
        out[signs > 0] = psi[signs > 0] @ op_plus.T
        out[signs < 0] = psi[signs < 0] @ op_minus.T
        return out.reshape(-1)

    def conditional_rotation(self, state, qubit: int, theta: float):
        return self._apply_conditional(
            state, qubit, self.rotation(theta), self.rotation(-theta)
        )

    def conditional_displacement(self, state, qubit: int, beta: complex):
        return self._apply_conditional(
            state, qubit, self.displacement(beta), self.displacement(-beta)
        )

    def unconditional_displacement(self, state, beta: complex):
        psi = state.reshape(2**self.n, self.dim)
        return (psi @ self.displacement(beta).T).reshape(-1)


def hybrid_to_dense(state: HybridState, oracle: FockOracle) -> np.ndarray:
    """Expand a branch state in the oracle's truncated joint basis."""
    out = np.zeros(2**state.qubit_count * oracle.dim, dtype=np.complex128)
    for b, c, u in zip(state.bits, state.coeff, state.bus):
        out[int(b) * oracle.dim : (int(b) + 1) * oracle.dim] += c * oracle.coherent_vector(
            complex(u)
        )
    return out


class TestFockOracleEquivalence:
    """Branch evolution against a dense truncated-number-basis simulation."""

    @staticmethod
    def _random_ops(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        alpha = complex(rng.normal() * 0.7, rng.normal() * 0.7)
        ops = []
        for _ in range(12):
            kind = int(rng.integers(3))
            q = int(rng.integers(n))
            if kind == 0:
                ops.append(("rotate", q, float(rng.uniform(-math.pi, math.pi))))
            else:
                beta = complex(rng.normal() * 0.5, rng.normal() * 0.5)
                ops.append(("cdisp" if kind == 1 else "disp", q, beta))
        return n, alpha, ops

    @staticmethod
    def _apply(state, op):
        kind, q, amount = op
        if kind == "rotate":
            return apply_conditional_rotation(state, q, amount)
        if kind == "cdisp":
            return run_displacement_program(state, [(q, amount)])
        return run_displacement_program(state, [(None, amount)])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences(self, seed):
        n, alpha, ops = self._random_ops(seed)
        # first pass records the bus excursion, which fixes the truncation:
        # the dimension is grown until the coherent tail drops below 1e-12
        state = init_plus_state(n, alpha)
        peak = float(np.max(np.abs(state.bus)) ** 2)
        for op in ops:
            state = self._apply(state, op)
            peak = max(peak, float(np.max(np.abs(state.bus)) ** 2))
        dim = 64
        while -peak + dim * math.log(max(peak, 1e-12)) - math.lgamma(dim + 1) >= math.log(1e-12):
            dim += 16
        oracle = FockOracle(n, dim)
        dense = oracle.initial_state(QubitState.plus(n), alpha)
        for op in ops:
            kind, q, amount = op
            if kind == "rotate":
                dense = oracle.conditional_rotation(dense, q, amount)
            elif kind == "cdisp":
                dense = oracle.conditional_displacement(dense, q, amount)
            else:
                dense = oracle.unconditional_displacement(dense, amount)
        reconstructed = hybrid_to_dense(state, oracle)
        overlap = abs(np.vdot(dense, reconstructed)) ** 2
        assert overlap >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# loop references for the vectorised branch kernels


def _ref_merge(bits, coeff, bus):
    """Branches sorted by pattern, zero coefficients dropped (patterns are unique)."""
    order = np.lexsort((bus.real, bus.imag, bits))
    bits, coeff, bus = bits[order], coeff[order], bus[order]
    keep = coeff != 0
    if not keep.any():
        raise ValueError("all branches cancelled; zero state")
    return bits[keep], coeff[keep], bus[keep]


def _ref_program(state, steps):
    """Per-branch, per-step loop; returns the merged (bits, coeff, bus)."""
    n = state.qubit_count
    bits = state.bits
    new_coeff = state.coeff.copy()
    new_bus = state.bus.copy()
    for i in range(bits.size):
        gamma0 = complex(state.bus[i])
        open_disp = []
        phase = 0.0
        for qubit, beta in steps:
            if qubit is None:
                d = complex(beta)
            else:
                s = 1.0 - 2.0 * ((int(bits[i]) >> (n - 1 - qubit)) & 1)
                d = s * complex(beta)
            gamma = gamma0 + sum(open_disp, start=0j)
            phase += (d * gamma.conjugate()).imag
            if -d in open_disp:
                open_disp.remove(-d)
            else:
                open_disp.append(d)
        new_coeff[i] *= cmath.exp(1j * phase)
        new_bus[i] = gamma0 + sum(open_disp, start=0j)
    return _ref_merge(bits, new_coeff, new_bus)


def _ref_spread(b):
    if b.size <= 1:
        return 0.0
    if b.size <= 1024:
        return float(np.max(np.abs(b[None, :] - b[:, None])))
    best = 0.0
    for i in range(0, b.size, 512):
        chunk = b[i : i + 512]
        best = max(best, float(np.max(np.abs(chunk[None, :] - b[:, None]))))
    return best


def _same_bytes(got, want):
    return all(
        np.asarray(g).dtype == np.asarray(w).dtype
        and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        for g, w in zip(got, want)
    )


def _random_program(rng, n, closed):
    """Steps drawn from a small pool (so values repeat), some undone at once."""
    b = float(rng.uniform(0.2, 1.5))
    pool = [b, -b, 1j * b, complex(b, -0.5 * b), rng.normal() + 1j * rng.normal(), 0.0]
    steps, opened = [], []
    for _ in range(int(rng.integers(1, 9))):
        if opened and rng.random() < 0.4:
            q, beta = opened.pop(int(rng.integers(len(opened))))
            steps.append((q, -beta))
            continue
        q = None if rng.random() < 0.25 else int(rng.integers(n))
        beta = complex(pool[int(rng.integers(len(pool)))])
        steps.append((q, beta))
        opened.append((q, beta))
    if closed:
        for k in rng.permutation(len(opened)):
            q, beta = opened[k]
            steps.append((q, -beta))
    elif opened:
        q, beta = opened[0]
        steps.append((q, 2.0 * beta + 0.25))
    return steps


def _random_hybrid(rng, n):
    size = 2**n
    if rng.random() < 0.5:
        return init_plus_state(n, complex(rng.normal(), rng.normal()) * float(rng.integers(0, 2)))
    bits = rng.choice(size, int(rng.integers(1, size + 1)), replace=False)
    coeff = rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)
    coeff[rng.random(bits.size) < 0.2] = rng.normal()
    bus = rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)
    bus[rng.random(bits.size) < 0.3] = 0.0
    return HybridState(n, bits, coeff / np.linalg.norm(coeff), bus)


class TestBranchKernelsMatchLoopReference:
    """Vectorised program, merge and spread against the per-branch loops, byte for byte."""

    @pytest.mark.parametrize("seed", range(120))
    def test_displacement_program(self, seed):
        rng = np.random.default_rng([4242, seed])
        n = int(rng.integers(1, 7))
        state = _random_hybrid(rng, n)
        steps = _random_program(rng, n, closed=bool(seed % 3))
        got = busim.run_displacement_program(state, steps)
        want = _ref_program(state, steps)
        assert _same_bytes((got.bits, got.coeff, got.bus), want)
        spread = bus_spread(got)
        assert np.float64(spread).tobytes() == np.float64(_ref_spread(want[2])).tobytes()

    @pytest.mark.parametrize("maker", [gates.chain_sequence, gates.star_sequence])
    @pytest.mark.parametrize("n", [2, 5, 8, 11])
    def test_graph_sequences(self, maker, n):
        seq, _ = maker(n, math.sqrt(math.pi / 8))
        steps = list(seq.steps)
        for bus in (0.0, 0.45 - 0.3j):
            state = attach_bus(QubitState.plus(n), bus)
            got = busim.run_displacement_program(state, steps)
            assert _same_bytes((got.bits, got.coeff, got.bus), _ref_program(state, steps))
            assert bus_spread(got) == 0.0

    def test_large_half_open_program(self):
        rng = np.random.default_rng(99)
        n = 11
        bits = np.arange(2**n)
        coeff = np.full(bits.size, 2.0 ** (-n / 2), dtype=np.complex128)
        bus = rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)
        state = HybridState(n, bits, coeff, bus)
        steps = [(0, 0.7), (3, 0.4j), (None, 0.3 - 0.2j), (3, -0.4j), (7, 1.1)]
        got = busim.run_displacement_program(state, steps)
        want = _ref_program(state, steps)
        assert _same_bytes((got.bits, got.coeff, got.bus), want)
        assert len(set(want[2].tolist())) > 1024
        assert bus_spread(got) == _ref_spread(want[2]) > 0.0

    def test_star_on_per_branch_bus(self):
        rng = np.random.default_rng(7)
        n = 9
        seq, _ = gates.star_sequence(n, math.sqrt(math.pi / 8))
        steps = list(seq.steps)
        bits = np.arange(2**n)
        bus = rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)
        state = HybridState(n, bits, np.full(bits.size, 2.0 ** (-n / 2)), bus)
        got = busim.run_displacement_program(state, steps)
        assert _same_bytes((got.bits, got.coeff, got.bus), _ref_program(state, steps))

    def test_equal_values_on_different_qubits_cancel(self):
        """A kick on one qubit closes an equal-and-opposite one opened on another."""
        n = 5
        state = attach_bus(QubitState.plus(n), 0.2 + 0.1j)
        steps = [(0, 0.5), (1, -0.5), (2, 0.5j), (None, -0.5j), (3, 0.5), (1, 0.5),
                 (4, 0.5j), (0, -0.5), (None, 0.5j), (2, -0.5j), (3, -0.5), (4, -0.5j)]
        got = busim.run_displacement_program(state, steps)
        want = _ref_program(state, steps)
        assert _same_bytes((got.bits, got.coeff, got.bus), want)
        # qubits 0 and 1 agree on half the patterns, whose kicks cancel at once
        assert bus_spread(got) == 0.0

    def test_closes_first_equal_open_value(self):
        """Of two equal open kicks the first closes, which fixes the summing order."""
        state = attach_bus(QubitState.plus(1), 0.0)
        steps = [(None, 0.1), (None, 0.2), (0, 3.0), (None, 0.3), (0, 3.0), (0, -3.0)]
        got = busim.run_displacement_program(state, steps)
        assert _same_bytes((got.bits, got.coeff, got.bus), _ref_program(state, steps))
        # bit 0 keeps 0.1, 0.2, 0.3, 3.0 open; closing the second 3.0 would sum to 3.5999…
        assert got.bus[0] == 3.6 != ((0.1 + 0.2) + 3.0) + 0.3

    def test_distinct_values_never_closed(self):
        """Every branch ends in a class of its own: one per pattern."""
        rng = np.random.default_rng(12)
        n = 10
        state = attach_bus(QubitState.plus(n), 0.0)
        steps = [(q, complex(rng.normal(), rng.normal())) for q in range(n)]
        got = busim.run_displacement_program(state, steps)
        want = _ref_program(state, steps)
        assert _same_bytes((got.bits, got.coeff, got.bus), want)
        assert len(set(want[2].tolist())) == 2**n

    # sha256 of coeff and bus bytes, computed with the slot-list kernel that
    # scanned every open displacement per step (replaced by the class kernel)
    @pytest.mark.parametrize("maker, coeff_digest", [
        (gates.chain_sequence,
         "bc284222a45f0b235247cf6d8c6f5bbd59727650268a1afd4510379fc96c298d"),
        (gates.star_sequence,
         "1cfe57840842a9d42428400b2daf892fdd981a0b2575f366931b8dc262ebc1d0"),
    ], ids=["chain", "star"])
    def test_fourteen_qubit_digests(self, maker, coeff_digest):
        seq, _ = maker(14, math.sqrt(math.pi / 8))
        state = attach_bus(QubitState.plus(14), 0.0)
        got = busim.run_displacement_program(state, list(seq.steps))
        assert hashlib.sha256(got.coeff.tobytes()).hexdigest() == coeff_digest
        assert hashlib.sha256(got.bus.tobytes()).hexdigest() == (
            "8a39d2abd3999ab73c34db2476849cddf303ce389b35826850f9a700589b4a90")

    @pytest.mark.parametrize("seed", range(60))
    def test_merge(self, seed):
        """Constructor against the old tolerance merge: equal bytes on unique patterns.

        Odd seeds repeat patterns (with buses inside and outside the old
        merge tolerance, and cancelling copies), which is now an error naming
        the smallest repeated pattern.
        """
        rng = np.random.default_rng([777, seed])
        size = int(rng.integers(1, 40))
        if seed % 2:
            bits = rng.integers(0, int(rng.integers(1, 9)), size)
        else:
            bits = rng.permutation(64)[:size]
        base = np.array([0.0, 0.5 + 0.25j, -1.0j, 2.0])[rng.integers(0, 4, size)]
        nudge = np.array([0.0, 4e-13, -9e-13, 3e-12, 2e-11])
        bus = base + nudge[rng.integers(0, 5, size)] + 1j * nudge[rng.integers(0, 5, size)]
        coeff = rng.normal(size=size) + 1j * rng.normal(size=size)
        coeff[rng.random(size) < 0.2] = 0.0
        if seed % 2:
            flip = rng.random(size) < 0.3
            bits = np.concatenate([bits, bits[flip]])
            bus = np.concatenate([bus, bus[flip]])
            coeff = np.concatenate([coeff, -coeff[flip]])
        values, counts = np.unique(bits, return_counts=True)
        if (counts > 1).any():
            first = int(values[counts > 1][0])
            with pytest.raises(ValueError, match=f"bit pattern {first} appears more than once"):
                HybridState(6, bits, coeff, bus)
            return
        try:
            want = _ref_merge(bits, coeff, bus)
        except ValueError:
            with pytest.raises(ValueError, match="zero state"):
                HybridState(6, bits, coeff, bus)
            return
        state = HybridState(6, bits, coeff, bus)
        assert _same_bytes((state.bits, state.coeff, state.bus), want)

    def test_full_cancellation_rejected(self):
        """Branches that the old merge cancelled are repeated patterns."""
        with pytest.raises(ValueError, match="bit pattern 1 appears more than once"):
            HybridState(2, [1, 1, 3, 3], [0.5, -0.5, 0.5j, -0.5j], [0.2, 0.2, 1.0, 1.0])

    @pytest.mark.parametrize("size", [1, 2, 3, 40, 700, 1500])
    def test_spread(self, size):
        rng = np.random.default_rng(size)
        bus = rng.normal(size=size) + 1j * rng.normal(size=size)
        bus = np.concatenate([bus, bus[: size // 3], [0.0, complex(-0.0, 0.0)]])
        rng.shuffle(bus)
        state = HybridState(12, np.arange(bus.size), np.ones(bus.size), bus)
        got = bus_spread(state)
        assert np.float64(got).tobytes() == np.float64(_ref_spread(state.bus)).tobytes()


def _per_branch_program(state, steps):
    """The per-branch class kernel that worked out Im(d conj(gamma)) for every
    branch at every step; the class kernel must give its bytes."""
    n = state.qubit_count
    gamma0 = state.bus
    phase = np.zeros(gamma0.size)
    cls = np.zeros(gamma0.size, dtype=np.int64)
    held, totals = [()], [0j]  # per class id
    for qubit, beta in steps:
        if qubit is None:
            bit = np.zeros(gamma0.size, dtype=np.int64)
            values = np.full(2, complex(beta))
        else:
            bit = (state.bits >> (n - 1 - qubit)) & 1
            values = np.array([1.0, -1.0]) * complex(beta)
        d = values[bit]
        gamma = gamma0 + np.array(totals)[cls]
        phase += d.real * -gamma.imag + d.imag * gamma.real
        key = 2 * cls + bit
        counts = np.bincount(key)
        trans = np.zeros(counts.size, dtype=np.int64)
        index = {}
        for k in np.flatnonzero(counts).tolist():
            prev, v = held[k >> 1], complex(values[k & 1])
            if -v in prev:
                i = prev.index(-v)
                nxt, total = prev[:i] + prev[i + 1:], 0j
                for u in nxt:
                    total += u
            else:
                nxt, total = prev + (v,), totals[k >> 1] + v
            trans[k] = index.setdefault(nxt, (len(index), total))[0]
        held, totals = list(index), [total for _, total in index.values()]
        cls = trans[key]
    w = np.exp(1j * phase)
    c = state.coeff
    coeff = np.empty_like(c)
    coeff.real = c.real * w.real - c.imag * w.imag
    coeff.imag = c.real * w.imag + c.imag * w.real
    return coeff, gamma0 + np.array(totals)[cls]


# start amplitudes that repeat, differ only in the sign of a zero part, or
# are far apart, so branches start in shared and in separate classes
_STARTS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.45 - 0.3j,
           complex(-0.0, 1.25), complex(2.5, -0.0), -3.0 + 7.5j]


def _mixed_start_state(rng, n):
    """A sparse register whose branches start from a few shared bus amplitudes."""
    size = 2**n
    bits = rng.choice(size, int(rng.integers(1, size + 1)), replace=False)
    coeff = rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)
    pool = [_STARTS[i] for i in rng.choice(len(_STARTS), int(rng.integers(1, 5)), replace=False)]
    bus = np.array([pool[i] for i in rng.integers(0, len(pool), bits.size)], dtype=np.complex128)
    if rng.random() < 0.3:  # a few branches with a start of their own
        few = rng.random(bits.size) < 0.25
        bus[few] = rng.normal(size=few.sum()) + 1j * rng.normal(size=few.sum())
    return HybridState(n, bits, coeff / np.linalg.norm(coeff), bus)


def _cross_qubit_program(rng, n):
    """Steps whose values repeat across qubits and the unconditional bus, so a
    kick on one qubit closes an opposite one opened on another, as in
    ``star_sequence(3, b)``; some loops are left open."""
    b = float(rng.uniform(0.2, 1.5))
    pool = [b, 1j * b, complex(b, -0.5 * b), complex(-0.0, b), complex(rng.normal(), rng.normal())]
    steps = []
    for _ in range(int(rng.integers(1, 12))):
        q = None if rng.random() < 0.25 else int(rng.integers(n))
        beta = pool[int(rng.integers(len(pool)))]
        steps.append((q, beta if rng.random() < 0.5 else -beta))
    return steps


class TestClassKernelMatchesPerBranchKernel:
    """run_displacement_program against the per-branch kernel, byte for byte."""

    @pytest.mark.parametrize("seed", range(150))
    def test_random_programs_mixed_starts(self, seed):
        rng = np.random.default_rng([2606, seed])
        n = int(rng.integers(1, 8))
        state = _mixed_start_state(rng, n)
        steps = (_cross_qubit_program(rng, n) if seed % 2
                 else _random_program(rng, n, closed=bool(seed % 3)))
        got = busim.run_displacement_program(state, steps)
        assert _same_bytes((got.bits, got.coeff, got.bus),
                           (state.bits, *_per_branch_program(state, steps)))

    @pytest.mark.parametrize("maker", [gates.chain_sequence, gates.star_sequence])
    @pytest.mark.parametrize("n", range(2, 15))
    def test_graph_sequences(self, maker, n):
        seq, _ = maker(n, math.sqrt(math.pi / 8))
        state = attach_bus(QubitState.plus(n), 0.0)
        got = busim.run_displacement_program(state, list(seq.steps))
        assert _same_bytes((got.coeff, got.bus), _per_branch_program(state, list(seq.steps)))


class TestZPhaseAction:
    """Two exponentials gathered by bit give exp(1j * angle * bit)'s bytes."""

    @pytest.mark.parametrize("angle", [0.0, -0.0, math.pi, -math.pi, 1e300, -1e300,
                                       0.7, -2.9, 1e8 + 0.1])
    def test_against_exponential_per_pattern(self, angle):
        rng = np.random.default_rng(11)
        for n in (1, 3, 6):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amps[: 2**n // 2] = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                                          complex(-0.0, -0.0)] * 2**n)[: 2**n // 2]
            for patterns in (np.arange(2**n), np.sort(rng.choice(2**n, 2**n // 2 + 1,
                                                                 replace=False))):
                a = amps[: patterns.size]
                for q in range(n):
                    bit = (patterns >> (n - 1 - q)) & 1
                    got = busim.z_phase_action(a, patterns, n, q, angle)
                    assert got.tobytes() == (a * np.exp(1j * angle * bit)).tobytes()


def _scalar_overlap(x, beta, phi):
    """quadrature_overlap as it was for one amplitude at a time: Python's
    complex multiply and a float64 scalar's ``** 2``."""
    b = beta * cmath.exp(-1j * phi)
    x = np.asarray(x, dtype=np.float64)
    logmag = -((x - 2.0 * b.real) ** 2) / 4.0
    phase = b.imag * x - b.imag * b.real
    return (2.0 * math.pi) ** -0.25 * np.exp(logmag + 1j * phase)


class TestProjectionMatchesPerBranchOverlaps:
    """A peak's overlaps in one expression against one amplitude at a time."""

    @pytest.mark.parametrize("seed", range(40))
    def test_project_at(self, seed):
        """Points near the branches' centres, where the overlaps neither
        underflow nor round to 1: there a square by ``*`` in place of libm's
        pow changes the bytes of a few projections."""
        rng = np.random.default_rng([315, seed])
        n = int(rng.integers(1, 7))
        scale = float(rng.choice([1e-3, 1.0, 30.0, 1e5]))
        bits = rng.choice(2**n, int(rng.integers(1, 2**n + 1)), replace=False)
        coeff = rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)
        bus = (rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)) * scale
        bus[rng.random(bits.size) < 0.3] = complex(-0.0, 0.0)
        state = HybridState(n, bits, coeff / np.linalg.norm(coeff), bus)
        phi = float(rng.choice([0.0, math.pi / 2, rng.uniform(-7, 7)]))
        idx = np.arange(state.bits.size)
        n = state.qubit_count
        centers = 2.0 * np.real(state.bus * cmath.exp(-1j * phi))
        for x in rng.choice(centers, 40) + rng.normal(size=40) * 4.0:
            overlaps = np.array([_scalar_overlap(float(x), complex(b), phi) for b in state.bus])
            assert quadrature_overlap(float(x), state.bus, phi).tobytes() == overlaps.tobytes()
            want = _ref_dense(state, state.coeff * overlaps)
            if np.linalg.norm(want) == 0.0:  # every overlap underflows
                continue
            got = _ref_project_at(state, phi, float(x), idx)
            assert got.amplitudes.tobytes() == (want / np.linalg.norm(want)).tobytes()
            # the in-place division of the batched pass gives the same bytes
            dense = busim._dense(state, state.coeff * quadrature_overlap(float(x), state.bus, phi))
            rows = np.stack([dense, dense[::-1]])
            busim._divide_rows_by_norms(rows)
            assert rows[0].tobytes() == (want / np.linalg.norm(want)).tobytes()
            flipped = want[::-1].copy()
            assert rows[1].tobytes() == (flipped / np.linalg.norm(flipped)).tobytes()


def _ref_dense(state, weights, keep=slice(None)):
    """2**n amplitudes from branches ``keep``, by ``np.add.at`` as the per-peak pass built them."""
    amps = np.zeros(2**state.qubit_count, dtype=np.complex128)
    np.add.at(amps, state.bits[keep], weights)
    return amps


def _ref_project_at(state, phi, x, idx):
    """Branches ``idx`` (ascending) weighted by their overlaps at x, renormalized:
    the per-peak projection that the batched pass replaced."""
    overlaps = quadrature_overlap(x, state.bus[idx], phi)
    amps = _ref_dense(state, state.coeff[idx] * overlaps, idx)
    return QubitState(state.qubit_count, amps, normalize=True)


def _ref_normal_cdf(t):
    if t == math.inf:
        return 1.0
    if t == -math.inf:
        return 0.0
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def _ref_window_sum(model, index):
    """The per-window sum that the one-pass window masses replaced: the peaks
    whose term is not exactly 0.0, added in peak order in a Python loop."""
    lo, hi = _ref_windows(model)[index]
    centers = np.array([p.center for p in model.peaks], dtype=np.float64)
    t_lo, t_hi = lo - centers, hi - centers
    zero = ((t_lo > 9.0) & (t_hi > 9.0)) | ((t_lo < -40.0) & (t_hi < -40.0))
    total = 0.0
    for j in np.flatnonzero(~zero).tolist():
        p = model.peaks[j]
        total += p.weight * (_ref_normal_cdf(hi - p.center) - _ref_normal_cdf(lo - p.center))
    return total


def _ref_homodyne_outcomes(state, phi):
    """The per-peak projection pass that the batched pass replaced."""
    model = homodyne_pdf(state, phi)
    return tuple(busim.HomodyneOutcome(
        _ref_window_sum(model, k),
        _ref_project_at(state, phi, peak.center, np.searchsorted(state.bits, sorted(peak.members))),
        peak) for k, peak in enumerate(model.peaks))


def _ref_windows(model):
    """Decision windows rebuilt from the peak centres on every call."""
    centers = [p.center for p in model.peaks]
    lows = [-math.inf] + [(a + b) / 2 for a, b in zip(centers, centers[1:])]
    highs = lows[1:] + [math.inf]
    return list(zip(lows, highs))


def _ref_window_probability(model, index):
    """Window mass of peak ``index`` summed over every peak, in a plain loop."""
    lo, hi = _ref_windows(model)[index]
    total = 0.0
    for p in model.peaks:
        total += p.weight * (_ref_normal_cdf(hi - p.center) - _ref_normal_cdf(lo - p.center))
    return total


def _random_peak_model(rng, count, shuffle):
    """Peaks with gaps from well inside one width to far past the tails."""
    centers = np.cumsum(rng.exponential(rng.choice([0.5, 3.0, 20.0]), size=count))
    weights = rng.random(count)
    peaks = [busim.Peak(float(c), float(w), frozenset({k}))
             for k, (c, w) in enumerate(zip(centers - centers.mean(), weights / weights.sum()))]
    if shuffle:
        rng.shuffle(peaks)
    return busim.PeakModel(phi=0.0, peaks=tuple(peaks))


def _ref_member_branches(state, peak):
    """Indices of the branches whose pattern is one of the peak's members."""
    return np.array([i for i, b in enumerate(state.bits.tolist()) if b in peak.members],
                    dtype=np.int64)


class TestWindowsMatchLoopReference:
    """Window masses skip only exactly-zero terms; projections keep the same branches."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("alpha, theta", [(1000.0, 0.003), (3.0, 0.3)])
    def test_cascade_models(self, n, alpha, theta):
        _, hybrid = gates._prepare(alpha, theta, None, gates._cascade_schedule(n))
        model = homodyne_pdf(hybrid, math.pi / 2)
        for k in range(len(model.peaks)):
            assert model.window_probability(k) == _ref_window_probability(model, k)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_models(self, seed):
        rng = np.random.default_rng([777, seed])
        model = _random_peak_model(rng, int(rng.integers(1, 160)), shuffle=seed % 4 == 0)
        for k in range(len(model.peaks)):
            assert model.window_probability(k) == _ref_window_probability(model, k)

    @pytest.mark.parametrize("seed", range(30))
    def test_peak_projection(self, seed):
        rng = np.random.default_rng([778, seed])
        n = int(rng.integers(1, 6))
        state = _random_hybrid(rng, n)
        if seed % 2:  # a repeated bit pattern, even with another bus, is rejected
            extra = rng.choice(state.bits, size=int(rng.integers(1, state.bits.size + 1)))
            bits = np.concatenate([state.bits, extra])
            coeff = rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)
            bus = np.concatenate([state.bus, 3.0 * rng.normal(size=extra.size)])
            with pytest.raises(ValueError, match="appears more than once"):
                HybridState(n, bits, coeff / np.linalg.norm(coeff), bus)
            return
        phi = float(rng.uniform(0.0, math.pi))
        model = homodyne_pdf(state, phi)
        outcomes = busim.homodyne_outcomes(state, phi)
        assert [o.peak for o in outcomes] == list(model.peaks)
        for k, (peak, got) in enumerate(zip(model.peaks, outcomes)):
            want = _ref_project_at(state, phi, peak.center, _ref_member_branches(state, peak))
            assert got.posterior.amplitudes.tobytes() == want.amplitudes.tobytes()
            assert got.probability == _ref_window_probability(model, k)


# ---------------------------------------------------------------------------
# the group-overlap peak weights of the tolerance-merge state model


def _ref_groups_by_key(keys):
    """Index groups of equal adjacent keys (keys assumed sorted)."""
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    return np.split(np.arange(keys.size), boundaries)


def _ref_coherent_overlap(bra, ket):
    """<bra|ket> for coherent amplitudes, in the log domain."""
    log_mag = -0.5 * np.abs(ket - bra) ** 2
    phase = np.imag(np.conj(bra) * ket)
    return np.exp(log_mag + 1j * phase)


def _ref_homodyne_pdf(state, phi):
    """Peaks whose weights sum bus overlaps within each equal-pattern group."""
    centers = 2.0 * np.real(state.bus * cmath.exp(-1j * phi))
    order = np.argsort(centers, kind="stable")
    peaks = []
    group = []

    def flush(group):
        idx = np.array(group)
        weight = 0.0
        gbits = state.bits[idx]
        for sub in _ref_groups_by_key(np.sort(gbits)):
            members = idx[np.argsort(gbits, kind="stable")][sub]
            c = state.coeff[members]
            b = state.bus[members]
            ov = _ref_coherent_overlap(b[None, :], b[:, None])
            weight += float(np.real(np.einsum("i,j,ij->", c, c.conj(), ov)))
        center = float(np.mean(centers[idx]))
        peaks.append(busim.Peak(center, weight, frozenset(int(b) for b in gbits)))

    for i in order:
        if group and centers[i] - centers[group[-1]] > busim.PEAK_GROUP_TOL:
            flush(group)
            group = []
        group.append(int(i))
    flush(group)
    return busim.PeakModel(phi=phi, peaks=tuple(peaks))


def _f64(x):
    return np.float64(x).tobytes()


class TestPeaksMatchGroupOverlapReference:
    """Peak weight, centre, window mass and posterior equal the group-overlap code, bit for bit."""

    @staticmethod
    def _check(state, phi):
        got, want = homodyne_pdf(state, phi), _ref_homodyne_pdf(state, phi)
        outcomes = busim.homodyne_outcomes(state, phi)
        assert len(got.peaks) == len(want.peaks) == len(outcomes)
        for k, (peak, ref) in enumerate(zip(got.peaks, want.peaks)):
            assert peak.members == ref.members
            assert _f64(peak.weight) == _f64(ref.weight)
            assert _f64(peak.center) == _f64(ref.center)
            assert _f64(got.window_probability(k)) == _f64(_ref_window_probability(want, k))
            posterior = _ref_project_at(state, phi, ref.center, _ref_member_branches(state, ref))
            projected = outcomes[k]
            assert projected.peak == peak
            assert _f64(projected.probability) == _f64(_ref_window_probability(want, k))
            assert projected.posterior.amplitudes.tobytes() == posterior.amplitudes.tobytes()

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("alpha, theta",
                             [(1000.0, 0.003), (3.0, 0.3), (30.0, 0.05), (1.0, 0.0)])
    def test_cascade_states(self, n, alpha, theta):
        _, hybrid = gates._prepare(alpha, theta, None, gates._cascade_schedule(n))
        for phi in (math.pi / 2, 0.0, 0.9):
            self._check(hybrid, phi)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_states(self, seed):
        rng = np.random.default_rng([779, seed])
        for _ in range(20):
            state = _random_hybrid(rng, int(rng.integers(1, 7)))
            self._check(state, float(rng.uniform(0.0, math.pi)))


# ---------------------------------------------------------------------------
# the batched homodyne pass against the per-peak pass it replaced


def _grouped_state(rng, n):
    """A sparse register on a few shared start amplitudes, then a random
    program, so that peaks hold one, two or many patterns."""
    state = _mixed_start_state(rng, n)
    if rng.random() < 0.7:
        state = run_displacement_program(state, _cross_qubit_program(rng, n))
    return state


def _ref_peak_loop(state, phi):
    """The per-peak pass that the one-pass-per-size peak model replaced."""
    centers = 2.0 * np.real(state.bus * cmath.exp(-1j * phi))
    power = state.coeff.real**2 + state.coeff.imag**2
    order = np.argsort(centers, kind="stable")
    peaks = []
    for idx in np.split(order, np.flatnonzero(np.diff(centers[order]) > busim.PEAK_GROUP_TOL) + 1):
        weight = 0.0
        for w in power[np.sort(idx)].tolist():
            weight += w
        peaks.append(busim.Peak(float(np.mean(centers[idx])), weight,
                                frozenset(state.bits[idx].tolist())))
    return peaks


class TestPeakPassesMatchPerPeakLoop:
    """Centres, weights and members of every peak size, signed zeros included."""

    @pytest.mark.parametrize("zeros", [(-0.0,), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0),
                                       (-0.0,) * 3, (-0.0, 0.0, -0.0) * 3 + (-1e-300,)])
    def test_signed_zero_centres(self, zeros):
        rng = np.random.default_rng([4343, len(zeros)] + [int(np.signbit(z)) for z in zeros])
        centers = list(zeros)
        for k, size in enumerate((1, 2, 3, 9, 17)):  # away from zero, within one peak each
            centers += list(5.0 * (k + 1) * (-1) ** k + rng.uniform(-4e-10, 4e-10, size))
        n = (len(centers) - 1).bit_length()
        bits = rng.permutation(2**n)[:len(centers)]
        coeff = rng.normal(size=len(centers)) + 1j * rng.normal(size=len(centers))
        bus = np.array([complex(c / 2, -0.0) for c in centers])
        state = HybridState(n, bits, coeff / np.linalg.norm(coeff), bus)
        model = homodyne_pdf(state, 0.0)
        signed = 2.0 * np.real(state.bus * cmath.exp(-0.0j))
        assert (np.signbit(signed) & (signed == 0.0)).sum() == sum(
            z == 0.0 and np.signbit(z) for z in zeros)
        assert sorted(len(p.members) for p in model.peaks) == sorted([len(zeros), 1, 2, 3, 9, 17])
        want = _ref_peak_loop(state, 0.0)
        assert [(p.members, _f64(p.center), _f64(p.weight)) for p in model.peaks] == [
            (p.members, _f64(p.center), _f64(p.weight)) for p in want]


class TestBatchedOutcomesMatchPerPeakReference:
    """homodyne_outcomes against one projection and one window loop per peak, byte for byte."""

    @staticmethod
    def _check(state, phi):
        got, want = busim.homodyne_outcomes(state, phi), _ref_homodyne_outcomes(state, phi)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.peak == w.peak
            assert _f64(g.probability) == _f64(w.probability)
            assert g.posterior.qubit_count == w.posterior.qubit_count
            assert g.posterior.amplitudes.tobytes() == w.posterior.amplitudes.tobytes()
        return got

    @pytest.mark.parametrize("seed", range(40))
    def test_random_states(self, seed):
        rng = np.random.default_rng([3131, seed])
        n = int(rng.integers(1, 11))
        state = _grouped_state(rng, n)
        phi = float(rng.choice([0.0, math.pi / 2, rng.uniform(-7.0, 7.0)]))
        self._check(state, phi)

    def test_random_states_include_wide_peaks(self):
        """The sweep above reaches peaks of three or more members."""
        widest = 0
        for seed in range(40):
            rng = np.random.default_rng([3131, seed])
            n = int(rng.integers(1, 11))
            state = _grouped_state(rng, n)
            phi = float(rng.choice([0.0, math.pi / 2, rng.uniform(-7.0, 7.0)]))
            widest = max(widest, *(len(p.members) for p in homodyne_pdf(state, phi).peaks))
        assert widest >= 3

    @pytest.mark.parametrize("n", [3, 7, 10])
    def test_random_registers_on_cascades(self, n):
        rng = np.random.default_rng([3132, n])
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps[rng.random(2**n) < 0.4] = 0.0
        register = QubitState(n, amps / np.linalg.norm(amps))
        for alpha, theta in [(1000.0, 0.003), (3.0, 0.3), (1.0, 0.0)]:
            _, hybrid = gates._prepare(alpha, theta, register, gates._cascade_schedule(n))
            self._check(hybrid, float(rng.uniform(0.0, math.pi)))

    def test_posteriors_are_unit_rows_of_one_array(self):
        _, hybrid = gates._prepare(1000.0, 0.003, None, gates._cascade_schedule(6))
        outcomes = busim.homodyne_outcomes(hybrid, math.pi / 2)
        base = outcomes[0].posterior.amplitudes.base
        assert base is not None and base.shape == (len(outcomes), 2**6)
        for o in outcomes:
            assert o.posterior.amplitudes.base is base
            assert np.linalg.norm(o.posterior.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestWindowMassesInBlocks:
    """Window masses summed in blocks of windows equal the per-window loop."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_models(self, seed, block, monkeypatch):
        monkeypatch.setattr(busim, "_WINDOW_BLOCK_TERMS", block)
        rng = np.random.default_rng([3133, seed])
        model = _random_peak_model(rng, int(rng.integers(1, 300)), shuffle=seed % 3 == 0)
        for k in range(len(model.peaks)):
            assert _f64(model.window_probability(k)) == _f64(_ref_window_sum(model, k))
            assert _f64(model.window_probability(k)) == _f64(_ref_window_probability(model, k))

    def test_overlapping_peaks_span_many_blocks(self):
        """Every peak within a few widths of every window: each band is the
        whole model, so 400 windows take several blocks of 2**14 terms."""
        rng = np.random.default_rng(3134)
        centers = np.sort(rng.uniform(-4.0, 4.0, 400))
        weights = rng.random(400)
        weights = weights / weights.sum()
        model = busim.PeakModel(0.0, tuple(busim.Peak(float(c), float(w), frozenset({k}))
                                           for k, (c, w) in enumerate(zip(centers, weights))))
        for k in range(len(model.peaks)):
            assert _f64(model.window_probability(k)) == _f64(_ref_window_sum(model, k))

    def test_equal_and_huge_centres(self):
        """Repeated centres, centres whose midpoints overflow, and a -0.0
        weight, as the loop sums them."""
        for centers in ([0.0, 0.0, 0.0, 5.0], [-1.7e308, 1e308, 1.7e308], [-0.0, 0.0, 1e-300]):
            model = busim.PeakModel(0.0, tuple(busim.Peak(c, 0.25, frozenset({k}))
                                               for k, c in enumerate(centers)))
            with np.errstate(over="ignore"):
                for k in range(len(centers)):
                    assert _f64(model.window_probability(k)) == _f64(_ref_window_sum(model, k))
        # a sum of -0.0 terms is +0.0 when it starts from 0.0
        model = busim.PeakModel(0.0, (busim.Peak(0.0, -0.0, frozenset({0})),))
        assert _f64(model.window_probability(0)) == _f64(_ref_window_sum(model, 0)) == _f64(0.0)


    @pytest.mark.parametrize("gap", [18.0, 80.0])
    def test_peaks_at_the_cut_offs(self, gap):
        """Peaks within rounding of 9 below or 40 above a window: where
        ``searchsorted`` and the loop's test disagree, the term is 0.0."""
        rng = np.random.default_rng([3136, int(gap)])
        for _ in range(300):
            c0 = float(rng.uniform(-50.0, 50.0))
            centers = [c0, c0 + gap + float(rng.normal()) * 1e-14, c0 + 2 * gap]
            model = busim.PeakModel(0.0, tuple(busim.Peak(c, 1 / 3, frozenset({k}))
                                               for k, c in enumerate(centers)))
            for k in range(3):
                assert _f64(model.window_probability(k)) == _f64(_ref_window_sum(model, k))


class TestPeakIndexChecks:
    """A peak index is an int (not a bool) in 0 .. len - 1."""

    @pytest.mark.parametrize("index", [-1, 3, True, False, 1.0, np.bool_(True)])
    def test_window_probability_refuses(self, index):
        model = homodyne_pdf(two_qubit_rotated(), math.pi / 2)
        assert len(model.peaks) == 3
        with pytest.raises(ValueError, match=f"no peak with index {index!r}"):
            model.window_probability(index)

    def test_window_probability_takes_numpy_ints(self):
        model = homodyne_pdf(two_qubit_rotated(), math.pi / 2)
        assert model.window_probability(np.int64(2)) == model.window_probability(2)

    @pytest.mark.parametrize("index", [True, False])
    def test_homodyne_project_refuses_bools(self, index):
        with pytest.raises(ValueError, match=f"no peak with index {index!r}"):
            homodyne_project(two_qubit_rotated(), math.pi / 2, index)


class TestNonFiniteNorms:
    def test_qubit_state_refuses_nan(self):
        with pytest.raises(ValueError, match="amplitudes not normalized"):
            QubitState(2, [math.nan, 0, 0, 0])

    def test_cascade_never_sees_a_nan_register(self):
        with pytest.raises(ValueError, match="amplitudes not normalized"):
            gates.cascade_outcomes(2, 3.0, 0.3, state=QubitState(2, [math.nan, 0, 0, 0]))

    def test_measurements_refuse_nan_coefficient(self):
        state = HybridState(1, [0, 1], [math.nan, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError, match="state not normalized"):
            busim.homodyne_outcomes(state, math.pi / 2)
        with pytest.raises(ValueError, match="state not normalized"):
            measure_bucket(state)

    @pytest.mark.parametrize("amps", [
        [math.nan, 0, 0, 0], [math.inf, 0, 0, 0], [1.0, complex(0, -math.inf), 0, 0],
        [1e200, 1e200, 0, 0],  # finite amplitudes whose norm overflows
    ])
    def test_normalize_refuses_non_finite_norm(self, amps):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="cannot normalize amplitudes of norm"):
                QubitState(2, amps, normalize=True)

    def test_normalize_names_the_zero_vector(self):
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            QubitState(2, [0, 0, 0, 0], normalize=True)

    @pytest.mark.parametrize("bus", [math.nan, math.inf, complex(0, -math.inf),
                                     complex(math.nan, 0)])
    @pytest.mark.parametrize("bits", [[0, 1], [1, 0]])  # the sorted and the sorting path
    def test_hybrid_state_refuses_non_finite_bus(self, bits, bus):
        with pytest.raises(ValueError, match="bus amplitudes must be finite"):
            HybridState(1, bits, [0.6, 0.8], [0.0, bus])


class TestSortedConstructorPath:
    """Strictly increasing patterns skip the sort and keep every check."""

    def test_repeats_out_of_range_and_zero_state(self):
        with pytest.raises(ValueError, match="bit pattern 1 appears more than once"):
            HybridState(2, [0, 1, 1, 2], [0.5] * 4, [0.0] * 4)
        with pytest.raises(ValueError, match="out of range"):
            HybridState(2, [0, 1, 4], [0.5] * 3, [0.0] * 3)
        with pytest.raises(ValueError, match="out of range"):
            HybridState(2, [-1, 0, 1], [0.5] * 3, [0.0] * 3)
        with pytest.raises(ValueError, match="zero state"):
            HybridState(2, [0, 1, 3], [0.0] * 3, [0.0] * 3)

    def test_zero_coefficients_dropped(self):
        state = HybridState(2, [0, 1, 2, 3], [0.0, 0.6, 0.0, 0.8j], [1.0, 2.0, 3.0, 4.0])
        assert state.bits.tolist() == [1, 3]
        assert state.coeff.tolist() == [0.6, 0.8j]
        assert state.bus.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("coeff", [[0.6, 0.8, 0.0], [0.6, 0.8, 0.1]])
    def test_owns_its_arrays(self, coeff):
        bits = np.array([0, 2, 3], dtype=np.int64)
        coeff = np.array(coeff, dtype=np.complex128)
        bus = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
        state = HybridState(2, bits, coeff, bus)
        for mine, theirs in ((state.bits, bits), (state.coeff, coeff), (state.bus, bus)):
            assert not np.shares_memory(mine, theirs)

    @pytest.mark.parametrize("seed", range(20))
    def test_sorted_and_shuffled_inputs_agree(self, seed):
        rng = np.random.default_rng([3135, seed])
        state = _random_hybrid(rng, int(rng.integers(1, 8)))
        order = rng.permutation(state.bits.size)
        shuffled = HybridState(state.qubit_count, state.bits[order], state.coeff[order],
                               state.bus[order])
        again = HybridState(state.qubit_count, state.bits, state.coeff, state.bus)
        for other in (shuffled, again):
            assert _same_bytes((other.bits, other.coeff, other.bus),
                               (state.bits, state.coeff, state.bus))


class TestSpreadShortcut:
    def test_equal_buses_with_signed_zero_parts(self):
        for value in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            bus = np.array([0j, complex(-0.0, -0.0), value, complex(-0.0, 0.0)] * 5)
            state = HybridState(5, np.arange(bus.size), np.ones(bus.size), bus)
            assert _f64(bus_spread(state)) == _f64(_ref_spread(state.bus)) == _f64(0.0)
        state = HybridState(3, np.arange(8), np.ones(8), np.full(8, complex(2.5, -0.0)))
        assert _f64(bus_spread(state)) == _f64(0.0)

    @pytest.mark.parametrize("size", [1, 2, 9, 700])
    def test_nan_bus_is_nan_and_not_extracted(self, size):
        bus = np.full(size, 0.3 + 0.1j)
        bus[size // 2] = complex(math.nan, 0.0)
        with pytest.raises(ValueError, match="bus amplitudes must be finite"):
            HybridState(10, np.arange(size), np.full(size, size ** -0.5), bus)
        # a bus made NaN after the constructor's check still reads as entangled
        state = HybridState(10, np.arange(size), np.full(size, size ** -0.5),
                            np.full(size, 0.3 + 0.1j))
        state.bus[:] = bus
        assert math.isnan(bus_spread(state))
        assert size == 1 or math.isnan(_ref_spread(state.bus))
        with pytest.raises(ValueError, match="bus still entangled"):
            extract_qubits(state)


def _random_amps(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestChunkedDots:
    """Norms and overlaps sum BLAS dots over fixed chunks of 2**13 amplitudes,
    so their bytes do not depend on how many threads BLAS runs."""

    @pytest.mark.parametrize("n", range(14))
    def test_equal_numpy_to_2_13_amplitudes(self, n):
        rng = np.random.default_rng(n)
        amps = _random_amps(rng, (3, 2**n))
        rows = amps / np.array([np.linalg.norm(row) for row in amps])[:, None]
        for row in amps:
            assert busim._norm(row) == float(np.linalg.norm(row))
        for a, b in zip(rows, rows[::-1]):
            want = float(abs(np.vdot(a, b)) ** 2)
            assert fidelity(QubitState(n, a), QubitState(n, b)) == want
        normalized = amps.copy()
        busim._divide_rows_by_norms(normalized)
        assert normalized.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("n", [14, 15])
    def test_sum_chunks_from_left_to_right_above(self, n):
        rng = np.random.default_rng(n)
        amps = _random_amps(rng, (2, 2**n))
        chunks = [slice(lo, lo + 2**13) for lo in range(0, 2**n, 2**13)]
        for row in amps:
            re = im = 0.0
            for c in chunks:
                re = re + np.dot(row.real[c], row.real[c])
                im = im + np.dot(row.imag[c], row.imag[c])
            assert busim._norm(row) == math.sqrt(re + im)
            overlap = 0j
            for c in chunks:
                overlap = overlap + np.vdot(amps[0][c], row[c])
            assert busim.chunked_dot(np.vdot, amps[0], row) == overlap
        norms = np.array([busim._norm(row) for row in amps])
        normalized = amps.copy()
        busim._divide_rows_by_norms(normalized)
        assert normalized.tobytes() == (amps / norms[:, None]).tobytes()

    def test_bytes_do_not_depend_on_blas_threads(self):
        code = ("import hashlib, numpy as np\n"
                "from qubuslab import busim\n"
                "rng = np.random.default_rng(15)\n"
                "amps = rng.standard_normal((2, 2**15)) + 1j * rng.standard_normal((2, 2**15))\n"
                "out = [busim._norm(amps[0]), busim.chunked_dot(np.vdot, *amps)]\n"
                "busim._divide_rows_by_norms(amps)\n"
                "out.extend(busim.chunked_dot(busim._row_dots, amps.conj(), amps[::-1]))\n"
                "print(np.array(out, dtype=np.complex128).tobytes().hex(),\n"
                "      hashlib.sha256(amps.tobytes()).hexdigest())\n")
        src = Path(busim.__file__).resolve().parents[1]
        runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, env=dict(os.environ, PYTHONPATH=str(src),
                                                    OPENBLAS_NUM_THREADS=threads)).stdout
                for threads in ("1", "2")]
        assert runs[0] == runs[1] and len(runs[0]) == 4 * 32 + 1 + 64 + 1

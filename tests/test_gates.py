"""Gate protocols: outcome tables, corrections, budgets, geometric sequences."""

import cmath
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubuslab import busim, gates
from qubuslab.busim import QubitState, fidelity
from qubuslab.oracles import graph_state_vector, pauli_action

ODD_BELL = QubitState(2, np.array([0, 1, 1, 0]) / math.sqrt(2))
EVEN_BELL = QubitState(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
BETA_STAR = math.sqrt(math.pi / 8.0)


def basis_state(n, bits):
    """The register state |bits> of n qubits."""
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[bits] = 1.0
    return QubitState(n, amps)


def corrected(outcome):
    return gates.apply_corrections(outcome.posterior, outcome.corrections)


def draw(table, rng):
    """Index of one outcome drawn as growth draws it: ``outcome_cdf`` inverted at rng.random()."""
    return int(gates.outcome_cdf(table).searchsorted(rng.random(), side="right"))


class TestErrorBudget:
    def test_momentum_value(self):
        budget = gates.error_budget(1000.0, 0.003)
        assert budget.p_err_momentum == pytest.approx(
            0.0013499179750735917, rel=1e-12
        )

    def test_position_value(self):
        budget = gates.error_budget(1.0e6, 0.003)
        assert budget.p_err_position == pytest.approx(
            3.3977270703315683e-06, rel=1e-12
        )

    def test_vacuum_value_at_separation_two(self):
        budget = gates.error_budget(2000.0, 0.001)
        assert budget.p_err_vacuum == pytest.approx(
            1.1253517471925912e-07, rel=1e-12
        )

    def test_regime_flag_at_pi(self):
        assert gates.error_budget(500.0, 0.0063).momentum_regime_ok
        assert 0.5 * math.erfc(math.pi / math.sqrt(2)) < 1e-3
        assert not gates.error_budget(1000.0, 0.003).momentum_regime_ok

    def test_conclusion_regime_point(self):
        """Weak-interaction working point: alpha 1e3, theta 1e-3."""
        budget = gates.error_budget(1000.0, 0.001)
        assert budget.separation_parameter == pytest.approx(1.0)
        assert budget.p_err_momentum == pytest.approx(
            0.5 * math.erfc(1000.0 * math.sin(0.001) / math.sqrt(2)), rel=1e-12
        )
        assert budget.p_err_vacuum == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_degenerate_angle(self):
        budget = gates.error_budget(1.0, 0.0)
        assert budget.p_err_momentum == pytest.approx(0.5)
        assert budget.p_err_position == pytest.approx(0.5)
        assert budget.p_err_vacuum == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha, theta", [(1000.0, 0.003), (500.0, 0.0063),
                                              (1.0e6, 0.003), (2.0, 1.0)])
    def test_negative_theta_mirrors(self, alpha, theta):
        """-theta mirrors the peaks: every value but the signed separation holds."""
        plus, minus = gates.error_budget(alpha, theta), gates.error_budget(alpha, -theta)
        assert dataclasses.replace(minus, separation_parameter=plus.separation_parameter) == plus
        assert minus.separation_parameter == -plus.separation_parameter

    def test_alpha_positive_required(self):
        with pytest.raises(ValueError):
            gates.error_budget(0.0, 0.1)

    @pytest.mark.parametrize("alpha, theta", [
        (math.nan, 0.003), (math.inf, 0.1), (-math.inf, 0.1), (-1.0, 0.1),
        (1000.0, math.nan), (1000.0, math.inf), (1000.0, -math.inf),
    ])
    def test_non_finite_inputs_named(self, alpha, theta):
        """A refusal names both inputs, not a derived value or a math domain."""
        message = (f"alpha must be finite and > 0 and theta finite, "
                   f"got alpha={alpha}, theta={theta}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gates.error_budget(alpha, theta)


class TestMomentumParityGate:
    def test_outcome_table(self):
        outs = {o.label: o for o in gates.momentum_parity_outcomes(1000.0, 0.003)}
        assert outs["odd-bell"].probability == pytest.approx(0.5, abs=1e-12)
        assert outs["product-00"].probability == pytest.approx(0.25, abs=1e-12)
        assert outs["product-11"].probability == pytest.approx(0.25, abs=1e-12)
        assert fidelity(corrected(outs["odd-bell"]), ODD_BELL) >= 1 - 1e-12

    def test_sampled_selection(self):
        table = gates.momentum_parity_outcomes(1000.0, 0.003)
        sampled = table[draw(table, np.random.default_rng(0))]
        assert sampled.label in ("odd-bell", "product-00", "product-11")

    def test_product_input_is_certain(self):
        out = gates.momentum_parity_outcomes(1000.0, 0.003, basis_state(2, 0))
        assert len(out) == 1
        assert out[0].label == "product-00"
        assert out[0].probability == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha,theta", [(50.0, 0.3), (4000.0, 0.0007)])
    def test_probabilities_independent_of_parameters(self, alpha, theta):
        """Outcome weights depend on the branch structure, not on the bus."""
        outs = {o.label: o.probability
                for o in gates.momentum_parity_outcomes(alpha, theta)}
        assert outs["odd-bell"] == pytest.approx(0.5, abs=1e-12)
        pos = {o.label: o.probability
               for o in gates.position_parity_outcomes(alpha, theta)}
        assert pos["even-bell"] == pytest.approx(0.5, abs=1e-12)
        three = {o.label: o.probability
                 for o in gates.three_qubit_outcomes(alpha, theta)}
        assert three["ghz"] == pytest.approx(0.25, abs=1e-12)

    def test_warning_in_degenerate_regime(self):
        """The command that prints the table warns on stderr."""
        src = Path(gates.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "qubuslab.cli", "gate", "parity-momentum",
             "--alpha", "1.0", "--theta", "0.0"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "mixed" in proc.stdout
        assert "warning: momentum peaks poorly separated" in proc.stderr

    def test_skewed_input_weights(self):
        """Outcome weights are the input populations of each parity sector."""
        amps = np.array([0.8, 0.4, 0.2, 0.4j])
        state = QubitState(2, amps, normalize=True)
        outs = {o.label: o for o in gates.momentum_parity_outcomes(100.0, 0.1, state)}
        norm2 = float(np.vdot(amps, amps).real)
        assert outs["product-00"].probability == pytest.approx(0.64 / norm2, abs=1e-12)
        assert outs["odd-bell"].probability == pytest.approx(0.20 / norm2, abs=1e-12)
        assert outs["product-11"].probability == pytest.approx(0.16 / norm2, abs=1e-12)
        post = outs["odd-bell"].posterior.amplitudes
        assert post[1] / post[2] == pytest.approx(2.0, abs=1e-12)

    def test_wrong_register_size(self):
        with pytest.raises(ValueError):
            gates.momentum_parity_outcomes(100.0, 0.01, QubitState.plus(3))


class TestPositionParityGate:
    def test_even_and_odd_outcomes(self):
        outs = {o.label: o for o in gates.position_parity_outcomes(100.0, 0.3)}
        assert outs["even-bell"].probability == pytest.approx(0.5, abs=1e-12)
        assert outs["odd-bell"].probability == pytest.approx(0.5, abs=1e-12)
        assert fidelity(corrected(outs["even-bell"]), EVEN_BELL) >= 1 - 1e-9
        assert fidelity(corrected(outs["odd-bell"]), ODD_BELL) >= 1 - 1e-9

    def test_degenerate_angle_single_peak(self):
        outs = gates.position_parity_outcomes(100.0, 0.0)
        assert len(outs) == 1
        assert outs[0].label == "mixed"


class TestBucketParityGate:
    def test_vacuum_outcome(self):
        outs = gates.bucket_parity_outcomes(2.0, 0.4)
        vac = outs[0]
        assert vac.label == "odd-bell"
        assert fidelity(vac.posterior, ODD_BELL) >= 1 - 1e-12
        overlap = math.exp(-4.0 * 2.0**2 * math.sin(0.4) ** 2)
        assert vac.probability == pytest.approx(0.5 + 0.5 * overlap, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_resolved_posteriors_reach_canonical_bells(self, n):
        outs = gates.bucket_parity_outcomes(2.0, 0.4, number_resolving=True, n_max=6)
        by_label = {o.label: o for o in outs}
        o = by_label[f"even-bell-{n}"]
        sign = 1.0 if n % 2 == 0 else -1.0
        target = QubitState(2, np.array([1, 0, 0, sign]) / math.sqrt(2))
        assert fidelity(corrected(o), target) >= 1 - 1e-12

    def test_resolved_weights_follow_displaced_poisson(self):
        alpha, theta = 2.0, 0.4
        lam = abs(alpha * (np.exp(2j * theta) - 1)) ** 2
        outs = gates.bucket_parity_outcomes(alpha, theta, number_resolving=True, n_max=4)
        for o in outs[1:]:
            n = int(o.label.rsplit("-", 1)[1])
            expect = 0.5 * math.exp(-lam) * lam**n / math.factorial(n)
            assert o.probability == pytest.approx(expect, rel=1e-9)

    def test_click_outcome_is_heralded_failure(self):
        outs = gates.bucket_parity_outcomes(2.0, 0.4)
        click = outs[1]
        assert click.label == "click"
        overlap = math.exp(-4.0 * 2.0**2 * math.sin(0.4) ** 2)
        assert click.probability == pytest.approx(0.5 - 0.5 * overlap, rel=1e-9)

    def test_targets(self):
        vac, click = gates.bucket_parity_outcomes(2.0, 0.4)
        assert fidelity(vac.target, ODD_BELL) == pytest.approx(1.0, abs=1e-15)
        assert click.target is None
        for o in gates.bucket_parity_outcomes(2.0, 0.4, number_resolving=True, n_max=6)[1:]:
            assert fidelity(corrected(o), o.target) >= 1 - 1e-12

    def test_sampled_resolving_outcome_is_in_table(self):
        table = gates.bucket_parity_outcomes(2.0, 0.4, number_resolving=True)
        labels = {o.label for o in table}
        rng = np.random.default_rng(11)
        draws = [table[draw(table, rng)].label for _ in range(20)]
        assert set(draws) <= labels
        assert len(set(draws)) > 1

    @pytest.mark.parametrize("alpha", [10.0, 1000.0])
    def test_resolved_rows_exact_at_large_alpha(self, alpha):
        """A click weights no branch whose bus sits at rounding residue of 0."""
        outs = gates.bucket_parity_outcomes(alpha, 0.5, number_resolving=True, n_max=6)
        assert [o.label for o in outs[1:]] == [f"even-bell-{n}" for n in range(1, 7)]
        for o in outs:
            assert fidelity(corrected(o), o.target) >= 1 - 1e-12, o.label
            off_parity = [0, 3] if o.label == "odd-bell" else [1, 2]
            assert not o.posterior.amplitudes[off_parity].any(), o.label

    # sha256 of each table's labels, probabilities, posterior amplitudes and
    # corrections; each branch's bus turns once by its net multiple of theta,
    # so the |00> and |11> buses round once and the odd-bell posterior is real
    @pytest.mark.parametrize("args, kwargs, digest", [
        ((2.0, 0.4), {},
         "b7be4e2f5da5a1bbc4480be4ab4aff6f5f5ff261132852a4e5f632c36f6dd2b6"),
        ((2.0, 0.4), {"number_resolving": True, "n_max": 6},
         "c23dcf63b8bf1abdb2fe69a6da1cb207005acc9541cff2b7560636c51b72e4c6"),
        ((1.5, 0.5), {"number_resolving": True},
         "e1218b2c8bbbdef0ed78dc52b34cbfdda70d89727c06fa9eb88796c1c86e735c"),
    ])
    def test_table_bytes_pinned(self, args, kwargs, digest):
        h = hashlib.sha256()
        for o in gates.bucket_parity_outcomes(*args, **kwargs):
            h.update(o.label.encode())
            h.update(np.float64(o.probability).tobytes())
            h.update(o.posterior.amplitudes.tobytes())
            h.update(repr([(c.qubit, c.op, c.angle) for c in o.corrections]).encode())
        assert h.hexdigest() == digest


def _assert_heralded_rows_exact(outs):
    for o in outs:
        if o.target is not None:
            assert fidelity(corrected(o), o.target) >= 1 - 1e-9, o.label


# up to alpha = 1.3e154, just below sqrt(float max); a bucket input whose
# (2 alpha sin theta)**2 overflows is left out, as the command refuses it
BUCKET_INPUTS = [
    (alpha, theta) for alpha in (1e4, 1e7, 1e8, 1e50, 1e150, 1.3e154)
    for theta in (0.003, 1.0) if 2 * alpha * math.sin(theta) < math.sqrt(sys.float_info.max)
]


class TestExactRotationAtLargeAlpha:
    """Each branch's bus turns once, by its net multiple of theta.

    Rotated once per qubit, a branch whose rotations cancel would keep a
    residue that grows with alpha and splits or empties the heralded peaks.
    """

    @pytest.mark.parametrize("theta", [0.003, 1.0])
    @pytest.mark.parametrize("alpha", [1e7, 1e50, 1e150, 1.3e154])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_cascade(self, n, alpha, theta):
        outs = gates.cascade_outcomes(n, alpha, theta)
        assert gates.cascade_pair_success(outs) == 1 - Fraction(2, 2**n)
        _assert_heralded_rows_exact(outs)

    @pytest.mark.parametrize("theta", [0.003, 0.5])
    @pytest.mark.parametrize("alpha", [1e4, 1e7, 1e8, 1e50, 1e150, 1.3e154])
    def test_momentum_parity(self, alpha, theta):
        outs = gates.momentum_parity_outcomes(alpha, theta)
        odd = [o for o in outs if o.label == "odd-bell"]
        assert [(o.probability, o.corrections) for o in odd] == [(0.5, ())]
        _assert_heralded_rows_exact(outs)

    @pytest.mark.parametrize("alpha, theta", BUCKET_INPUTS)
    def test_resolving_bucket(self, alpha, theta):
        outs = gates.bucket_parity_outcomes(alpha, theta, number_resolving=True, n_max=3)
        assert [o.label for o in outs] == ["odd-bell"] + [f"even-bell-{n}" for n in (1, 2, 3)]
        _assert_heralded_rows_exact(outs)

    @pytest.mark.parametrize("alpha, theta", [(2.0, 0.4), (1e4, 0.5), (1e150, 0.003)])
    def test_bucket_odd_branches_reach_vacuum_exactly(self, alpha, theta):
        _, hybrid = gates._prepare(alpha, theta, None, (1, 1))
        assert hybrid.bus[1] == alpha and hybrid.bus[2] == alpha
        back = busim.run_displacement_program(hybrid, [(None, -complex(alpha))])
        assert back.bus[1] == 0 and back.bus[2] == 0


def _random_register(seed, n):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitState(n, amps / np.linalg.norm(amps))


def _rank_two(state, *qubits):
    """Schmidt rank 2 of every one of ``qubits`` in a register state, by the
    member-amplitude test."""
    bits = np.flatnonzero(state.amplitudes)
    peak = np.zeros(bits.size, dtype=np.int64)
    amps = state.amplitudes[bits]
    return bool(gates._entangled_with_rest(state.qubit_count, qubits, peak, bits, amps)[0])


def _dense_rank_two(state, qubit):
    """The dense test the member-amplitude one replaced: det of the Gram matrix
    of the qubit's two rows over every pattern of the rest exceeds 1e-9."""
    rows = state.amplitudes.reshape(2**qubit, 2, -1).swapaxes(0, 1).reshape(2, -1)
    a, d = np.vdot(rows[0], rows[0]).real, np.vdot(rows[1], rows[1]).real
    return bool(a * d - abs(np.vdot(rows[0], rows[1])) ** 2 > 1e-9)


class TestHomodyneTableBytesPinned:
    """The bytes of the homodyne tables, pinned by sha256.

    Each digest covers every row's label, probability, window probability,
    posterior amplitudes and corrections, in table order.
    """

    @staticmethod
    def _digest(tables):
        h = hashlib.sha256()
        for table in tables:
            for o in table:
                h.update(o.label.encode())
                h.update(np.float64(o.probability).tobytes())
                h.update(np.float64(o.window_probability).tobytes())
                h.update(o.posterior.amplitudes.tobytes())
                h.update(repr([(c.qubit, c.op, c.angle) for c in o.corrections]).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("alpha, theta, digest", [
        (1000.0, 0.003, "c2868e38366a9948bcce7eb3062cf44aa50962194ca3d5732b383e41136c1f30"),
        (3.0, 0.3, "14d6f61dde4955ee5f893d411fc9dbb9d77d54817e79d8cb2e83b7248d01b51d"),
        (1e7, 0.5, "d59c59a9e9cf1f1c1dab3ff4b29bd4c35cb805c9b1dedd781ccc83fab8d7824e"),
    ])
    def test_cascades_and_parity_tables(self, alpha, theta, digest):
        tables = [gates.cascade_outcomes(n, alpha, theta) for n in range(2, 9)]
        tables.append(gates.momentum_parity_outcomes(alpha, theta))
        tables.append(gates.position_parity_outcomes(alpha, theta))
        assert self._digest(tables) == digest

    def test_random_two_qubit_register(self):
        state = _random_register(25, 2)
        tables = [gates.momentum_parity_outcomes(3.0, 0.3, state),
                  gates.position_parity_outcomes(3.0, 0.3, state)]
        assert self._digest(tables) == (
            "33a507a4e77fb4da46f8cf9d9251e54fbfd14932cc215aa58dc8a339f34f28a2")

    def test_random_four_qubit_register(self):
        tables = [gates.cascade_outcomes(4, 1000.0, 0.003, _random_register(26, 4))]
        assert self._digest(tables) == (
            "6611ed14db0dd5340a2c971937d515eb29e5d52d69402d9f62eadac414e242f6")


class TestTableMemory:
    def test_cascade_peak_stays_near_its_posteriors(self):
        """A table holds its posteriors and little else: no second
        (peaks x 2**n) array is built beside them.  The traced peak is about
        1.07x the posterior bytes; a copy of them would make it 2x or more."""
        tracemalloc.start()
        try:
            table = gates.cascade_outcomes(10, 1000.0, 0.003)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        posteriors = sum(o.posterior.amplitudes.nbytes for o in table)
        assert posteriors == 513 * 2**10 * 16
        assert peak <= 1.25 * posteriors


class TestThreeQubitGate:
    def test_outcome_probabilities(self):
        outs = {o.label: o for o in gates.three_qubit_outcomes(1000.0, 0.003)}
        assert outs["ghz"].probability == pytest.approx(0.25, abs=1e-12)
        assert outs["bell-q3-0"].probability == pytest.approx(0.25, abs=1e-12)
        assert outs["bell-q3-1"].probability == pytest.approx(0.25, abs=1e-12)
        assert outs["product-001"].probability == pytest.approx(0.125, abs=1e-12)
        assert outs["product-110"].probability == pytest.approx(0.125, abs=1e-12)

    def test_ghz_posterior(self):
        outs = {o.label: o for o in gates.three_qubit_outcomes(1000.0, 0.003)}
        amps = np.zeros(8)
        amps[0] = amps[7] = 1 / math.sqrt(2)
        assert fidelity(corrected(outs["ghz"]), QubitState(3, amps)) >= 1 - 1e-12

    def test_bell_posterior_carries_third_qubit(self):
        """The heralded pair comes with qubit 3 in the matching basis state."""
        outs = {o.label: o for o in gates.three_qubit_outcomes(1000.0, 0.003)}
        amps0 = np.zeros(8)
        amps0[0b010] = amps0[0b100] = 1 / math.sqrt(2)
        assert fidelity(corrected(outs["bell-q3-0"]), QubitState(3, amps0)) >= 1 - 1e-12
        amps1 = np.zeros(8)
        amps1[0b011] = amps1[0b101] = 1 / math.sqrt(2)
        assert fidelity(corrected(outs["bell-q3-1"]), QubitState(3, amps1)) >= 1 - 1e-12

    def test_exact_probability_fractions(self):
        outs = gates.three_qubit_outcomes(1000.0, 0.003)
        fracs = sorted(o.exact_probability for o in outs)
        assert fracs == [
            Fraction(1, 8), Fraction(1, 8),
            Fraction(1, 4), Fraction(1, 4), Fraction(1, 4),
        ]

    def test_no_exact_probability_for_caller_register(self):
        """Member counts give the chances of a uniform register only."""
        ramp = QubitState(3, np.arange(1.0, 9.0), normalize=True)
        ghz = QubitState(3, np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))
        for state in (ramp, ghz, QubitState.plus(3)):
            outs = gates.cascade_outcomes(3, 1000.0, 0.003, state)
            assert all(o.exact_probability is None for o in outs)
        outs = {o.label: o for o in gates.three_qubit_outcomes(1000.0, 0.003, ghz)}
        assert outs["ghz"].probability == pytest.approx(1.0, abs=1e-12)
        assert outs["ghz"].exact_probability is None


class TestCascade:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_pair_success_scaling(self, n):
        table = gates.cascade_outcomes(n, 1000.0, 0.003)
        assert gates.cascade_pair_success(table) == Fraction(2 ** (n - 1) - 1, 2 ** (n - 1))
        assert gates.cascade_pair_success(table) == _ref_pair_success(n)

    def test_pair_success_needs_exact_probabilities(self):
        table = gates.cascade_outcomes(3, 1000.0, 0.003, QubitState.plus(3))
        with pytest.raises(ValueError, match="exact probabilities"):
            gates.cascade_pair_success(table)

    def test_gate_time_doubles(self):
        times = [gates.cascade_gate_time(n) for n in range(2, 8)]
        assert times == [2, 4, 8, 16, 32, 64]

    def test_four_qubit_peak_count(self):
        outs = gates.cascade_outcomes(4, 1000.0, 0.001)
        assert len(outs) == 9
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)
        singles = [o for o in outs if o.exact_probability == Fraction(1, 16)]
        assert len(singles) == 2  # only the two extreme product states fail

    def test_two_qubit_reduction(self):
        """The n=2 cascade is a parity gate with success chance 1/2."""
        outs = gates.cascade_outcomes(2, 1000.0, 0.003)
        assert gates.cascade_pair_success(outs) == Fraction(1, 2)
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)
        entangled = [o for o in outs if o.label not in ("product-01", "product-10")]
        assert sum(o.probability for o in entangled) == pytest.approx(0.5, abs=1e-12)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gates.cascade_outcomes(1, 100.0, 0.01)

    @staticmethod
    def _schmidt_rank(posterior, qubit):
        n = posterior.qubit_count
        rows = np.moveaxis(posterior.amplitudes.reshape((2,) * n), qubit, 0).reshape(2, -1)
        return int(np.linalg.matrix_rank(rows, tol=1e-6))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_entangled_label_means_rank_two_on_both_cuts(self, n):
        """Every entangled peak is entangled across qubit 0 | rest and qubit 1 | rest."""
        outs = gates.cascade_outcomes(n, 1000.0, 0.003)
        entangled = [o for o in outs if o.label == "entangled"]
        assert len(entangled) == 2 ** (n - 1) - 2
        for o in entangled:
            assert self._schmidt_rank(o.posterior, 0) == self._schmidt_rank(o.posterior, 1) == 2
        assert not any(o.label == "mixed" for o in outs)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_product_peak_is_mixed(self, n):
        """At theta = 0 one peak holds every pattern and heralds |+>^n, a product."""
        (out,) = gates.cascade_outcomes(n, 1.0, 0.0)
        assert out.label == "mixed"
        assert fidelity(out.posterior, QubitState.plus(n)) == pytest.approx(1.0, abs=1e-12)
        assert gates.cascade_pair_success((out,)) == 0

    @pytest.mark.parametrize("members", [(0, 1, 6, 7), (0, 1, 10, 11), (0, 1, 2, 3)])
    def test_label_needs_both_cuts(self, members):
        """One qubit of the pair in a basis state: the peak is mixed, not entangled."""
        amps = np.zeros(16)
        amps[list(members)] = 0.5
        entangled = _rank_two(QubitState(4, amps), 0, 1)
        labels = gates._cascade_labels(4, np.zeros(4, int), np.array(members), [entangled])
        assert labels == ["mixed"]

    def test_ghz_times_plus_is_entangled(self):
        amps = np.zeros(16)
        amps[[0, 1, 14, 15]] = 0.5  # (|000> + |111>)/sqrt(2) on qubits 0-2, |+> on 3
        entangled = _rank_two(QubitState(4, amps), 0, 1)
        members = np.array([0, 1, 14, 15])
        assert gates._cascade_labels(4, np.zeros(4, int), members, [entangled]) == ["entangled"]

    def test_rank_test_on_known_states(self):
        bell_and_plus = QubitState(3, np.array([1, 1, 0, 0, 0, 0, 1, 1]) / 2.0)
        assert _rank_two(bell_and_plus, 0)
        assert _rank_two(bell_and_plus, 1)
        assert not _rank_two(QubitState.plus(3), 0)
        assert not _rank_two(basis_state(3, 5), 2)
        # qubit 0 pure, qubits 1 and 2 in a Bell pair
        split = QubitState(3, np.array([1, 0, 0, 1, 0, 0, 0, 0]) / math.sqrt(2.0))
        assert not _rank_two(split, 0)
        assert _rank_two(split, 1)

    @pytest.mark.parametrize("seed", range(30))
    def test_member_gram_matches_dense_rank(self, seed):
        """The batched decision from member amplitudes equals the dense rank test
        on every peak, on registers whose peaks hold up to 2**n patterns."""
        rng = np.random.default_rng([3030, seed])
        n = int(rng.integers(2, 8))
        alpha, theta = [(1000.0, 0.003), (3.0, 0.3), (1.0, 0.0), (30.0, 0.05)][seed % 4]
        state = None if seed % 3 == 0 else _random_register(seed, n)
        _, hybrid = gates._prepare(alpha, theta, state, gates._cascade_schedule(n))
        projected = busim._projections(hybrid, float(rng.uniform(0.0, math.pi)))
        got = gates._pairs_entangled(n, projected)
        want = [_dense_rank_two(QubitState(n, a), 0) and _dense_rank_two(QubitState(n, a), 1)
                for a in projected.posteriors]
        assert got.tolist() == want

    @pytest.mark.parametrize("n", range(2, 7))
    def test_ghz_target(self, n):
        outs = {o.label: o for o in gates.cascade_outcomes(n, 1000.0, 0.003)}
        ghz = outs["ghz"]
        assert ghz.target.qubit_count == n
        assert ghz.target.amplitudes[0] == ghz.target.amplitudes[-1] == 1 / math.sqrt(2)
        assert fidelity(corrected(ghz), ghz.target) >= 1 - 1e-12
        unheralded = ("product", "entangled")
        assert all(o.target is None for o in outs.values() if o.label.startswith(unheralded))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ghz_needs_no_correction(self, n):
        outs = {o.label: o for o in gates.cascade_outcomes(n, 1000.0, 0.003)}
        assert outs["ghz"].corrections == ()

    def test_probability_sum_invariant(self):
        for n in (3, 5, 8):
            outs = gates.cascade_outcomes(n, 200.0, 0.002)
            assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-9)

    def test_sampled_frequencies_match_table(self):
        """Sampling the heralded outcome reproduces the exact weights."""
        rng = np.random.default_rng(40)
        table = gates.three_qubit_outcomes(1000.0, 0.003)
        counts = {}
        n_draws = 4000
        for _ in range(n_draws):
            out = table[draw(table, rng)]
            counts[out.label] = counts.get(out.label, 0) + 1
        expected = {o.label: o.probability for o in table}
        for label, prob in expected.items():
            stderr = math.sqrt(prob * (1 - prob) / n_draws)
            assert counts.get(label, 0) / n_draws == pytest.approx(
                prob, abs=4 * stderr
            )


class TestDefaultTableMemo:
    """Draws from a default-register table that the caller holds.

    Inverting ``outcome_cdf`` at one ``rng.random()`` must pick what
    ``rng.choice`` picks with the table's normalised weights and leave the
    stream where ``rng.choice`` leaves it.
    """

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_seeded_draws_equal_uncached_path(self, n):
        table = gates.cascade_outcomes(n, 1000.0, 0.003)
        w = [o.probability for o in table]
        p = np.array(w) / sum(w)
        for seed in range(5):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(40):
                got = table[draw(table, got_rng)]
                assert got is table[int(want_rng.choice(len(table), p=p))]
            assert got_rng.random() == want_rng.random()

    def test_cdf_rejects_a_table_that_is_not_a_distribution(self):
        table = list(gates.three_qubit_outcomes(1000.0, 0.003))
        table[0] = dataclasses.replace(table[0], probability=-0.5)
        with pytest.raises(ValueError, match="not a distribution"):
            gates.outcome_cdf(table)


def _ref_pair_success(n):
    """The walk over all 2**n patterns that the table sum replaced."""
    mult = [1, 1] + [2 ** (k - 2) for k in range(3, n + 1)]
    mult[-1] = -(2 ** (n - 2))
    peaks = {}
    for bits in range(2**n):
        rot = sum(m * (1 - 2 * ((bits >> (n - 1 - q)) & 1)) for q, m in enumerate(mult))
        peaks.setdefault(rot, []).append(bits)
    success = Fraction(0)
    for members in peaks.values():
        if len({((b >> (n - 1)) & 1, (b >> (n - 2)) & 1) for b in members}) >= 2:
            success += Fraction(len(members), 2**n)
    return success


def run_geometric_cz(beta1, beta2, state):
    seq, corrections = gates.geometric_cz(beta1, beta2)
    out = gates.run_sequence(busim.attach_bus(state, 0.0), seq)
    return out, busim.extract_qubits(out), corrections


class TestGeometricCz:
    def test_canonical_coupling(self):
        start = QubitState.plus(2)
        out, posterior, corrections = run_geometric_cz(BETA_STAR, 1j * BETA_STAR, start)
        assert busim.bus_spread(out) == 0.0
        cz = QubitState(2, start.amplitudes * np.array([1, 1, 1, -1]))
        fid = fidelity(gates.apply_corrections(posterior, corrections), cz)
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_program_is_four_displacements(self):
        seq, _ = gates.geometric_cz(BETA_STAR, 1j * BETA_STAR)
        assert seq.register_size == 2
        assert list(seq.steps) == [
            (0, BETA_STAR), (1, 1j * BETA_STAR), (0, -BETA_STAR), (1, -1j * BETA_STAR),
        ]

    def test_twenty_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = QubitState(2, v, normalize=True)
            out, posterior, corrections = run_geometric_cz(1j * BETA_STAR, BETA_STAR, state)
            assert busim.bus_spread(out) == 0.0
            cz = state.amplitudes * np.array([1, 1, 1, -1])
            fid = fidelity(
                gates.apply_corrections(posterior, corrections),
                QubitState(2, cz, normalize=True),
            )
            assert fid >= 1 - 1e-12

    def test_zero_area_is_identity(self):
        state = QubitState(2, np.array([0.5, 0.5j, -0.5, 0.5]), normalize=True)
        _, posterior, corrections = run_geometric_cz(0.4, 0.7, state)  # conj(b1) b2 real
        assert fidelity(posterior, state) == pytest.approx(1.0, abs=1e-12)
        assert corrections is None

    def test_branch_phase_signs(self):
        """Opposite-sign branches pick up the conjugate geometric phase."""
        _, posterior, _ = run_geometric_cz(BETA_STAR, 1j * BETA_STAR, QubitState.plus(2))
        amps = posterior.amplitudes * 2.0
        area = 2.0 * np.imag(np.conj(BETA_STAR) * 1j * BETA_STAR)
        assert amps[0] == pytest.approx(np.exp(1j * area), abs=1e-12)
        assert amps[1] == pytest.approx(np.exp(-1j * area), abs=1e-12)


def _random_closed_loop(rng):
    """2-7 qubits, 1-3 out-and-back loops each, all steps interleaved at random.

    A third of the loops reuse one of three shared values, either sign, so
    equal open displacements on one qubit are common.
    """
    n = int(rng.integers(2, 8))
    tokens = [(q, k) for q in range(n) for k in range(int(rng.integers(1, 4)))] * 2
    pool = [complex(*rng.normal(size=2)) for _ in range(3)]
    opened, loop = {}, []
    for i in rng.permutation(len(tokens)):
        q, k = tokens[i]
        if (q, k) in opened:
            loop.append((q, -opened.pop((q, k))))
            continue
        if rng.random() < 1 / 3:
            beta = pool[int(rng.integers(3))] * float(rng.choice([-1.0, 1.0]))
        else:
            beta = complex(*rng.normal(size=2))
        opened[(q, k)] = beta
        loop.append((q, beta))
    return n, loop


def _old_zz_corrections(pairs, n):
    """The hand-written couplings' corrections, kept as the reference."""
    totals = [0.0] * n
    for (a, b), phi in pairs:
        if not abs(cmath.exp(4j * phi) + 1.0) <= 1e-9:
            return None
        totals[a] += 2.0 * phi
        totals[b] += 2.0 * phi
    return tuple(
        gates.Correction(q, "phase", t % (2.0 * math.pi))
        for q, t in enumerate(totals) if abs(cmath.exp(1j * t) - 1.0) > 1e-12
    )


def _ref_zz_couplings(loop) -> dict | None:
    """The per-qubit J rule the phase form extends, as it stood on its own:
    J_ab sums Im(beta_k conj(beta_j)) over steps j < k on qubits a != b, with
    only still-open j adding and all-zero pairs left out; None unless closed."""
    held, coupling = {}, {}
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


class TestDerivedCouplings:
    def test_match_branch_kernel_on_random_programs(self):
        """Derived J against run_displacement_program's relative branch phases."""
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(300):
            n, loop = _random_closed_loop(rng)
            form = busim.phase_form(n, loop)
            assert form is not None
            coupling = form[2]
            bus = 0.0 if trial % 2 else complex(*rng.normal(size=2))
            out = busim.run_displacement_program(
                busim.attach_bus(QubitState.plus(n), bus), loop)
            assert busim.bus_spread(out) == 0.0
            signs = 1 - 2 * ((out.bits[:, None] >> np.arange(n - 1, -1, -1)) & 1)
            want = sum(J * (signs[:, a] * signs[:, b] - 1) for (a, b), J in coupling.items())
            got = out.coeff / out.coeff[0]
            worst = max(worst, float(np.max(np.abs(np.angle(got * np.exp(-1j * want))))))
        assert worst <= 1e-12

    def test_open_loop_has_no_corrections(self):
        loop = [(0, 0.5), (1, 0.5j), (0, -0.5)]
        assert busim.phase_form(2, loop) is None
        assert gates._geometric_gate(2, loop, [(0, 1)])[1] is None

    def test_non_edge_coupling_must_be_a_global_phase(self):
        b = BETA_STAR
        cz = [(0, b), (1, 1j * b), (0, -b), (1, -1j * b)]  # J_01 = pi/4

        def on_12(area):  # J_12 = area
            return [(1, 1.0), (2, 0.5j * area), (1, -1.0), (2, -0.5j * area)]

        assert gates._geometric_gate(3, cz, [(0, 1)])[1] is not None
        assert gates._geometric_gate(3, cz + on_12(0.3), [(0, 1)])[1] is None
        assert gates._geometric_gate(3, cz + on_12(math.pi / 2), [(0, 1)])[1] is None
        assert gates._geometric_gate(3, cz + on_12(math.pi), [(0, 1)])[1] is not None

    @pytest.mark.parametrize("odd", [1, 3, -1])
    @pytest.mark.parametrize("n", [2, 3, 7, 400])
    def test_star_and_chain_match_hand_formulas(self, n, odd):
        beta = math.copysign(math.sqrt(abs(odd) * math.pi / 8), odd)
        b = float(beta)
        star = [((0, q), -2.0 * b * b) for q in range(1, n)]
        chain = [((k, k + 1), 2.0 * b * b * (1 if k % 2 else -1)) for k in range(n - 1)]
        for maker, pairs in ((gates.star_sequence, star), (gates.chain_sequence, chain)):
            corrections = maker(n, beta)[1]
            assert corrections is not None
            assert repr(corrections) == repr(_old_zz_corrections(pairs, n))

    @pytest.mark.parametrize("maker", [gates.chain_sequence, gates.star_sequence])
    def test_builders_couplings_are_the_per_qubit_rule(self, maker):
        """J of the builders' loops is the per-qubit rule's, bit for bit, with no
        field and no global phase."""
        for n in range(2, 12):
            steps = list(maker(n, BETA_STAR)[0].steps)
            glob, h, J = busim.phase_form(n, steps)
            assert (glob, h) == (0.0, {})
            assert repr(J) == repr(_ref_zz_couplings(steps))

    def test_random_loops_couplings_are_the_per_qubit_rule(self):
        rng = np.random.default_rng(2025)
        for _ in range(200):
            n, loop = _random_closed_loop(rng)
            assert repr(busim.phase_form(n, loop)[2]) == repr(_ref_zz_couplings(loop))

    @pytest.mark.parametrize("maker, key", [(gates.chain_sequence, ("distance", 1)),
                                            (gates.star_sequence, ("vertex", 0))])
    def test_builders_couplings_take_one_pass(self, maker, key):
        """A chain's pairs are all at distance 1 and a star's all meet qubit 0."""
        J = busim.phase_form(9, maker(9, BETA_STAR)[0].steps)[2]
        assert {k for k, _ in busim._parity_passes(list(J)).values()} == {key}

    def test_unclosed_qubit_has_no_phase_form(self):
        steps = list(gates.chain_sequence(4, BETA_STAR)[0].steps)
        assert busim.phase_form(4, steps) is not None
        assert busim.phase_form(4, steps[:-1]) is None
        assert busim.phase_form(4, steps + [(2, 0.5)]) is None

    def test_unclosed_bus_step_has_no_phase_form(self):
        steps = list(gates.star_sequence(3, BETA_STAR)[0].steps) + [(None, 0.3 - 0.1j)]
        assert busim.phase_form(3, steps) is None
        assert busim.phase_form(3, steps + [(None, -0.3 + 0.1j)]) is not None

    @pytest.mark.parametrize("value", [math.inf, complex(0.0, -math.inf), math.nan])
    def test_non_finite_step_has_no_phase_form(self, value):
        assert busim.phase_form(1, [(0, value), (0, -value)]) is None

    def test_zero_terms_are_not_stored(self):
        """Leaves of a star never couple, so no leaf pair is held."""
        seq, _ = gates.star_sequence(40, BETA_STAR)
        coupling = busim.phase_form(40, seq.steps)[2]
        assert sorted(coupling) == [(0, q) for q in range(1, 40)]


class TestCompiledConditionalDisplacement:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_displacement(self, seed):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.2, 1.5))
        theta = float(rng.uniform(-1.0, 1.0))
        start = busim.attach_bus(QubitState.plus(1), complex(rng.normal(), rng.normal()))
        via = gates.conditional_displacement_by_rotations(start, 0, alpha, theta)
        direct = busim.run_displacement_program(start, [(0, 2j * alpha * math.sin(theta))])
        assert_allclose(via.bus, direct.bus, atol=1e-12)
        assert_allclose(via.coeff, direct.coeff, atol=1e-12)

    def test_zero_angle_collapses(self):
        start = busim.attach_bus(QubitState.plus(1), 0.3)
        out = gates.conditional_displacement_by_rotations(start, 0, 0.8, 0.0)
        assert_allclose(out.bus, start.bus, atol=1e-12)

    def test_plus_branch_lands_at_offset(self):
        alpha, theta = 0.9, 0.4
        start = busim.attach_bus(basis_state(1, 0), 0.25 - 0.1j)
        out = gates.conditional_displacement_by_rotations(start, 0, alpha, theta)
        assert out.bus[0] == pytest.approx(
            0.25 - 0.1j + 2j * alpha * math.sin(theta), abs=1e-12
        )

    def test_alpha_must_be_real(self):
        start = busim.attach_bus(QubitState.plus(2), 0.3)
        with pytest.raises(ValueError, match="alpha must be real"):
            gates.conditional_displacement_by_rotations(start, 1, 0.9 + 0.1j, 0.4)
        real = gates.conditional_displacement_by_rotations(start, 1, 0.9, 0.4)
        same = gates.conditional_displacement_by_rotations(start, 1, 0.9 + 0j, 0.4)
        assert real.coeff.tobytes() == same.coeff.tobytes()
        assert real.bus.tobytes() == same.bus.tobytes()


def run_and_correct(maker, n, beta, start_bus=0.0):
    seq, corrections = maker(n, beta)
    out = gates.run_sequence(busim.attach_bus(QubitState.plus(n), start_bus), seq)
    return out, gates.apply_corrections(busim.extract_qubits(out), corrections), seq


class TestStarSequence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reaches_star_graph(self, n):
        out, state, seq = run_and_correct(gates.star_sequence, n, BETA_STAR, 0.45)
        assert busim.bus_spread(out) == 0.0
        target = graph_state_vector(n, [(0, k) for k in range(1, n)])
        assert abs(np.vdot(target, state.amplitudes)) ** 2 >= 1 - 1e-12

    def test_two_interactions_per_qubit(self):
        seq, _ = gates.star_sequence(5, BETA_STAR)
        counts = {}
        for q, _ in seq.steps:
            counts[q] = counts.get(q, 0) + 1
        assert counts == {q: 2 for q in range(5)}

    def test_reduces_to_geometric_cz(self):
        _, state, _ = run_and_correct(gates.star_sequence, 2, BETA_STAR)
        _, direct, _ = run_and_correct(
            lambda n, beta: gates.geometric_cz(1j * beta, beta), 2, BETA_STAR
        )
        assert fidelity(state, direct) == pytest.approx(1.0, abs=1e-12)

    def test_spread_zero_any_beta(self):
        for n, beta in ((3, 0.21), (7, 1.3), (12, 0.77)):
            seq, _ = gates.star_sequence(n, beta)
            out = gates.run_sequence(
                busim.attach_bus(QubitState.plus(n), 0.19 - 0.6j), seq
            )
            assert busim.bus_spread(out) == 0.0

    @pytest.mark.parametrize("maker", [
        gates.star_sequence, gates.chain_sequence,
        lambda n, beta: gates.geometric_cz(beta, 1j * beta),
    ])
    @pytest.mark.parametrize("beta", [0.3, 0.0, math.nan, math.inf])
    def test_off_grid_beta_has_no_corrections(self, maker, beta):
        assert maker(3, beta)[1] is None

    @pytest.mark.parametrize("maker", [gates.star_sequence, gates.chain_sequence])
    def test_odd_multiples_of_pi_over_8_have_corrections(self, maker):
        for odd in (1, 3, 5):
            assert maker(4, math.sqrt(odd * math.pi / 8))[1] is not None


class TestChainSequence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reaches_linear_cluster(self, n):
        out, state, seq = run_and_correct(gates.chain_sequence, n, BETA_STAR, 0.45)
        assert busim.bus_spread(out) == 0.0
        target = graph_state_vector(n, [(k, k + 1) for k in range(n - 1)])
        assert abs(np.vdot(target, state.amplitudes)) ** 2 >= 1 - 1e-12

    def test_bus_tracks_at_most_two_qubits(self):
        """After a qubit's second kick the bus forgets everything before it."""
        n = 6
        seq, _ = gates.chain_sequence(n, BETA_STAR)
        state = busim.attach_bus(QubitState.plus(n), 0.3)
        done_second = set()
        seen_counts = {}
        for step in seq.steps:
            state = busim.run_displacement_program(state, [step])
            q = step[0]
            seen_counts[q] = seen_counts.get(q, 0) + 1
            if seen_counts[q] == 2:
                done_second.add(q)
                # bus must be identical across sign assignments of finished qubits
                buses = {}
                for bits, bus in zip(state.bits.tolist(), state.bus.tolist()):
                    key = tuple(
                        (bits >> (n - 1 - q)) & 1
                        for q in range(n)
                        if q not in done_second
                    )
                    buses.setdefault(key, []).append(complex(bus))
                for group in buses.values():
                    spread = max(
                        abs(a - b) for a in group for b in group
                    )
                    assert spread <= 1e-12

    def test_spread_zero_up_to_twelve_qubits(self):
        rng = np.random.default_rng(3)
        for n in (6, 9, 12):
            beta = float(rng.uniform(0.1, 1.2))
            seq, _ = gates.chain_sequence(n, beta)
            out = gates.run_sequence(
                busim.attach_bus(QubitState.plus(n), complex(rng.normal(), rng.normal())),
                seq,
            )
            assert busim.bus_spread(out) == 0.0


def _chain_loop(n, b):
    """The chain's displacements, written out qubit by qubit."""
    kick = lambda q: 1j * b if q % 2 == 0 else complex(b)
    loop = [(0, kick(0)), (1, kick(1))]
    for q in range(2, n):
        loop += [(q - 2, -kick(q - 2)), (q, kick(q))]
    return loop + [(n - 2, -kick(n - 2)), (n - 1, -kick(n - 1))]


def _same_run_bytes(a, b):
    return (a.bits.tobytes(), a.coeff.tobytes(), a.bus.tobytes()) == (
        b.bits.tobytes(), b.coeff.tobytes(), b.bus.tobytes())


def _agrees_with_kernel(got, want):
    """The phase form's contract: bits and bus bytes identical, coefficients within 1e-12."""
    return ((got.bits.tobytes(), got.bus.tobytes()) == (want.bits.tobytes(), want.bus.tobytes())
            and float(np.max(np.abs(got.coeff - want.coeff))) <= 1e-12)


def _closed_cross_qubit_program(rng, n):
    """A closed program whose values repeat across qubits and bus (None) steps,
    so a kick on one qubit meets an equal or opposite one on another; each
    opened (qubit, beta) is closed by (qubit, -beta), some at once, the rest
    at the end in random order."""
    b = float(rng.uniform(0.2, 1.5))
    pool = [b, 1j * b, complex(b, -0.5 * b), complex(-0.0, b), complex(rng.normal(), rng.normal())]
    opened, steps = [], []
    for _ in range(int(rng.integers(1, 10))):
        if opened and rng.random() < 0.4:
            q, beta = opened.pop(int(rng.integers(len(opened))))
            steps.append((q, -beta))
        q = None if rng.random() < 0.25 else int(rng.integers(n))
        beta = pool[int(rng.integers(len(pool)))]
        beta = beta if rng.random() < 0.5 else -beta
        steps.append((q, beta))
        opened.append((q, beta))
    steps += [(q, -beta) for q, beta in (opened[k] for k in rng.permutation(len(opened)))]
    return steps


def _mixed_start_state(rng, n):
    """A sparse register whose branches start on a few buses, signed zeros included."""
    bits = np.sort(rng.choice(2**n, int(rng.integers(1, 2**n + 1)), replace=False))
    coeff = rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)
    starts = np.array([0.0, complex(-0.0, -0.0), 0.45 - 0.3j, complex(*rng.normal(size=2))])
    return busim.HybridState(n, bits, coeff / np.linalg.norm(coeff),
                             starts[rng.integers(0, starts.size, bits.size)])


class TestProgramSteps:
    """A program's steps are its builder's (qubit, beta) loop, run as they are."""

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("beta", [BETA_STAR, 0.3])
    def test_steps_are_the_builders_loop(self, n, beta):
        b1, b2 = complex(beta), complex(0.2, -beta)
        star = ([(0, 1j * beta)] + [(q, complex(beta)) for q in range(1, n)]
                + [(0, -1j * beta)] + [(q, complex(-beta)) for q in range(1, n)])
        for seq, loop in (
            (gates.geometric_cz(b1, b2)[0], [(0, b1), (1, b2), (0, -b1), (1, -b2)]),
            (gates.star_sequence(n, beta)[0], star),
            (gates.chain_sequence(n, beta)[0], _chain_loop(n, beta)),
        ):
            assert isinstance(seq.steps, tuple)
            assert list(seq.steps) == loop
            assert all(type(q) is int and type(b) is complex for q, b in seq.steps)

    @pytest.mark.parametrize("maker", [gates.chain_sequence, gates.star_sequence])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_run_sequence_is_the_displacement_program(self, maker, n):
        """A closed program's phase form agrees with the kernel."""
        seq, _ = maker(n, BETA_STAR)
        for bus in (0.0, 0.45 - 0.3j):
            state = busim.attach_bus(QubitState.plus(n), bus)
            assert _agrees_with_kernel(gates.run_sequence(state, seq),
                                       busim.run_displacement_program(state, seq.steps))

    def test_geometric_cz_runs_as_its_program(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            seq, _ = gates.geometric_cz(complex(*rng.normal(size=2)),
                                        complex(*rng.normal(size=2)))
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = busim.attach_bus(QubitState(2, v, normalize=True),
                                     complex(*rng.normal(size=2)))
            assert _agrees_with_kernel(gates.run_sequence(state, seq),
                                       busim.run_displacement_program(state, seq.steps))

    @pytest.mark.parametrize("maker", [gates.chain_sequence, gates.star_sequence])
    def test_sparse_register_past_sixteen_qubits(self, maker):
        """Patterns wider than one gather of the 16-bit popcount table."""
        rng = np.random.default_rng(36)
        n = 20
        bits = np.sort(rng.choice(2**n, 600, replace=False))
        coeff = rng.normal(size=bits.size) + 1j * rng.normal(size=bits.size)
        state = busim.HybridState(n, bits, coeff / np.linalg.norm(coeff),
                                  np.full(bits.size, 0.45 - 0.3j))
        seq, _ = maker(n, BETA_STAR)
        assert _agrees_with_kernel(gates.run_sequence(state, seq),
                                   busim.run_displacement_program(state, seq.steps))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_closed_programs_agree(self, seed):
        """Mixed starts, bus steps and values repeated across qubits."""
        rng = np.random.default_rng([3535, seed])
        n = int(rng.integers(1, 8))
        steps = _closed_cross_qubit_program(rng, n)
        assert busim.phase_form(n, steps) is not None
        state = _mixed_start_state(rng, n)
        assert _agrees_with_kernel(
            gates.run_sequence(state, gates.InteractionSequence(n, tuple(steps))),
            busim.run_displacement_program(state, steps))

    @pytest.mark.parametrize("seed", range(10))
    def test_open_program_runs_as_the_kernel(self, seed):
        """One displacement left open: no phase form, the kernel's bytes exactly."""
        rng = np.random.default_rng([3536, seed])
        n = int(rng.integers(1, 8))
        steps = _closed_cross_qubit_program(rng, n)
        steps.insert(int(rng.integers(len(steps) + 1)),
                     (None if seed % 2 else int(rng.integers(n)), complex(0.3, -0.2)))
        assert busim.phase_form(n, steps) is None
        state = _mixed_start_state(rng, n)
        assert _same_run_bytes(
            gates.run_sequence(state, gates.InteractionSequence(n, tuple(steps))),
            busim.run_displacement_program(state, steps))

    def test_empty_program_refused(self):
        with pytest.raises(ValueError, match="at least one interaction"):
            gates.InteractionSequence(2, ())

    @pytest.mark.parametrize("qubit", [2, -1])
    def test_qubit_outside_register_refused(self, qubit):
        with pytest.raises(ValueError, match=f"qubit {qubit} outside register"):
            gates.InteractionSequence(2, ((0, 0.5), (qubit, 0.5)))

    def test_register_size_mismatch_refused(self):
        seq, _ = gates.chain_sequence(3, BETA_STAR)
        with pytest.raises(ValueError, match="register size mismatch"):
            gates.run_sequence(busim.attach_bus(QubitState.plus(4), 0.0), seq)

    def test_unconditional_step_runs(self):
        seq = gates.InteractionSequence(1, ((None, 0.3 - 0.2j), (0, 0.5j), (None, 0.1)))
        start = busim.attach_bus(QubitState.plus(1), 0.2)
        out = gates.run_sequence(start, seq)
        want = busim.run_displacement_program(start, [(None, 0.3 - 0.2j)])
        want = busim.run_displacement_program(want, [(0, 0.5j)])
        want = busim.run_displacement_program(want, [(None, 0.1)])
        assert_allclose(out.bus, want.bus, atol=1e-15)
        assert_allclose(out.coeff, want.coeff, atol=1e-15)


def apply_z_phase(state, qubit, angle):
    """diag(1, e^{i angle}) on one qubit of a register state."""
    n = state.qubit_count
    return QubitState(n, busim.z_phase_action(state.amplitudes, np.arange(2**n), n, qubit, angle))


def apply_pauli(state, qubit, pauli):
    """X, Y or Z on one qubit of a register state."""
    n = state.qubit_count
    return QubitState(n, pauli_action(state.amplitudes, n, qubit, pauli))


def _random_product(rng, n, spread=(0.2, 1.3)):
    """A product register with random phases, magnitudes cos and sin of ``spread``."""
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        angle = rng.uniform(*spread)
        amps = np.kron(amps, [math.cos(angle),
                              math.sin(angle) * np.exp(1j * rng.uniform(-4, 4))])
    return QubitState(n, amps, normalize=True)


def _solve_one(posterior, target):
    """The solver on a batch of one pair."""
    (solved,) = gates.solve_local_z_corrections([posterior], [target])
    return solved


class TestCorrectionSolver:
    def test_corrections_equal_one_phase_at_a_time(self):
        """One amplitude array holds the bytes of one apply_z_phase per correction."""
        rng = np.random.default_rng(23)
        for n in (1, 3, 6, 9):
            state = _random_product(rng, n)
            qubits, angles = rng.integers(0, n, size=2 * n), rng.uniform(-4, 4, size=2 * n)
            corrections = [gates.Correction(int(q), "phase", float(a))
                           for q, a in zip(qubits, angles)]
            want = state
            for c in corrections:
                want = apply_z_phase(want, c.qubit, c.angle)
            got = gates.apply_corrections(state, corrections)
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        with pytest.raises(ValueError):
            gates.apply_corrections(state, [gates.Correction(n, "phase", 0.5)])

    def test_solves_pure_z_frame(self):
        state = QubitState.plus(2)
        rotated = apply_z_phase(apply_z_phase(state, 0, 0.7), 1, -0.4)
        corr = _solve_one(rotated, state)
        assert corr is not None
        assert fidelity(gates.apply_corrections(rotated, corr), state) >= 1 - 1e-12

    def test_rejects_unreachable_target(self):
        plus = QubitState.plus(2)
        bell = EVEN_BELL
        assert _solve_one(plus, bell) is None

    def test_rejects_non_local_phases(self):
        """Same support and magnitudes, but a CZ sign no local phase makes."""
        cz = QubitState(2, np.array([1, 1, 1, -1]) / 2.0)
        assert _solve_one(QubitState.plus(2), cz) is None

    def test_wrapped_z_frame_solved(self):
        """Phase 3.0 on every qubit wraps the pattern phases (6.0 -> -0.28)."""
        for n in range(2, 9):
            plus = QubitState.plus(n)
            framed = plus
            for q in range(n):
                framed = apply_z_phase(framed, q, 3.0)
            corr = _solve_one(plus, framed)
            assert corr is not None, n
            assert fidelity(gates.apply_corrections(plus, corr), framed) >= 1 - 1e-12

    @pytest.mark.parametrize("zs", [(0, 1), (0, 1, 2), (0, 2), "all"])
    def test_exact_pauli_z_frame_solved(self, zs):
        """Ratio angles of exactly pi put every unwrap step on the rounding tie."""
        rng = np.random.default_rng(31)
        for n in range(max(zs) + 1 if zs != "all" else 1, 9):
            for post in (QubitState.plus(n), _random_product(rng, n)):
                framed = post
                for q in (range(n) if zs == "all" else zs):
                    framed = apply_pauli(framed, q, "Z")
                corr = _solve_one(post, framed)
                assert corr is not None, n
                assert fidelity(gates.apply_corrections(post, corr), framed) >= 1 - 1e-12

    # in 0-1-3-7-6 the pairs 0-1 and 7-6 flip qubit 2 in opposite directions;
    # 0-5-6-3 has no single-qubit flip at all
    @pytest.mark.parametrize("support", [None, (0, 1, 3), (1, 3, 7, 6), (0, 5, 6, 3),
                                         (0, 1, 3, 7, 6)])
    def test_random_z_frames_solved(self, support):
        """Random product posteriors under random per-qubit phases in (-4, 4)."""
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = 3 if support else int(rng.integers(1, 7))
            amps = _random_product(rng, n).amplitudes
            if support:
                mask = np.zeros(2**n, dtype=bool)
                mask[list(support)] = True
                amps[~mask] = 0.0
            post = QubitState(n, amps, normalize=True)
            framed = post
            for q in range(n):
                framed = apply_z_phase(framed, q, float(rng.uniform(-4, 4)))
            corr = _solve_one(post, framed)
            assert corr is not None
            assert fidelity(gates.apply_corrections(post, corr), framed) >= 1 - 1e-12

    def test_tables_keep_plain_least_squares_answers(self):
        """Where the wrapped angles already fit, unwrapping changes no bit."""
        def plain(posterior, target):
            tol = gates.Z_SOLVE_TOL
            n = posterior.qubit_count
            a, t = posterior.amplitudes, target.amplitudes
            support = np.flatnonzero(np.abs(a) > tol)
            if not np.array_equal(support, np.flatnonzero(np.abs(t) > tol)):
                return ()
            ratios = t[support] / a[support]
            if np.max(np.abs(np.abs(ratios) - np.abs(ratios[0]))) > 1e-6:
                return ()
            rows = np.array([[(int(b) >> (n - 1 - q)) & 1 for q in range(n)]
                             for b in support], dtype=np.float64)
            deltas, *_ = np.linalg.lstsq(rows - rows[0], np.angle(ratios / ratios[0]),
                                         rcond=None)
            bits = (support[:, None] >> np.arange(n - 1, -1, -1)) & 1
            if not gates._phases_match(a[support][None], t[support][None], bits, deltas[None])[0]:
                return ()
            return tuple(gates.Correction(q, "phase", float(d))
                         for q, d in enumerate(deltas)
                         if abs(np.exp(1j * d) - 1.0) > tol)

        rng = np.random.default_rng(5)
        phased = (math.pi / 4, math.pi / 4)  # |+> up to a random phase per qubit
        checked = 0
        for alpha, theta in ((1000.0, 0.003), (437.0, 0.0071)):
            tables = [gates.cascade_outcomes(n, alpha, theta) for n in range(2, 7)]
            tables += [gates.cascade_outcomes(4, alpha, theta, _random_product(rng, 4, phased))]
            for build in (gates.three_qubit_outcomes, gates.position_parity_outcomes,
                          gates.momentum_parity_outcomes):
                n = 3 if build is gates.three_qubit_outcomes else 2
                tables += [build(alpha, theta), build(alpha, theta, _random_product(rng, n)),
                           build(alpha, theta, _random_product(rng, n, phased))]
            for table in tables:
                for o in table:
                    if o.target is not None:
                        assert o.corrections == plain(o.posterior, o.target), o.label
                        checked += bool(o.corrections)
        assert checked >= 10

    def test_partial_support(self):
        post = QubitState(2, np.array([0, 1, 1j, 0]) / math.sqrt(2))
        corr = _solve_one(post, ODD_BELL)
        assert corr is not None
        assert fidelity(gates.apply_corrections(post, corr), ODD_BELL) >= 1 - 1e-12


# ---------------------------------------------------------------------------
# the batched solver against the per-row solver it replaced


def _ref_solve(posterior, target):
    """One (posterior, target) pair solved alone: the per-row solver that
    the batched one replaced, as it was."""
    n = posterior.qubit_count
    a, t = posterior.amplitudes, target.amplitudes
    support = np.flatnonzero(np.abs(a) > gates.Z_SOLVE_TOL)
    if not np.array_equal(support, np.flatnonzero(np.abs(t) > gates.Z_SOLVE_TOL)):
        return None
    ratios = t[support] / a[support]
    if np.max(np.abs(np.abs(ratios) - np.abs(ratios[0]))) > 1e-6:
        return None
    bits = (support[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rows = (bits - bits[0]).astype(np.float64)
    r = ratios / ratios[0]
    phis = np.angle(r)
    index = np.full(1 << n, -1)
    index[support] = np.arange(support.size)
    partner = index[support[:, None] ^ (1 << np.arange(n - 1, -1, -1))]
    i = np.argmax(partner >= 0, axis=0)
    j = partner[i, np.arange(n)]
    step = np.where(j >= 0, np.angle(r[j] / r[i]), 0.0)
    phis = phis + 2.0 * np.pi * np.round((rows @ step - phis) / (2.0 * np.pi))
    deltas, *_ = np.linalg.lstsq(rows, phis, rcond=None)
    corrected = a[support]
    for q, d in enumerate(deltas):
        corrected = busim.z_phase_action(corrected, support, n, q, d)
    g = t[support[0]] / corrected[0]
    if not np.max(np.abs(g * corrected - t[support])) <= math.sqrt(gates.Z_SOLVE_TOL):
        return None
    return tuple(gates.Correction(q, "phase", float(d)) for q, d in enumerate(deltas)
                 if abs(cmath.exp(1j * d) - 1.0) > gates.Z_SOLVE_TOL)


def _correction_bytes(solved):
    """A solver answer with every angle as its float's bytes."""
    return None if solved is None else [(c.qubit, np.float64(c.angle).tobytes()) for c in solved]


def _check_batch(posteriors, targets):
    """The batched answers, each the per-row solver's, byte for byte."""
    got = gates.solve_local_z_corrections(posteriors, targets)
    want = [_ref_solve(p, t) for p, t in zip(posteriors, targets)]
    assert [_correction_bytes(g) for g in got] == [_correction_bytes(w) for w in want]
    return got


class TestBatchedSolverMatchesPerRow:
    @pytest.mark.parametrize("alpha, theta", BUCKET_INPUTS + [(2.0, 0.4), (1.5, 0.5)])
    def test_resolving_bucket_tables(self, alpha, theta):
        n_max = None if alpha < 10 else 6
        outs = gates.bucket_parity_outcomes(alpha, theta, number_resolving=True, n_max=n_max)
        rows = [o for o in outs if o.label.startswith("even-bell-")]
        assert len(rows) >= 6
        for o in rows:
            assert _correction_bytes(o.corrections) == _correction_bytes(
                _ref_solve(o.posterior, o.target) or ())
        # the table's rows share one support, so they made one batch
        _check_batch([o.posterior for o in rows], [o.target for o in rows])

    def test_random_two_qubit_registers(self):
        """Random supports, magnitudes and Z frames on two qubits, in one
        batch; a third of the targets carry a CZ sign, which fails wherever
        the support holds all four patterns."""
        rng = np.random.default_rng(4242)
        posteriors, targets = [], []
        for k in range(60):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps[rng.random(4) < 0.3] = 0.0
            if not amps.any():
                amps[int(rng.integers(4))] = 1.0
            post = QubitState(2, amps, normalize=True)
            target = post
            for q in range(2):
                target = apply_z_phase(target, q, float(rng.uniform(-4, 4)))
            if k % 3 == 0:
                target = QubitState(2, target.amplitudes * np.array([1, 1, 1, -1]))
            posteriors.append(post)
            targets.append(target)
        got = _check_batch(posteriors, targets)
        assert sum(g is None for g in got) >= 5 and sum(g is not None for g in got) >= 40

    def test_heralded_cascade_rows(self):
        checked = 0
        for n in range(2, 9):
            for alpha, theta in ((1000.0, 0.003), (437.0, 0.0071)):
                for o in gates.cascade_outcomes(n, alpha, theta):
                    if o.target is not None:
                        assert _correction_bytes(o.corrections) == _correction_bytes(
                            _ref_solve(o.posterior, o.target) or ())
                        _check_batch([o.posterior], [o.target])
                        checked += 1
        assert checked >= 2 * 7 + 4  # one ghz row per table, two more bell rows at n = 3

    def test_rows_failing_support_and_magnitude_checks(self):
        """Failing rows beside passing ones get None and change no other row."""
        plus = QubitState.plus(2)
        framed = apply_z_phase(apply_z_phase(plus, 0, 0.7), 1, -2.9)
        uneven = QubitState(2, np.array([1, 1, 1, 2]) / math.sqrt(7))
        cz = QubitState(2, np.array([1, 1, 1, -1]) / 2.0)
        posteriors = [plus, plus, plus, ODD_BELL, plus, QubitState(2, ODD_BELL.amplitudes * 1j)]
        targets = [framed, EVEN_BELL, uneven, plus, cz, ODD_BELL]
        got = _check_batch(posteriors, targets)
        assert [g is None for g in got] == [False, True, True, True, True, False]
        assert gates.solve_local_z_corrections([], []) == []

    def test_pair_answer_independent_of_its_batch(self):
        """Three Z-framed 3-5-qubit registers on full supports (8-32
        patterns) solved in one batch get the bytes that each gets alone:
        no pair's corrections depend on the pairs beside it."""
        rng = np.random.default_rng(5151)
        for _ in range(200):
            n = int(rng.integers(3, 6))
            posteriors, targets = [], []
            for _ in range(3):
                post = QubitState(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n),
                                  normalize=True)
                target = post
                for q in range(n):
                    target = apply_z_phase(target, q, float(rng.uniform(-4, 4)))
                posteriors.append(post)
                targets.append(target)
            got = gates.solve_local_z_corrections(posteriors, targets)
            assert all(g is not None for g in got)
            assert [_correction_bytes(g) for g in got] == [
                _correction_bytes(_solve_one(p, t)) for p, t in zip(posteriors, targets)]

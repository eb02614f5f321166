"""Gate protocols: outcome tables, corrections, budgets, geometric sequences."""

import cmath
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubuslab import busim, gates
from qubuslab.busim import QubitState, fidelity
from qubuslab.oracles import graph_state_vector

ODD_BELL = QubitState(2, np.array([0, 1, 1, 0]) / math.sqrt(2))
EVEN_BELL = QubitState(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
BETA_STAR = math.sqrt(math.pi / 8.0)


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
        out = gates.momentum_parity_outcomes(1000.0, 0.003, QubitState.basis(2, 0))
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
        assert gates._cascade_label(4, list(members), QubitState(4, amps)) == "mixed"

    def test_ghz_times_plus_is_entangled(self):
        amps = np.zeros(16)
        amps[[0, 1, 14, 15]] = 0.5  # (|000> + |111>)/sqrt(2) on qubits 0-2, |+> on 3
        assert gates._cascade_label(4, [0, 1, 14, 15], QubitState(4, amps)) == "entangled"

    def test_rank_test_on_known_states(self):
        bell_and_plus = QubitState(3, np.array([1, 1, 0, 0, 0, 0, 1, 1]) / 2.0)
        assert gates._entangled_with_rest(bell_and_plus, 0)
        assert gates._entangled_with_rest(bell_and_plus, 1)
        assert not gates._entangled_with_rest(QubitState.plus(3), 0)
        assert not gates._entangled_with_rest(QubitState.basis(3, 5), 2)
        # qubit 0 pure, qubits 1 and 2 in a Bell pair
        split = QubitState(3, np.array([1, 0, 0, 1, 0, 0, 0, 0]) / math.sqrt(2.0))
        assert not gates._entangled_with_rest(split, 0)
        assert gates._entangled_with_rest(split, 1)

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


class TestDerivedCouplings:
    def test_match_branch_kernel_on_random_programs(self):
        """Derived J against run_displacement_program's relative branch phases."""
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(300):
            n, loop = _random_closed_loop(rng)
            coupling = gates._zz_couplings(loop)
            assert coupling is not None
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
        assert gates._zz_couplings(loop) is None
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

    def test_zero_terms_are_not_stored(self):
        """Leaves of a star never couple, so no leaf pair is held."""
        seq, _ = gates.star_sequence(40, BETA_STAR)
        coupling = gates._zz_couplings(list(seq.steps))
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
        start = busim.attach_bus(QubitState.basis(1, 0), 0.25 - 0.1j)
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
                for bits, (_, bus) in state.branch_map().items():
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
    @pytest.mark.parametrize("n", range(2, 11))
    def test_run_sequence_is_the_displacement_program(self, maker, n):
        seq, _ = maker(n, BETA_STAR)
        for bus in (0.0, 0.45 - 0.3j):
            state = busim.attach_bus(QubitState.plus(n), bus)
            assert _same_run_bytes(gates.run_sequence(state, seq),
                                   busim.run_displacement_program(state, seq.steps))

    def test_geometric_cz_runs_as_its_program(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            seq, _ = gates.geometric_cz(complex(*rng.normal(size=2)),
                                        complex(*rng.normal(size=2)))
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = busim.attach_bus(QubitState(2, v, normalize=True),
                                     complex(*rng.normal(size=2)))
            assert _same_run_bytes(gates.run_sequence(state, seq),
                                   busim.run_displacement_program(state, seq.steps))

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


def _random_product(rng, n, spread=(0.2, 1.3)):
    """A product register with random phases, magnitudes cos and sin of ``spread``."""
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(n):
        angle = rng.uniform(*spread)
        amps = np.kron(amps, [math.cos(angle),
                              math.sin(angle) * np.exp(1j * rng.uniform(-4, 4))])
    return QubitState(n, amps, normalize=True)


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
                want = busim.apply_z_phase(want, c.qubit, c.angle)
            got = gates.apply_corrections(state, corrections)
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        with pytest.raises(ValueError):
            gates.apply_corrections(state, [gates.Correction(n, "phase", 0.5)])

    def test_solves_pure_z_frame(self):
        state = QubitState.plus(2)
        rotated = busim.apply_z_phase(busim.apply_z_phase(state, 0, 0.7), 1, -0.4)
        corr = gates.solve_local_z_corrections(rotated, state)
        assert corr is not None
        assert fidelity(gates.apply_corrections(rotated, corr), state) >= 1 - 1e-12

    def test_rejects_unreachable_target(self):
        plus = QubitState.plus(2)
        bell = EVEN_BELL
        assert gates.solve_local_z_corrections(plus, bell) is None

    def test_rejects_non_local_phases(self):
        """Same support and magnitudes, but a CZ sign no local phase makes."""
        cz = QubitState(2, np.array([1, 1, 1, -1]) / 2.0)
        assert gates.solve_local_z_corrections(QubitState.plus(2), cz) is None

    def test_wrapped_z_frame_solved(self):
        """Phase 3.0 on every qubit wraps the pattern phases (6.0 -> -0.28)."""
        for n in range(2, 9):
            plus = QubitState.plus(n)
            framed = plus
            for q in range(n):
                framed = busim.apply_z_phase(framed, q, 3.0)
            corr = gates.solve_local_z_corrections(plus, framed)
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
                    framed = busim.apply_pauli(framed, q, "Z")
                corr = gates.solve_local_z_corrections(post, framed)
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
                framed = busim.apply_z_phase(framed, q, float(rng.uniform(-4, 4)))
            corr = gates.solve_local_z_corrections(post, framed)
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
            if not gates._phases_match(a, t, support, deltas, n):
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
        corr = gates.solve_local_z_corrections(post, ODD_BELL)
        assert corr is not None
        assert fidelity(gates.apply_corrections(post, corr), ODD_BELL) >= 1 - 1e-12

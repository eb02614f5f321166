"""Monte Carlo strategy engine: reproducibility, conservation, scaling laws."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubuslab import analytics, gates, growth
from qubuslab.growth import StrategyConfig, simulate, trial_rng


class TestConfigValidation:
    def test_sequential_needs_target(self):
        with pytest.raises(ValueError):
            StrategyConfig(variant="sequential", p=0.75, trials=10, master_seed=0)

    def test_sequential_low_p_needs_cap(self):
        with pytest.raises(ValueError, match="does not terminate"):
            StrategyConfig(
                variant="sequential", p=0.5, trials=10, master_seed=0, target_L=5
            )
        StrategyConfig(
            variant="sequential", p=0.5, trials=10, master_seed=0, target_L=5,
            max_rounds=100,
        )

    def test_merge_below_critical_rejected(self):
        with pytest.raises(ValueError, match="critical length"):
            StrategyConfig(
                variant="merge", p=0.5, trials=10, master_seed=0, target_L=3
            )

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            StrategyConfig(
                variant="sequential", p=1.5, trials=10, master_seed=0, target_L=5
            )

    @pytest.mark.parametrize("field, value", [
        (field, value)
        for field in ("trials", "master_seed", "target_L", "rounds_k", "initial_qubits",
                      "max_rounds")
        for value in (2.5, 3.0, True, "3")
    ] + [("trials", None), ("master_seed", None)])
    def test_counts_must_be_integers(self, field, value):
        base = dict(variant="divide_conquer", p=0.75, trials=10, master_seed=0,
                    initial_qubits=16, rounds_k=2, max_rounds=50)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            StrategyConfig(**{**base, field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = StrategyConfig(variant="sequential", p=0.75, trials=np.int64(10),
                             master_seed=np.uint32(3), target_L=np.int32(5))
        assert cfg.trials == 10 and cfg.target_L == 5

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            StrategyConfig(variant="snake", p=0.5, trials=10, master_seed=0)

    @pytest.mark.parametrize("gate_time", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_gate_time(self, gate_time):
        with pytest.raises(ValueError, match="gate_time must be finite and > 0"):
            StrategyConfig(variant="vertical_link", p=0.5, trials=10, master_seed=0,
                           gate_time=gate_time)

    @pytest.mark.parametrize("max_rounds", [0, -3])
    def test_bad_max_rounds(self, max_rounds):
        with pytest.raises(ValueError, match="max_rounds must be at least 1"):
            StrategyConfig(variant="sequential", p=0.75, trials=10, master_seed=0,
                           target_L=5, max_rounds=max_rounds)

    @pytest.mark.parametrize("variant, kwargs", [
        ("vertical_link", {}),
        ("merge", dict(target_L=41)),
        ("divide_conquer", dict(initial_qubits=64, rounds_k=3)),
        ("sequential", dict(target_L=7)),
    ])
    def test_unknown_backend_rejected_for_any_variant(self, variant, kwargs):
        with pytest.raises(ValueError, match="unknown gate backend 'four-qubit'"):
            StrategyConfig(variant=variant, p=0.75, trials=3, master_seed=0,
                           gate_backend="four-qubit", **kwargs)

    @pytest.mark.parametrize("variant, kwargs", [
        ("vertical_link", {}),
        ("merge", dict(target_L=41)),
        ("divide_conquer", dict(initial_qubits=64, rounds_k=3)),
    ])
    def test_backend_only_on_sequential(self, variant, kwargs):
        with pytest.raises(ValueError, match="only sequential growth"):
            StrategyConfig(variant=variant, p=0.75, trials=3, master_seed=0,
                           gate_backend="three-qubit", **kwargs)

    @pytest.mark.parametrize("alpha, theta", [
        (math.nan, 0.003), (math.inf, 0.003), (0.0, 0.003), (-1000.0, 0.003),
        (1000.0, math.nan), (1000.0, -math.inf),
    ])
    def test_bad_alpha_or_theta(self, alpha, theta):
        for backend in (None, "three-qubit"):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                StrategyConfig(variant="sequential", p=0.75, trials=3, master_seed=0,
                               target_L=7, gate_backend=backend, alpha=alpha,
                               theta=theta)

    def test_negative_theta_accepted(self):
        StrategyConfig(variant="sequential", p=0.75, trials=3, master_seed=0,
                       target_L=7, gate_backend="three-qubit", theta=-0.003)

    @pytest.mark.parametrize("target_L", [4, 10, 16])
    def test_divide_conquer_length_off_grid(self, target_L):
        with pytest.raises(ValueError, match=f"length {target_L} is not of the form"):
            StrategyConfig(variant="divide_conquer", p=0.5, trials=3, master_seed=0,
                           initial_qubits=64, target_L=target_L)

    @pytest.mark.parametrize("target_L, rounds", [(1, 0), (2, 1), (3, 2), (17, 5)])
    def test_divide_conquer_length_on_grid(self, target_L, rounds):
        cfg = StrategyConfig(variant="divide_conquer", p=0.5, trials=3, master_seed=0,
                             initial_qubits=64, target_L=target_L)
        assert cfg.rounds() == rounds

    @pytest.mark.parametrize("rounds", [dict(rounds_k=6, target_L=9),
                                        dict(rounds_k=6, target_L=33), {}])
    def test_divide_conquer_takes_one_round_count(self, rounds):
        with pytest.raises(ValueError, match="exactly one of rounds_k and target_L"):
            StrategyConfig(variant="divide_conquer", p=0.5, trials=3, master_seed=0,
                           initial_qubits=1024, **rounds)

    def test_negative_round_count(self):
        with pytest.raises(ValueError, match="rounds_k >= 0"):
            StrategyConfig(variant="divide_conquer", p=0.5, trials=10, master_seed=0,
                           initial_qubits=64, rounds_k=-1)


class TestStrategyTable:
    def test_variant_order(self):
        assert growth.VARIANTS == ("sequential", "merge", "divide_conquer",
                                   "vertical_link")

    @pytest.mark.parametrize("variant, kwargs, rows", [
        ("sequential", dict(target_L=9), ["entangling_ops", "elapsed_rounds"]),
        ("merge", dict(target_L=21), ["entangling_ops", "elapsed_rounds"]),
        ("divide_conquer", dict(initial_qubits=64, rounds_k=3),
         ["surviving_chains", "surviving_qubits", "qubits_wasted", "entangling_ops"]),
        ("vertical_link", {}, ["qubits_consumed", "entangling_ops"]),
    ])
    def test_compared_columns_exist(self, variant, kwargs, rows):
        cfg = StrategyConfig(variant=variant, p=0.75, trials=20, master_seed=3, **kwargs)
        stats = simulate(cfg)
        point = analytics.scaling_point(variant, 0.75, L=cfg.target_L,
                                        n=cfg.initial_qubits, k=cfg.rounds_k)
        for column, key in growth._STRATEGIES[variant][2]:
            assert column in stats.columns()
            assert key in {"N", "T", *point.extras}
        assert [row.metric for row in growth.compare_to_analytic(stats, point)] == rows


class TestTrialRng:
    def test_streams_are_distinct(self):
        a = trial_rng(7, 0).random(8)
        b = trial_rng(7, 1).random(8)
        assert not np.allclose(a, b)

    def test_streams_are_reproducible(self):
        assert_allclose(trial_rng(7, 3).random(8), trial_rng(7, 3).random(8))

    def test_master_seed_matters(self):
        a = trial_rng(7, 0).random(8)
        b = trial_rng(8, 0).random(8)
        assert not np.allclose(a, b)


def _draws(rng):
    """One of each draw the growth kernels and NumPy's samplers make."""
    return (
        rng.random(5).tobytes(),
        rng.binomial(1000, 0.37, size=3).tobytes(),
        rng.binomial(7, 0.5),
        rng.integers(0, 2**31 - 1, size=5, dtype=np.int32).tobytes(),  # 32-bit
        rng.integers(0, 2**62, size=3, dtype=np.int64).tobytes(),  # 64-bit
        rng.choice(6, size=4, p=[0.1, 0.2, 0.3, 0.15, 0.05, 0.2]).tobytes(),
        rng.choice(1000, size=3, replace=False).tobytes(),
        rng.random(),
    )


def _scramble(rng, k):
    """Leave ``rng`` part-way through its buffer and its 32-bit half-word."""
    rng.random(k % 4 + 1)  # Philox buffers four 64-bit words per counter step
    rng.integers(0, 2**32, size=2 * (k % 3) + 1, dtype=np.uint32)  # odd count


class TestRekeyedStream:
    """``trial_rng(seed, i, rng)`` rekeys rng to the fresh (seed, i) stream."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(20240)
        seeds = [0, 1, 7, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1]
        seeds += [int(s) for s in rng.integers(0, 2**63, size=13)]
        seeds += [2**63 + int(s) for s in rng.integers(0, 2**63, size=10)]
        indices = [0, 1, 2, 2**32, 2**63, 2**64 - 1]
        indices += [int(i) for i in rng.integers(0, 2**20, size=4)]
        return [(s, i) for s in seeds for i in indices]  # 300 pairs

    def test_rekey_equals_fresh_generator(self):
        pairs = self._pairs()
        assert len(pairs) >= 200
        rng = np.random.Generator(np.random.Philox(0))
        part_used = 0
        for k, (seed, index) in enumerate(pairs):
            _scramble(rng, k)
            before = rng.bit_generator.state
            assert before["has_uint32"] == 1
            part_used += before["buffer_pos"] not in (0, 4)
            assert trial_rng(seed, index, rng) is rng
            fresh = trial_rng(seed, index)
            state, want = rng.bit_generator.state, fresh.bit_generator.state
            assert np.array_equal(state["state"]["key"], want["state"]["key"])
            assert np.array_equal(state["state"]["counter"], want["state"]["counter"])
            assert np.array_equal(state["buffer"], want["buffer"])
            assert (state["buffer_pos"], state["has_uint32"], state["uinteger"]) == (
                want["buffer_pos"], want["has_uint32"], want["uinteger"])
            assert _draws(rng) == _draws(fresh), (seed, index)
        assert part_used >= len(pairs) // 2  # rekeys from a part-used buffer

    @pytest.mark.parametrize("counter", [0, 64, 64000, 2**40, 2**64 - 1])
    def test_counter_addresses_the_stream(self, counter):
        """Keyed at counter c, rekeyed or fresh, a stream is its start advanced by c."""
        pairs = self._pairs()[::6]
        rng = np.random.Generator(np.random.Philox(0))
        part_used = 0
        for k, (seed, index) in enumerate(pairs):
            _scramble(rng, k)
            before = rng.bit_generator.state
            assert before["has_uint32"] == 1
            part_used += before["buffer_pos"] not in (0, 4)
            assert trial_rng(seed, index, rng, counter) is rng
            fresh = trial_rng(seed, index, counter=counter)
            advanced = trial_rng(seed, index)
            advanced.bit_generator.advance(counter)
            for other in (fresh, advanced):
                assert np.array_equal(rng.bit_generator.state["state"]["counter"],
                                      other.bit_generator.state["state"]["counter"])
            assert _draws(rng) == _draws(fresh) == _draws(advanced), (seed, index)
        assert part_used >= len(pairs) // 2

    @pytest.fixture
    def calls(self, monkeypatch):
        """The (seed, trial) of every ``growth.trial_rng`` call."""
        calls = []
        real = growth.trial_rng

        def spy(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(growth, "trial_rng", spy)
        return calls

    def test_one_trial_rng_call_per_trial(self, calls):
        for kwargs in PREFIX_CONFIGS:
            if kwargs["variant"] == "merge":  # rekeyed once per block: see below
                continue
            calls.clear()
            simulate(StrategyConfig(p=0.75, trials=17, master_seed=4, **kwargs))
            assert calls == [(4, i) for i in range(17)]
        calls.clear()
        growth.join_pair_experiment(0.75, 5, 23, seed=9)
        assert calls == [(9, i) for i in range(23)]

    def test_merge_rekeys_once_per_block(self, calls):
        """A merge trial is rekeyed to its own stream for each block it reads."""
        cfg = StrategyConfig(variant="merge", p=0.5, target_L=41, trials=17, master_seed=4)
        ops = simulate(cfg).entangling_ops
        assert (ops > 2 * growth._WIDTH).any()  # some trials read three blocks
        assert {seed for seed, _ in calls} == {4}
        assert list(dict.fromkeys(i for _, i in calls)) == list(range(17))
        blocks = -(-ops.astype(int) // growth._WIDTH)
        assert [calls.count((4, i)) for i in range(17)] == blocks.tolist()


class TestGateSampler:
    CONFIG = StrategyConfig(
        variant="sequential", p=0.75, trials=1, master_seed=0, target_L=5,
        gate_backend="three-qubit",
    )

    def test_cdf_draw_equals_rng_choice(self):
        outcomes = gates.three_qubit_outcomes(self.CONFIG.alpha, self.CONFIG.theta)
        probs = np.array([o.probability for o in outcomes])
        probs = probs / probs.sum()
        classes = [
            (o.label == "ghz" or o.label.startswith("bell"), o.label == "ghz")
            for o in outcomes
        ]
        assert len(set(classes)) == 3
        rng = np.random.Generator(np.random.Philox(0))
        sample = growth._attempt_sampler(self.CONFIG)
        for seed in range(50):
            success, spare = sample(trial_rng(seed, 3, rng).random(5000))
            got = list(zip(success.tolist(), spare.tolist()))
            # one choice of 5000 draws uses the same uniforms as one block
            picks = trial_rng(seed, 3).choice(len(probs), size=5000, p=probs)
            assert got == [classes[k] for k in picks.tolist()], seed

    def test_table_built_once_per_simulate_call(self, monkeypatch):
        calls = []
        real = gates.three_qubit_outcomes

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gates, "three_qubit_outcomes", spy)
        cfg = StrategyConfig(
            variant="sequential", p=0.75, trials=25, master_seed=2, target_L=7,
            gate_backend="three-qubit",
        )
        simulate(cfg)
        assert len(calls) == 1
        simulate(cfg)
        assert len(calls) == 2

    def test_bad_table_rejected(self, monkeypatch):
        real = gates.three_qubit_outcomes

        def skewed(*args, **kwargs):
            table = list(real(*args, **kwargs))
            table[0] = dataclasses.replace(table[0], probability=-0.5)
            return tuple(table)

        monkeypatch.setattr(gates, "three_qubit_outcomes", skewed)
        with pytest.raises(ValueError, match="not a distribution"):
            growth._attempt_sampler(self.CONFIG)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown gate backend"):
            StrategyConfig(
                variant="sequential", p=0.75, trials=3, master_seed=2, target_L=7,
                gate_backend="four-qubit",
            )


class TestSequential:
    def test_deterministic_gate(self):
        cfg = StrategyConfig(
            variant="sequential", p=1.0, trials=50, master_seed=1, target_L=10
        )
        stats = simulate(cfg)
        assert set(stats.entangling_ops.tolist()) == {9.0}
        assert set(stats.final_length.tolist()) == {10.0}

    def test_mean_ops_tracks_drift_formula(self):
        cfg = StrategyConfig(
            variant="sequential", p=0.75, trials=20_000, master_seed=7, target_L=41
        )
        stats = simulate(cfg)
        mean = stats.entangling_ops.mean()
        assert mean == pytest.approx(80.0, rel=0.01)

    def test_conservation(self):
        cfg = StrategyConfig(
            variant="sequential", p=0.7, trials=500, master_seed=3, target_L=15
        )
        stats = simulate(cfg)
        assert_allclose(
            stats.qubits_consumed,
            stats.final_length + stats.qubits_wasted,
        )

    def test_gate_backend_matches_abstract_probability(self):
        cfg = StrategyConfig(
            variant="sequential", p=0.75, trials=400, master_seed=5, target_L=11,
            gate_backend="three-qubit",
        )
        stats = simulate(cfg)
        assert stats.entangling_ops.mean() == pytest.approx(20.0, rel=0.15)
        assert "spare_danglers" in stats.extras
        assert stats.extras["spare_danglers"].mean() > 0

    def test_mean_ops_monotone_in_p(self):
        means = []
        for p in (0.6, 0.75, 0.9, 1.0):
            cfg = StrategyConfig(
                variant="sequential", p=p, trials=4_000, master_seed=11, target_L=21
            )
            means.append(simulate(cfg).entangling_ops.mean())
        assert means == sorted(means, reverse=True)

    def test_round_cap_truncates_non_growing_walk(self):
        """With p <= 1/2 a trial cap is mandatory and binds the op count."""
        cfg = StrategyConfig(
            variant="sequential", p=0.5, trials=200, master_seed=6, target_L=30,
            max_rounds=50,
        )
        stats = simulate(cfg)
        assert (stats.entangling_ops <= 50).all()
        assert (stats.final_length < 30).any()
        assert_allclose(
            stats.qubits_consumed, stats.final_length + stats.qubits_wasted
        )

    def test_length_drift_after_k_rounds(self):
        """Interim walk position has mean 1 + k (2p - 1)."""
        p, k = 0.8, 30
        rng_means = []
        for seed in (0, 1):
            lengths = []
            for t in range(4_000):
                rng = trial_rng(seed, t)
                steps = np.where(rng.random(k) < p, 1, -1)
                lengths.append(1 + steps.sum())
            rng_means.append(np.mean(lengths))
        expect = 1 + k * (2 * p - 1)
        stderr = math.sqrt(k * 4 * p * (1 - p) / 4_000)
        for m in rng_means:
            assert abs(m - expect) <= 3 * stderr


class TestVerticalLink:
    @pytest.mark.parametrize("p", [0.5, 0.75, 1.0])
    def test_mean_qubits(self, p):
        cfg = StrategyConfig(
            variant="vertical_link", p=p, trials=30_000, master_seed=13
        )
        stats = simulate(cfg)
        assert stats.qubits_consumed.mean() == pytest.approx(
            2.0 * (1.0 / p + 1.0), rel=0.01
        )

    def test_unit_probability_exact(self):
        cfg = StrategyConfig(variant="vertical_link", p=1.0, trials=20, master_seed=0)
        stats = simulate(cfg)
        assert set(stats.qubits_consumed.tolist()) == {4.0}
        assert set(stats.entangling_ops.tolist()) == {1.0}


class TestDivideConquer:
    def test_survivors_track_closed_form(self):
        cfg = StrategyConfig(
            variant="divide_conquer", p=0.5, trials=3_000, master_seed=21,
            initial_qubits=2**20, rounds_k=10,
        )
        stats = simulate(cfg)
        mean_c = stats.extras["surviving_chains"].mean()
        stderr = stats.extras["surviving_chains"].std(ddof=1) / math.sqrt(3_000)
        # mean-field 1.0; the literal rules sit a parity deficit below it
        assert mean_c == pytest.approx(1.0, abs=0.35)
        assert stats.final_length[stats.extras["surviving_chains"] > 0][0] == 2**9 + 1

    def test_parity_deficit_is_surfaced_not_absorbed(self):
        """At high precision the odd-pool stranding shows up as a flag."""
        cfg = StrategyConfig(
            variant="divide_conquer", p=0.5, trials=40_000, master_seed=23,
            initial_qubits=2**16, rounds_k=8,
        )
        stats = simulate(cfg)
        point = analytics.scaling_point("divide_conquer", 0.5, n=2**16, k=8)
        rows = {r.metric: r for r in growth.compare_to_analytic(stats, point)}
        row = rows["surviving_chains"]
        assert row.status == "flag"
        assert -0.25 < row.empirical - row.analytic < -0.05

    def test_time_is_round_count(self):
        cfg = StrategyConfig(
            variant="divide_conquer", p=0.75, trials=10, master_seed=2,
            initial_qubits=64, rounds_k=4, gate_time=2.0,
        )
        stats = simulate(cfg)
        assert set(stats.elapsed_rounds.tolist()) == {8.0}

    def test_conservation(self):
        cfg = StrategyConfig(
            variant="divide_conquer", p=0.6, trials=200, master_seed=4,
            initial_qubits=1024, rounds_k=6,
        )
        stats = simulate(cfg)
        assert_allclose(
            stats.qubits_consumed,
            stats.extras["surviving_qubits"] + stats.qubits_wasted,
        )

    def test_target_length_translates_to_rounds(self):
        cfg = StrategyConfig(
            variant="divide_conquer", p=0.5, trials=5, master_seed=0,
            initial_qubits=256, target_L=9,
        )
        assert cfg.rounds() == 4
        with pytest.raises(ValueError):
            StrategyConfig(
                variant="divide_conquer", p=0.5, trials=5, master_seed=0,
                initial_qubits=256, target_L=10,
            ).rounds()


class TestMerge:
    def test_grows_to_target(self):
        cfg = StrategyConfig(
            variant="merge", p=0.75, trials=300, master_seed=9, target_L=20
        )
        stats = simulate(cfg)
        assert (stats.final_length >= 20).all()
        assert_allclose(
            stats.qubits_consumed, stats.final_length + stats.qubits_wasted
        )

    def test_ops_flag_against_quoted_law(self):
        """The concrete build rules land below the quoted linear law; the
        comparison surfaces that as a flag instead of absorbing it."""
        cfg = StrategyConfig(
            variant="merge", p=0.75, trials=3_000, master_seed=15, target_L=20
        )
        stats = simulate(cfg)
        rows = {r.metric: r for r in growth.compare_to_analytic(
            stats, analytics.scaling_point("merge", 0.75, L=20)
        )}
        assert rows["entangling_ops"].status == "flag"
        assert rows["entangling_ops"].empirical < rows["entangling_ops"].analytic

    def test_deterministic_gate_cost(self):
        """At p = 1 every cycle builds a fresh pair and joins it for +1 length."""
        cfg = StrategyConfig(
            variant="merge", p=1.0, trials=10, master_seed=0, target_L=12
        )
        stats = simulate(cfg)
        assert (stats.final_length == 12).all()
        # one 2-chain (2 qubits, 1 op) plus a join per added unit of length
        assert set(stats.qubits_consumed.tolist()) == {2.0 + 2.0 * 10}
        assert set(stats.entangling_ops.tolist()) == {1.0 + 2.0 * 10}
        assert set(stats.qubits_wasted.tolist()) == {10.0}


class TestJoinPairExperiment:
    @pytest.mark.parametrize("p, L, seed", [
        (0.75, 10, 5), (0.5, 3, 8), (0.9, 4, 2**63),
        (0.05, 40, 3), (0.05, 100, 4),  # caps past the first block of draws
    ])
    def test_equals_fresh_stream_per_trial(self, p, L, seed):
        """The rekeyed run equals the loop that builds trial_rng(seed, i) anew."""
        total = 0.0
        for i in range(3000):
            rng = trial_rng(seed, i)
            fails = 0
            while fails < L and rng.random() >= p:
                fails += 1
            total += 0.0 if fails == L else 2.0 * (L - fails) - 1.0
        assert growth.join_pair_experiment(p, L, 3000, seed) == total / 3000

    def test_matches_exact_sum(self):
        mean = growth.join_pair_experiment(0.75, 10, 40_000, seed=5)
        exact = analytics.join_yield(10, 0.75, "exact-sum")
        assert mean == pytest.approx(exact, abs=0.05)

    def test_deterministic_gate(self):
        assert growth.join_pair_experiment(1.0, 7, 50, seed=1) == 13.0

    def test_zero_growth_at_large_critical_ratio(self):
        """At p = 1/2 the mean joined length approaches 2L - 3: no net gain."""
        mean = growth.join_pair_experiment(0.5, 30, 40_000, seed=8)
        assert mean == pytest.approx(2 * 30 - 3, abs=0.2)

    def test_small_chain_exact_expectation(self):
        """The finite-sum value differs from 2L - 3 for short chains."""
        mean = growth.join_pair_experiment(0.5, 3, 60_000, seed=8)
        # success at shrinking lengths 3, 2, 1 plus exhaustion at zero
        exact = 0.5 * 5 + 0.25 * 3 + 0.125 * 1 + 0.0625 * 0.0
        assert mean == pytest.approx(exact, abs=0.05)


PREFIX_CONFIGS = [
    dict(variant="sequential", target_L=15),
    dict(variant="sequential", target_L=9, gate_backend="three-qubit"),
    dict(variant="merge", target_L=10),
    dict(variant="divide_conquer", initial_qubits=256, rounds_k=4),
    dict(variant="vertical_link"),
]


class TestDeterminism:
    @pytest.mark.parametrize(
        "kwargs", PREFIX_CONFIGS, ids=lambda kw: "-".join(map(str, kw.values()))
    )
    def test_prefix_stability(self, kwargs):
        """Trial i's stream is keyed by (seed, i): a shorter run is a prefix."""
        full = simulate(StrategyConfig(p=0.75, trials=120, master_seed=31, **kwargs))
        head = simulate(StrategyConfig(p=0.75, trials=45, master_seed=31, **kwargs))
        for field in ("entangling_ops", "elapsed_rounds", "qubits_consumed",
                      "qubits_wasted", "final_length"):
            assert np.array_equal(getattr(head, field), getattr(full, field)[:45])
        assert head.extras.keys() == full.extras.keys()
        for key, values in head.extras.items():
            assert np.array_equal(values, full.extras[key][:45])

    def test_threads_other_than_one_rejected(self):
        cfg = StrategyConfig(
            variant="vertical_link", p=0.75, trials=10, master_seed=31
        )
        with pytest.raises(ValueError, match="threads must be 1"):
            simulate(cfg, threads=4)
        assert simulate(cfg, threads=1).entangling_ops.size == 10

    def test_reruns_identical(self):
        cfg = StrategyConfig(
            variant="merge", p=0.75, trials=50, master_seed=12, target_L=10
        )
        assert np.array_equal(
            simulate(cfg).entangling_ops, simulate(cfg).entangling_ops
        )


class TestCompareToAnalytic:
    def test_sequential_passes(self):
        cfg = StrategyConfig(
            variant="sequential", p=0.75, trials=20_000, master_seed=7, target_L=41
        )
        stats = simulate(cfg)
        rows = growth.compare_to_analytic(
            stats, analytics.scaling_point("sequential", 0.75, L=41)
        )
        by_metric = {r.metric: r for r in rows}
        assert by_metric["entangling_ops"].status == "pass"
        # time per attempt disagrees with the printed per-added-qubit law;
        # the deviation is flagged rather than hidden
        assert by_metric["elapsed_rounds"].status == "flag"

    def test_exact_match_gives_zero_z(self):
        cfg = StrategyConfig(
            variant="sequential", p=1.0, trials=50, master_seed=1, target_L=10
        )
        rows = growth.compare_to_analytic(
            simulate(cfg), analytics.scaling_point("sequential", 1.0, L=10)
        )
        assert rows[0].z == 0.0 and rows[0].status == "pass"

    def test_mismatched_parameters_rejected(self):
        cfg = StrategyConfig(
            variant="sequential", p=0.75, trials=10, master_seed=1, target_L=10
        )
        stats = simulate(cfg)
        with pytest.raises(ValueError):
            growth.compare_to_analytic(
                stats, analytics.scaling_point("sequential", 0.8, L=10)
            )
        with pytest.raises(ValueError):
            growth.compare_to_analytic(
                stats, analytics.scaling_point("vertical_link", 0.75)
            )


class TestTrialRecords:
    def test_records_carry_config(self):
        cfg = StrategyConfig(
            variant="vertical_link", p=0.5, trials=3, master_seed=2
        )
        records = list(simulate(cfg).trial_records())
        assert len(records) == 3
        assert records[0]["config"]["variant"] == "vertical_link"
        assert records[2]["trial"] == 2
        assert {"entangling_ops", "qubits_consumed", "final_length"} <= set(records[0])

    def test_records_carry_accounting_rules(self):
        assert "accounting" not in {f.name for f in dataclasses.fields(StrategyConfig)}
        cfg = StrategyConfig(variant="merge", p=0.75, trials=2, master_seed=2, target_L=21)
        for record in simulate(cfg).trial_records():
            assert record["config"]["accounting"] == {
                "rules": growth._STRATEGIES["merge"][1]}

    # sha256 of render_growth_jsonl as written while StrategyConfig still had
    # an accounting field (p = 0.75, 20 trials, master seed 3)
    JSONL_SHA256 = {
        "sequential": (dict(target_L=9),
                       "4a39da357fd24b1bc0519baef03e4ccbb8ca9ac8ce288b7f7ce22962f1c2d4a7"),
        "divide_conquer": (dict(initial_qubits=64, rounds_k=3),
                           "68958cce64dba5f47e2cf5eca565d95ff26914ce6840f36d6cd30230d370f6e9"),
        "merge": (dict(target_L=21),
                  "4663f64f575ab01e766baaa8158b37f465fff6518b4e5b72898bf305179fde65"),
        "vertical_link": ({},
                          "7f4d7aedd3707c2bf48d2e5f356a92afd98a7da303b04bcc4789cde16c407f3e"),
    }

    @pytest.mark.parametrize("variant", list(JSONL_SHA256))
    def test_jsonl_bytes_pinned(self, variant):
        from qubuslab.cli import render_growth_jsonl

        kwargs, digest = self.JSONL_SHA256[variant]
        cfg = StrategyConfig(variant=variant, p=0.75, trials=20, master_seed=3, **kwargs)
        text = render_growth_jsonl(simulate(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kwargs", [
        dict(variant="sequential", target_L=9),
        dict(variant="sequential", target_L=9, gate_backend="three-qubit"),
        dict(variant="divide_conquer", initial_qubits=64, rounds_k=3),
        dict(variant="merge", target_L=21),
        dict(variant="vertical_link"),
    ], ids=lambda kw: "-".join(map(str, kw.values())))
    def test_jsonl_equals_json_dumps(self, kwargs, monkeypatch):
        from qubuslab.cli import render_growth_jsonl

        # format characters in the config text are written as they are
        kernel, rules, compared = growth._STRATEGIES[kwargs["variant"]]
        monkeypatch.setitem(growth._STRATEGIES, kwargs["variant"],
                            (kernel, rules + " (50% {of} %s)", compared))
        stats = simulate(StrategyConfig(p=0.75, trials=300, master_seed=3,
                                        gate_time=0.1, **kwargs))
        want = "\n".join(json.dumps(r, sort_keys=True) for r in stats.trial_records())
        assert render_growth_jsonl(stats) == want + "\n"

    def test_jsonl_refuses_non_finite_values(self):
        from qubuslab.cli import render_growth_jsonl

        stats = simulate(StrategyConfig(variant="vertical_link", p=0.75, trials=3,
                                        master_seed=1))
        bad = dataclasses.replace(stats, elapsed_rounds=np.array([1.0, np.nan, 2.0]))
        with pytest.raises(ValueError, match="non-finite elapsed_rounds"):
            render_growth_jsonl(bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("variant, extra", [
        ("sequential", {"target_L": 11}), ("vertical_link", {}),
        ("merge", {"target_L": 11}), ("divide_conquer", {"initial_qubits": 8, "rounds_k": 2}),
    ])
    def test_simulate_refuses_overflowing_gate_time(self, variant, extra):
        config = StrategyConfig(variant=variant, p=0.75, trials=50, master_seed=1,
                                gate_time=1e308, **extra)
        with pytest.raises(ValueError, match=r"^non-finite elapsed_rounds at gate_time 1e\+308$"):
            simulate(config)


# ---------------------------------------------------------------------------
# byte-identity with the per-trial scalar kernels


def _scalar_build_chain_dc(length, p, rng, t):
    """The chain build as written with one rng.random() per attempt."""
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
            if rng.random() < p:
                return ops, time, qubits
    a = (length + 2) // 2
    b = length + 1 - a
    ops = 0
    time = 0.0
    qubits = 0
    while True:
        ops_a, t_a, q_a = _scalar_build_chain_dc(a, p, rng, t)
        ops_b, t_b, q_b = _scalar_build_chain_dc(b, p, rng, t)
        ops += ops_a + ops_b + 1
        time += max(t_a, t_b) + t
        qubits += q_a + q_b
        if rng.random() < p:
            return ops, time, qubits


def _scalar_merge_trial(config, rng):
    """The merge trial as written with one rng.random() per attempt."""
    target = config.target_L
    L0 = analytics.minimal_chain_length(config.p)
    t = config.gate_time
    ops, time, consumed = _scalar_build_chain_dc(L0, config.p, rng, t)
    main = L0
    while main < target:
        b_ops, b_time, b_q = _scalar_build_chain_dc(L0, config.p, rng, t)
        ops, time, consumed = ops + b_ops, time + b_time, consumed + b_q
        partner = L0
        while partner >= 1:
            ops += 1
            time += t
            if rng.random() < config.p:
                main += partner - 1
                break
            main -= 1
            partner -= 1
        if main < 1:
            main = 1
    return {
        "entangling_ops": ops,
        "elapsed_rounds": time,
        "qubits_consumed": consumed,
        "qubits_wasted": consumed - main,
        "final_length": main,
    }


class TestMergeBlockDraws:
    """The lockstep merge kernel equals the scalar trial on each trial's stream."""

    @pytest.mark.parametrize("p, L", [
        (0.6, 20), (0.75, 41), (0.9, 30),
        (0.5, 41),  # minimal chains of 4; most trials read three blocks or more
        (0.4, 10),  # minimal chains of 5
    ])
    def test_equals_scalar_draws(self, p, L):
        for gate_time in (0.1, 0.37):  # time sums that do not add exactly
            cfg = StrategyConfig(
                variant="merge", p=p, trials=150, master_seed=2**63 + 17, target_L=L,
                gate_time=gate_time,
            )
            _assert_equals_scalar_trials(cfg)
            if p == 0.5:
                ops = simulate(cfg).entangling_ops
                assert (ops > 2 * growth._WIDTH).mean() > 0.5

    @pytest.mark.parametrize("length", [2, 3, 5, 9])
    def test_chain_build_equals_scalar_draws(self, length):
        """At target_L = L0 a merge trial is one chain build of L0 qubits."""
        p = 2 / (length + 0.5)  # the critical length is length - 1/2
        cfg = StrategyConfig(variant="merge", p=p, trials=40, master_seed=3,
                             target_L=length, gate_time=0.37)
        assert analytics.minimal_chain_length(p) == length
        stats = simulate(cfg)
        for i in range(cfg.trials):
            ops, time, qubits = _scalar_build_chain_dc(length, p, trial_rng(3, i), 0.37)
            assert stats.entangling_ops[i] == ops
            assert stats.elapsed_rounds[i] == time
            assert stats.qubits_consumed[i] == qubits
            assert stats.final_length[i] == length


def _scalar_sequential_trial(config, rng):
    """The sequential walk as written with one draw per attempt."""
    if config.gate_backend is None:
        def attempt():
            return rng.random() < config.p, False
    else:
        outcomes = gates.three_qubit_outcomes(config.alpha, config.theta)
        probs = np.array([o.probability for o in outcomes])

        def attempt():
            o = outcomes[rng.choice(len(probs), p=probs / probs.sum())]
            return o.label == "ghz" or o.label.startswith("bell"), o.label == "ghz"
    length, ops, danglers = 1, 0, 0
    while length < config.target_L:
        if config.max_rounds is not None and ops >= config.max_rounds:
            break
        ok, spare = attempt()
        ops += 1
        length += 1 if ok else -1
        danglers += spare
    return ops, length, danglers


class TestSequentialBlockWalk:
    @pytest.mark.parametrize("kwargs", [
        dict(p=0.75, target_L=41),
        dict(p=0.55, target_L=300),  # walks span several 256-blocks
        dict(p=0.5, target_L=30, max_rounds=50),
        dict(p=0.5, target_L=30, max_rounds=256),
        dict(p=0.5, target_L=60, max_rounds=700),
        dict(p=0.75, target_L=11, gate_backend="three-qubit"),
        dict(p=0.75, target_L=15, max_rounds=20, gate_backend="three-qubit"),
    ])
    def test_equals_scalar_walk(self, kwargs):
        cfg = StrategyConfig(variant="sequential", trials=120, master_seed=2**63 + 3,
                             gate_time=0.5, **kwargs)
        stats = simulate(cfg)
        for i in range(cfg.trials):
            ops, length, danglers = _scalar_sequential_trial(
                cfg, trial_rng(cfg.master_seed, i))
            assert stats.entangling_ops[i] == ops
            assert stats.elapsed_rounds[i] == ops * cfg.gate_time
            assert stats.final_length[i] == length
            assert stats.qubits_wasted[i] == 1 + ops - length
            assert stats.extras["spare_danglers"][i] == danglers


def _scalar_sequential_record(config, rng):
    ops, length, danglers = _scalar_sequential_trial(config, rng)
    return {
        "entangling_ops": ops,
        "elapsed_rounds": ops * config.gate_time,
        "qubits_consumed": 1 + ops,
        "qubits_wasted": 1 + ops - length,
        "final_length": length,
        "spare_danglers": danglers,
    }


def _scalar_vertical_trial(config, rng):
    """The vertical link as written with one rng.random() per attempt."""
    consumed = 4
    ops = 0
    while True:
        ops += 1
        if rng.random() < config.p:
            break
        consumed += 2
    return {
        "entangling_ops": ops,
        "elapsed_rounds": ops * config.gate_time,
        "qubits_consumed": consumed,
        "qubits_wasted": consumed - 4,
        "final_length": 2,
    }


def _scalar_dc_trial(config, rng):
    """Divide and conquer as written with one record dict per trial."""
    n = config.initial_qubits
    chains = n
    length = 1
    ops = 0
    per_round = {}
    for j in range(1, config.rounds() + 1):
        if chains > 1:
            pairs = chains // 2
            ops += pairs
            chains = int(rng.binomial(pairs, config.p))
            if chains:
                length = analytics.dc_round_length(j)
        per_round[f"chains_round_{j}"] = chains
        per_round[f"qubits_round_{j}"] = chains * length
    return {
        "entangling_ops": ops,
        "elapsed_rounds": config.rounds() * config.gate_time,
        "qubits_consumed": n,
        "qubits_wasted": n - chains * length,
        "final_length": length if chains else 0,
        "surviving_chains": chains,
        "surviving_qubits": chains * length,
        **per_round,
    }


_SCALAR_TRIALS = {
    "sequential": _scalar_sequential_record,
    "merge": _scalar_merge_trial,
    "divide_conquer": _scalar_dc_trial,
    "vertical_link": _scalar_vertical_trial,
}


def _assert_equals_scalar_trials(cfg):
    """Every column of simulate(cfg) equals the scalar loop, trial by trial."""
    columns = simulate(cfg).columns()
    want = [_SCALAR_TRIALS[cfg.variant](cfg, trial_rng(cfg.master_seed, i))
            for i in range(cfg.trials)]
    assert list(columns) == list(want[0])
    for key, values in columns.items():
        assert values.dtype == np.float64
        assert np.array_equal(values, [w[key] for w in want]), key


class TestAcrossTrialKernels:
    """Trials evaluated in chunks equal the scalar loop on each trial's stream."""

    @pytest.mark.parametrize(
        "trials", [growth._CHUNK - 1, growth._CHUNK, growth._CHUNK + 1])
    @pytest.mark.parametrize("kwargs", [
        dict(variant="sequential", p=0.75, target_L=41),
        dict(variant="vertical_link", p=0.5),
        dict(variant="divide_conquer", p=0.5, initial_qubits=2**16, rounds_k=8),
        dict(variant="merge", p=0.75, target_L=20),
    ], ids=lambda kw: kw["variant"])
    def test_chunk_boundaries(self, kwargs, trials):
        _assert_equals_scalar_trials(StrategyConfig(
            trials=trials, master_seed=2**63 + 7, gate_time=0.3, **kwargs))

    @pytest.mark.parametrize(
        "trials", [growth._MERGE_CHUNK - 1, growth._MERGE_CHUNK, growth._MERGE_CHUNK + 1])
    def test_merge_chunk_boundaries(self, trials):
        _assert_equals_scalar_trials(StrategyConfig(
            variant="merge", p=0.75, target_L=5, trials=trials, master_seed=2**63 + 7,
            gate_time=0.37))

    @pytest.mark.parametrize("p", [0.05, 0.01])
    def test_vertical_rows_run_out(self, p):
        cfg = StrategyConfig(variant="vertical_link", p=p, trials=1500,
                             master_seed=19, gate_time=0.7)
        assert (simulate(cfg).entangling_ops > growth._FIRST_SUCCESS_WIDTH).mean() > 0.1
        _assert_equals_scalar_trials(cfg)

    @pytest.mark.parametrize("backend", [None, "three-qubit"])
    @pytest.mark.parametrize("kwargs", [
        dict(p=0.55, target_L=300),
        dict(p=0.5, target_L=300, max_rounds=50),
        dict(p=0.5, target_L=300, max_rounds=256),
        dict(p=0.5, target_L=300, max_rounds=700),
        dict(p=0.75, target_L=1),  # done before the first attempt
    ], ids=lambda kw: "-".join(map(str, kw.values())))
    def test_sequential_across_blocks(self, kwargs, backend):
        cfg = StrategyConfig(variant="sequential", trials=30 if backend else 150,
                             master_seed=2**63 + 11, gate_time=0.5,
                             gate_backend=backend, **kwargs)
        _assert_equals_scalar_trials(cfg)

    @pytest.mark.parametrize("kwargs", [
        dict(p=0.6, initial_qubits=1000, rounds_k=12),  # pools run dry
        dict(p=0.9, initial_qubits=37, rounds_k=0),
        dict(p=0.9, initial_qubits=2, rounds_k=3),  # a lone chain waits
    ], ids=lambda kw: "-".join(map(str, kw.values())))
    def test_divide_conquer_pools(self, kwargs):
        _assert_equals_scalar_trials(StrategyConfig(
            variant="divide_conquer", trials=300, master_seed=29, gate_time=0.7,
            **kwargs))


# sha256 of every output array of simulate, computed before the trial streams
# were rekeyed onto one generator per run; the runs must stay byte-identical
GOLDEN = {
    "sequential": (
        dict(variant="sequential", p=0.75, trials=2000, master_seed=2**63 + 5,
             target_L=41),
        "b741155e8db90f53bc91eceb2d806b661abae6716d7736eb3d49e424f9dede97",
    ),
    "sequential-capped": (
        dict(variant="sequential", p=0.5, trials=300, master_seed=17, target_L=30,
             max_rounds=50),
        "195a6a19fea11828002a27523e30860b423abde96cd0f23822380b238a96310e",
    ),
    "sequential-three-qubit": (
        dict(variant="sequential", p=0.75, trials=60, master_seed=2**64 - 1,
             target_L=11, gate_backend="three-qubit"),
        "9984682fc03786a1dd8e8393fba267c3a45c8cab3390129d8666b2836c8d13c2",
    ),
    "merge": (
        dict(variant="merge", p=0.75, trials=300, master_seed=2**63 + 9, target_L=41),
        "94c99b154452516071dfc4dcaa0480159a302084342d3817c34fa740a167c1b8",
    ),
    "merge-p0.6": (
        dict(variant="merge", p=0.6, trials=100, master_seed=3, target_L=20),
        "0c76bd9c2ca27318c8ba29a999bacdd46a187de6203ae77795db321ed535d63d",
    ),
    "divide_conquer": (
        dict(variant="divide_conquer", p=0.5, trials=500, master_seed=11,
             initial_qubits=2**16, rounds_k=8),
        "acfb55b0dd05d9214192a8d3dd5f0ebfcef1699d8b844806f515d0f95faba719",
    ),
    "vertical_link": (
        dict(variant="vertical_link", p=0.75, trials=3000, master_seed=2**63),
        "215db683b6c3a963048416ddb84812a9d6f204eb6e464674f7edf04929d434a8",
    ),
}


def _stats_digest(stats) -> str:
    h = hashlib.sha256()
    for name in ("entangling_ops", "elapsed_rounds", "qubits_consumed",
                 "qubits_wasted", "final_length"):
        h.update(getattr(stats, name).tobytes())
    for key in sorted(stats.extras):
        h.update(key.encode())
        h.update(stats.extras[key].tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_simulate_outputs_pinned(name):
    kwargs, digest = GOLDEN[name]
    assert _stats_digest(simulate(StrategyConfig(**kwargs))) == digest


# sha256 as for GOLDEN, of runs whose trials read later blocks, computed while
# a later block was reached by rekeying to counter 0 and advancing the counter
MULTI_BLOCK = {
    "merge-p0.5": (
        dict(variant="merge", p=0.5, trials=400, master_seed=23, target_L=41,
             gate_time=0.37),
        "02ce61f911e7fd7dbcb2e11f22859e9ce774994d5e8a33126a9e291c2bdad5f2",
    ),
    "vertical_link-p0.05": (
        dict(variant="vertical_link", p=0.05, trials=3000, master_seed=2**63 + 1),
        "82491c739ae167e4e51181a4ed5e201ba2bf7cbb24685cac1e1c8a9b5e74a749",
    ),
    "sequential-capped-p0.55": (
        dict(variant="sequential", p=0.55, trials=300, master_seed=31, target_L=300,
             max_rounds=700),
        "fd7f3b926ecc6a6006406393e97cf979cdb12a3802dbd7d3fa5ab0b6567f324f",
    ),
}


@pytest.mark.parametrize("name", list(MULTI_BLOCK))
def test_multi_block_outputs_pinned(name):
    kwargs, digest = MULTI_BLOCK[name]
    stats = simulate(StrategyConfig(**kwargs))
    width = growth._FIRST_SUCCESS_WIDTH if name.startswith("vertical") else growth._WIDTH
    assert (stats.entangling_ops > width).mean() > 0.15  # trials past block 0
    assert _stats_digest(stats) == digest

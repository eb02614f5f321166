"""Monte Carlo strategy engine: reproducibility, conservation, scaling laws."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from statistics import NormalDist

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
        # L_c = 4 rounds to 3.9999999999999996 at p = 0.4, and 4 is not above it
        with pytest.raises(ValueError, match="not above the critical length 3.9999999999999996"):
            StrategyConfig(variant="merge", p=0.4, trials=10, master_seed=0, target_L=4)

    def test_merge_refusal_is_the_minimal_chain(self):
        """A merge target of L0 is accepted (or refused only by the ops budget)
        and L0 - 1 refused, at every p = k/1000 and every p = 2/(m + 1), whose
        critical length is m."""
        for p in [k / 1000 for k in range(1, 1001)] + [2 / (m + 1) for m in range(1, 201)]:
            L0 = analytics.minimal_chain_length(p)
            try:
                StrategyConfig(variant="merge", p=p, trials=1, master_seed=0, target_L=L0)
            except ValueError as err:
                assert str(err).endswith("the budget is 1e+06 ops per trial"), err
            with pytest.raises(ValueError, match="critical length"):
                StrategyConfig(variant="merge", p=p, trials=1, master_seed=0,
                               target_L=L0 - 1)

    def test_merge_ops_budget(self):
        """A merge run is refused exactly where its law expects more ops per
        trial than the budget, and the refusal names both counts."""
        refused = []
        for L in (10, 41, 400):
            for p in (k / 100 for k in range(1, 101)):
                if L < analytics.minimal_chain_length(p):
                    continue
                ops = analytics.SERIES["merge"].N(L, p)
                if ops <= growth._OPS_BUDGET:
                    StrategyConfig(variant="merge", p=p, trials=1, master_seed=0, target_L=L)
                    continue
                refused.append((p, L))
                with pytest.raises(ValueError) as err:
                    StrategyConfig(variant="merge", p=p, trials=1, master_seed=0, target_L=L)
                assert str(err.value) == (
                    f"merge at p = {p:g} and L = {L} expects {ops:.3g} ops per trial by "
                    "its law; the budget is 1e+06 ops per trial")
        assert growth._OPS_BUDGET == 10**6
        # (0.2, 400) took 21 s for 10 trials at 2.3 M ops each
        assert (0.2, 400) in refused and (0.23, 400) not in refused
        assert (0.15, 41) not in refused and (0.13, 41) in refused
        with pytest.raises(ValueError, match="expects inf ops per trial"):
            StrategyConfig(variant="merge", p=1e-10, trials=1, master_seed=0,
                           target_L=20000000002)

    @pytest.mark.parametrize("cap", [None, 700, 10**6, 10**6 + 1])
    def test_sequential_ops_budget(self, cap):
        """A sequential run is refused exactly where min((L-1)/(2p-1), cap)
        passes the merge budget, in the merge refusal's words where the law
        is below the cap, and as a bound where the cap is."""
        refused = []
        for L in (10, 41, 400):
            for p in (k / 100 for k in range(1, 101)):
                if p <= 0.5 and cap is None:
                    continue
                drift = (L - 1) / (2 * p - 1) if p > 0.5 else math.inf
                ops = min(drift, cap or math.inf)
                kwargs = dict(variant="sequential", p=p, trials=1, master_seed=0, target_L=L,
                              max_rounds=cap)
                if ops <= growth._OPS_BUDGET:
                    StrategyConfig(**kwargs)
                    continue
                refused.append((p, L))
                with pytest.raises(ValueError) as err:
                    StrategyConfig(**kwargs)
                said = ("expects {:.3g} ops per trial by its law" if ops == drift else
                        "may run up to {:.3g} ops per trial by its max_rounds").format(ops)
                assert str(err.value) == (f"sequential at p = {p!r} and L = {L} {said}; the "
                                          "budget is 1e+06 ops per trial")
        assert len(refused) == (150 if cap == 10**6 + 1 else 0)

    def test_sequential_just_above_half_refused_fast(self):
        """The law expects 2.0e9 ops per trial; the run took over 60 s."""
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                "sequential at p = 0.5000001 and L = 400 expects 2e+09 ops per trial")):
            StrategyConfig(variant="sequential", p=0.5000001, trials=200, master_seed=0,
                           target_L=400)
        assert time.perf_counter() - t0 < 1.0

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
        message = (f"alpha must be finite and > 0 and theta finite, "
                   f"got alpha={alpha}, theta={theta}")
        for backend in (None, "three-qubit"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                StrategyConfig(variant="sequential", p=0.75, trials=3, master_seed=0,
                               target_L=7, gate_backend=backend, alpha=alpha,
                               theta=theta)

    def test_negative_theta_accepted(self):
        StrategyConfig(variant="sequential", p=0.75, trials=3, master_seed=0,
                       target_L=7, gate_backend="three-qubit", theta=-0.003)

    @pytest.mark.parametrize("p, theta, rate", [
        (0.6, 0.003, 0.75), (0.5, 0.003, 0.75), (0.75 + 1e-9, 0.003, 0.75),
        (0.75, 0.0, 0.0),  # theta = 0 heralds only "mixed", which never succeeds
    ])
    def test_backend_p_must_be_table_rate(self, p, theta, rate):
        with pytest.raises(ValueError, match=f"p = {p} is not the success rate {rate} "):
            StrategyConfig(variant="sequential", p=p, trials=3, master_seed=0,
                           target_L=7, max_rounds=50, gate_backend="three-qubit",
                           theta=theta)

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

    @pytest.mark.parametrize("rounds, k", [
        (dict(rounds_k=64), 64), (dict(rounds_k=2000), 2000),
        (dict(target_L=2**63 + 1), 64),
    ])
    def test_round_length_must_fit_int64(self, rounds, k):
        """Round k's chains are 2**(k-1) + 1 long; past k = 63 that is no int64."""
        with pytest.raises(ValueError, match=re.escape(
                f"divide and conquer needs rounds_k <= 63; round {k}'s chains of "
                f"2**{k - 1} + 1 qubits overflow the int64 length column")):
            StrategyConfig(variant="divide_conquer", p=0.5, trials=3, master_seed=0,
                           initial_qubits=64, **rounds)
        for rounds in (dict(rounds_k=63), dict(target_L=2**62 + 1)):
            cfg = StrategyConfig(variant="divide_conquer", p=0.5, trials=3, master_seed=0,
                                 initial_qubits=64, **rounds)
            assert simulate(cfg).final_length.max() <= 2**62 + 1

    @pytest.mark.parametrize("p, ops", [(1e-12, "1e+12"), (9.99e-7, "1e+06")])
    def test_vertical_link_that_never_finishes(self, p, ops):
        """A trial expects 1/p ops, so the ops budget refuses p below 1e-6:
        1/p is exactly 10**6 at 1e-6, and above it at the next float down."""
        for p, ops in ((p, ops), (float(np.nextafter(1e-6, 0)), "1e+06")):
            with pytest.raises(ValueError, match=re.escape(
                    f"vertical_link at p = {p!r} expects {ops} ops per trial by its law; "
                    "the budget is 1e+06 ops per trial")):
                StrategyConfig(variant="vertical_link", p=p, trials=1, master_seed=0)
        StrategyConfig(variant="vertical_link", p=1e-6, trials=1, master_seed=0)


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
        for column, key in growth._STRATEGIES[variant].compared:
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


def _walker_rekeys(seed, draws, width, chunk):
    """The (seed, stream) of each rekey of a walker run, chunk by chunk: one
    per block of rows on pass 0, then on each later pass one per block whose
    live rows reach 1/_LIVE_SHARE of it and one per live row of the others
    (row i is live on pass k while its draws pass k ``width``)."""
    block, want = growth._BLOCK, []
    for start in range(0, draws.size, chunk):
        part = draws[start:start + chunk]
        want += [(seed, b) for b in range(start // block, -(-(start + part.size) // block))]
        k = 1
        while (part > k * width).any():
            live = start + np.flatnonzero(part > k * width)
            for b, n in zip(*(a.tolist() for a in np.unique(live // block, return_counts=True))):
                want += [(seed, b)] * (1 if growth._LIVE_SHARE * n >= block else n)
            k += 1
    return want


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
        """The (seed, stream) of every ``growth.trial_rng`` call, and the
        (width, chunk) of every walker run."""
        calls, walks = [], []
        real, walk = growth.trial_rng, growth._walk_blocks

        def spy(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        def walk_spy(seed, trials, step, width, block, chunk):
            walks.append((width, chunk))
            assert block == growth._BLOCK
            return walk(seed, trials, step, width, block, chunk)

        monkeypatch.setattr(growth, "trial_rng", spy)
        monkeypatch.setattr(growth, "_walk_blocks", walk_spy)
        return calls, walks

    def test_one_trial_rng_call_per_trial(self, calls):
        """Every variant but divide and conquer rekeys once per block of trials
        on a row's first pass, then once per block or once per live row on
        each later pass, by the live share; divide and conquer rekeys once per
        block of trials."""
        calls, walks = calls
        block = growth._DC_BLOCK
        capped = dict(variant="sequential", target_L=30, max_rounds=300)
        links = dict(variant="vertical_link")
        passes = 0
        for kwargs in [*PREFIX_CONFIGS, capped, links]:
            for trials in (17, 2 * block + 1):
                calls.clear()
                walks.clear()
                p = 0.5 if kwargs is capped else 0.05 if kwargs is links else 0.75
                stats = simulate(StrategyConfig(p=p, trials=trials, master_seed=4, **kwargs))
                if kwargs["variant"] == "divide_conquer":
                    assert calls == [(4, b) for b in range(-(-trials // block))]
                    assert walks == []
                    continue
                [(width, chunk)] = walks
                assert width == {"sequential": growth._SEQ_WIDTH,
                                 "merge": growth._MERGE_WIDTH}.get(
                                     kwargs["variant"], growth._link_width(p))
                assert calls == _walker_rekeys(4, stats.entangling_ops, width, chunk)
                passes += len(calls) > -(-trials // growth._BLOCK)
        assert passes == 4  # the capped and the vertical-link runs read later passes
        draws = np.minimum(growth._failures_before_success(9, 300, 0.05, 50) + 1, 50)
        calls.clear()
        growth.join_pair_experiment(0.05, 50, 300, seed=9)
        assert (draws > growth._link_width(0.05)).any()
        assert calls == _walker_rekeys(9, draws, *walks[-1])

    def test_merge_rekeys_once_per_block(self, calls):
        """A merge run rekeys once per block of trials on pass 0, then once per
        block while 1/_LIVE_SHARE of its rows are live and once per live row
        after."""
        calls, walks = calls
        cfg = StrategyConfig(variant="merge", p=0.5, target_L=41, trials=150, master_seed=4)
        ops = simulate(cfg).entangling_ops
        assert (ops > 2 * growth._MERGE_WIDTH).any()  # some trials read three passes
        assert calls == _walker_rekeys(4, ops, growth._MERGE_WIDTH, walks[0][1])
        # the live rows of each block on each later pass: some blocks draw whole
        width, block = growth._MERGE_WIDTH, growth._BLOCK
        live = [n for k in range(1, int(ops.max()) // width + 1)
                for n in np.bincount(np.flatnonzero(ops > k * width) // block).tolist() if n]
        assert min(live) * growth._LIVE_SHARE < block <= max(live) * growth._LIVE_SHARE


def test_link_width_rule():
    """4 ceil(1/(2p)) uniforms a row, 8 to 4096, and a join's rows no wider
    than its cap rounded up to a multiple of 4."""
    widths = {p: growth._link_width(p) for p in (1.0, 0.75, 0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-6)}
    assert widths == {1.0: 8, 0.75: 8, 0.5: 8, 0.1: 20, 0.01: 200, 1e-3: 2000,
                      1e-4: 4096, 1e-6: 4096}
    assert [growth._link_width(1e-3, L) for L in (1, 8, 10, 12, 13, 5000)] == [
        8, 8, 12, 12, 16, 2000]


@pytest.mark.parametrize("width", sorted({
    growth._SEQ_WIDTH, growth._MERGE_WIDTH,
    *(growth._link_width(p) for p in (1.0, 0.1, 0.01, 1e-3, 1e-6))}))
def test_row_and_pass_ranges_do_not_overlap(width):
    """Each (row, pass) of a walk reads its own slice of its block's stream:
    row r of a block at pass k gets doubles (k B + r) W to (k B + r + 1) W of
    one contiguous draw, for every variant's width W, and no double is read
    twice.  Rows drop after pass 0 so that pass 1 draws whole blocks and
    after pass 1 so that pass 2 rekeys rows; chunks of one block."""
    block, seed, passes = growth._BLOCK, 2**63 + 1, 3
    trials = 2 * block + 7
    seen, count = {}, np.zeros(trials, dtype=int)

    def step(u, rows):
        for row, values in zip(rows.tolist(), u):
            seen[row, count[row]] = values.copy()
            count[row] += 1
        keep = [(row % 3 != 0) if count[row] == 1 else (row % 7 == 1) for row in rows.tolist()]
        return np.array(keep) & (count[rows] < passes)

    growth._walk_blocks(seed, trials, step, width, block, block)
    assert {k for _, k in seen} == set(range(passes))
    for b in range(-(-trials // block)):
        stream = trial_rng(seed, b).random(passes * block * width)
        stream = stream.reshape(passes, block, width)
        for (row, k), values in seen.items():
            if row // block == b:
                assert values.tobytes() == stream[k, row % block].tobytes(), (row, k)
    values = np.concatenate(list(seen.values()))
    assert np.unique(values).size == values.size


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

    def test_table_built_once_per_alpha_theta(self, monkeypatch):
        """The config's rate check and every run at one (alpha, theta) read one
        table, built on first use; its arrays are read-only."""
        calls = []
        real = gates.three_qubit_outcomes

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        growth._gate3_table.cache_clear()
        monkeypatch.setattr(gates, "three_qubit_outcomes", spy)
        cfg = StrategyConfig(
            variant="sequential", p=0.75, trials=25, master_seed=2, target_L=7,
            gate_backend="three-qubit",
        )
        assert len(calls) == 1
        simulate(cfg)
        simulate(dataclasses.replace(cfg, master_seed=3))
        assert len(calls) == 1
        simulate(dataclasses.replace(cfg, alpha=2000.0, theta=0.0015))
        assert calls == [(1000.0, 0.003), (2000.0, 0.0015)]
        _, *arrays = growth._gate3_table(1000.0, 0.003)
        assert not any(array.flags.writeable for array in arrays)

    def test_bad_table_rejected(self, monkeypatch):
        real = gates.three_qubit_outcomes

        def skewed(*args, **kwargs):
            table = list(real(*args, **kwargs))
            table[0] = dataclasses.replace(table[0], probability=-0.5)
            return tuple(table)

        growth._gate3_table.cache_clear()
        monkeypatch.setattr(gates, "three_qubit_outcomes", skewed)
        with pytest.raises(ValueError, match="not a distribution"):
            growth._attempt_sampler(self.CONFIG)
        monkeypatch.undo()
        growth._attempt_sampler(self.CONFIG)  # no skewed table was kept

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

    def test_capped_mean_ops_against_the_exact_law(self):
        """At p = 1/2, L = 30 and a cap of 50, mean ops against the exact law
        of min(T, 50) at seeds 0-9, under one Bonferroni bound over the ten
        seeds (family-wise 1e-6), with the law's own standard error."""
        ops, pmf = analytics.seq_rule_pmf(0.5, 30, 50)
        mean = pmf @ ops
        trials = 100_000
        stderr = math.sqrt(pmf @ (ops - mean) ** 2 / trials)
        bound = NormalDist().inv_cdf(1 - 1e-6 / (2 * 10))
        for seed in range(10):
            cfg = StrategyConfig(variant="sequential", p=0.5, trials=trials,
                                 master_seed=seed, target_L=30, max_rounds=50)
            got = simulate(cfg).entangling_ops.mean()
            assert abs(got - mean) <= bound * stderr, (seed, got, mean)

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
        # a pool pairs in round j while it holds two chains or more, and pools
        # only shrink, so its chains have the length of the last round it paired
        # in: dc_round_length(10) if it paired in all ten, dc_round_length(r) if
        # it stopped at round r
        chains = np.stack([np.full(cfg.trials, 2**20)] + [
            stats.extras[f"chains_round_{j}"] for j in range(1, 11)], axis=1)
        paired = np.cumsum(chains[:, :-1] > 1, axis=1)
        for j in range(1, 11):
            length = [analytics.dc_round_length(r) for r in paired[:, j - 1]]
            assert np.array_equal(stats.extras[f"qubits_round_{j}"], chains[:, j] * length)
        live = stats.extras["surviving_chains"] > 0
        stopped = paired[:, -1]
        assert (live & (stopped == 10)).any() and (live & (stopped < 10)).any()
        assert np.array_equal(stats.final_length[live],
                              [analytics.dc_round_length(r) for r in stopped[live]])

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


def _merge_law(p, L):
    """The merge row's exact law at (p, L)."""
    cfg = StrategyConfig(variant="merge", p=p, trials=1, master_seed=0, target_L=L)
    return growth._STRATEGIES["merge"].law(cfg)


class TestMergeAutomaton:
    def test_built_once_per_minimal_chain_and_target(self):
        """Runs at one (L0, target_L), whatever their p, seed or gate time, and
        the rule's exact law read one set of read-only tables, and the runs
        one set of read-only group tables."""
        caches = growth._merge_automaton, growth._merge_groups
        for cache in caches:
            cache.cache_clear()
        cfg = StrategyConfig(variant="merge", p=0.75, trials=5, master_seed=1, target_L=20)
        simulate(cfg)
        simulate(dataclasses.replace(cfg, p=0.8, master_seed=2, gate_time=0.5))
        _merge_law(0.75, 20)
        assert [cache.cache_info().misses for cache in caches] == [1, 1]
        simulate(dataclasses.replace(cfg, target_L=21))
        assert [cache.cache_info().misses for cache in caches] == [2, 2]
        tables = (*growth._merge_automaton(2, 20)[:4], *growth._merge_groups(2, 20)[1:])
        assert not any(table.flags.writeable for table in tables)

    def test_exact_law_at_a_deterministic_gate(self):
        """At p = 1 a trial takes 21 ops and 22 qubits to L = 12: see
        TestMerge.test_deterministic_gate_cost."""
        assert _merge_law(1.0, 12) == [("entangling_ops", 21.0, 0.0),
                                       ("entangling_ops**2", 441.0, 0.0),
                                       ("qubits_consumed", 22.0, 0.0)]

    def test_no_law_from_a_growth_run(self, monkeypatch):
        """simulate, compare_to_analytic and scaling_point call no exact law."""
        def refuse(*args, **kwargs):
            raise AssertionError("an exact law was called")

        for name in ("merge_rule_law", "link_rule_pmf", "seq_rule_pmf", "dc_rule_moments"):
            monkeypatch.setattr(analytics, name, refuse)
        for kwargs in (dict(variant="merge", target_L=20), dict(variant="vertical_link")):
            stats = simulate(StrategyConfig(p=0.75, trials=50, master_seed=1, **kwargs))
            point = analytics.scaling_point(kwargs["variant"], 0.75, L=kwargs.get("target_L"))
            growth.compare_to_analytic(stats, point)
        growth.join_pair_experiment(0.75, 10, 50, seed=1)

    @pytest.mark.parametrize("p, L, ops, qubits", [
        (0.75, 41, 229.0181, 237.6961), (0.6, 20, 191.8323, 244.6765),
    ])
    def test_exact_means(self, p, L, ops, qubits):
        (_, got_ops, _), _, (_, got_qubits, _) = _merge_law(p, L)
        assert (round(got_ops, 4), round(got_qubits, 4)) == (ops, qubits)


class TestMergeGroups:
    """The tables that step a merge trial B draws per lookup."""

    @pytest.fixture(autouse=True)
    def fresh_groups(self):
        growth._merge_groups.cache_clear()
        yield
        growth._merge_groups.cache_clear()

    @staticmethod
    def _force_bits(monkeypatch, L0, target, bits):
        """Make B = ``bits`` at (L0, target) by the table-size rule."""
        states = growth._merge_automaton(L0, target)[0].size // 2
        monkeypatch.setattr(growth, "_GROUP_ROWS", states << bits)
        return states

    @pytest.mark.parametrize("bits", [8, 4, 2, 1])
    def test_groups_step_as_b_one_draw_steps(self, bits, monkeypatch):
        """Row s 2**B + pattern holds the state and summed packed reward that
        B steps of the one-draw tables reach from s, draw i on bit i."""
        states = self._force_bits(monkeypatch, 3, 9, bits)
        next2, reward = (t.tolist() for t in growth._merge_automaton(3, 9)[:2])
        got_bits, after, summed = growth._merge_groups(3, 9)
        assert got_bits == bits and after.size == summed.size == states << bits
        want_after, want_summed = [], []
        for s in range(states):
            for pattern in range(1 << bits):
                state, total = s, 0
                for i in range(bits):
                    k = 2 * state + (pattern >> i & 1)
                    state, total = next2[k] // 2, total + reward[k]
                want_after.append(state)
                want_summed.append(total)
        assert after.tolist() == want_after and summed.tolist() == want_summed

    @pytest.mark.parametrize("bits", [8, 4, 2, 1])
    @pytest.mark.parametrize("p, L", [(0.75, 20), (0.6, 20), (0.4, 10)])
    def test_every_group_size_equals_scalar_draws(self, p, L, bits, monkeypatch):
        """B changes no output: the kernel equals the scalar trial at each B."""
        self._force_bits(monkeypatch, analytics.minimal_chain_length(p), L, bits)
        cfg = StrategyConfig(variant="merge", p=p, trials=70, master_seed=2**63 + 21,
                             target_L=L, gate_time=0.37)
        _assert_equals_scalar_trials(cfg)
        assert growth._merge_groups(analytics.minimal_chain_length(p), L)[0] == bits

    def test_not_built_at_import_nor_by_another_run(self):
        """Import builds neither the automaton nor its group tables, and only
        a merge run builds the tables: not another variant, a join or the
        merge row's exact law."""
        code = ("import qubuslab.cli, qubuslab.verify\n"
                "from qubuslab import growth\n"
                "caches = growth._merge_automaton, growth._merge_groups\n"
                "print(*(c.cache_info().currsize for c in caches))\n"
                "for kwargs in (dict(variant='sequential', target_L=21),\n"
                "               dict(variant='vertical_link'),\n"
                "               dict(variant='divide_conquer', initial_qubits=64, rounds_k=3)):\n"
                "    growth.simulate(growth.StrategyConfig(p=0.75, trials=20, master_seed=1,\n"
                "                                          **kwargs))\n"
                "growth.join_pair_experiment(0.75, 10, 20, seed=1)\n"
                "cfg = growth.StrategyConfig('merge', 0.75, 20, 1, target_L=21)\n"
                "growth._STRATEGIES['merge'].law(cfg)\n"
                "print(*(c.cache_info().currsize for c in caches))\n"
                "growth.simulate(cfg)\n"
                "print(*(c.cache_info().currsize for c in caches))\n")
        src = Path(growth.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)), check=True)
        assert out.stdout == "0 0\n1 0\n1 1\n"

    def test_tables_stay_small(self):
        """B is the largest of 8, 4, 2 and 1 that keeps the tables to
        _GROUP_ROWS rows of 12 bytes, 12 MiB: at (0.2, 400), 97 599 states
        (its automaton builds in under 1 s), B = 2 and 4.7 MB."""
        assert growth._GROUP_ROWS * 12 == 12 * 2**20
        try:
            for (p, L), states, bits in [((0.75, 41), 163, 8), ((0.5, 41), 1229, 8),
                                         ((0.3, 100), 7999, 4), ((0.2, 400), 97_599, 2)]:
                L0 = analytics.minimal_chain_length(p)
                got_bits, after, summed = growth._merge_groups(L0, L)
                assert (after.size >> got_bits, got_bits) == (states, bits)
                assert after.nbytes + summed.nbytes == 12 * states << bits
            assert after.nbytes + summed.nbytes == 4_684_752
        finally:
            growth._merge_automaton.cache_clear()


class TestTimeConvention:
    """Every variant reports time as a whole count of gate slots times
    gate_time, one rounding from the exact time."""

    CASES = {
        "sequential": dict(variant="sequential", p=0.75, target_L=41),
        "sequential-three-qubit": dict(variant="sequential", p=0.75, target_L=11,
                                       gate_backend="three-qubit"),
        "sequential-capped": dict(variant="sequential", p=0.5, target_L=30, max_rounds=60),
        "merge-L0-2": dict(variant="merge", p=0.75, target_L=41),
        "merge-L0-4": dict(variant="merge", p=0.5, target_L=41),
        "divide_conquer": dict(variant="divide_conquer", p=0.5, initial_qubits=2**10,
                               rounds_k=6),
        "vertical_link": dict(variant="vertical_link", p=0.3),
    }

    def test_every_variant_has_a_case(self):
        assert {kw["variant"] for kw in self.CASES.values()} == set(growth.VARIANTS)

    @pytest.mark.parametrize("name", list(CASES))
    def test_time_is_the_unit_column_times_gate_time(self, name):
        one = simulate(StrategyConfig(trials=300, master_seed=5, **self.CASES[name]))
        t = simulate(StrategyConfig(trials=300, master_seed=5, gate_time=0.37,
                                    **self.CASES[name]))
        assert np.array_equal(one.elapsed_rounds, np.floor(one.elapsed_rounds))
        assert t.elapsed_rounds.tobytes() == (one.elapsed_rounds * 0.37).tobytes()
        assert _stats_digest(dataclasses.replace(t, elapsed_rounds=one.elapsed_rounds)) == \
            _stats_digest(one)


class TestJoinPairExperiment:
    @pytest.mark.parametrize("p, L, seed", [
        (0.75, 10, 5), (0.5, 3, 8), (0.9, 4, 2**63),
        (0.05, 40, 3), (0.05, 100, 4),  # caps past the first pass of draws
        (1e-3, 10, 6),  # rows as wide as the cap, not 2/p
    ])
    def test_equals_fresh_stream_per_trial(self, p, L, seed):
        """The walker's run equals the loop that builds each pass's stream
        anew by the address rule."""
        total = 0.0
        for i in range(3000):
            rng = _AddressedDraws(seed, i, growth._link_width(p, L))
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

    @pytest.mark.parametrize("p, trials, message", [
        (1.5, 10, "success probability must lie in (0, 1]"),
        (math.nan, 10, "success probability must lie in (0, 1]"),
        (0.0, 10, "success probability must lie in (0, 1]"),
        (0.75, 0, "need at least one trial"),
        (0.75, -3, "need at least one trial"),
    ])
    def test_refuses_bad_input(self, p, trials, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            growth.join_pair_experiment(p, 5, trials, seed=1)

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

    def test_one_trial_has_no_z(self):
        """Even an exact match on one trial is no test: no spread, no z."""
        for p in (0.75, 1.0):
            cfg = StrategyConfig(variant="sequential", p=p, trials=1, master_seed=1, target_L=10)
            rows = growth.compare_to_analytic(
                simulate(cfg), analytics.scaling_point("sequential", p, L=10))
            assert rows and all(r.z is None and r.status == "no spread" for r in rows)

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


def _trial_records(stats):
    """One JSON-ready record per trial, carrying the full config: the reference
    that ``cli.render_growth_jsonl`` writes line by line."""
    cfg = stats.record_config()
    columns = stats.columns()
    for i in range(stats.config.trials):
        yield {
            "trial": i,
            **{k: float(v[i]) for k, v in columns.items()},
            "config": cfg,
        }


class TestTrialRecords:
    def test_records_carry_config(self):
        cfg = StrategyConfig(
            variant="vertical_link", p=0.5, trials=3, master_seed=2
        )
        records = list(_trial_records(simulate(cfg)))
        assert len(records) == 3
        assert records[0]["config"]["variant"] == "vertical_link"
        assert records[2]["trial"] == 2
        assert {"entangling_ops", "qubits_consumed", "final_length"} <= set(records[0])

    def test_records_carry_accounting_rules(self):
        assert "accounting" not in {f.name for f in dataclasses.fields(StrategyConfig)}
        cfg = StrategyConfig(variant="merge", p=0.75, trials=2, master_seed=2, target_L=21)
        for record in _trial_records(simulate(cfg)):
            assert record["config"]["accounting"] == {
                "rules": growth._STRATEGIES["merge"].rules}

    # sha256 of render_growth_jsonl as written while StrategyConfig still had
    # an accounting field (p = 0.75, 20 trials, master seed 3); each variant's
    # as written when its trials first drew from per-block streams
    JSONL_SHA256 = {
        "sequential": (dict(target_L=9),
                       "a7ec431551b7c8d098837fdd2dafb0a4095babd3075b34267dceb9c69284dd79"),
        "divide_conquer": (dict(initial_qubits=64, rounds_k=3),
                           "86671aab1453f1e5e4e29523154b252bbe2d032f34bd4fdc3bc28c9feffe5f1b"),
        "merge": (dict(target_L=21),
                  "f9ff53b10a4ee01c10931c5101309b7d0ed3fe6b16859f06f97c0679a5682f3e"),
        "vertical_link": ({},
                          "802c7ba0b6e6e2866b11ae2d3c142dc4e387d8229675b39c87f4565e2a5506de"),
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
        strategy = growth._STRATEGIES[kwargs["variant"]]
        monkeypatch.setitem(growth._STRATEGIES, kwargs["variant"],
                            strategy._replace(rules=strategy.rules + " (50% {of} %s)"))
        stats = simulate(StrategyConfig(p=0.75, trials=300, master_seed=3,
                                        gate_time=0.1, **kwargs))
        want = "\n".join(json.dumps(r, sort_keys=True) for r in _trial_records(stats))
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


class _AddressedDraws:
    """Trial i's draws one at a time by the walker's address rule: pass k's
    ``width`` draws come from the stream keyed by (seed, i // _BLOCK) at
    Philox counter (k * _BLOCK + i % _BLOCK) * width / 4, each pass's
    generator built anew.  ``random`` and ``choice`` read one draw each."""

    def __init__(self, seed, i, width):
        self.seed, self.i, self.width, self.drawn = seed, i, width, 0

    def _next(self):
        if self.drawn % self.width == 0:  # pass drawn // width starts
            block = growth._BLOCK
            counter = (self.drawn // self.width * block + self.i % block) * self.width // 4
            self.rng = trial_rng(self.seed, self.i // block, counter=counter)
        self.drawn += 1
        return self.rng

    def random(self):
        return self._next().random()

    def choice(self, *args, **kwargs):
        return self._next().choice(*args, **kwargs)


def _scalar_build_chain(length, p, rng):
    """The chain build as written with one rng.random() per attempt: its ops,
    gate slots (the halves build in parallel) and qubits."""
    if length <= 1:
        return 0, 0, 1
    if length == 2:
        ops = 0
        qubits = 0
        while True:
            ops += 1
            qubits += 2
            if rng.random() < p:
                return ops, ops, qubits
    a = (length + 2) // 2
    b = length + 1 - a
    ops = 0
    slots = 0
    qubits = 0
    while True:
        ops_a, s_a, q_a = _scalar_build_chain(a, p, rng)
        ops_b, s_b, q_b = _scalar_build_chain(b, p, rng)
        ops += ops_a + ops_b + 1
        slots += max(s_a, s_b) + 1
        qubits += q_a + q_b
        if rng.random() < p:
            return ops, slots, qubits


def _scalar_merge_trial(config, rng):
    """The merge trial as written with one rng.random() per attempt; time is
    its gate slots times gate_time."""
    target = config.target_L
    L0 = analytics.minimal_chain_length(config.p)
    ops, slots, consumed = _scalar_build_chain(L0, config.p, rng)
    main = L0
    while main < target:
        b_ops, b_slots, b_q = _scalar_build_chain(L0, config.p, rng)
        ops, slots, consumed = ops + b_ops, slots + b_slots, consumed + b_q
        partner = L0
        while partner >= 1:
            ops += 1
            slots += 1
            if rng.random() < config.p:
                main += partner - 1
                break
            main -= 1
            partner -= 1
        if main < 1:
            main = 1
    return {
        "entangling_ops": ops,
        "elapsed_rounds": slots * config.gate_time,
        "qubits_consumed": consumed,
        "qubits_wasted": consumed - main,
        "final_length": main,
    }


class TestMergeBlockDraws:
    """The merge kernel equals the scalar trial on each trial's draws."""

    @pytest.mark.parametrize("p, L", [
        (0.6, 20), (0.75, 41), (0.9, 30),
        (0.5, 41),  # minimal chains of 4; most trials read three blocks or more
        (0.4, 10),  # minimal chains of 5
    ])
    def test_equals_scalar_draws(self, p, L):
        assert analytics.minimal_chain_length(p) == {0.6: 3, 0.75: 2, 0.9: 2, 0.5: 4, 0.4: 5}[p]
        for gate_time in (0.1, 0.37):  # slots times gate_time rounds
            cfg = StrategyConfig(
                variant="merge", p=p, trials=150, master_seed=2**63 + 17, target_L=L,
                gate_time=gate_time,
            )
            _assert_equals_scalar_trials(cfg)
            if p == 0.5:
                ops = simulate(cfg).entangling_ops
                assert (ops > 2 * growth._MERGE_WIDTH).mean() > 0.5

    @pytest.mark.parametrize("length", [2, 3, 5, 9])
    def test_chain_build_equals_scalar_draws(self, length):
        """At target_L = L0 a merge trial is one chain build of L0 qubits."""
        p = 2 / (length + 0.5)  # the critical length is length - 1/2
        cfg = StrategyConfig(variant="merge", p=p, trials=40, master_seed=3,
                             target_L=length, gate_time=0.37)
        assert analytics.minimal_chain_length(p) == length
        stats = simulate(cfg)
        for i in range(cfg.trials):
            draws = _AddressedDraws(3, i, growth._MERGE_WIDTH)
            ops, slots, qubits = _scalar_build_chain(length, p, draws)
            assert stats.entangling_ops[i] == ops
            assert stats.elapsed_rounds[i] == slots * 0.37
            assert stats.qubits_consumed[i] == qubits
            assert stats.final_length[i] == length


def _scalar_sequential_trial(config, i):
    """Sequential trial i as written with one draw per attempt, _SEQ_WIDTH
    draws a pass by the walker's address rule."""
    rng = _AddressedDraws(config.master_seed, i, growth._SEQ_WIDTH)
    if config.gate_backend is None:
        def attempt(rng):
            return rng.random() < config.p, False
    else:
        outcomes = gates.three_qubit_outcomes(config.alpha, config.theta)
        probs = np.array([o.probability for o in outcomes])

        def attempt(rng):
            o = outcomes[rng.choice(len(probs), p=probs / probs.sum())]
            return o.label == "ghz" or o.label.startswith("bell"), o.label == "ghz"
    length, ops, danglers = 1, 0, 0
    while length < config.target_L:
        if config.max_rounds is not None and ops >= config.max_rounds:
            break
        ok, spare = attempt(rng)
        ops += 1
        length += 1 if ok else -1
        danglers += spare
    return ops, length, danglers


class TestSequentialBlockWalk:
    @pytest.mark.parametrize("kwargs", [
        dict(p=0.75, target_L=41),
        dict(p=0.55, target_L=300),  # walks span several passes
        dict(p=0.5, target_L=30, max_rounds=50),
        dict(p=0.5, target_L=30, max_rounds=growth._SEQ_WIDTH),
        dict(p=0.5, target_L=60, max_rounds=700),
        dict(p=0.75, target_L=11, gate_backend="three-qubit"),
        dict(p=0.75, target_L=15, max_rounds=20, gate_backend="three-qubit"),
    ])
    def test_equals_scalar_walk(self, kwargs):
        cfg = StrategyConfig(variant="sequential", trials=120, master_seed=2**63 + 3,
                             gate_time=0.5, **kwargs)
        stats = simulate(cfg)
        for i in range(cfg.trials):
            ops, length, danglers = _scalar_sequential_trial(cfg, i)
            assert stats.entangling_ops[i] == ops
            assert stats.elapsed_rounds[i] == ops * cfg.gate_time
            assert stats.final_length[i] == length
            assert stats.qubits_wasted[i] == 1 + ops - length
            assert stats.extras["spare_danglers"][i] == danglers


def _scalar_sequential_record(config, i):
    ops, length, danglers = _scalar_sequential_trial(config, i)
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


def _scalar_dc_block(config, rng):
    """One block of divide and conquer trials as written, one record dict per
    trial: each round makes one scalar binomial call per pool that still
    pairs, in trial order, on the block's stream."""
    n, rounds = config.initial_qubits, config.rounds()
    records = [{"chains": n, "length": 1, "ops": 0} for _ in range(growth._DC_BLOCK)]
    for j in range(1, rounds + 1):
        for rec in records:
            if rec["chains"] > 1:
                pairs = rec["chains"] // 2
                rec["ops"] += pairs
                rec["chains"] = int(rng.binomial(pairs, config.p))
                if rec["chains"]:
                    rec["length"] = analytics.dc_round_length(j)
            rec[f"chains_round_{j}"] = rec["chains"]
            rec[f"qubits_round_{j}"] = rec["chains"] * rec["length"]
    return [{
        "entangling_ops": rec.pop("ops"),
        "elapsed_rounds": rounds * config.gate_time,
        "qubits_consumed": n,
        "qubits_wasted": n - rec["chains"] * rec["length"],
        "final_length": rec["length"] if rec["chains"] else 0,
        "surviving_chains": rec["chains"],
        "surviving_qubits": rec.pop("chains") * rec.pop("length"),
        **rec,
    } for rec in records]


# each takes (config, trial index) and reads its draws by the address rule
_SCALAR_TRIALS = {
    "sequential": _scalar_sequential_record,
    "merge": lambda cfg, i: _scalar_merge_trial(
        cfg, _AddressedDraws(cfg.master_seed, i, growth._MERGE_WIDTH)),
    "vertical_link": lambda cfg, i: _scalar_vertical_trial(
        cfg, _AddressedDraws(cfg.master_seed, i, growth._link_width(cfg.p))),
}


def _assert_equals_scalar_trials(cfg):
    """Every column of simulate(cfg) equals the scalar loop, trial by trial:
    on each trial's draws by the walker's address rule, or for divide and
    conquer on each block's (seed, block) stream, every block run whole."""
    columns = simulate(cfg).columns()
    if cfg.variant == "divide_conquer":
        blocks = range(-(-cfg.trials // growth._DC_BLOCK))
        want = [rec for b in blocks
                for rec in _scalar_dc_block(cfg, trial_rng(cfg.master_seed, b))]
        want = want[:cfg.trials]
    else:
        want = [_SCALAR_TRIALS[cfg.variant](cfg, i) for i in range(cfg.trials)]
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
        ops = simulate(cfg).entangling_ops
        assert (ops > growth._link_width(p)).mean() > 0.1  # past their first pass
        _assert_equals_scalar_trials(cfg)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_vertical_chunk_boundaries(self, offset):
        width = growth._link_width(0.01)
        chunk = growth._LINK_CHUNK // width // growth._BLOCK * growth._BLOCK
        assert growth._BLOCK < chunk < 1000
        _assert_equals_scalar_trials(StrategyConfig(
            variant="vertical_link", p=0.01, trials=chunk + offset, master_seed=2**63 + 7,
            gate_time=0.3))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_vertical_lone_trial_at_small_p(self, seed):
        """A lone trial at p = 1e-5 reads 4096 draws a pass, and this one
        several passes, each a rekey of its own row."""
        cfg = StrategyConfig(variant="vertical_link", p=1e-5, trials=1, master_seed=seed)
        assert growth._link_width(cfg.p) == 4096
        assert simulate(cfg).entangling_ops[0] > 3 * 4096
        _assert_equals_scalar_trials(cfg)

    @pytest.mark.parametrize(
        "trials", [growth._BLOCK - 1, growth._BLOCK, growth._BLOCK + 1])
    @pytest.mark.parametrize("kwargs", [
        dict(variant="merge", p=0.5, target_L=41),
        dict(variant="vertical_link", p=0.05),
    ], ids=lambda kw: kw["variant"])
    def test_block_boundaries(self, kwargs, trials):
        _assert_equals_scalar_trials(StrategyConfig(
            trials=trials, master_seed=2**63 + 13, gate_time=0.3, **kwargs))

    @pytest.mark.parametrize("share", [1, 2, 4, 64])
    @pytest.mark.parametrize("kwargs", [
        dict(variant="sequential", p=0.5, target_L=60, max_rounds=700),
        dict(variant="merge", p=0.5, target_L=41),
        dict(variant="vertical_link", p=0.05),
    ], ids=lambda kw: kw["variant"])
    def test_blocks_cross_the_live_share(self, kwargs, share, monkeypatch):
        """A later pass that draws a block whole gives each live row the draws
        a rekey of that row gives: at share 1 blocks draw whole only while
        every row lives, at 64 while any does, and at 2 (the walker's) and 4
        they cross from one to the other between passes."""
        monkeypatch.setattr(growth, "_LIVE_SHARE", share)
        cfg = StrategyConfig(trials=2 * growth._BLOCK + 9, master_seed=2**63 + 5,
                             gate_time=0.3, **kwargs)
        _assert_equals_scalar_trials(cfg)
        _assert_equals_scalar_trials(dataclasses.replace(cfg, trials=cfg.trials - 40))


    @pytest.mark.parametrize("backend", [None, "three-qubit"])
    @pytest.mark.parametrize("kwargs", [
        dict(p=0.55, target_L=300),
        dict(p=0.5, target_L=300, max_rounds=50),
        dict(p=0.5, target_L=300, max_rounds=256),
        dict(p=0.5, target_L=300, max_rounds=700),
        dict(p=0.75, target_L=1),  # done before the first attempt
    ], ids=lambda kw: "-".join(map(str, kw.values())))
    def test_sequential_across_blocks(self, kwargs, backend):
        if backend:  # the backend's p is its table's success rate
            kwargs = dict(kwargs, p=0.75)
        cfg = StrategyConfig(variant="sequential", trials=30 if backend else 150,
                             master_seed=2**63 + 11, gate_time=0.5,
                             gate_backend=backend, **kwargs)
        _assert_equals_scalar_trials(cfg)

    @pytest.mark.parametrize("backend, trials", [
        (None, growth._BLOCK - 1), (None, growth._BLOCK),
        (None, growth._BLOCK + 1), ("three-qubit", growth._BLOCK + 1),
        (None, growth._CHUNK + growth._BLOCK // 2),  # a part block past a chunk
    ])
    def test_sequential_block_boundaries(self, backend, trials):
        """Walks that reach L or the cap past their second pass, by the
        walker's address rule, across block and chunk boundaries."""
        cfg = StrategyConfig(variant="sequential", p=0.75, target_L=150, max_rounds=300,
                             trials=trials, master_seed=2**63 + 13, gate_time=0.5,
                             gate_backend=backend)
        ops = simulate(cfg).entangling_ops
        assert (ops > 2 * growth._SEQ_WIDTH).mean() > 0.5
        assert 0 < (ops == 300).mean() < 1
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

    @pytest.mark.parametrize(
        "trials", [growth._DC_BLOCK - 1, growth._DC_BLOCK, growth._DC_BLOCK + 1])
    @pytest.mark.parametrize("kwargs", [
        dict(p=0.5, initial_qubits=2**16, rounds_k=8),
        dict(p=0.6, initial_qubits=1000, rounds_k=12),  # pools run dry
        dict(p=0.9, initial_qubits=2, rounds_k=3),  # a lone chain waits
    ], ids=lambda kw: "-".join(map(str, kw.values())))
    def test_divide_conquer_block_boundaries(self, kwargs, trials):
        _assert_equals_scalar_trials(StrategyConfig(
            variant="divide_conquer", trials=trials, master_seed=2**63 + 7,
            gate_time=0.3, **kwargs))


# sha256 of every output array of simulate, computed when each variant's
# trials first drew from per-block streams; the runs must stay byte-identical
GOLDEN = {
    "sequential": (
        dict(variant="sequential", p=0.75, trials=2000, master_seed=2**63 + 5,
             target_L=41),
        "48948dccac8da3e4fa540d619b6d19ff5441da1fd706cbc7f278f0fea3a87bf0",
    ),
    "sequential-capped": (
        dict(variant="sequential", p=0.5, trials=300, master_seed=17, target_L=30,
             max_rounds=50),
        "d95e1f49ba89216833cc8df80fb23397b9283f1690eb64e8b7fdf1aeb9fc8fbb",
    ),
    "sequential-three-qubit": (
        dict(variant="sequential", p=0.75, trials=60, master_seed=2**64 - 1,
             target_L=11, gate_backend="three-qubit"),
        "40bc77415143f9dafc03ebcf52656ecf3cc1613147518c6f93dce59684c4271a",
    ),
    "merge": (
        dict(variant="merge", p=0.75, trials=300, master_seed=2**63 + 9, target_L=41),
        "2b0c12978c9efea6d7b9414437775651b4ef75e17c01069bf1cd089cec0cdbb6",
    ),
    "merge-p0.6": (
        dict(variant="merge", p=0.6, trials=100, master_seed=3, target_L=20),
        "345827d138b4dd6a00e246d559ee6e02dc72ee77cf3a561706ec2415958b2bab",
    ),
    "divide_conquer": (
        dict(variant="divide_conquer", p=0.5, trials=500, master_seed=11,
             initial_qubits=2**16, rounds_k=8),
        "cabb487235b81dca1abcdfed92c3dd5e0283c01bb51eb52984c9096f8d21ae53",
    ),
    "vertical_link": (
        dict(variant="vertical_link", p=0.75, trials=3000, master_seed=2**63),
        "f8153bb956557a1da3d232003202fec7e31cf57f0fb06456c0ff45875cf99d59",
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


# sha256 as for GOLDEN, of runs whose trials read later passes, computed when
# each variant's trials first drew from per-block streams; merge-p0.5's when
# merge time became whole gate slots times gate_time (its other columns kept
# their bytes)
MULTI_BLOCK = {
    "merge-p0.5": (
        dict(variant="merge", p=0.5, trials=400, master_seed=23, target_L=41,
             gate_time=0.37),
        "6e6044db673f0f196e6f56ce7e95e1d797179871b7e0ce577491dee9de3b8709",
    ),
    "vertical_link-p0.05": (
        dict(variant="vertical_link", p=0.05, trials=3000, master_seed=2**63 + 1),
        "f16d6105c722b50dd96529f83ec4f3767959ed1bd54af118ebf3dd0b6f45dfa4",
    ),
    "sequential-capped-p0.55": (
        dict(variant="sequential", p=0.55, trials=300, master_seed=31, target_L=300,
             max_rounds=700),
        "007fa0e321616d1703eb1119238b8697aa354a0f23981be8521069cb08d9f44e",
    ),
}


@pytest.mark.parametrize("name", list(MULTI_BLOCK))
def test_multi_block_outputs_pinned(name):
    kwargs, digest = MULTI_BLOCK[name]
    stats = simulate(StrategyConfig(**kwargs))
    width, share = {"merge": (growth._MERGE_WIDTH, 0.15),
                    # a row of about 2/p draws: e**-2 of the trials pass it
                    "vertical_link": (growth._link_width(0.05), 0.1),
                    "sequential": (growth._SEQ_WIDTH, 0.15)}[stats.config.variant]
    assert (stats.entangling_ops > width).mean() > share  # trials past their first pass
    assert _stats_digest(stats) == digest

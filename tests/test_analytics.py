"""Closed-form evaluators: worked values, invariants, quoted-constant flags."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qubuslab import analytics as an


class TestJoinYield:
    def test_approx_value(self):
        assert an.join_yield(10, 0.75, "approx") == pytest.approx(
            18.333333333333332, rel=1e-12
        )

    def test_exact_sum_value(self):
        # frozen from direct term-by-term summation
        assert an.join_yield(10, 0.75, "exact-sum") == pytest.approx(
            18.33333420753479, rel=1e-12
        )

    def test_deterministic_gate(self):
        for L in (1, 5, 12):
            assert an.join_yield(L, 1.0, "approx") == 2 * L - 1
            assert an.join_yield(L, 1.0, "exact-sum") == 2 * L - 1

    def test_half_probability_large_chain(self):
        assert an.join_yield(200, 0.5, "approx") == pytest.approx(2 * 200 - 3)

    def test_sum_converges_to_closed_form(self):
        for p in (0.4, 0.6, 0.85):
            gaps = [
                abs(an.join_yield(L, p, "exact-sum") - an.join_yield(L, p, "approx"))
                for L in (10, 20, 40)
            ]
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[2] <= max(4.0 * (1 - p) ** 40 / p, 1e-11)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            an.join_yield(5, 0.5, "guess")


class TestCriticalLength:
    def test_reference_points(self):
        assert an.critical_length(0.5) == pytest.approx(3.0)
        assert an.critical_length(0.75) == pytest.approx(5.0 / 3.0)
        assert an.critical_length(1.0) == pytest.approx(1.0)

    def test_minimal_chain_length(self):
        assert an.minimal_chain_length(0.75) == 2
        assert an.minimal_chain_length(0.5) == 4  # next integer above 3

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            an.critical_length(0.0)


class TestMergeScaling:
    def test_three_quarter_law(self):
        ms = an.merge_scaling(10, 0.75)
        assert ms.n_law == pytest.approx(8 * 10 - 44 / 3, rel=1e-12)
        # the printed sum agrees at p = 3/4 where its limit is integral
        assert ms.n_sum_floor == pytest.approx(ms.n_law, rel=1e-12)

    def test_half_law_uses_quoted_build_cost(self):
        ms = an.merge_scaling(10, 0.5)
        assert ms.n_law == pytest.approx(16 * 10 - 50)
        assert an.merge_n_law(4, 0.5, 4, 14.0) == pytest.approx(14.0)

    def test_half_sum_readings_differ_from_law(self):
        """The printed sum limit log2(3)+1 is non-integral; neither rounding
        reproduces the quoted 16L-50 law."""
        ms = an.merge_scaling(10, 0.5)
        assert ms.n_sum_floor == pytest.approx(12 * 10 - 38)
        assert ms.n_sum_ceil == pytest.approx(44 * 10 - 134)
        assert ms.n_sum_floor != pytest.approx(ms.n_law)

    def test_time_ceiling_matches_quoted_form(self):
        ms = an.merge_scaling(10, 0.5)
        assert ms.t_sum_ceil == pytest.approx(14 + 2 * math.log2(10 - 3), rel=1e-12)

    def test_minimal_chain_cost_is_inverse_probability(self):
        assert an.merge_n_law(2, 0.75, 2, float(Fraction(4, 3))) == pytest.approx(
            4.0 / 3.0, rel=1e-12
        )

    def test_below_critical_rejected(self):
        with pytest.raises(ValueError):
            an.merge_scaling(1.5, 0.75)


class TestDcScaling:
    def test_survivor_count(self):
        assert an.dc_scaling(0.5, 1024, k=3)["C"] == pytest.approx(16.0)

    def test_per_chain_ops(self):
        vals = an.dc_scaling(0.75, 1, L=9)
        assert vals["N_dc"] == pytest.approx(float(Fraction(388, 27)), rel=1e-12)

    def test_round_zero(self):
        vals = an.dc_scaling(0.75, 100, k=0)
        assert vals == {
            "k": 0, "L": 1, "C": 100.0, "Q": 100.0, "W": 0.0,
            "G": 0.0, "N_dc": 0.0, "T_dc": 0.0,
        }

    def test_identities(self):
        for k in range(1, 9):
            vals = an.dc_scaling(0.6, 4096, k=k)
            assert vals["Q"] == pytest.approx(vals["C"] * (2 ** (k - 1) + 1))
            assert vals["W"] == pytest.approx(4096 - vals["Q"])

    def test_off_grid_length_refused(self):
        with pytest.raises(ValueError):
            an.dc_scaling(0.5, 16, L=10)

    @pytest.mark.parametrize("L", [0, -3])
    def test_length_below_one_refused(self, L):
        with pytest.raises(ValueError, match=f"length {L} is below 1"):
            an.dc_rounds_for_length(L)

    def test_time_is_round_count(self):
        vals = an.dc_scaling(0.5, 256, k=5)
        assert vals["T_dc"] == pytest.approx(1 + math.log2(vals["L"] - 1))


def _dc_rule_by_enumeration(p: Fraction, n: int, k: int) -> list:
    """(E C, Var C, E Q, Var Q) per round 0..k, in exact fractions, from the
    law of (chains, length) with every binomial outcome enumerated."""
    law, rows = {(n, 1): Fraction(1)}, []
    for j in range(k + 1):
        if j:
            after = {}
            for (c, length), w in law.items():
                if c < 2:  # a pool of 0 or 1 chains stops pairing
                    after[c, length] = after.get((c, length), 0) + w
                    continue
                for m in range(c // 2 + 1):
                    key = (m, an.dc_round_length(j))
                    after[key] = after.get(key, 0) + w * math.comb(c // 2, m) * (
                        p**m * (1 - p) ** (c // 2 - m))
            law = after
        row = []
        for value in (lambda c, length: c, lambda c, length: c * length):
            mean = sum(w * value(*s) for s, w in law.items())
            row += [mean, sum(w * value(*s) ** 2 for s, w in law.items()) - mean**2]
        rows.append(row)
    return rows


class TestDcRuleMoments:
    @pytest.mark.parametrize("p, n, k", [
        (Fraction(1, 2), 37, 7), (Fraction(3, 4), 64, 8), (Fraction(9, 10), 2, 3),
        (Fraction(1, 20), 300, 2), (Fraction(1), 64, 8), (Fraction(3, 5), 11, 0),
    ])
    def test_equals_enumeration(self, p, n, k):
        got = an.dc_rule_moments(float(p), n, k)
        for j, want in enumerate(_dc_rule_by_enumeration(p, n, k)):
            row = [got[key][j] for key in ("C", "C_var", "Q", "Q_var")]
            assert row == pytest.approx([float(w) for w in want], rel=1e-11, abs=1e-14)

    def test_means_below_the_paper_law(self):
        """The odd chain out of every pool is lost: 15.8335 and 0.8875 in
        place of 16 and 1 at p = 1/2, 25.3292 in place of 25.6289 at 3/4."""
        half, three_quarters = an.dc_rule_moments(0.5, 2**16, 8), an.dc_rule_moments(
            0.75, 2**16, 8)
        assert round(half["C"][6], 4) == 15.8335 and round(half["C"][8], 4) == 0.8875
        assert round(three_quarters["C"][8], 4) == 25.3292
        for p, got in ((0.5, half), (0.75, three_quarters)):
            assert got["C"][0] == 2**16 and got["C_var"][0] == 0.0
            # 2**16 is even, so round 1 strands nothing
            assert got["C"][1] == pytest.approx(an.dc_scaling(p, 2**16, k=1)["C"], rel=1e-14)
            for j in range(2, 9):
                law = an.dc_scaling(p, 2**16, k=j)
                assert got["C"][j] < law["C"] and got["Q"][j] < law["Q"]

    def test_rounds_after_the_pools_run_dry(self):
        got = an.dc_rule_moments(0.9, 8, 40)
        assert all((values[4:] == values[4]).all() for values in got.values())

    @pytest.mark.parametrize("args, match", [
        ((0.5, 1, 3), "n >= 2"), ((0.5, 64, -1), "nonnegative"),
        ((0.0, 64, 3), "success probability"), ((float("nan"), 64, 3), "success probability"),
    ])
    def test_refusals(self, args, match):
        with pytest.raises(ValueError, match=match):
            an.dc_rule_moments(*args)

    def test_not_built_at_import_nor_called_by_a_growth_run(self):
        """Neither import nor simulate, scaling_point and compare_to_analytic
        build the log m! table, so a divide-and-conquer or sequential growth
        run never pays for an exact law."""
        code = ("import qubuslab.analytics as an, qubuslab.verify\n"
                "from qubuslab import growth\n"
                "cfg = growth.StrategyConfig('divide_conquer', 0.5, 50, 1, "
                "initial_qubits=256, rounds_k=4)\n"
                "point = an.scaling_point('divide_conquer', 0.5, n=256, k=4)\n"
                "growth.compare_to_analytic(growth.simulate(cfg), point)\n"
                "cfg = growth.StrategyConfig('sequential', 0.75, 50, 1, target_L=21)\n"
                "point = an.scaling_point('sequential', 0.75, L=21)\n"
                "growth.compare_to_analytic(growth.simulate(cfg), point)\n"
                "print(an._log_factorials.cache_info().currsize)")
        src = Path(an.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(src)), check=True)
        assert out.stdout == "0\n"


class TestSeqScaling:
    def test_reference_point(self):
        n, t = an.seq_scaling(41, 0.75)
        assert n == pytest.approx(80.0)
        assert t == pytest.approx(41 * 4 / 3 - 4 / 3)

    def test_drift_interpretation(self):
        # one net qubit every two attempts at p = 3/4
        n, _ = an.seq_scaling(3, 0.75)
        assert n == pytest.approx(4.0)

    def test_deterministic_gate(self):
        n, t = an.seq_scaling(10, 1.0, t=2.0)
        assert n == pytest.approx(9.0)
        assert t == pytest.approx(18.0)

    def test_non_growing_rejected(self):
        with pytest.raises(ValueError):
            an.seq_scaling(10, 0.5)


def _seq_rule_by_enumeration(p: Fraction, L: int, steps: int, cap: int | None) -> dict:
    """P(ops = n) in exact fractions, from the walk from length 1 stepped
    ``steps`` times with its mass at L absorbed: P(T = n) for n <= steps,
    and under a cap (steps = cap) the mass still walking at the cap."""
    walking, law = {1: Fraction(1)}, {}
    if L == 1:
        return {0: Fraction(1)}
    for n in range(1, steps + 1):
        after = {}
        for length, w in walking.items():
            for step, chance in ((1, p), (-1, 1 - p)):
                after[length + step] = after.get(length + step, 0) + w * chance
        if after.get(L):
            law[n] = after.pop(L)
        walking = {length: w for length, w in after.items() if w}
    if cap is not None and walking:
        law[cap] = law.get(cap, 0) + sum(walking.values())
    return law


class TestSeqRulePmf:
    @pytest.mark.parametrize("p, L, cap", [
        (Fraction(1, 2), 30, 50), (Fraction(1, 3), 4, 40), (Fraction(9, 10), 2, 7),
        (Fraction(3, 5), 11, 11),  # one value below the cap: n = 10
        (Fraction(3, 4), 41, 40),  # a cap below L - 1 cuts every walk
        (Fraction(3, 4), 6, 200),
        (Fraction(9, 10), 6, 200),  # the terms stop before the cap
        (Fraction(1), 10, None), (Fraction(3, 4), 1, None),
        (Fraction(3, 4), 6, None), (Fraction(11, 20), 3, None),
    ])
    def test_equals_enumeration(self, p, L, cap):
        ops, pmf = an.seq_rule_pmf(float(p), L, cap)
        assert ops.dtype == np.int64 and (np.diff(ops) > 0).all()
        steps = 60 if cap is None else cap
        want = _seq_rule_by_enumeration(p, L, steps, cap)
        if (p, L, cap) == (Fraction(9, 10), 6, 200):
            assert ops[-1] < cap
        got = dict(zip(ops.tolist(), pmf.tolist()))
        for n in range(steps + 1):
            assert got.get(n, 0.0) == pytest.approx(float(want.get(n, 0)), rel=1e-12,
                                                    abs=1e-15), n
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("p, L", [(0.75, 41), (0.55, 300), (0.9, 2), (0.6, 101)])
    def test_moments_of_the_hitting_time(self, p, L):
        """Mean (L-1)/(2p-1) and variance 4pq(L-1)/(2p-1)^3: 80 and 240 at
        (3/4, 41)."""
        ops, pmf = an.seq_rule_pmf(p, L)
        mean = pmf @ ops
        assert mean == pytest.approx((L - 1) / (2 * p - 1), rel=1e-12)
        assert pmf @ (ops - mean) ** 2 == pytest.approx(
            4 * p * (1 - p) * (L - 1) / (2 * p - 1) ** 3, rel=1e-10)

    def test_capped_walk_rarely_reaches(self):
        """At p = 1/2 a walk from 1 reaches 30 within 50 ops with chance 2.39e-5."""
        ops, pmf = an.seq_rule_pmf(0.5, 30, 50)
        assert ops[-1] == 50 and round(math.fsum(pmf[:-1]), 7) == 2.39e-5

    @pytest.mark.parametrize("args, match", [
        ((0.5, 30), "needs max_rounds"), ((0.75, 0), "below 1"),
        ((0.75, 10, 0), "at least 1"), ((float("nan"), 10), "success probability"),
        ((0.51, 10), "more than 1024 terms"),
    ])
    def test_refusals(self, args, match, monkeypatch):
        monkeypatch.setattr(an, "_LAW_TERMS", 1024)  # p = 0.51 needs 66997
        with pytest.raises(ValueError, match=match):
            an.seq_rule_pmf(*args)


class TestLinkRulePmf:
    @pytest.mark.parametrize("p", [1.0, 0.75, 0.5, 0.1])
    def test_geometric_moments(self, p):
        """E F = q/p and Var F = q/p^2, so qubits 4 + 2F average 2(1/p + 1)."""
        fails, pmf = an.link_rule_pmf(p)
        q = 1.0 - p
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-14)
        assert pmf @ fails == pytest.approx(q / p, rel=1e-12, abs=1e-15)
        assert pmf @ (fails - q / p) ** 2 == pytest.approx(q / p**2, rel=1e-10, abs=1e-15)
        assert pmf @ (4 + 2 * fails) == pytest.approx(2.0 * (1.0 / p + 1.0), rel=1e-12)

    @pytest.mark.parametrize("p, L", [(0.75, 10), (0.5, 3), (0.05, 40), (1.0, 7)])
    def test_join_law_against_the_printed_sum(self, p, L):
        """The printed sum runs to i = L, where it adds -p q^L: the rule ends
        there at length 0 with chance q^L."""
        fails, pmf = an.link_rule_pmf(p, cap=L)
        assert fails.tolist() == list(range(L + 1)) or p == 1.0
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-14)
        length = np.where(fails == L, 0, 2 * (L - fails) - 1)
        printed = an.join_yield(L, p, "exact-sum") + p * (1 - p) ** L
        assert pmf @ length == pytest.approx(printed, rel=1e-12)

    @pytest.mark.parametrize("args, match", [
        ((0.0,), "success probability"), ((0.5, 0), "at least 1"),
        ((1e-6,), "more than 1048576 terms"),
    ])
    def test_refusals(self, args, match):
        with pytest.raises(ValueError, match=match):
            an.link_rule_pmf(*args)


class TestMergeRuleLaw:
    def test_geometric_automaton(self):
        """One live state that a success leaves for length 5, two qubits a
        draw: ops are geometric from 1, with mean 1/p, and qubits twice ops."""
        p = 0.3
        law = an.merge_rule_law(p, np.array([0, 1, 1, 1]), np.array([2, 2, 0, 0]), 1)
        ops, pmf = law["ops"], law["ops_pmf"]
        assert pmf[:4] == pytest.approx(p * (1 - p) ** np.arange(4), rel=1e-12)
        assert pmf @ ops == pytest.approx(1 / p, rel=1e-12)
        assert law["qubits"] == pytest.approx(2 / p, rel=1e-12)
        assert law["qubits_sq"] == pytest.approx(4 * (2 - p) / p**2, rel=1e-12)

    @pytest.mark.parametrize("args, match", [
        ((0.0, [0, 0, 1, 1], [0, 0, 0, 0], 1), "success probability"),
        ((0.5, [0, 0, 1, 1], [0, 0, 0, 0], 1), "more than 64 ops"),  # never absorbs
    ])
    def test_refusals(self, args, match, monkeypatch):
        monkeypatch.setattr(an, "_LAW_TERMS", 64)
        with pytest.raises(ValueError, match=match):
            an.merge_rule_law(*args)

    def test_reads_no_growth(self):
        """The law takes the automaton's tables; analytics imports no growth."""
        assert "growth" not in vars(an)


class TestVerticalCost:
    def test_three_quarter_composition(self):
        V, NV = an.vertical_cost(0.75)
        assert V == pytest.approx(14.0 / 3.0, rel=1e-12)
        assert NV == pytest.approx(140.0 / 3.0, rel=1e-12)

    def test_half_composition_flags(self):
        V, NV = an.vertical_cost(0.5)
        assert V == pytest.approx(6.0)
        assert NV == pytest.approx(94.0)
        quoted = an.QUOTED_CONSTANTS["vertical-ops-p-1/2"]
        assert quoted.value == 70.0 and quoted.status == "flagged"

    def test_unit_probability_limit(self):
        assert an.vertical_cost(1.0)[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("p", [0.5, 0.75])
    def test_composes_merge_law(self, p):
        V, NV = an.vertical_cost(p)
        assert NV == 2.0 * an.merge_scaling(V, p).n_law + 1.0 / p

    def test_no_stored_law(self):
        """Where no build cost is quoted, N_V composes the floor reading's law."""
        V, NV = an.vertical_cost(0.6)
        assert V == 2.0 * (1.0 / 0.6 + 1.0)
        assert NV == 2.0 * an.merge_scaling(V, 0.6).n_sum_floor + 1.0 / 0.6
        assert NV == pytest.approx(78.33333333333337, rel=1e-12)


class TestReferenceSeries:
    def test_known_series(self):
        fit = an.SERIES["rus-pf-0.6"].N
        assert fit(11, 0.75) - fit(10, 0.75) == 185.0
        assert fit(0, 0.75) == -1115.0
        assert an.SERIES["rus-pf-0.4"].N(11, 0.75) - an.SERIES["rus-pf-0.4"].N(10, 0.75) \
            == pytest.approx(16.6)
        assert an.SERIES["merge"].N(10, 0.75) == pytest.approx(65.33333333, rel=1e-9)
        assert an.SERIES["linear-optics-p-half"].N(10, 0.5) == pytest.approx(110.0)
        assert all(an.SERIES[name].T is None
                   for name in ("rus-pf-0.6", "rus-pf-0.4", "linear-optics-p-half"))

    def test_unknown_series(self):
        with pytest.raises(KeyError):
            an.SERIES["mystery"]
        assert list(an.SERIES) == [
            "dc", "merge", "seq", "rus-pf-0.6", "rus-pf-0.4", "linear-optics-p-half"]


# the quoted straight-line fits, as (slope, intercept)
_FITS = {"rus-pf-0.6": (185.0, -1115.0), "rus-pf-0.4": (16.6, -47.7),
         "linear-optics-p-half": (16.0, -50.0)}


class TestSeriesTable:
    """Each row of ``SERIES`` gives exactly what the function it wraps gives."""

    @pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("t", [1.0, 0.37])
    def test_rows_equal_their_functions(self, p, t):
        rows = an.SERIES
        for L in range(rows["dc"].start(p), 401):
            assert rows["dc"].N(L, p) == an.dc_series_value(L, p)
            assert rows["dc"].T(L, p, t) == an.dc_series_time(L, t)
        for L in range(rows["merge"].start(p), 401):
            point = an.scaling_point("merge", p, L, t)
            assert rows["merge"].N(L, p) == point.N
            assert rows["merge"].T(L, p, t) == point.T
        for L in range(rows["seq"].start(p), 401):
            assert (rows["seq"].N(L, p), rows["seq"].T(L, p, t)) == an.seq_scaling(L, p, t)
        for name, (slope, intercept) in _FITS.items():
            for L in range(rows[name].start(p), 401):
                assert rows[name].N(L, p) == slope * L + intercept

    @pytest.mark.parametrize("p", [0.5, 0.6, 0.75, 0.9])
    def test_starts(self, p):
        assert an.SERIES["dc"].start(p) == 2
        assert an.SERIES["merge"].start(p) == an.minimal_chain_length(p)
        assert an.SERIES["seq"].start(p) == an.minimal_chain_length(p)
        starts = {name: an.SERIES[name].start(p) for name in _FITS}
        assert starts == {"rus-pf-0.6": 7, "rus-pf-0.4": 3, "linear-optics-p-half": 4}
        # a fit's first value is positive, and the length before it is at or below its root
        for name, start in starts.items():
            assert an.SERIES[name].N(start - 1, p) <= 0 < an.SERIES[name].N(start, p)

    def test_merge_row_is_the_quoted_law_at_three_quarters(self):
        for L in range(2, 401):
            assert an.SERIES["merge"].N(L, 0.75) == pytest.approx(8.0 * L - 44.0 / 3.0,
                                                                  abs=1e-11)

    def test_start_at_a_rounded_critical_length(self):
        """At p = 0.4, L_c = 4 rounds to 3.9999999999999996; L = 4 still has no
        value, minimal chains are 5 long, and the law does not divide by 4e-16."""
        assert an.critical_length(0.4) < 4.0
        assert an.minimal_chain_length(0.4) == an.SERIES["merge"].start(0.4) == 5
        assert an.SERIES["seq"].start(0.4) == 5
        assert an.SERIES["merge"].N(5, 0.4) == 77.5
        assert an.merge_scaling(12, 0.4).n_law == 637.4999999999998

    def test_overflowing_critical_length_is_refused(self):
        with pytest.raises(ValueError, match="critical length overflows"):
            an.critical_length(1e-320)


# every p = k/1000, and every p = 2/(m + 1), whose critical length is m
_GRID = [k / 1000 for k in range(1, 1001)] + [2 / (m + 1) for m in range(1, 201)]


class TestOneRule:
    """L0 and the build cost of one minimal chain are each decided once."""

    def test_minimal_chain_is_the_series_start(self):
        for p in _GRID:
            L0 = an.minimal_chain_length(p)
            assert L0 == an.SERIES["merge"].start(p), p
            if p > 0.5:
                assert L0 == an.SERIES["seq"].start(p), p

    def test_critical_length_of_two_over_m_plus_one(self):
        for m in range(1, 201):
            assert an.minimal_chain_length(2 / (m + 1)) == m + 1, m

    def test_vertical_cost_composes_the_merge_row(self):
        for p in _GRID:
            V, NV = an.vertical_cost(p)
            assert NV == 2 * an.SERIES["merge"].N(V, p) + 1 / p, p
            assert math.isfinite(NV), p

    def test_merge_law_refuses_lengths_below_the_minimal_chain(self):
        """Below L0 the law extrapolates: N(4, 0.4) would be -2.5.  The vertical
        link's V = 2/p + 2 never falls below L0, so it is never refused."""
        with pytest.raises(ValueError, match="length 4 is below the minimal chain length 5,"):
            an.merge_scaling(4, 0.4)
        for p in _GRID:
            L0 = an.minimal_chain_length(p)
            assert an.vertical_cost(p)[0] >= L0, p
            with pytest.raises(ValueError, match=f"below the minimal chain length {L0},"):
                an.merge_scaling(L0 - 0.5, p)
            assert an.merge_scaling(L0, p).n_law > 0, p

    def test_vertical_cost_at_every_hundredth(self):
        assert all(math.isfinite(an.vertical_cost(k / 100)[1]) for k in range(1, 101))
        assert an.vertical_cost(0.75)[1] == 46.66666666666664
        assert an.vertical_cost(0.5)[1] == 94.0

    def test_build_cost_at_two_is_inverse_probability(self, monkeypatch):
        """Every build cost the laws take at L0 = 2 is 1.0 / p, bit for bit."""
        costs = []
        merge_n_law = an.merge_n_law
        monkeypatch.setattr(an, "merge_n_law", lambda L, p, L0, n0: (
            costs.append(n0), merge_n_law(L, p, L0, n0))[1])
        for p in _GRID:
            if an.minimal_chain_length(p) == 2:
                costs.clear()
                an.merge_scaling(10, p)
                assert costs and all(n0 == 1.0 / p for n0 in costs), p

    def test_law_pole_just_above_one_half(self):
        """Just above p = 1/2, L_c = 2.9999996 sits below 3: L0 drops to 3 and the
        printed law divides by 4e-7.  The pole is the law's own, kept as printed."""
        assert an.minimal_chain_length(0.5) == 4
        assert an.minimal_chain_length(0.5000001) == 3
        assert an.SERIES["merge"].N(10, 0.5) == 110.0
        assert an.SERIES["merge"].N(10, 0.5000001) == pytest.approx(1.05e8, rel=1e-3)


class TestCrossoverAndConstants:
    def test_crossover_location(self):
        assert an.merge_crossover(0.75) == pytest.approx(255.92141727672606, rel=1e-6)

    @pytest.mark.parametrize("p", [0.5, 0.4, 0.3])
    def test_crossover_at_or_below_one_half(self, p):
        """The bracket starts at L0, where the merge law has its first value."""
        cross = an.merge_crossover(p)
        assert an.SERIES["merge"].start(p) < cross < 10000.0
        dc, merge = an.SERIES["dc"], an.SERIES["merge"]
        assert dc.N(cross - 1e-6, p) < merge.N(cross - 1e-6, p)
        assert dc.N(cross + 1e-6, p) > merge.N(cross + 1e-6, p)
        if p == 0.5:
            assert cross == pytest.approx(22.695359714832662, rel=1e-9)

    def test_dc_cheaper_below_crossover(self):
        dc, merge = an.SERIES["dc"], an.SERIES["merge"]
        assert dc.N(129, 0.75) < merge.N(129, 0.75)
        assert dc.N(257, 0.75) > merge.N(257, 0.75)
        # the first whole length where doubling costs more is 256
        assert dc.N(255, 0.75) < merge.N(255, 0.75) < merge.N(256, 0.75) < dc.N(256, 0.75)

    def test_flagged_constants_present(self):
        names = [c.name for c in an.QUOTED_CONSTANTS.values() if c.status == "flagged"]
        assert names == ["minimal-build-cost-p-1/2", "vertical-ops-p-1/2",
                         "vacuum-error-alpha-theta-2"]

    def test_computed_statuses(self):
        """Every row with code reproduces but the three flagged ones; a row
        has a cause exactly when it is flagged."""
        flagged = {"minimal-build-cost-p-1/2", "vertical-ops-p-1/2",
                   "vacuum-error-alpha-theta-2"}
        for name, c in an.QUOTED_CONSTANTS.items():
            assert c.name == name
            if c.code is None:
                assert c.status is None
            else:
                assert c.status == ("flagged" if name in flagged else "reproduced"), name
            assert (c.note is None) == (c.status != "flagged"), name

    def test_status_follows_the_code(self, monkeypatch):
        """A status is worked out on each read from the code the row calls."""
        row = an.QUOTED_CONSTANTS["vertical-ops-p-3/4"]
        vertical_cost = an.vertical_cost
        for drift, status in ((-0.01, "reproduced"), (-0.02, "flagged")):
            monkeypatch.setattr(an, "vertical_cost",
                                lambda p: (vertical_cost(p)[0], 140.0 / 3.0 + drift))
            assert row.status == status
        monkeypatch.setattr(an, "vertical_cost", lambda p: (6.0, 70.0))
        assert an.QUOTED_CONSTANTS["vertical-ops-p-1/2"].status == "reproduced"

    def test_formulas_behind_the_quoted_figures(self):
        rows = an.QUOTED_CONSTANTS
        assert rows["vertical-ops-p-3/4"].code() == pytest.approx(140.0 / 3.0, abs=1e-12)
        assert rows["vertical-ops-p-3/4"].formula == 140.0 / 3.0
        assert rows["vertical-ops-p-1/2"].code() == pytest.approx(94.0, abs=1e-12)
        assert rows["vertical-ops-p-1/2"].formula == 94.0
        assert rows["minimal-build-cost-p-1/2"].code() == 10.0
        assert rows["vacuum-error-alpha-theta-2"].code() == math.exp(-16.0)

    def test_tolerances(self):
        tol = {c.name: c.tol for c in an.QUOTED_CONSTANTS.values()}
        # half the last printed digit of a rounded figure, 1e-9 for an exact one
        assert tol.pop("vertical-ops-p-3/4") == 0.05
        assert tol.pop("vacuum-error-alpha-theta-2") == 5e-5
        assert tol.pop("vertical-qubits-p-3/4") == 1e-12
        assert set(tol.values()) == {an.EXACT} == {1e-9}

    def test_quoted_figures_feed_the_laws(self, monkeypatch):
        """The p = 1/2 build cost, slope and intercept are read from their rows."""
        rows = an.QUOTED_CONSTANTS
        assert not hasattr(an, "_QUOTED_BUILD_COSTS")
        fit = an.SERIES["linear-optics-p-half"].N
        slope, intercept = (rows[name].value
                            for name in ("merge-law-p-1/2-slope", "merge-intercept-p-1/2"))
        for L in (4, 10, 400):
            assert fit(L, 0.5) == slope * L + intercept == an.merge_scaling(L, 0.5).n_law
        # the law at L0 is the build cost, read from its row on each call
        assert an.merge_scaling(4, 0.5).n_law == rows["minimal-build-cost-p-1/2"].value
        monkeypatch.setitem(rows, "minimal-build-cost-p-1/2",
                            dataclasses.replace(rows["minimal-build-cost-p-1/2"], value=15.0))
        assert an.merge_scaling(4, 0.5).n_law == 15.0

    def test_rus_vertical_constant_stored(self):
        row = an.QUOTED_CONSTANTS["rus-vertical-ops-pf-0.2"]
        assert row.value == 32.5
        assert row.code is None and row.status is None and row.note is None


class TestScalingPoint:
    def test_sequential_point(self):
        pt = an.scaling_point("sequential", 0.75, L=41)
        assert pt.N == pytest.approx(80.0)
        assert pt.T == pytest.approx(40 / 0.75)

    def test_vertical_point(self):
        pt = an.scaling_point("vertical_link", 0.5)
        assert pt.extras["V"] == pytest.approx(6.0)
        assert pt.N == pytest.approx(2.0)

    def test_dc_point(self):
        pt = an.scaling_point("divide_conquer", 0.5, n=1024, k=3)
        assert pt.extras["C"] == pytest.approx(16.0)
        assert pt.extras["Q"] == pytest.approx(16.0 * 5)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            an.scaling_point("magic", 0.5)

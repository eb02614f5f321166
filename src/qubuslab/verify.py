"""Cross-verification suite: every acceptance criterion as a runnable check.

Each criterion returns a :class:`CriterionResult` whose status is ``pass``,
``flag`` (a known, documented discrepancy between quoted constants and the
formulas they came from; never a failure) or ``fail``.  The command line
``qubuslab verify`` prints one line per criterion and exits nonzero only on
``fail``; the pytest acceptance module asserts the same results.
"""

from __future__ import annotations

import collections
import itertools
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from . import analytics, busim, gates, graphstab, growth, oracles

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    number: int
    name: str
    status: str = "pass"  # "pass" | "flag" | "fail"
    details: list = field(default_factory=list)
    elapsed: float = 0.0

    def note(self, line: str) -> None:
        self.details.append(line)

    def fail(self, line: str) -> None:
        self.status = "fail"
        self.details.append("FAIL: " + line)

    def check(self, ok: bool, line: str) -> None:
        if ok:
            self.details.append("ok: " + line)
        else:
            self.fail(line)


# ---------------------------------------------------------------------------
# 1. two-qubit parity gate probabilities and posterior


def check_parity_gate(quick: bool = False) -> CriterionResult:
    res = CriterionResult(1, "parity gate outcome table")
    outs = {o.label: o for o in gates.momentum_parity_outcomes(1000.0, 0.003)}
    res.check(
        abs(outs["odd-bell"].probability - 0.5) <= 1e-12,
        f"odd-bell probability {outs['odd-bell'].probability!r} == 1/2 (1e-12)",
    )
    for label in ("product-00", "product-11"):
        res.check(
            abs(outs[label].probability - 0.25) <= 1e-12,
            f"{label} probability == 1/4 (1e-12)",
        )
    total = sum(o.probability for o in outs.values())
    res.check(abs(total - 1.0) <= 1e-12, "probabilities sum to 1")
    target = busim.QubitState(2, np.array([0, 1, 1, 0]) / math.sqrt(2.0))
    fid = busim.fidelity(
        gates.apply_corrections(outs["odd-bell"].posterior, outs["odd-bell"].corrections),
        target,
    )
    res.check(fid >= 1.0 - 1e-12, f"odd-Bell posterior fidelity {fid:.15f}")
    return res


# ---------------------------------------------------------------------------
# 2. momentum misassignment error versus quadrature


def check_momentum_error(quick: bool = False) -> CriterionResult:
    res = CriterionResult(2, "momentum misassignment error")
    for alpha, theta in ((1000.0, 0.003), (500.0, 0.0063)):
        sep = 2.0 * alpha * math.sin(theta)
        integrated = oracles.two_gaussian_misassignment(sep)
        closed = gates.error_budget(alpha, theta).p_err_momentum
        rel = abs(integrated - closed) / closed
        res.check(
            rel <= 1e-6,
            f"quadrature vs erfc at alpha={alpha}, theta={theta}: "
            f"{integrated:.9e} vs {closed:.9e} (rel {rel:.2e})",
        )
    at_pi = 0.5 * math.erfc(math.pi / math.sqrt(2.0))
    res.check(at_pi < 1e-3, f"error at separation parameter pi: {at_pi:.4e} < 1e-3")
    return res


# ---------------------------------------------------------------------------
# 3. three-qubit gate and cascade scaling


def check_three_qubit(quick: bool = False) -> CriterionResult:
    res = CriterionResult(3, "three-qubit gate and cascade")
    outs = gates.three_qubit_outcomes(1000.0, 0.003)
    by_label = {o.label: o for o in outs}
    res.check(
        abs(by_label["ghz"].probability - 0.25) <= 1e-12, "GHZ probability == 1/4"
    )
    bell = [o for o in outs if o.label.startswith("bell-q3")]
    res.check(
        len(bell) == 2 and all(abs(o.probability - 0.25) <= 1e-12 for o in bell),
        "two Bell outcomes at 1/4 each",
    )
    prods = [o for o in outs if o.label.startswith("product")]
    res.check(
        len(prods) == 2 and all(abs(o.probability - 0.125) <= 1e-12 for o in prods),
        "two product outcomes at 1/8 each",
    )
    res.check(
        gates.cascade_pair_success(outs) == Fraction(3, 4), "pair success == 3/4"
    )
    ghz_state = by_label["ghz"]
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = amps[7] = 1 / math.sqrt(2.0)
    fid = busim.fidelity(
        gates.apply_corrections(ghz_state.posterior, ghz_state.corrections),
        busim.QubitState(3, amps),
    )
    res.check(fid >= 1.0 - 1e-12, f"GHZ fidelity {fid:.15f}")
    for n in range(2, 9):
        expect = Fraction(2 ** (n - 1) - 1, 2 ** (n - 1))
        got = gates.cascade_pair_success(gates.cascade_outcomes(n, 1000.0, 0.003))
        res.check(got == expect, f"cascade n={n}: pair success {got} == {expect}")
    return res


# ---------------------------------------------------------------------------
# 4. bucket gate


def check_bucket_gate(quick: bool = False) -> CriterionResult:
    res = CriterionResult(4, "bucket detection gate")
    alpha, theta = 40.0, 0.05
    outs = gates.bucket_parity_outcomes(alpha, theta, number_resolving=True, n_max=6)
    odd = outs[0]
    target = busim.QubitState(2, np.array([0, 1, 1, 0]) / math.sqrt(2.0))
    fid = busim.fidelity(odd.posterior, target)
    res.check(fid >= 1.0 - 1e-12, f"vacuum posterior is the odd Bell ({fid:.15f})")
    for o in outs[1:]:
        n = int(o.label.rsplit("-", 1)[1])
        sign = 1.0 if n % 2 == 0 else -1.0
        tgt = busim.QubitState(2, np.array([1, 0, 0, sign]) / math.sqrt(2.0))
        f = busim.fidelity(gates.apply_corrections(o.posterior, o.corrections), tgt)
        res.check(f >= 1.0 - 1e-12, f"n={n} corrected posterior fidelity {f:.15f}")
    budget = gates.error_budget(2.0 / theta, theta)  # alpha theta = 2
    formula = math.exp(-4.0 * 2.0**2)  # exp(-4 (alpha theta)^2) = e^-16
    res.check(
        abs(budget.p_err_vacuum - formula) <= 1e-12 * formula + 1e-300,
        f"vacuum error at alpha*theta=2 equals e^-16 = {formula:.6e}",
    )
    # report all three readings side by side: small-angle formula, exact
    # overlap at a weak-interaction working point, and the quoted value
    a_small, t_small = 2000.0, 0.001
    exact_overlap = math.exp(-4.0 * a_small**2 * math.sin(t_small) ** 2)
    quoted = analytics.QUOTED_CONSTANTS["vacuum-error-alpha-theta-2"]
    res.note(
        f"false-vacuum readings at separation 2: formula {formula:.4e}, "
        f"exact overlap (alpha={a_small:g}, theta={t_small:g}) {exact_overlap:.4e}, "
        f"quoted {quoted.value:.1e}"
    )
    return res


# ---------------------------------------------------------------------------
# 5. measurement-free geometric sequences


def check_geometric(quick: bool = False) -> CriterionResult:
    res = CriterionResult(5, "measurement-free geometric sequences")
    b = math.sqrt(math.pi / 8.0)
    rng = np.random.default_rng(20250809)
    loop, loop_corrections = gates.geometric_cz(b, 1j * b)
    worst = 1.0
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = busim.QubitState(2, v, normalize=True)
        out = gates.run_sequence(busim.attach_bus(state, 0.0), loop)
        spread = busim.bus_spread(out)
        if spread != 0.0:
            res.fail(f"bus spread {spread!r} != 0")
        cz = state.amplitudes * np.where(np.arange(4) == 3, -1.0, 1.0)
        fid = busim.fidelity(
            gates.apply_corrections(busim.extract_qubits(out), loop_corrections),
            busim.QubitState(2, cz),
        )
        worst = min(worst, fid)
    res.check(worst >= 1.0 - 1e-12, f"worst corrected CZ fidelity {worst:.15f}")

    start = busim.attach_bus(busim.QubitState.plus(1), 0.2 - 0.4j)
    via = gates.conditional_displacement_by_rotations(start, 0, 0.9, 0.31)
    direct = busim.run_displacement_program(start, [(0, 2j * 0.9 * math.sin(0.31))])
    agree = np.max(np.abs(via.bus - direct.bus)) <= 1e-12 and np.max(
        np.abs(via.coeff - direct.coeff)
    ) <= 1e-12
    res.check(agree, "compiled sequence equals the direct conditional displacement")

    for n in (3, 4, 5):
        for maker, spec in (
            (gates.star_sequence, graphstab.GraphSpec.star(n)),
            (gates.chain_sequence, graphstab.GraphSpec.chain(n)),
        ):
            seq, corrections = maker(n, b)
            start = busim.attach_bus(busim.QubitState.plus(n), 0.7)
            out = gates.run_sequence(start, seq)
            # the phase form against the branch kernel it replaces
            kernel = busim.run_displacement_program(start, seq.steps)
            same = (out.bits.tobytes(), out.bus.tobytes()) == (kernel.bits.tobytes(),
                                                               kernel.bus.tobytes())
            gap = float(np.max(np.abs(out.coeff - kernel.coeff))) if same else math.inf
            res.check(gap <= 1e-12, f"{maker.__name__}(n={n}) against the kernel: bits and bus "
                      f"bytes {'equal' if same else 'differ'}, coefficients within {gap:.1e}")
            spread = busim.bus_spread(out)
            if spread != 0.0:
                res.fail(f"{maker.__name__}(n={n}) bus spread {spread!r}")
                continue
            state = gates.apply_corrections(busim.extract_qubits(out), corrections)
            ok = oracles.is_graph_state(state.amplitudes, spec.n, spec.edges)
            res.check(ok, f"{maker.__name__}(n={n}) matches the graph stabilizers")
    return res


# ---------------------------------------------------------------------------
# 6. stabilizer engine against the dense oracle


def _tableau_matches_vector(tab: graphstab.StabilizerTableau, vec) -> bool:
    gens = tab.generator_strings()
    return oracles.state_stabilized_by(
        vec, [p for _, p in gens], [s for s, _ in gens]
    )


def check_stabilizer_oracle(quick: bool = False) -> CriterionResult:
    res = CriterionResult(6, "stabilizer engine vs dense oracle")
    rng = np.random.default_rng(42)
    specs = [
        graphstab.GraphSpec.from_edges(1, []),
        graphstab.GraphSpec.chain(2),
        graphstab.GraphSpec.chain(3),
        graphstab.GraphSpec.chain(4),
        graphstab.GraphSpec.star(4),
        graphstab.GraphSpec.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
        graphstab.GraphSpec.from_edges(4, []),
    ]
    bad = 0
    cases = 0
    for spec in specs:
        base_tab = graphstab.graph_state(spec)
        base_vec = oracles.graph_state_vector(spec.n, sorted(spec.edges))
        for qubit, basis in itertools.product(range(spec.n), "XYZ"):
            projected = {
                s: _project_vec(base_vec, qubit, basis, spec.n, s) for s in (1, -1)
            }
            p_plus = projected[1][0]
            try:
                graphstab.measure_pauli(base_tab, qubit, basis)
                tableau_random = False
            except ValueError:
                tableau_random = True
            dense_random = abs(p_plus - 0.5) <= 1e-9
            if tableau_random != dense_random:
                bad += 1
            for forced in (+1, -1):
                prob, post = projected[forced]
                if prob < 1e-12:
                    continue
                cases += 1
                outcome, tab = graphstab.measure_pauli(
                    base_tab, qubit, basis, forced=forced
                )
                if not _tableau_matches_vector(tab, post):
                    bad += 1
                if not (dense_random or abs(prob - 1.0) <= 1e-9):
                    bad += 1
    res.check(bad == 0, f"measurement sweep: {cases} cases agree with the oracle")

    # parity-2 fusion scenarios on two chains (n <= 4 total)
    fusion_cases = 0
    fusion_bad = 0
    for lengths in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        reg, spec = graphstab.ChainRegistry.disjoint_chains(list(lengths))
        ends = (lengths[0] - 1, lengths[0])
        vec = oracles.graph_state_vector(spec.n, sorted(spec.edges))
        for outcome in graphstab.PARITY2_OUTCOMES:
            reg_i, _ = graphstab.ChainRegistry.disjoint_chains(list(lengths))
            label, tab, corr = graphstab.fuse(
                graphstab.graph_state(spec), ends, "parity-2", outcome, reg_i
            )
            post = oracles.fuse_vector(vec, spec.n, ends, "parity-2", outcome, corr)
            fusion_cases += 1
            if not _tableau_matches_vector(tab, post):
                fusion_bad += 1
    res.check(
        fusion_bad == 0, f"fusion sweep: {fusion_cases} outcomes agree with the oracle"
    )

    # recovery: Z-measure the end and repair, down to a single qubit
    reg, spec = graphstab.ChainRegistry.disjoint_chains([4])
    tab = graphstab.graph_state(spec)
    ok = True
    for end in (3, 2, 1):
        _, tab = graphstab.recover_failure(tab, end, reg, rng=rng)
        remaining = reg.backbones[0]
        # remaining chain generators must sit inside the updated group
        for v in remaining:
            pauli = {v: "X"}
            for u in ([v - 1] if v > remaining[0] else []) + (
                [v + 1] if v < remaining[-1] else []
            ):
                pauli[u] = "Z"
            outcome, _ = graphstab.measure_pauli_string(tab, pauli)
            if outcome != 1:
                ok = False
    res.check(ok, "recovery keeps the shortened chain stabilizers at +1")

    # fusion length census on random chain pairs
    census_bad = 0
    for _ in range(100):
        l1 = int(rng.integers(1, 7))
        l2 = int(rng.integers(1, 7))
        reg, spec = graphstab.ChainRegistry.disjoint_chains([l1, l2])
        ends = (l1 - 1, l1)
        _, tab, _ = graphstab.fuse(
            graphstab.graph_state(spec), ends, "parity-2", "success-even", reg
        )
        backbone, danglers = reg.census(ends[0])
        if backbone != l1 + l2 - 1 or danglers != 1:
            census_bad += 1
    res.check(census_bad == 0, "fusion length law L1+L2-1 (+1 dangler) on 100 cases")
    return res


def _project_vec(vec, qubit, basis, n, sign):
    """Probability of outcome ``sign`` and the normalised projected vector.

    The vector is None when the outcome cannot occur.
    """
    proj = 0.5 * (vec + sign * oracles.pauli_action(vec, n, qubit, basis))
    prob = float(np.vdot(proj, proj).real)
    return prob, proj / np.linalg.norm(proj) if prob else None


# ---------------------------------------------------------------------------
# 7. Monte Carlo versus the closed forms


def check_monte_carlo(quick: bool = False) -> CriterionResult:
    res = CriterionResult(7, "Monte Carlo vs closed forms")
    for row in _mc_table():
        _check_row(res, row, row.config.master_seed, row.quick if quick else row.config.trials)
    if res.status != "fail":
        res.status = "flag"
    return res


# the comparisons of one run against an exact law share one bound: Bonferroni
# over them, two-sided, family-wise error 1e-6
_FAMILY_ERROR = 1e-6
# the names a line gives a column; any other column by its words
_NAMES = {"entangling_ops": "ops", "qubits_consumed": "qubits"}


@dataclass(frozen=True)
class _Join:
    """Two L-chains joined at p, retried and shrunk on failure."""

    p: float
    L: int
    trials: int
    master_seed: int


# A line of criterion 7: its label, its run (a StrategyConfig or the join, at
# its seed and full trial count) and the run's quick trial count, then
# optionally a flag for a printed law's gap to the rule's exact mean, (name,
# column, law, where it is read, its value there, cause), and an exact check
# of the run, also(columns, seconds, seed) -> (ok, line).
_Row = collections.namedtuple("_Row", "what config quick flag also", defaults=(None, None))


def _mc_table() -> tuple:
    """Criterion 7's rows, each checked at its seed against its rule's exact law."""
    strategy, n, k = growth.StrategyConfig, 2**16, 8
    merge = strategy("merge", 0.75, 20_000, 5, target_L=41)
    return (
        _Row("sequential", strategy("sequential", 0.75, 100_000, 7, target_L=41), 1_000,
             also=lambda columns, seconds, seed: (
                 seconds < 10.0, f"sequential run took {seconds:.1f}s < 10s")),
        _Row("join p=0.75 L=10", _Join(0.75, 10, 50_000, 11), 1_000),
        *(_Row(f"vertical link p={p}", strategy("vertical_link", p, 100_000, 13), 1_000)
          for p in (0.75, 0.5)),
        _Row("merge p=0.75 L=41", merge, 2_000, flag=(
            "merge-ops", "entangling_ops", "8L - 44/3", f"L = {merge.target_L}",
            analytics.SERIES["merge"].N(merge.target_L, merge.p), "the law nets L0 - L_c of "
            "length per join cycle, while the rule's failed join keeps the shrunk partner "
            "and tries again"), also=lambda columns, seconds, seed: (
                np.all(columns["final_length"] == merge.target_L) and np.array_equal(
                    columns["elapsed_rounds"], columns["entangling_ops"]),
                f"merge seed {seed}: every final length is {merge.target_L} and time is ops t "
                "at L0 = 2; above L0 = 2 a build takes the slower half's time, and time has "
                "no exact value")),
        *(_Row(f"dc p={p}", strategy("divide_conquer", p, 10_000, 0, initial_qubits=n,
                                     rounds_k=k), 10_000, flag=(
            "dc-survivors", f"chains_round_{k}", "n (p/2)^k", f"round {k}",
            analytics.dc_scaling(p, n, k=k)["C"], "an odd pool strands one chain each round"))
          for p in (0.5, 0.75)),
    )


def _check_row(res: CriterionResult, row: _Row, seed: int, trials: int) -> None:
    """A run of ``row`` at ``seed`` and ``trials`` against its rule's exact
    law, then the row's exact check and its flag."""
    cfg = replace(row.config, trials=trials, master_seed=seed)
    join, t0 = isinstance(cfg, _Join), time.perf_counter()
    columns = ({"length": growth._join_lengths(cfg.p, cfg.L, trials, seed).astype(float)}
               if join else growth.simulate(cfg).columns())
    seconds = time.perf_counter() - t0
    if join:  # the geometric law of the failures, cut at L
        fails, pmf = analytics.link_rule_pmf(cfg.p, cap=cfg.L)
        law = growth._pmf_rows("length", np.where(fails == cfg.L, 0, 2 * (cfg.L - fails) - 1),
                               pmf)
    else:
        law = growth._STRATEGIES[cfg.variant].law(cfg)
    _compare(res, f"{row.what} seed {seed}", law, columns)
    if row.also:
        res.check(*row.also(columns, seconds, seed))
    if row.flag:
        name, column, printed, where, value, cause = row.flag
        [(mean, var)] = [(m, v) for c, m, v in law if c == column]
        got = columns[column]
        z = growth.z_score(float(np.mean(got)) - value, math.sqrt(var / got.size))
        res.note(f"flag: {name}-p-{cfg.p}: {printed} = {value:.5g} at {where}, the rule's "
                 f"exact mean {mean:.6g}; seed {seed} sits at z = {z:+.2f} from {printed}: "
                 f"{cause}")


def _bonferroni(comparisons: int) -> float:
    """The |z| bound each of ``comparisons`` two-sided tests gets."""
    return NormalDist().inv_cdf(1.0 - _FAMILY_ERROR / (2 * comparisons))


def _compare(res: CriterionResult, what: str, law, columns: dict) -> None:
    """The mean of each law row's column against its exact (name, mean,
    variance), with the exact standard error, under one family-wise bound: a
    failure line per miss and one note that states the bound."""
    bound, zs, names = _bonferroni(len(law)), [], []
    for name, want, var in law:
        base = name.removesuffix("**2")  # "c**2" is the square of column c
        names.append(_NAMES.get(base, base.replace("_", " ")) + name[len(base):])
        got = columns[base] ** (1 if base == name else 2)
        mean = float(np.mean(got))
        zs.append(growth.z_score(mean - want, math.sqrt(var / got.size)))
        if abs(zs[-1]) > bound:
            res.fail(f"{what} mean {names[-1]}: z={zs[-1]:.2f} (emp {mean:.4f} vs the rule's "
                     f"{want:.4f})")
    wants = ", ".join(f"{w:.2f}" if n.endswith("**2") else f"{w:.4f}" for n, w, _ in law)
    res.note(f"{what}: mean {', '.join(names[:-1])} and {names[-1]} within |z| <= "
             f"{bound:.2f} of the rule's exact law ({wants}; z = "
             f"{', '.join(f'{z:+.2f}' for z in zs)}; {got.size} trials; Bonferroni "
             f"over {len(law)} comparisons, family-wise {_FAMILY_ERROR:g})")


# ---------------------------------------------------------------------------
# 8. quoted constants and the crossover


def _check_rows(res: CriterionResult, status: str) -> None:
    """Check the quoted-constant rows of one status: the code against each
    row's formula value, and the row's cause against its status."""
    for c in analytics.QUOTED_CONSTANTS.values():
        if c.status != status:
            continue
        got = c.code()
        if c.formula is not None:
            res.check(abs(got - c.formula) <= analytics.EXACT,
                      f"{c.name}: code gives {got!r}, the formula's {c.formula!r}")
        if (c.note is None) != (status == "reproduced"):
            res.fail(f"{c.name} is {status} with cause {c.note!r}; "
                     "a gap has a cause, a reproducing row has none")
        elif status == "reproduced":
            res.check(abs(got - c.value) <= c.tol,
                      f"{c.name}: code gives {got!r}, quoted {c.value!r} (tol {c.tol:g})")
        else:
            res.note(f"flag: {c.name}: {c.note}")


def check_constants(quick: bool = False) -> CriterionResult:
    res = CriterionResult(8, "scaling constants and crossover")
    dc, merge = analytics.SERIES["dc"], analytics.SERIES["merge"]
    quoted = analytics.QUOTED_CONSTANTS
    _check_rows(res, "reproduced")
    # each merge law at several lengths, from its slope and intercept rows
    for p, slope, intercept, lengths in (
        (0.75, "merge-law-p-3/4", "merge-intercept-p-3/4", (2, 10, 100)),
        (0.5, "merge-law-p-1/2-slope", "merge-intercept-p-1/2", (4, 10)),
    ):
        for L in lengths:
            got = merge.N(L, p)
            want = quoted[slope].value * L + quoted[intercept].value
            res.check(abs(got - want) <= analytics.EXACT, f"merge law p={p} at L={L}: {got:.6f}")
    cross = analytics.merge_crossover(0.75)
    res.check(
        200.0 <= cross <= 300.0, f"ops crossover at L = {cross:.1f} inside [200, 300]"
    )
    # locate from a generated table as well
    table_cross = None
    prev = None
    for L in range(5, 401):
        diff = dc.N(L, 0.75) - merge.N(L, 0.75)
        if prev is not None and prev < 0 <= diff:
            table_cross = L
            break
        prev = diff
    res.check(
        table_cross is not None and 200 <= table_cross <= 300,
        f"table crossover located at L = {table_cross}",
    )
    return res


# ---------------------------------------------------------------------------
# 9. known-discrepancy flags


def check_flags(quick: bool = False) -> CriterionResult:
    res = CriterionResult(9, "known-discrepancy flags")
    _check_rows(res, "flagged")
    if res.status != "fail":
        res.status = "flag"
    return res


# ---------------------------------------------------------------------------
# 10. seeded determinism


def check_determinism(quick: bool = False) -> CriterionResult:
    res = CriterionResult(10, "seeded determinism")
    from .cli import render_growth_csv, render_growth_jsonl

    trials = 500 if quick else 5_000
    cfg = growth.StrategyConfig(
        variant="sequential", p=0.75, trials=trials, master_seed=99, target_L=21
    )
    runs = [growth.simulate(cfg) for _ in range(2)]
    outputs = [
        (render_growth_csv(s).encode(), render_growth_jsonl(s).encode()) for s in runs
    ]
    res.check(outputs[0][0] == outputs[1][0], "aggregate CSV byte-identical")
    res.check(outputs[0][1] == outputs[1][1], "per-trial JSONL byte-identical")
    # sequential growth keys a stream per block of trials: a head of about a
    # fifth of the run that ends inside a block, past the first
    block = growth._BLOCK
    _check_prefix(res, runs[0], trials // 5 // block * block + block // 3)
    # divide and conquer draws per block of trials: a head that ends inside a
    # block, past the first
    block = growth._DC_BLOCK
    dc = growth.StrategyConfig(variant="divide_conquer", p=0.75, trials=3 * block,
                               master_seed=99, initial_qubits=2**10, rounds_k=6)
    _check_prefix(res, growth.simulate(dc), block + block // 3)
    return res


def _check_prefix(res: CriterionResult, full: growth.GrowthStats, head: int) -> None:
    """The first ``head`` trials of ``full`` equal a ``head``-trial run, byte
    for byte, under the same keys."""
    cfg = full.config
    prefix = growth.simulate(replace(cfg, trials=head)).columns()
    columns = full.columns()
    same = list(prefix) == list(columns) and all(
        prefix[k].tobytes() == columns[k][:head].tobytes() for k in columns)
    res.check(same, f"{cfg.variant}: first {head} of {cfg.trials} trials equal a "
                    f"{head}-trial run")


CRITERIA = (
    check_parity_gate,
    check_momentum_error,
    check_three_qubit,
    check_bucket_gate,
    check_geometric,
    check_stabilizer_oracle,
    check_monte_carlo,
    check_constants,
    check_flags,
    check_determinism,
)


def run_all(quick: bool = False):
    results = []
    for fn in CRITERIA:
        t0 = time.perf_counter()
        out = fn(quick=quick)
        out.elapsed = time.perf_counter() - t0
        results.append(out)
    return results

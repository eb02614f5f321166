"""Stabilizer engine: graph states, measurement, fusion, recovery.

Every nontrivial claim is cross-checked against dense state vectors for
registers of up to eight qubits; the dense side never touches the tableau
algebra.
"""

import copy
import hashlib
import itertools
import math

import numpy as np
import pytest

from qubuslab import graphstab as gs
from qubuslab.oracles import (
    apply_local_ops,
    apply_pauli_string,
    fuse_vector,
    graph_state_vector,
    is_graph_state,
    state_stabilized_by,
)


def dense_of(spec):
    return graph_state_vector(spec.n, sorted(spec.edges))


def tableau_matches(tab, vec, tol=1e-9):
    gens = tab.generator_strings()
    return state_stabilized_by(vec, [p for _, p in gens], [s for s, _ in gens], tol)


def _random_graph(rng, lo, hi):
    """A random graph on lo..hi vertices with a random edge density."""
    n = int(rng.integers(lo, hi + 1))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    take = rng.random(len(possible)) < rng.uniform(0.05, 0.5)
    return gs.GraphSpec.from_edges(n, [e for e, keep in zip(possible, take) if keep])


def neighbours(spec, v):
    """The vertices joined to v, ascending."""
    return sorted(b if a == v else a for a, b in spec.edges if v in (a, b))


def validate(tab):
    """Raise unless the generators commute pairwise and are independent."""
    anti = np.triu((tab.x @ tab.z.T + tab.z @ tab.x.T) % 2, 1)
    if anti.any():
        i, j = np.argwhere(anti)[0]
        raise ValueError(f"generators {i} and {j} anticommute")
    m = np.concatenate([tab.x, tab.z], axis=1) % 2
    if len(gs._row_reduce(m, 2 * tab.n)) != tab.n:
        raise ValueError("generators are not independent")


def _ref_graph_state(spec):
    """The per-vertex neighbour loop that ``graph_state`` replaced."""
    tab = gs.StabilizerTableau(spec.n)
    for v in range(spec.n):
        tab.x[v, v] = 1
        for u in neighbours(spec, v):
            tab.z[v, u] = 1
    return tab


class TestGraphSpec:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            gs.GraphSpec.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gs.GraphSpec.from_edges(2, [(0, 2)])

    def test_neighbours(self):
        """Generator v of the graph state carries Z on v's neighbours."""
        z = gs.graph_state(gs.GraphSpec.chain(4)).z
        assert np.flatnonzero(z[0]).tolist() == [1]
        assert np.flatnonzero(z[2]).tolist() == [1, 3]

    def test_edge_list_round_trip(self):
        spec = gs.GraphSpec.star(4)
        again = gs.parse_edge_list("\n".join(f"{u} {v}" for u, v in sorted(spec.edges)))
        assert again == spec

    def test_parse_with_comments(self):
        spec = gs.parse_edge_list("# a chain\n0 1\n\n1 2  # tail\n")
        assert spec == gs.GraphSpec.chain(3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            gs.parse_edge_list("0 1 2")


class TestGraphState:
    def test_two_chain_generators(self):
        gens = gs.graph_state(gs.GraphSpec.chain(2)).generator_strings()
        assert gens == [(1, "XZ"), (1, "ZX")]

    def test_three_chain_generators(self):
        gens = gs.graph_state(gs.GraphSpec.chain(3)).generator_strings()
        assert gens == [(1, "XZI"), (1, "ZXZ"), (1, "IZX")]

    def test_edgeless_graph(self):
        gens = gs.graph_state(gs.GraphSpec.from_edges(3, [])).generator_strings()
        assert gens == [(1, "XII"), (1, "IXI"), (1, "IIX")]

    @pytest.mark.parametrize(
        "spec",
        [
            gs.GraphSpec.chain(4),
            gs.GraphSpec.star(4),
            gs.GraphSpec.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
        ],
    )
    def test_generators_stabilize_dense_state(self, spec):
        assert tableau_matches(gs.graph_state(spec), dense_of(spec))
        validate(gs.graph_state(spec))

    @pytest.mark.parametrize(
        "spec",
        [
            gs.GraphSpec.from_edges(1, []),
            gs.GraphSpec.from_edges(5, []),
            gs.GraphSpec.chain(2),
            gs.GraphSpec.chain(9),
            gs.GraphSpec.star(7),
            gs.GraphSpec.from_edges(6, [(4, v) for v in range(6) if v != 4]),
        ]
        + [_random_graph(np.random.default_rng([3, s]), 2, 40) for s in range(6)],
    )
    def test_matches_neighbour_loop(self, spec):
        tab = gs.graph_state(spec)
        want = _ref_graph_state(spec)
        for name in ("x", "z", "sign"):
            got, ref = getattr(tab, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert tab.dx.tolist() == np.zeros((spec.n, spec.n), dtype=int).tolist()
        assert tab.dz.tolist() == np.eye(spec.n, dtype=int).tolist()


class TestMeasurePauli:
    def test_deterministic_x_on_plus(self):
        tab = gs.graph_state(gs.GraphSpec.from_edges(2, []))
        outcome, _ = gs.measure_pauli(tab, 0, "X")
        assert outcome == 1

    def test_random_needs_rng_or_forced(self):
        tab = gs.graph_state(gs.GraphSpec.chain(2))
        with pytest.raises(ValueError):
            gs.measure_pauli(tab, 0, "Z")
        outcome, _ = gs.measure_pauli(tab, 0, "Z", rng=np.random.default_rng(0))
        assert outcome in (1, -1)

    def test_forced_deterministic_mismatch_rejected(self):
        tab = gs.graph_state(gs.GraphSpec.from_edges(1, []))
        with pytest.raises(ValueError):
            gs.measure_pauli(tab, 0, "X", forced=-1)

    def test_invalid_basis(self):
        tab = gs.graph_state(gs.GraphSpec.chain(2))
        with pytest.raises(ValueError):
            gs.measure_pauli(tab, 0, "Q")

    @pytest.mark.parametrize("forced", [1.9, -1.2, 1.0, -1.0, np.float64(1.0), 1 + 0j, True,
                                        False, np.True_, "1", "-1", 2, 0, -2])
    @pytest.mark.parametrize("pauli", [{1: "X"}, {0: "Z", 1: "X", 2: "Z"}],
                             ids=["random", "deterministic"])
    def test_forced_must_be_an_integer_plus_or_minus_one(self, pauli, forced):
        """Floats, bools and strings are refused, not truncated by int()."""
        tab = gs.graph_state(gs.GraphSpec.chain(3))
        bits = gs._string_to_bits(3, pauli)
        before = _tableau_bytes(tab)
        for measure in (lambda: gs.measure_pauli_string(tab, pauli, forced=forced),
                        lambda: gs._measure(tab, bits, forced=forced)):
            with pytest.raises(ValueError, match=r"^forced outcome must be \+1 or -1$"):
                measure()
            assert _tableau_bytes(tab) == before

    @pytest.mark.parametrize("forced", [1, -1, np.int64(1), np.int8(-1), np.uint8(1)])
    def test_forced_integers_accepted(self, forced):
        tab = gs.graph_state(gs.GraphSpec.chain(3))
        outcome, _ = gs.measure_pauli(tab, 1, "X", forced=forced)
        assert outcome == forced and type(outcome) is int
        stabilizer = {0: "Z", 1: "X", 2: "Z"}  # deterministic, +1
        if forced == 1:
            assert gs.measure_pauli_string(tab, stabilizer, forced=forced)[0] == 1
        else:
            with pytest.raises(ValueError, match=r"deterministic \(\+1\); cannot force -1$"):
                gs.measure_pauli_string(tab, stabilizer, forced=forced)

    def test_z_then_conditional_z_recovers_chain(self):
        """Measuring out a chain end leaves the shorter chain after repair."""
        tab = gs.graph_state(gs.GraphSpec.chain(3))
        outcome, tab = gs.measure_pauli(tab, 2, "Z", forced=-1)
        tab = gs.apply_corrections(tab, [(1, "Z")])
        # remaining pair must satisfy the 2-chain generators
        for pauli in ({0: "X", 1: "Z"}, {0: "Z", 1: "X"}):
            sign, _ = gs.measure_pauli_string(tab, pauli)
            assert sign == 1

    def test_x_measure_outcome_fixes_neighbour_z(self):
        """On a 2-chain, the X result on one qubit pins Z on the other."""
        tab = gs.graph_state(gs.GraphSpec.chain(2))
        for forced in (1, -1):
            _, after = gs.measure_pauli(tab, 0, "X", forced=forced)
            z_outcome, _ = gs.measure_pauli(after, 1, "Z")
            assert z_outcome == forced

    @pytest.mark.parametrize(
        "spec",
        [
            gs.GraphSpec.chain(2),
            gs.GraphSpec.chain(3),
            gs.GraphSpec.chain(4),
            gs.GraphSpec.star(4),
        ],
    )
    def test_all_single_measurements_match_dense(self, spec):
        vec = dense_of(spec)
        tab = gs.graph_state(spec)
        for qubit, basis in itertools.product(range(spec.n), "XYZ"):
            pauli = "".join(basis if q == qubit else "I" for q in range(spec.n))
            image = apply_pauli_string(vec, pauli)
            for forced in (1, -1):
                proj = 0.5 * (vec + forced * image)
                prob = float(np.vdot(proj, proj).real)
                if prob < 1e-12:
                    continue
                _, after = gs.measure_pauli(tab, qubit, basis, forced=forced)
                assert tableau_matches(after, proj / math.sqrt(prob))


class TestQubitRange:
    """Qubits outside 0..n-1 are rejected, not wrapped by negative indexing."""

    @pytest.mark.parametrize("qubit", [-3, -1, 3, 4])
    def test_out_of_range_rejected(self, qubit):
        tab = gs.graph_state(gs.GraphSpec.chain(3))
        calls = [
            lambda: gs.measure_pauli_string(tab, {qubit: "Z"}, forced=1),
            lambda: gs.measure_pauli_string(tab, {0: "X", qubit: "Z"}),
            lambda: gs.measure_pauli(tab, qubit, "Z", forced=1),
            lambda: gs.apply_corrections(tab, [(qubit, "H")]),
            lambda: gs.apply_corrections(tab, [(qubit, "X")]),
            lambda: gs.apply_corrections(tab, [(qubit, "Y")]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=rf"qubit {qubit} out of range 0\.\.2"):
                call()

    def test_edges_of_range_accepted(self):
        tab = gs.graph_state(gs.GraphSpec.chain(3))
        for qubit in (0, 2):
            gs.measure_pauli_string(tab, {qubit: "Z"}, forced=1)
            gs.apply_corrections(tab, [(qubit, "H")])
            gs.apply_corrections(tab, [(qubit, "X")])


class TestFuseParity2:
    def test_two_two_chains_make_dangling_bond(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 2])
        _, tab, corr = gs.fuse(gs.graph_state(spec), (1, 2), "parity-2",
                               "success-even", reg)
        predicted = gs.GraphSpec.from_edges(4, [(0, 1), (1, 3), (1, 2)])
        assert gs.equals_up_to_corrections(tab, predicted)
        assert corr == ()
        assert reg.census(1) == (3, 1)

    def test_odd_branch_equals_even_after_corrections(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 2])
        _, tab_odd, corr = gs.fuse(gs.graph_state(spec), (1, 2), "parity-2",
                                   "success-odd", reg)
        assert ((2, "X") in corr)
        reg2, _ = gs.ChainRegistry.disjoint_chains([2, 2])
        _, tab_even, _ = gs.fuse(gs.graph_state(spec), (1, 2), "parity-2",
                                 "success-even", reg2)
        assert gs.canonical_form(tab_odd) == gs.canonical_form(tab_even)

    def test_edgeless_pair_becomes_two_chain(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([1, 1])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1), "parity-2",
                            "success-even", reg)
        assert gs.equals_up_to_corrections(tab, gs.GraphSpec.chain(2))

    def test_failure_projects_without_removal(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 2])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (1, 2), "parity-2", "fail-11", reg)
        # both fused qubits now sit in |1>
        for q in (1, 2):
            outcome, _ = gs.measure_pauli(tab, q, "Z")
            assert outcome == -1
        # chains still registered until recovery runs
        assert sorted(len(b) for b in reg.backbones.values()) == [2, 2]

    def test_unknown_outcome_rejected(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 2])
        with pytest.raises(ValueError):
            gs.fuse(gs.graph_state(spec), (1, 2), "parity-2", "nope", reg)

    @pytest.mark.parametrize(
        "variant, qubits", [("parity-2", (1,)), ("parity-2", (0, 1, 2)), ("gate-3", (1, 2))]
    )
    def test_wrong_qubit_count_rejected(self, variant, qubits):
        """A wrong count raises before any measurement or registry step."""
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 2, 1])
        tab = gs.graph_state(spec)
        before = _registry_state(reg)
        outcome = "success-even" if variant == "parity-2" else "ghz"
        with pytest.raises(ValueError, match=f"{variant} fuses"):
            gs.fuse(tab, qubits, variant, outcome, reg)
        assert _registry_state(reg) == before

    @pytest.mark.parametrize("outcome", gs.PARITY2_OUTCOMES)
    @pytest.mark.parametrize("qubits", [(1, 3), (3, 1)])
    def test_non_end_rejected(self, qubits, outcome):
        """Interior qubit 1 (degree 2) refuses every outcome and changes nothing."""
        reg, spec = gs.ChainRegistry.disjoint_chains([3, 2])
        tab = gs.graph_state(spec)
        _assert_refused(tab, reg, qubits, "parity-2", outcome, r"\[1\] have degree > 1")

    @pytest.mark.parametrize("lengths", [(1, 1), (1, 2), (2, 2), (1, 3), (3, 1)])
    def test_against_dense_oracle(self, lengths):
        reg, spec = gs.ChainRegistry.disjoint_chains(list(lengths))
        ends = (lengths[0] - 1, lengths[0])
        vec = dense_of(spec)
        for outcome in gs.PARITY2_OUTCOMES:
            reg_i, _ = gs.ChainRegistry.disjoint_chains(list(lengths))
            _, tab, corr = gs.fuse(gs.graph_state(spec), ends, "parity-2",
                                   outcome, reg_i)
            post = fuse_vector(vec, spec.n, ends, "parity-2", outcome, corr)
            assert tableau_matches(tab, post)


class TestFuseGate3:
    def test_three_singles_make_star(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([1, 1, 1])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1, 2), "gate-3", "ghz", reg)
        assert gs.equals_up_to_corrections(tab, gs.GraphSpec.star(3))

    def test_three_chains_make_tee(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([3, 3, 3])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (2, 3, 6), "gate-3", "ghz", reg)
        predicted = gs.GraphSpec.from_edges(
            9, [(0, 1), (1, 2), (2, 4), (4, 5), (2, 7), (7, 8), (2, 3), (2, 6)]
        )
        assert gs.equals_up_to_corrections(tab, predicted)
        assert reg.census(2) == (5, 2)
        assert len(reg.tees) == 1

    def test_bell_outcome_links_two_chains(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([3, 3, 1])
        _, tab, corr = gs.fuse(gs.graph_state(spec), (2, 3, 6), "gate-3",
                               "bell-q3-1", reg)
        # the third qubit ends in |1>; map it back to |+> to compare graphs
        predicted = gs.GraphSpec.from_edges(7, [(0, 1), (1, 2), (2, 4), (4, 5), (2, 3)])
        assert gs.equals_up_to_corrections(tab, predicted, [(6, "X"), (6, "H")])
        assert reg.census(2) == (5, 1)

    def test_product_outcome_is_failure(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 2, 1])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (1, 2, 4), "gate-3",
                            "product-110", reg)
        for q, want in ((1, -1), (2, -1), (4, 1)):
            outcome, _ = gs.measure_pauli(tab, q, "Z")
            assert outcome == want


class TestRecoverFailure:
    def test_four_chain_shrinks_to_three(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([4])
        tab = gs.graph_state(spec)
        for forced in (1, -1):
            reg_i, _ = gs.ChainRegistry.disjoint_chains([4])
            _, shortened = gs.recover_failure(tab, 3, reg_i, forced=forced)
            # shortened chain stabilizers all at +1
            for pauli in ({0: "X", 1: "Z"}, {0: "Z", 1: "X", 2: "Z"}, {1: "Z", 2: "X"}):
                sign, _ = gs.measure_pauli_string(shortened, pauli)
                assert sign == 1
            assert reg_i.backbones[0] == [0, 1, 2]

    def test_two_chain_leaves_plus(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([2])
        _, tab = gs.recover_failure(gs.graph_state(spec), 1, reg,
                                    rng=np.random.default_rng(1))
        sign, _ = gs.measure_pauli_string(tab, {0: "X"})
        assert sign == 1

    def test_single_qubit_chain_empties_register(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([1])
        _, tab = gs.recover_failure(gs.graph_state(spec), 0, reg,
                                    rng=np.random.default_rng(2))
        assert reg.backbones == {}

    def test_interior_qubit_rejected(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([3])
        with pytest.raises(ValueError):
            gs.recover_failure(gs.graph_state(spec), 1, reg)

    @pytest.mark.parametrize("forced", [-1.7, 0.9, 1.0, True, np.False_, "-1", 2])
    def test_forced_must_be_an_integer_plus_or_minus_one(self, forced):
        """A refused outcome changes neither the tableau nor the registry."""
        reg, spec = gs.ChainRegistry.disjoint_chains([4])
        tab = gs.graph_state(spec)
        before = _tableau_bytes(tab), _registry_state(reg)
        with pytest.raises(ValueError, match=r"^forced outcome must be \+1 or -1$"):
            gs.recover_failure(tab, 3, reg, forced=forced)
        assert (_tableau_bytes(tab), _registry_state(reg)) == before

    @pytest.mark.parametrize("forced", [np.int64(-1), np.int32(1)])
    def test_forced_numpy_integer_accepted(self, forced):
        reg, spec = gs.ChainRegistry.disjoint_chains([4])
        outcome, _ = gs.recover_failure(gs.graph_state(spec), 3, reg, forced=forced)
        assert outcome == forced and reg.backbones[0] == [0, 1, 2]

    def test_repeated_recovery_terminates_in_plus(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([5])
        tab = gs.graph_state(spec)
        rng = np.random.default_rng(9)
        for end in (4, 3, 2, 1):
            _, tab = gs.recover_failure(tab, end, reg, rng=rng)
        assert reg.backbones[0] == [0]
        sign, _ = gs.measure_pauli_string(tab, {0: "X"})
        assert sign == 1


class TestEqualsUpToCorrections:
    def test_reflexive(self):
        spec = gs.GraphSpec.chain(3)
        assert gs.equals_up_to_corrections(gs.graph_state(spec), spec)

    def test_ghz_is_star_after_hadamards(self):
        ghz = gs.StabilizerTableau(
            3,
            x=[[1, 1, 1], [0, 0, 0], [0, 0, 0]],
            z=[[0, 0, 0], [1, 1, 0], [0, 1, 1]],
        )
        assert gs.equals_up_to_corrections(ghz, gs.GraphSpec.star(3),
                                           [(1, "H"), (2, "H")])

    def test_chain_is_not_triangle(self):
        tri = gs.GraphSpec.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert not gs.equals_up_to_corrections(
            gs.graph_state(gs.GraphSpec.chain(3)), tri
        )

    def test_sign_frame_matters(self):
        tab = gs.graph_state(gs.GraphSpec.chain(2))
        flipped = gs.apply_corrections(tab, [(0, "Z")])
        assert not gs.equals_up_to_corrections(flipped, gs.GraphSpec.chain(2))
        assert gs.equals_up_to_corrections(flipped, gs.GraphSpec.chain(2), [(0, "Z")])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            gs.equals_up_to_corrections(
                gs.graph_state(gs.GraphSpec.chain(2)), gs.GraphSpec.chain(3)
            )


class TestRandomizedOracleStress:
    """Random graphs, random measurement chains, dense vector alongside."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_measurement_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
        take = rng.random(len(possible)) < 0.5
        spec = gs.GraphSpec.from_edges(
            n, [e for e, keep in zip(possible, take) if keep]
        )
        tab = gs.graph_state(spec)
        vec = dense_of(spec)
        for _ in range(4):
            qubit = int(rng.integers(n))
            basis = "XYZ"[int(rng.integers(3))]
            pauli = "".join(basis if q == qubit else "I" for q in range(n))
            image = apply_pauli_string(vec, pauli)
            # pick an outcome the dense state allows
            choices = []
            for forced in (1, -1):
                proj = 0.5 * (vec + forced * image)
                prob = float(np.vdot(proj, proj).real)
                if prob > 1e-9:
                    choices.append((forced, proj / math.sqrt(prob)))
            forced, post = choices[int(rng.integers(len(choices)))]
            _, tab = gs.measure_pauli(tab, qubit, basis, forced=forced)
            vec = post
            assert tableau_matches(tab, vec)
            validate(tab)


class TestTableauValidity:
    def test_operations_preserve_validity(self):
        rng = np.random.default_rng(11)
        reg, spec = gs.ChainRegistry.disjoint_chains([3, 2])
        tab = gs.graph_state(spec)
        validate(tab)
        _, tab, _ = gs.fuse(tab, (2, 3), "parity-2", "success-even", reg)
        validate(tab)
        _, tab = gs.measure_pauli(tab, 0, "Z", rng=rng)
        validate(tab)
        tab = gs.apply_corrections(tab, [(4, "H")])
        validate(tab)

    def test_fusion_length_law_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            l1 = int(rng.integers(1, 7))
            l2 = int(rng.integers(1, 7))
            reg, spec = gs.ChainRegistry.disjoint_chains([l1, l2])
            _, tab, _ = gs.fuse(gs.graph_state(spec), (l1 - 1, l1), "parity-2",
                                "success-even", reg)
            backbone, danglers = reg.census(l1 - 1)
            assert backbone == l1 + l2 - 1
            assert danglers == 1


class TestValidateRejects:
    def test_anticommuting_generators(self):
        tab = gs.StabilizerTableau(2, x=[[1, 0], [0, 0]], z=[[0, 0], [1, 0]])
        with pytest.raises(ValueError, match="generators 0 and 1 anticommute"):
            validate(tab)

    def test_dependent_generators(self):
        tab = gs.StabilizerTableau(
            3,
            x=[[1, 0, 0], [0, 1, 0], [1, 1, 0]],
            z=[[0, 1, 0], [1, 0, 0], [1, 1, 0]],
        )
        with pytest.raises(ValueError, match="not independent"):
            validate(tab)


class TestRegistryRemove:
    def test_measured_anchor_frees_its_dangler(self):
        """A dangler whose anchor is measured out becomes a lone |+> chain."""
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 2, 1])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (1, 2), "parity-2",
                            "success-even", reg)
        measured = {}
        for q, forced in ((3, -1), (0, 1)):
            measured[q], tab = gs.recover_failure(tab, q, reg, forced=forced)
        _, tab, _ = gs.fuse(tab, (1, 4), "parity-2", "fail-00", reg)
        for q in (1, 4):
            measured[q], tab = gs.recover_failure(tab, q, reg)
        assert reg.danglers == {}
        assert reg.census(2) == (1, 0)
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           _to_plus(measured))


class TestRegistryTees:
    def test_one_qubit_branch_end_repairs_junction(self):
        """Recovering a one-qubit tee branch puts its Z on the junction."""
        reg, spec = gs.ChainRegistry.disjoint_chains([1, 1, 2])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1, 2), "gate-3", "ghz", reg)
        assert reg.degree(3) == 1
        assert reg.neighbour(3) == 0
        _, tab = gs.recover_failure(tab, 3, reg, forced=-1)
        assert reg.tees == []
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           [(3, "X"), (3, "H")])

    def test_two_qubit_branch(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([1, 1, 3])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1, 2), "gate-3", "ghz", reg)
        with pytest.raises(ValueError, match="degree > 1"):
            gs.recover_failure(tab, 3, reg, forced=1)
        _, tab = gs.recover_failure(tab, 4, reg, forced=-1)
        assert len(reg.tees) == 1
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           [(4, "X"), (4, "H")])

    @pytest.mark.parametrize(
        "lengths, fused, expected",
        [
            # one-qubit branch head 3 fused to a one-qubit chain: link moves to 4
            ([1, 1, 2, 1], (4, 3), {"backbones": [[0], [4]], "tees": [(0, 4)]}),
            # ... to the end of a two-qubit chain [5, 4]: 4 becomes the head
            ([1, 1, 2, 2], (4, 3), {"backbones": [[0], [4, 5]], "tees": [(0, 4)]}),
            # far end 4 of the two-qubit branch [3, 4]: head 3 keeps the link
            ([1, 1, 3, 1], (5, 4), {"backbones": [[0], [3, 5]], "tees": [(0, 3)]}),
        ],
    )
    @pytest.mark.parametrize("outcome", ["success-even", "success-odd"])
    def test_fusing_a_branch_keeps_its_tee(self, lengths, fused, expected, outcome):
        reg, spec = gs.ChainRegistry.disjoint_chains(lengths)
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1, 2), "gate-3", "ghz", reg)
        _, tab, _ = gs.fuse(tab, fused, "parity-2", outcome, reg)
        assert sorted(reg.backbones.values()) == expected["backbones"]
        assert [(j, reg.backbones[cid][0]) for j, cid in reg.tees] == expected["tees"]
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n))


    @pytest.mark.parametrize(
        "lengths, setup, rejected",
        [
            # branches [3, 4] (junction 0) and [8] (junction 5) joined at 4 and
            # 8: the merged chain would link 0 at 3 and 5 at 4
            ([1, 1, 3, 1, 1, 2], [((5, 6, 7), "gate-3", "ghz")],
             [((4, 8), "parity-2", "success-even"), ((4, 8), "parity-2", "success-odd")]),
            # branch [3, 4, 5] as c at its far end 5: links at 3 and at 4
            ([1, 1, 4, 1, 1], [], [((6, 7, 5), "gate-3", "ghz")]),
            # one-qubit branch [3] as c: junction 0 would link a, on no branch
            ([1, 1, 2, 1, 1], [], [((4, 5, 3), "gate-3", "ghz")]),
        ],
    )
    def test_branch_linked_at_both_ends_rejected(self, lengths, setup, rejected):
        """A success the (junction, chain id) layout cannot hold changes nothing."""
        reg, spec = gs.ChainRegistry.disjoint_chains(lengths)
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1, 2), "gate-3", "ghz", reg)
        for qubits, variant, outcome in setup:
            _, tab, _ = gs.fuse(tab, qubits, variant, outcome, reg)
        before = _registry_state(reg), tab.copy()
        for qubits, variant, outcome in rejected:
            with pytest.raises(ValueError, match="layout cannot hold"):
                gs.fuse(tab, qubits, variant, outcome, reg)
            assert _registry_state(reg) == before[0]
            for name in ("x", "z", "sign", "dx", "dz"):
                assert getattr(tab, name).tobytes() == getattr(before[1], name).tobytes()
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n))

    @pytest.mark.parametrize(
        "lengths, qubits, variant, joins",
        [
            # branch head 4 and backbone end 0 both neighbour junction 1
            ([2, 1, 2], (4, 0), "parity-2", ("success-even", "success-odd")),
            ([2, 1, 2], (0, 4), "parity-2", ("success-even", "success-odd")),
            # ... as c and a, or c and b, of a three-way join with fresh [5]
            ([2, 1, 2, 1], (0, 5, 4), "gate-3", ("ghz",)),
            ([2, 1, 2, 1], (5, 0, 4), "gate-3", ("ghz",)),
        ],
    )
    def test_shared_neighbour_rejected(self, lengths, qubits, variant, joins):
        """A success whose joined qubits share a neighbour changes nothing.

        The fused neighbourhood is the symmetric difference, so the shared
        edge cancels on the tableau; the chain layout would keep it.  A
        failure at the same qubits still runs.
        """
        reg, spec = gs.ChainRegistry.disjoint_chains(lengths)
        _, tab, _ = gs.fuse(gs.graph_state(spec), (1, 2, 3), "gate-3", "ghz", reg)
        assert reg.neighbours(4) == reg.neighbours(0) == [1]
        for outcome in joins:
            _assert_refused(tab, reg, qubits, variant, outcome, "share a neighbour")
        failure = "fail-11" if variant == "parity-2" else "product-110"
        _, tab, _ = gs.fuse(tab, qubits, variant, failure, reg)
        measured = {}
        for q, bit in zip(qubits, failure.split("-")[1]):
            measured[q], tab = gs.recover_failure(tab, q, reg, forced=1 - 2 * int(bit))
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           _to_plus(measured))

    @pytest.mark.parametrize("qubits", [(3, 0), (0, 3)])
    @pytest.mark.parametrize("outcome", ["success-even", "success-odd"])
    def test_junction_fused_to_its_branch_rejected(self, qubits, outcome):
        """Junction 0, its bonds measured out, is an end beside branch head 3;
        joining the two would move the tee link onto its own junction."""
        reg, spec = gs.ChainRegistry.disjoint_chains([1, 1, 2])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1, 2), "gate-3", "ghz", reg)
        measured = {}
        for q in (1, 2):
            measured[q], tab = gs.recover_failure(tab, q, reg, forced=1)
        assert reg.neighbours(0) == [3] and reg.neighbours(3) == [0]
        _assert_refused(tab, reg, qubits, "parity-2", outcome, "are neighbours")
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           _to_plus(measured))

    @pytest.mark.parametrize(
        "lengths, fusions",
        [
            # two one-qubit branch heads 3 and 7 joined: 3 links both junctions
            ([1, 1, 2, 1, 1, 2], [((4, 5, 6), "gate-3", "ghz"),
                                  ((3, 7), "parity-2", "success-odd")]),
            # branch [3, 4] as c at 4: its rest [3] links junctions 0 and 5
            ([1, 1, 3, 1, 1], [((5, 6, 4), "gate-3", "ghz")]),
        ],
    )
    def test_two_links_on_one_qubit_branch_held(self, lengths, fusions):
        reg, spec = gs.ChainRegistry.disjoint_chains(lengths)
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1, 2), "gate-3", "ghz", reg)
        for qubits, variant, outcome in fusions:
            _, tab, _ = gs.fuse(tab, qubits, variant, outcome, reg)
        assert [len(reg.backbones[cid]) for _, cid in reg.tees] == [1, 1]
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n))


def _implied_graph(reg, n):
    edges = []
    for backbone in reg.backbones.values():
        edges.extend(zip(backbone, backbone[1:]))
    edges.extend(reg.danglers.items())
    for junction, cid in reg.tees:
        if cid in reg.backbones:
            edges.append((junction, reg.backbones[cid][0]))
    return gs.GraphSpec.from_edges(n, edges)


def _to_plus(measured):
    """Corrections taking each measured-out qubit (qubit -> Z outcome) to |+>."""
    corrections = []
    for q, outcome in sorted(measured.items()):
        if outcome == -1:
            corrections.append((q, "X"))
        corrections.append((q, "H"))
    return corrections


def _registry_state(reg):
    return (
        {cid: list(b) for cid, b in reg.backbones.items()},
        dict(reg.danglers), dict(reg.chain_of), list(reg.tees), reg._next_id,
    )


def _assert_refused(tab, reg, qubits, variant, outcome, match, fuse=None):
    """``fuse`` raises a ValueError matching ``match`` and changes nothing."""
    before = _registry_state(reg), _tableau_bytes(tab)
    with pytest.raises(ValueError, match=match):
        (fuse or gs.fuse)(tab, qubits, variant, outcome, reg)
    assert (_registry_state(reg), _tableau_bytes(tab)) == before


class TestRegistryFuseTee:
    @pytest.mark.parametrize(
        "lengths, qubits",
        [
            ([2, 1], (1, 2, 0)),  # a and c on chain [0, 1]
            ([1, 2], (0, 1, 2)),  # b and c on chain [1, 2]
            ([2, 2], (1, 3, 2)),  # b and c on chain [2, 3]
        ],
    )
    def test_two_qubits_on_one_chain_rejected(self, lengths, qubits):
        reg, spec = gs.ChainRegistry.disjoint_chains(lengths)
        before = _registry_state(reg)
        with pytest.raises(ValueError, match="cannot fuse a chain with itself"):
            gs.fuse(gs.graph_state(spec), qubits, "gate-3", "ghz", reg)
        with pytest.raises(ValueError, match="cannot fuse a chain with itself"):
            reg.fuse_tee(*qubits)
        assert _registry_state(reg) == before


class TestRegistryNeighbours:
    def test_order_and_derived_queries(self):
        """Bonds, then tee links, then backbone neighbours, previous first."""
        reg, _ = gs.ChainRegistry.disjoint_chains([1, 1, 3, 3, 2])
        reg.fuse_tee(0, 1, 2)  # 1 and 2 dangle on 0; branch [3, 4] hangs off 0
        reg.fuse_success(7, 8)  # 8 dangles on 7; chain [5, 6, 7, 9]
        assert reg.neighbours(0) == [1, 2, 3]
        assert reg.neighbours(1) == [0]
        assert reg.neighbours(3) == [0, 4]
        assert reg.neighbours(4) == [3]
        assert reg.neighbours(5) == [6]
        assert reg.neighbours(6) == [5, 7]
        assert reg.neighbours(7) == [8, 6, 9]
        assert reg.neighbours(9) == [7]
        for q in range(10):
            assert reg.degree(q) == len(reg.neighbours(q))
            assert reg.neighbour(q) == (reg.neighbours(q) or [None])[0]
            assert (reg.degree(q), reg.neighbour(q)) == _ref_degree_neighbour(reg, q)


def _ref_degree_neighbour(reg, qubit):
    """The separate ``degree`` and ``neighbour`` that ``neighbours`` replaced."""
    links = []
    for junction, cid in reg.tees:
        head = reg.backbones[cid][0] if cid in reg.backbones else None
        if qubit == junction and head is not None:
            links.append(head)
        elif qubit == head:
            links.append(junction)
    if qubit in reg.danglers:
        return 1, reg.danglers[qubit]
    anchored = [d for d, anchor in reg.danglers.items() if anchor == qubit]
    deg = len(anchored) + len(links)
    nb = anchored[0] if anchored else links[0] if links else None
    cid = reg.chain_of.get(qubit)
    if cid is not None:
        backbone = reg.backbones[cid]
        i = backbone.index(qubit)
        deg += (1 if i > 0 else 0) + (1 if i < len(backbone) - 1 else 0)
        if nb is None and len(backbone) > 1:
            nb = backbone[i + 1] if i == 0 else backbone[i - 1]
    return deg, nb


def _ref_graph_neighbourhood(tab, q):
    """The tableau solve that fuse's frame fixes used before the registry:
    vertices carrying Z in the group element whose X part is exactly e_q."""
    target = np.zeros(tab.n, dtype=np.uint8)
    target[q] = 1
    combo = _ref_solve(tab.x.T, target)
    assert combo is not None
    zpart = (combo.astype(np.int64) @ tab.z) % 2
    zpart[q] = 0  # a Y at q would only add a phase, not a neighbour
    return [int(v) for v in np.flatnonzero(zpart)]


class TestFusionCorrectionsFromRegistry:
    """Frame-fix Z's read off the registry equal the tableau solve they replaced.

    Each sequence fuses fresh chains of 1-4 qubits onto free ends of the
    chains grown so far (a free end has degree <= 1 and anchors no dangling
    bond); the grown end takes role a or b, and c is always a fresh chain.
    Every failure is followed by ``recover_failure`` on each fused qubit.
    The reference neighbourhood also names qubits already measured out (a Z
    there acts on a Z eigenstate); the registry holds only the others.
    """

    @staticmethod
    def _free_ends(reg, chains):
        anchors = set(reg.danglers.values())
        ends = []
        for cid in sorted(chains):
            backbone = reg.backbones[cid]
            for q in dict.fromkeys((backbone[0], backbone[-1])):
                if reg.is_end(q) and q not in anchors:
                    ends.append(q)
        return ends

    def _run(self, rng, seen):
        lengths = [int(v) for v in rng.integers(1, 5, size=int(rng.integers(4, 9)))]
        reg, spec = gs.ChainRegistry.disjoint_chains(lengths)
        tab = gs.graph_state(spec)
        fresh = list(range(1, len(lengths)))  # chain ids not fused yet
        measured = {}
        while fresh:
            ends = self._free_ends(reg, set(reg.backbones) - set(fresh))
            if not ends:
                fresh.pop(0)  # start growing the next fresh chain
                continue
            main = ends[int(rng.integers(len(ends)))]
            variant = "parity-2" if len(fresh) < 2 or rng.random() < 0.5 else "gate-3"
            outcomes = gs.PARITY2_OUTCOMES if variant == "parity-2" else gs.GATE3_OUTCOMES
            outcome = str(rng.choice(outcomes))
            partners = []
            for _ in range(1 if variant == "parity-2" else 2):
                backbone = reg.backbones[fresh.pop(int(rng.integers(len(fresh))))]
                partners.append(backbone[0] if rng.random() < 0.5 else backbone[-1])
            pair = [main, partners[0]] if rng.random() < 0.5 else [partners[0], main]
            qubits = tuple(pair + partners[1:])
            held = set(reg.chain_of) | set(reg.danglers)
            want = []
            if outcome in ("success-odd", "bell-q3-0", "bell-q3-1"):
                want = _ref_graph_neighbourhood(tab, qubits[1])
            if outcome == "bell-q3-1":
                want += _ref_graph_neighbourhood(tab, qubits[2])
            _, tab, corrections = gs.fuse(tab, qubits, variant, outcome, reg)
            if want:
                assert corrections[0] == (qubits[1], "X")
                assert corrections[1:] == tuple((q, "Z") for q in want if q in held)
                seen["bell" if outcome.startswith("bell") else "odd"] += 1
                seen["measured-out"] += sum(q not in held for q in want)
            if outcome.startswith("bell"):
                measured[qubits[2]] = 1 if outcome.endswith("0") else -1
            elif not outcome.startswith(("success", "ghz")):
                for q in qubits:
                    measured[q], tab = gs.recover_failure(tab, q, reg)
            assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                               _to_plus(measured))
            for q in set(reg.chain_of) | set(reg.danglers):
                assert (reg.degree(q), reg.neighbour(q)) == _ref_degree_neighbour(reg, q)

    @pytest.mark.parametrize("block", range(20))
    def test_seeded_end_fusions(self, block):
        seen = {"odd": 0, "bell": 0, "measured-out": 0}
        for seed in range(16 * block, 16 * block + 16):
            self._run(np.random.default_rng([11, seed]), seen)
        assert seen["odd"] and seen["bell"], seen


_SWEEP = [("parity-2", ls) for ls in itertools.product(range(1, 4), repeat=2)] + [
    ("gate-3", ls) for ls in itertools.product(range(1, 4), repeat=3) if sum(ls) <= 8
]


class TestDenseFusionSweep:
    """Every outcome at every end of chains of 1-3 qubits, on dense vectors.

    ``fuse`` supplies the corrections and the registry; the state comes from
    the dense reference alone.  After recovery (Z on the registry neighbour
    of each failed qubit that read -1) and with every measured-out qubit
    mapped to |+>, the vector must be the registry's graph state.
    """

    @pytest.mark.parametrize("variant, lengths", _SWEEP)
    def test_corrected_vector_is_registry_graph(self, variant, lengths):
        starts = np.cumsum((0,) + lengths[:-1]).tolist()
        choices = [sorted({s, s + ln - 1}) for s, ln in zip(starts, lengths)]
        outcomes = gs.PARITY2_OUTCOMES if variant == "parity-2" else gs.GATE3_OUTCOMES
        for qubits, outcome in itertools.product(itertools.product(*choices), outcomes):
            reg, spec = gs.ChainRegistry.disjoint_chains(list(lengths))
            n = spec.n
            _, _, corrections = gs.fuse(gs.graph_state(spec), qubits, variant, outcome, reg)
            vec = fuse_vector(dense_of(spec), n, qubits, variant, outcome, corrections)
            measured = {}
            if outcome.startswith("bell"):
                measured[qubits[2]] = 1 if outcome.endswith("0") else -1
            elif not outcome.startswith(("success", "ghz")):
                for q, bit in zip(qubits, outcome.split("-")[1]):
                    measured[q] = 1 - 2 * int(bit)
                    neighbour = reg.neighbour(q)
                    reg.remove(q)
                    if measured[q] == -1 and neighbour is not None:
                        vec = apply_local_ops(vec, n, [(neighbour, "Z")])
            vec = apply_local_ops(vec, n, _to_plus(measured))
            assert is_graph_state(vec, n, sorted(_implied_graph(reg, n).edges)), (
                qubits, outcome)


# The hand-written fusion branches that the table of projections replaced,
# kept as the reference: on every outcome the table must give the same label,
# corrections, tableau bytes and registry.


def _ref_odd_frame_corrections(b, registry):
    return [(b, "X")] + [(q, "Z") for q in sorted(registry.neighbours(b))]


def _ref_fuse_parity2(tab, qubits, outcome, registry):
    a, b = qubits
    corrections = []
    if outcome in ("success-even", "success-odd"):
        if outcome == "success-odd":
            corrections = _ref_odd_frame_corrections(b, registry)
        forced = 1 if outcome == "success-even" else -1
        _, tab = gs.measure_pauli_string(tab, {a: "Z", b: "Z"}, forced=forced)
        for q, op in corrections:
            tab = gs.apply_corrections(tab, [(q, op)])
        tab = gs.apply_corrections(tab, [(b, "H")])
        registry.fuse_success(a, b)
        return outcome, tab, tuple(corrections)
    forced = 1 if outcome == "fail-00" else -1
    _, tab = gs.measure_pauli_string(tab, {a: "Z"}, forced=forced)
    _, tab = gs.measure_pauli_string(tab, {b: "Z"}, forced=forced)
    return outcome, tab, ()


def _ref_fuse_gate3(tab, qubits, outcome, registry):
    a, b, c = qubits
    if outcome == "ghz":
        _, tab = gs.measure_pauli_string(tab, {a: "Z", b: "Z"}, forced=1)
        _, tab = gs.measure_pauli_string(tab, {b: "Z", c: "Z"}, forced=1)
        tab = gs.apply_corrections(tab, [(b, "H")])
        tab = gs.apply_corrections(tab, [(c, "H")])
        registry.fuse_tee(a, b, c)
        return outcome, tab, ()
    if outcome.startswith("bell-q3"):
        third_bit = int(outcome[-1])
        corrections = _ref_odd_frame_corrections(b, registry)
        neigh_c = sorted(registry.neighbours(c))
        _, tab = gs.measure_pauli_string(tab, {a: "Z", b: "Z"}, forced=-1)
        for q, op in corrections:
            tab = gs.apply_corrections(tab, [(q, op)])
        _, tab = gs.measure_pauli_string(tab, {c: "Z"}, forced=1 if third_bit == 0 else -1)
        if third_bit == 1:
            for q in neigh_c:
                tab = gs.apply_corrections(tab, [(q, "Z")])
                corrections.append((q, "Z"))
        tab = gs.apply_corrections(tab, [(b, "H")])
        registry.fuse_success(a, b)
        registry.remove(c)
        return outcome, tab, tuple(corrections)
    bits = outcome.split("-")[1]
    for q, ch in zip((a, b, c), bits):
        _, tab = gs.measure_pauli_string(tab, {q: "Z"}, forced=1 if ch == "0" else -1)
    return outcome, tab, ()


def _fuse_against_reference(fuse):
    """``fuse`` that also runs the loop reference on copies and compares.

    The reference handles chain ends only; at any other qubit ``fuse`` must
    refuse and change nothing.
    """

    def checked(tab, qubits, variant, outcome, registry):
        if not all(registry.is_end(q) for q in qubits):
            _assert_refused(tab, registry, qubits, variant, outcome, "degree > 1", fuse)
            return None
        ref_reg = copy.deepcopy(registry)
        ref = _ref_fuse_parity2 if variant == "parity-2" else _ref_fuse_gate3
        want_label, want_tab, want_corr = ref(tab.copy(), qubits, outcome, ref_reg)
        label, got_tab, corr = fuse(tab, qubits, variant, outcome, registry)
        assert (label, corr) == (want_label, want_corr), (qubits, outcome)
        for name in ("x", "z", "sign", "dx", "dz"):
            assert getattr(got_tab, name).tobytes() == getattr(want_tab, name).tobytes(), name
        assert _registry_state(registry) == _registry_state(ref_reg), (qubits, outcome)
        return label, got_tab, corr

    return checked


class TestFusionTableMatchesLoopReference:
    """The table routine against the hand-written branches it replaced."""

    @pytest.mark.parametrize("variant, lengths", _SWEEP)
    def test_dense_sweep_chains(self, variant, lengths):
        """Every qubit of each chain, interior ones (which raise) included."""
        checked = _fuse_against_reference(gs.fuse)
        starts = np.cumsum((0,) + lengths[:-1]).tolist()
        choices = [range(s, s + ln) for s, ln in zip(starts, lengths)]
        outcomes = gs.PARITY2_OUTCOMES if variant == "parity-2" else gs.GATE3_OUTCOMES
        for qubits, outcome in itertools.product(itertools.product(*choices), outcomes):
            reg, spec = gs.ChainRegistry.disjoint_chains(list(lengths))
            checked(gs.graph_state(spec), qubits, variant, outcome, reg)

    @pytest.mark.parametrize("block", range(4))
    def test_seeded_sequences(self, block, monkeypatch):
        monkeypatch.setattr(gs, "fuse", _fuse_against_reference(gs.fuse))
        seen = {"odd": 0, "bell": 0, "measured-out": 0}
        for seed in range(16 * block, 16 * block + 16):
            TestFusionCorrectionsFromRegistry()._run(np.random.default_rng([17, seed]), seen)
            _grow(np.random.default_rng([19, seed]))
        assert seen["odd"] and seen["bell"], seen


# Loop versions of the GF(2) eliminations that _row_reduce replaced, kept as
# references: on every input the kernel must give exactly their results.


def _ref_rank(m):
    m = m.copy() % 2
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def _ref_solve(a, b):
    a = a.copy() % 2
    b = b.copy() % 2
    rows, cols = a.shape
    piv_col_of_row = []
    r = 0
    for c in range(cols):
        pivot = None
        for rr in range(r, rows):
            if a[rr, c]:
                pivot = rr
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        b[r], b[pivot] = b[pivot], b[r]
        for rr in range(rows):
            if rr != r and a[rr, c]:
                a[rr] ^= a[r]
                b[rr] ^= b[r]
        piv_col_of_row.append(c)
        r += 1
        if r == rows:
            break
    x = np.zeros(cols, dtype=np.uint8)
    for row, c in enumerate(piv_col_of_row):
        x[c] = b[row]
    for row in range(len(piv_col_of_row), rows):
        if b[row]:
            return None
    return x


def _ref_phase(x1, z1, x2, z2):
    g = 0
    for a, b, c, d in zip(x1.tolist(), z1.tolist(), x2.tolist(), z2.tolist()):
        if a == 0 and b == 0:
            continue
        if a == 1 and b == 0:
            g += d * (2 * c - 1)
        elif a == 0 and b == 1:
            g += c * (1 - 2 * d)
        else:
            g += d - c
    return g % 4


def _ref_row_multiply(tab, target, source):
    g = _ref_phase(tab.x[target], tab.z[target], tab.x[source], tab.z[source])
    total = 2 * int(tab.sign[target]) + 2 * int(tab.sign[source]) + g
    if total % 2:
        raise AssertionError("row product produced an imaginary sign")
    tab.sign[target] = (total // 2) % 2
    tab.x[target] ^= tab.x[source]
    tab.z[target] ^= tab.z[source]


def _ref_canonical_form(tab):
    work = tab.copy()
    m = np.concatenate([work.x, work.z], axis=1)
    rank = 0
    for c in range(2 * work.n):
        pivot = None
        for r in range(rank, work.n):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
            work.x[[rank, pivot]] = work.x[[pivot, rank]]
            work.z[[rank, pivot]] = work.z[[pivot, rank]]
            work.sign[[rank, pivot]] = work.sign[[pivot, rank]]
        for r in range(work.n):
            if r != rank and m[r, c]:
                _ref_row_multiply(work, r, rank)
                m[r] = np.concatenate([work.x[r], work.z[r]])
        rank += 1
        if rank == work.n:
            break
    key = tuple(
        (int(work.sign[i]),) + tuple(int(v) for v in m[i]) for i in range(work.n)
    )
    return tuple(sorted(key))


def _random_measured_tableau(rng):
    """A random graph state of 2-40 qubits after random Z/X/Y and ZZ measurements."""
    tab = gs.graph_state(_random_graph(rng, 2, 40))
    n = tab.n
    for _ in range(int(rng.integers(0, n + 1))):
        if rng.random() < 0.5:
            pauli = {int(rng.integers(n)): "XYZ"[int(rng.integers(3))]}
        else:
            a, b = rng.choice(n, size=2, replace=False)
            pauli = {int(a): "Z", int(b): "Z"}
        _, tab = gs.measure_pauli_string(tab, pauli, rng=rng)
    return tab


class TestKernelMatchesLoopReference:
    @pytest.mark.parametrize("seed", range(25))
    def test_rank_solve_and_canonical_form(self, seed):
        rng = np.random.default_rng([2024, seed])
        tab = _random_measured_tableau(rng)
        n = tab.n
        validate(tab)
        assert gs.canonical_form(tab) == _ref_canonical_form(tab)
        m = np.concatenate([tab.x, tab.z], axis=1)
        for a in (m, tab.x, tab.z, m[: n // 2]):
            assert len(gs._row_reduce(a.copy(), a.shape[1])) == _ref_rank(a)

    def test_product_sign_matches_loop_phase(self):
        rng = np.random.default_rng(17)
        n = 12
        source = rng.integers(0, 2, 2 * n, dtype=np.uint8)
        rows = rng.integers(0, 2, (400, 2 * n), dtype=np.uint8)
        phases = [_ref_phase(r[:n], r[n:], source[:n], source[n:]) for r in rows]
        even = np.array([g % 2 == 0 for g in phases])
        assert 0 < even.sum() < len(rows)
        got = gs._product_sign(rows[even], source, n)
        assert got.tolist() == [g // 2 for g, e in zip(phases, even) if e]
        with pytest.raises(AssertionError, match="imaginary sign"):
            gs._product_sign(rows[~even][:1], source, n)


# The elimination that the destabilizer rows replaced in measure_pauli_string,
# kept as the reference for deterministic outcomes.


def _ref_deterministic_sign(tab, bits, used=None):
    """The elimination; it finds its own generators, so ``used`` goes unread."""
    xt, zt = bits[:tab.n], bits[tab.n:]
    m = np.concatenate([tab.x, tab.z], axis=1) % 2
    target = np.concatenate([xt, zt]) % 2
    combo = _ref_solve(m.T, target)
    if combo is None:
        raise ValueError("measured Pauli neither commutes into nor hits the group")
    used = np.flatnonzero(combo)
    rows = m[used]
    before = np.zeros_like(rows)
    before[1:] = np.bitwise_xor.accumulate(rows, axis=0)[:-1]
    sign = int(tab.sign[used].sum()) + int(gs._product_sign(before, rows, tab.n).sum())
    return 1 - 2 * (sign % 2)


def _duality_holds(tab):
    d = (tab.dx.astype(np.int64) @ tab.z.T + tab.dz.astype(np.int64) @ tab.x.T) % 2
    return np.array_equal(d, np.eye(tab.n, dtype=np.int64))


def _no_elimination(*args, **kwargs):
    raise AssertionError("measurement ran a GF(2) elimination")


class _Side:
    """One run of a step sequence: its tableau, registry and outcome stream."""

    def __init__(self, tab, reg, seed):
        self.tab, self.reg, self.rng = tab, reg, np.random.default_rng(seed)

    def attempt(self, op):
        try:
            result, self.tab = op(self)
        except ValueError as err:
            return ("ValueError", str(err))
        return result


def _measure(pauli, forced):
    def op(side):
        rng = side.rng if forced is None else None
        return gs.measure_pauli_string(side.tab, pauli, forced=forced, rng=rng)
    return op


def _hadamard(q):
    return lambda side: (None, gs.apply_corrections(side.tab, [(q, "H")]))


def _pauli(q, ch):
    return lambda side: (None, gs.apply_corrections(side.tab, [(q, ch)]))


def _fuse(qubits, variant, outcome):
    def op(side):
        label, tab, corrections = gs.fuse(side.tab, qubits, variant, outcome, side.reg)
        return (label, corrections), tab
    return op


def _recover(q):
    return lambda side: gs.recover_failure(side.tab, q, side.reg, rng=side.rng)


class TestDestabilizerMeasurement:
    """Measurements read off destabilizers equal the elimination they replaced.

    Each step runs on two copies of a register: one through the module, one
    with ``_deterministic_sign`` swapped for the elimination (the random
    branch's generator update is unchanged, so it is shared).  After every
    step the outcomes and the signed generators must be equal, and the
    module's destabilizers must stay dual to its generators.  No step on a
    ``graph_state`` register, ``fuse`` included, may run an elimination.
    """

    def _step(self, monkeypatch, op, new, ref):
        with monkeypatch.context() as m:
            m.setattr(gs, "_row_reduce", _no_elimination)
            got = new.attempt(op)
        with monkeypatch.context() as m:
            m.setattr(gs, "_deterministic_sign", _ref_deterministic_sign)
            want = ref.attempt(op)
        assert got == want
        for name in ("x", "z", "sign"):
            a, b = getattr(new.tab, name), getattr(ref.tab, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert _duality_holds(new.tab)
        return got

    @staticmethod
    def _is_deterministic(tab, pauli):
        bits = gs._string_to_bits(tab.n, pauli)
        xt, zt = bits[:tab.n], bits[tab.n:]
        return not ((tab.x @ zt + tab.z @ xt) % 2).any()

    @pytest.mark.parametrize("pauli, forced", [({1: "X", 2: "Y"}, -1), ({0: "X", 1: "Z"}, None)],
                             ids=["random", "deterministic"])
    def test_one_anticommutation_pass(self, monkeypatch, pauli, forced):
        """A measurement reads generator and destabilizer rows in one pass."""
        passes = []
        real = gs._anticommuting

        def counted(m, bits):
            passes.append(m.shape)
            return real(m, bits)

        monkeypatch.setattr(gs, "_anticommuting", counted)
        gs.measure_pauli_string(gs.graph_state(gs.GraphSpec.chain(4)), pauli, forced=forced)
        assert passes == [(8, 8)]

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sequences_on_graph_states(self, seed, monkeypatch):
        rng = np.random.default_rng([7, seed])
        spec = _random_graph(rng, 2, 40)
        n = spec.n
        new = _Side(gs.graph_state(spec), None, seed)
        ref = _Side(gs.graph_state(spec), None, seed)
        kinds = {"random": 0, "deterministic": 0}
        measured = []
        for _ in range(max(3 * n, 30)):
            r = rng.random()
            q = int(rng.integers(n))
            if r < 0.7:
                if measured and rng.random() < 0.4:
                    pauli = measured[int(rng.integers(len(measured)))]
                else:
                    k = int(rng.integers(1, min(3, n) + 1))
                    qubits = rng.choice(n, size=k, replace=False)
                    pauli = {int(v): "XYZ"[int(rng.integers(3))] for v in qubits}
                    measured.append(pauli)
                forced = None if rng.random() < 0.5 else int(rng.choice([1, -1]))
                kind = ("deterministic" if self._is_deterministic(new.tab, pauli)
                        else "random")
                self._step(monkeypatch, _measure(pauli, forced), new, ref)
                kinds[kind] += 1
            elif r < 0.85:
                self._step(monkeypatch, _hadamard(q), new, ref)
            else:
                self._step(monkeypatch, _pauli(q, "XYZ"[int(rng.integers(3))]), new, ref)
        assert all(kinds.values()), kinds
        for pauli in measured:
            if self._is_deterministic(new.tab, pauli):
                got = [self._step(monkeypatch, _measure(pauli, forced), new, ref)
                       for forced in (1, -1)]
                assert sum(isinstance(g, tuple) for g in got) == 1
        validate(new.tab)

    @pytest.mark.parametrize("seed", range(12))
    def test_fusion_and_recovery_on_chains(self, seed, monkeypatch):
        """Grow one chain by fusing fresh chains onto its end, recovering failures."""
        rng = np.random.default_rng([8, seed])
        lengths = [int(v) for v in rng.integers(1, 6, size=int(rng.integers(16, 29)))]
        reg_new, spec = gs.ChainRegistry.disjoint_chains(lengths)
        reg_ref, _ = gs.ChainRegistry.disjoint_chains(lengths)
        new = _Side(gs.graph_state(spec), reg_new, seed)
        ref = _Side(gs.graph_state(spec), reg_ref, seed)
        starts = np.cumsum([0] + lengths[:-1]).tolist()
        fresh = starts[1:]
        main = lengths[0] - 1
        recovered = 0
        while fresh:
            # a random local step between fusions, on a qubit measured out or not
            q = int(rng.integers(spec.n))
            self._step(monkeypatch, _measure({q: "XYZ"[int(rng.integers(3))]}, None),
                       new, ref)
            if main not in new.reg.chain_of or not new.reg.is_end(main):
                main = new.reg.backbones[new.reg.chain_of[fresh.pop(0)]][-1]
                continue
            if rng.random() < 0.5 or len(fresh) < 2:
                variant, outcomes = "parity-2", gs.PARITY2_OUTCOMES
            else:
                variant, outcomes = "gate-3", gs.GATE3_OUTCOMES
            outcome = str(rng.choice(outcomes))
            partners = 1 if variant == "parity-2" else 2
            qubits = (main,) + tuple(fresh.pop(0) for _ in range(partners))
            got = self._step(monkeypatch, _fuse(qubits, variant, outcome), new, ref)
            if got[0] == "ValueError":
                continue  # a local step already fixed a Z the outcome contradicts
            if outcome.startswith(("success", "ghz", "bell")):
                main = new.reg.backbones[new.reg.chain_of[main]][-1]
                continue
            neighbour = new.reg.neighbour(main)
            for q in qubits:
                # a failed fusion leaves each projected qubit in a Z eigenstate
                assert self._is_deterministic(new.tab, {q: "Z"})
                got = self._step(monkeypatch, _recover(q), new, ref)
                assert got in (1, -1)
                recovered += 1
            main = neighbour
        assert recovered


GHZ_X = [[1, 1, 1], [0, 0, 0], [0, 0, 0]]
GHZ_Z = [[0, 0, 0], [1, 1, 0], [0, 1, 1]]


class TestHandBuiltTableau:
    """A tableau built from x and z derives its destabilizers on first measurement."""

    def test_ghz_measures_like_star_with_hadamards(self):
        paulis = [
            {q: ch for q, ch in enumerate(word) if ch != "I"}
            for word in itertools.product("IXYZ", repeat=3)
        ][1:]
        star = gs.graph_state(gs.GraphSpec.star(3))
        star = gs.apply_corrections(star, [(1, "H"), (2, "H")])
        for pauli in paulis:
            for forced in (1, -1):
                ghz = gs.StabilizerTableau(3, x=GHZ_X, z=GHZ_Z)
                assert ghz.dx is None
                results = []
                for tab in (ghz, star):
                    try:
                        outcome, after = gs.measure_pauli_string(tab, pauli, forced=forced)
                    except ValueError as err:
                        results.append(str(err))
                        continue
                    assert _duality_holds(after)
                    # then a second measurement, deterministic on both sides
                    again, _ = gs.measure_pauli_string(after, pauli)
                    results.append((outcome, again, gs.canonical_form(after)))
                assert results[0] == results[1]
                assert _duality_holds(ghz)  # derived once, on the input

    def test_derived_destabilizers_measure_like_carried_ones(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            tab = _random_measured_tableau(rng)
            n = tab.n
            built = gs.StabilizerTableau(n, tab.x, tab.z, tab.sign)
            for _ in range(5):
                qubits = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)),
                                    replace=False)
                pauli = {int(q): "XYZ"[int(rng.integers(3))] for q in qubits}
                seed = int(rng.integers(2**32))
                got = gs.measure_pauli_string(built, pauli, rng=np.random.default_rng(seed))
                want = gs.measure_pauli_string(tab, pauli, rng=np.random.default_rng(seed))
                assert got[0] == want[0]
                for name in ("x", "z", "sign"):
                    assert getattr(got[1], name).tobytes() == getattr(want[1], name).tobytes()
                assert _duality_holds(built) and _duality_holds(got[1])
                built, tab = got[1], want[1]

    @pytest.mark.parametrize("kwargs, name", [
        ({"x": [[1]], "z": [[0]]}, "x"),  # (1, 1) rows for two qubits
        ({"x": [1, 0]}, "x"),  # one row, which would fill every row
        ({"x": [[2, 0], [0, 1]]}, "x"),
        ({"x": [[1, 0], [0, 0.5]]}, "x"),
        ({"x": [[1, 0], [0, -1]]}, "x"),
        ({"z": [[0, 0], [1, 0], [0, 1]]}, "z"),
        ({"z": [[0, np.nan], [1, 0]]}, "z"),
        ({"sign": [0, 0, 1]}, "sign"),
        ({"sign": [[0, 1]]}, "sign"),
        ({"sign": [0, 3]}, "sign"),
        ({"sign": 1}, "sign"),
    ])
    def test_malformed_arrays_refused(self, kwargs, name):
        """x and z must be (n, n) bits and sign (n,) bits; commutation and
        independence are not checked here."""
        shape = r"\(2,\)" if name == "sign" else r"\(2, 2\)"
        with pytest.raises(ValueError, match=rf"^{name} must be a {shape} array of 0s and 1s$"):
            gs.StabilizerTableau(2, **kwargs)

    def test_bits_of_any_dtype_accepted(self):
        tab = gs.StabilizerTableau(2, x=np.array([[True, False], [False, True]]),
                                   z=[[0.0, 1.0], [1.0, 0.0]], sign=np.array([1, 0], np.int64))
        assert tab.generator_strings() == [(-1, "XZ"), (1, "ZX")]
        assert tab.m.dtype == tab.sign.dtype == np.uint8 and tab.dx is None

    def test_dependent_generators_raise(self):
        tab = gs.StabilizerTableau(
            3,
            x=[[1, 0, 0], [0, 1, 0], [1, 1, 0]],
            z=[[0, 1, 0], [1, 0, 0], [1, 1, 0]],
        )
        for pauli in ({0: "X", 1: "Z"}, {2: "Z"}, {0: "Z"}):
            with pytest.raises(ValueError, match="not independent"):
                gs.measure_pauli_string(tab, pauli, forced=1)
        assert tab.dx is None
        with pytest.raises(ValueError, match="not independent"):
            validate(tab)


# ---------------------------------------------------------------------------
# dangling bonds in the registry


class TestRegistryDanglingBonds:
    def test_bonds_on_b_move_to_a(self):
        """1 is a one-qubit chain anchoring bond 2; fusing it as b hands 2 to 4."""
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 2, 1])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (1, 2), "parity-2", "success-even", reg)
        measured = {}
        for q in (0, 3):
            measured[q], tab = gs.recover_failure(tab, q, reg, forced=1)
        _, tab, _ = gs.fuse(tab, (4, 1), "parity-2", "success-even", reg)
        assert reg.danglers == {2: 4, 1: 4}
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           _to_plus(measured))

    @pytest.mark.parametrize("role", [1, 2])
    def test_bonds_on_b_or_c_of_a_tee_move_to_a(self, role):
        """2 anchors bond 3; as b or c of a ghz fusion it hands 3 to 0."""
        reg, spec = gs.ChainRegistry.disjoint_chains([1, 1, 1, 1])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (2, 3), "parity-2", "success-even", reg)
        qubits = (0, 2, 1) if role == 1 else (0, 1, 2)
        _, tab, _ = gs.fuse(tab, qubits, "gate-3", "ghz", reg)
        assert reg.danglers == {1: 0, 2: 0, 3: 0}
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n))

    @pytest.mark.parametrize("outcome", ["success-even", "success-odd"])
    def test_tee_junction_on_b_moves_to_a(self, outcome):
        """Junction 0 keeps only its tee link after its bonds are measured out."""
        reg, spec = gs.ChainRegistry.disjoint_chains([1, 1, 2, 1])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1, 2), "gate-3", "ghz", reg)
        measured = {}
        for q in (1, 2):
            measured[q], tab = gs.recover_failure(tab, q, reg, forced=-1)
        assert reg.neighbours(0) == [3]
        _, tab, _ = gs.fuse(tab, (4, 0), "parity-2", outcome, reg)
        assert reg.tees == [(4, 2)] and reg.danglers == {0: 4}
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           _to_plus(measured))

    @pytest.mark.parametrize("variant, qubits", [
        ("parity-2", (2, 1)), ("parity-2", (1, 2)), ("gate-3", (2, 1, 3)),
        ("gate-3", (3, 2, 1)),
    ])
    def test_fusing_at_a_dangling_bond_rejected(self, variant, qubits):
        reg, spec = gs.ChainRegistry.disjoint_chains([1, 1, 1, 1])
        _, tab, _ = gs.fuse(gs.graph_state(spec), (0, 1), "parity-2", "success-even", reg)
        before = _registry_state(reg), tab.copy()
        outcomes = gs.PARITY2_OUTCOMES if variant == "parity-2" else gs.GATE3_OUTCOMES
        for outcome in outcomes:
            with pytest.raises(ValueError, match="qubit 1 is a dangling bond"):
                gs.fuse(tab, qubits, variant, outcome, reg)
            assert _registry_state(reg) == before[0]
            for name in ("x", "z", "sign", "dx", "dz"):
                assert getattr(tab, name).tobytes() == getattr(before[1], name).tobytes()

    def test_fusing_a_measured_out_qubit_rejected(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 1])
        _, tab = gs.recover_failure(gs.graph_state(spec), 1, reg, forced=1)
        before = _registry_state(reg)
        with pytest.raises(ValueError, match="qubit 1 is on no chain"):
            gs.fuse(tab, (2, 1), "parity-2", "success-even", reg)
        assert _registry_state(reg) == before

    def test_recovering_a_measured_out_qubit_rejected(self):
        """The second recovery of 1 raises before it measures anything."""
        reg, spec = gs.ChainRegistry.disjoint_chains([2, 1])
        _, tab = gs.recover_failure(gs.graph_state(spec), 1, reg, forced=1)
        before = _registry_state(reg), tab.copy()
        for forced in (None, 1, -1):
            with pytest.raises(ValueError, match="qubit 1 is on no chain"):
                gs.recover_failure(tab, 1, reg, rng=np.random.default_rng(0),
                                   forced=forced)
            assert _registry_state(reg) == before[0]
            for name in ("x", "z", "sign", "dx", "dz"):
                assert getattr(tab, name).tobytes() == getattr(before[1], name).tobytes()

    @pytest.mark.parametrize("outcome", ["bell-q3-0", "bell-q3-1"])
    def test_bell_fusion_with_interior_third_qubit_keeps_registry(self, outcome):
        """Any non-end qubit, the third included, is refused before any change."""
        reg, spec = gs.ChainRegistry.disjoint_chains([1, 1, 3])
        _assert_refused(gs.graph_state(spec), reg, (0, 1, 3), "gate-3", outcome,
                        r"\[3\] have degree > 1")


def _grow(rng, check=None, lengths=None):
    """Fuse fresh chains at random chain ends, anchors included.

    The chains have ``lengths``, or 4-11 random lengths of 1-4 qubits.
    Every end qubit (degree <= 1, on a backbone) of the chains grown so far
    can take role a or b, and c is always a fresh chain.  Failures are
    followed by ``recover_failure`` on each fused qubit.  ``check(tab, reg,
    measured)`` runs after every fusion.  Returns the last three.
    """
    if lengths is None:
        lengths = [int(v) for v in rng.integers(1, 5, size=int(rng.integers(4, 12)))]
    reg, spec = gs.ChainRegistry.disjoint_chains(lengths)
    tab = gs.graph_state(spec)
    fresh = list(range(1, len(lengths)))  # chain ids not fused yet
    measured = {}
    while fresh:
        grown = [cid for cid in reg.backbones if cid not in fresh]
        ends = sorted({q for cid in grown for q in (reg.backbones[cid][0],
                                                    reg.backbones[cid][-1])
                       if reg.is_end(q)})
        if not ends:
            fresh.pop(0)
            continue
        main = ends[int(rng.integers(len(ends)))]
        variant = "parity-2" if len(fresh) < 2 or rng.random() < 0.5 else "gate-3"
        outcomes = gs.PARITY2_OUTCOMES if variant == "parity-2" else gs.GATE3_OUTCOMES
        outcome = str(rng.choice(outcomes))
        partners = []
        for _ in range(1 if variant == "parity-2" else 2):
            backbone = reg.backbones[fresh.pop(int(rng.integers(len(fresh))))]
            partners.append(backbone[0] if rng.random() < 0.5 else backbone[-1])
        pair = [main, partners[0]] if rng.random() < 0.5 else [partners[0], main]
        qubits = tuple(pair + partners[1:])
        _, tab, _ = gs.fuse(tab, qubits, variant, outcome, reg)
        if outcome.startswith("bell"):
            measured[qubits[2]] = 1 if outcome.endswith("0") else -1
        elif not outcome.startswith(("success", "ghz")):
            for q in qubits:
                measured[q], tab = gs.recover_failure(tab, q, reg, rng=rng)
        if check is not None:
            check(tab, reg, measured)
    return tab, reg, measured


class TestRegistryGraphAtAnyEnd:
    """Fusing at any chain end, anchors of dangling bonds included, keeps the
    tableau equal to the registry's graph after every step."""

    @pytest.mark.parametrize("block", range(6))
    def test_seeded_growth(self, block):
        anchors = []

        def check(tab, reg, measured):
            assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                               _to_plus(measured))
            anchors.append(len(reg.danglers))

        for seed in range(16 * block, 16 * block + 16):
            _grow(np.random.default_rng([13, seed]), check)
        assert any(anchors)


class TestTableauBytesPinned:
    """sha256 of x, z, sign, dx and dz, and of every fusion's variant, label
    and corrections, after seeded ``fuse`` and ``recover_failure`` sequences on
    chain registers of 64-192 qubits.  The pins were taken from the tableau
    of four arrays (x, z, dx, dz) that the one [x|z] matrix replaced."""

    PINS = {
        0: "b440fa0bc46779bd5e1e4a8edf5df39b8fd467e8706fcfa7eebc9d2b7c0327a6",
        1: "97c6e2b1798ddb6ad2d2d6dd8809d8488f1789d4c37c86b3e98966c3d6edf62a",
        2: "65d714cab1a215d0b03ed24796c9541b847b1bba83ac2c674473ff4b6abc22ea",
        3: "88ff5cb8ac5c674eed55af9f908b8ad14fb4c12b5210e6c4e87adc0526f9b227",
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_grown_register(self, seed, monkeypatch):
        fusions = []
        fuse = gs.fuse

        def recorded(tab, qubits, variant, outcome, registry):
            label, tab, corrections = fuse(tab, qubits, variant, outcome, registry)
            fusions.append((variant, label, corrections))
            return label, tab, corrections

        monkeypatch.setattr(gs, "fuse", recorded)
        rng = np.random.default_rng([31, seed])
        lengths = [int(v) for v in rng.integers(1, 6, size=int(rng.integers(30, 60)))]
        tab, reg, measured = _grow(rng, lengths=lengths)
        assert 64 <= tab.n <= 192
        assert {variant for variant, _, _ in fusions} == {"parity-2", "gate-3"}
        assert any(corrections for _, _, corrections in fusions)
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           _to_plus(measured))
        digest = hashlib.sha256()
        for a in (tab.x, tab.z, tab.sign, tab.dx, tab.dz):
            digest.update(a.tobytes())
        digest.update(repr(fusions).encode())
        assert digest.hexdigest() == self.PINS[seed]


class TestRegistryInvariantAtAnyEnd:
    """Seeded fuse and recover_failure calls at any chain end, branch heads,
    junctions and anchors of dangling bonds included.

    After every accepted call the tableau equals the registry's graph up to
    the measured-out qubits; a refused call leaves tableau and registry as
    they were.  Half the time the second fused qubit lies within two steps
    of the first, where shared neighbours live, and half the outcomes are
    successes.  Every failed fusion is followed by ``recover_failure`` on
    each fused qubit, and any end, dangling bonds included, may be recovered
    on its own.
    """

    @staticmethod
    def _ends(reg, qubits):
        return [q for q in sorted(qubits) if reg.is_end(q)]

    @staticmethod
    def _pick(rng, reg, ends, width):
        qubits = [int(q) for q in rng.choice(ends, size=width, replace=False)]
        if rng.random() < 0.5:
            first = reg.neighbours(qubits[0])
            near = set(first).union(*(reg.neighbours(u) for u in first))
            near = [q for q in ends if q in near and q not in qubits]
            if near:
                qubits[int(rng.integers(1, width))] = near[int(rng.integers(len(near)))]
        return tuple(qubits)

    def _run(self, rng, seen):
        lengths = [int(v) for v in rng.integers(1, 3, size=int(rng.integers(3, 7)))]
        reg, spec = gs.ChainRegistry.disjoint_chains(lengths)
        tab = gs.graph_state(spec)
        measured = {}
        for _ in range(8):
            ends = self._ends(reg, reg.chain_of)
            if len(ends) < 2 or rng.random() < 0.15:
                held = self._ends(reg, set(reg.chain_of) | set(reg.danglers))
                if not held:
                    break
                q = held[int(rng.integers(len(held)))]
                measured[q], tab = gs.recover_failure(tab, q, reg, rng=rng)
            else:
                variant = "gate-3" if len(ends) >= 3 and rng.random() < 0.5 else "parity-2"
                outcomes = gs.PARITY2_OUTCOMES if variant == "parity-2" else gs.GATE3_OUTCOMES
                if rng.random() < 0.5:
                    outcomes = outcomes[:2] if variant == "parity-2" else ("ghz",)
                outcome = str(rng.choice(outcomes))
                qubits = self._pick(rng, reg, ends, 2 if variant == "parity-2" else 3)
                before = _registry_state(reg), _tableau_bytes(tab)
                try:
                    _, tab, _ = gs.fuse(tab, qubits, variant, outcome, reg)
                except ValueError as err:
                    assert (_registry_state(reg), _tableau_bytes(tab)) == before
                    seen["refused"] += 1
                    seen["links"] += "cannot hold" in str(err)
                    continue
                seen["accepted"] += 1
                if outcome.startswith("bell"):
                    measured[qubits[2]] = 1 if outcome.endswith("0") else -1
                elif not outcome.startswith(("success", "ghz")):
                    for q in qubits:
                        measured[q], tab = gs.recover_failure(tab, q, reg, rng=rng)
            assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                               _to_plus(measured))

    @pytest.mark.parametrize("block", range(4))
    def test_seeded_calls(self, block):
        seen = {"accepted": 0, "refused": 0, "links": 0}
        for seed in range(50 * block, 50 * block + 50):
            self._run(np.random.default_rng([29, seed]), seen)
        assert seen["accepted"] and seen["links"], seen


# ---------------------------------------------------------------------------
# the membership test against the canonical forms it replaced


def _ref_equals_up_to_corrections(tab, spec, corrections=()):
    """The comparison that the membership test replaced: two canonical forms."""
    if tab.n != spec.n:
        raise ValueError("qubit counts differ")
    corrected = gs.apply_corrections(tab, corrections)
    return gs.canonical_form(corrected) == gs.canonical_form(gs.graph_state(spec))


def _same_answer(tab, spec, corrections=()):
    """Both comparisons' answer, which must agree.

    The canonical form of a tableau with anticommuting rows can meet an
    imaginary row product and raise; the membership test answers False there.
    """
    got = gs.equals_up_to_corrections(tab, spec, corrections)
    try:
        want = _ref_equals_up_to_corrections(tab, spec, corrections)
    except AssertionError as err:
        assert "imaginary sign" in str(err)
        assert got is False
        return got
    assert got == want
    return got


def _toggled(spec, u, v):
    edge = (min(u, v), max(u, v))
    return gs.GraphSpec(spec.n, spec.edges ^ {edge})


class TestMembershipMatchesCanonicalForms:
    @pytest.mark.parametrize("seed", range(12))
    def test_grown_registers_and_mutations(self, seed):
        rng = np.random.default_rng([17, seed])
        tab, reg, measured = _grow(rng)
        spec = _implied_graph(reg, tab.n)
        corrections = _to_plus(measured)
        n = tab.n
        assert _same_answer(tab, spec, corrections)
        assert _same_answer(gs.apply_corrections(tab, corrections), spec)
        negatives = 0
        for _ in range(12):
            r = int(rng.integers(n))
            flipped = tab.copy()
            flipped.sign[r] ^= 1
            negatives += not _same_answer(flipped, spec, corrections)
            if corrections:
                k = int(rng.integers(len(corrections)))
                dropped = corrections[:k] + corrections[k + 1:]
                negatives += not _same_answer(tab, spec, dropped)
            added = corrections + [(r, "XYZH"[int(rng.integers(4))])]
            negatives += not _same_answer(tab, spec, added)
            u, v = rng.choice(n, size=2, replace=False)
            negatives += not _same_answer(tab, _toggled(spec, u, v), corrections)
        assert negatives >= 36

    @pytest.mark.parametrize("seed", range(8))
    def test_hand_built_rows(self, seed):
        """Duplicated, dependent and anticommuting rows of a corrected register."""
        rng = np.random.default_rng([19, seed])
        tab, reg, measured = _grow(rng)
        spec = _implied_graph(reg, tab.n)
        good = gs.apply_corrections(tab, _to_plus(measured))
        n = good.n
        assert _same_answer(good, spec)
        r, s, t = (int(v) for v in rng.choice(n, size=3, replace=False))
        x, z, sign = good.x.copy(), good.z.copy(), good.sign.copy()
        x[s], z[s], sign[s] = x[r], z[r], sign[r]  # a duplicated row
        assert not _same_answer(gs.StabilizerTableau(n, x, z, sign), spec)
        # a row that is the product of two others, with its true sign
        xz = np.concatenate([good.x, good.z], axis=1)
        prod_sign = good.sign[r] ^ good.sign[t] ^ gs._product_sign(xz[r], xz[t], n)
        x, z, sign = good.x.copy(), good.z.copy(), good.sign.copy()
        x[s], z[s], sign[s] = good.x[r] ^ good.x[t], good.z[r] ^ good.z[t], prod_sign
        assert not _same_answer(gs.StabilizerTableau(n, x, z, sign), spec)
        # a row that anticommutes with another: X or Z on a qubit with neighbours
        q = int(rng.choice([v for v in range(n) if neighbours(spec, v)]))
        for ch in "XZ":
            x, z = good.x.copy(), good.z.copy()
            x[s], z[s] = 0, 0
            (x if ch == "X" else z)[s, q] = 1
            built = gs.StabilizerTableau(n, x, z, good.sign)
            assert ((built.x @ built.z[s] + built.z @ built.x[s]) % 2).any()
            assert not _same_answer(built, spec)

    def test_anticommuting_rows_where_the_reference_raises(self):
        """X_0 then Y_0: the canonical form multiplies them and meets i."""
        tab = gs.StabilizerTableau(2, x=[[1, 0], [1, 0]], z=[[0, 0], [1, 0]])
        with pytest.raises(AssertionError, match="imaginary sign"):
            _ref_equals_up_to_corrections(tab, gs.GraphSpec.chain(2))
        assert _same_answer(tab, gs.GraphSpec.chain(2)) is False
        assert gs.equals_up_to_corrections(tab, gs.GraphSpec.from_edges(2, [])) is False

    def test_rank_certificate_rejects_group_rows_that_repeat(self):
        """Every row in the graph group, one row twice: only the rank says no."""
        spec = gs.GraphSpec.chain(3)
        tab = gs.graph_state(spec)
        x, z, sign = tab.x.copy(), tab.z.copy(), tab.sign.copy()
        x[2], z[2] = x[0], z[0]
        assert not _same_answer(gs.StabilizerTableau(3, x, z, sign), spec)

    def test_y_rows_carry_the_half_weight_sign(self):
        """K_0 K_1 on a two-chain is +Y_0 Y_1: the edge's -1 and the -1 of
        two XZ -> -iY rewrites cancel."""
        spec = gs.GraphSpec.chain(2)
        tab = gs.StabilizerTableau(2, x=[[1, 1], [1, 0]], z=[[1, 1], [0, 1]], sign=[0, 0])
        assert _same_answer(tab, spec)
        tab = gs.StabilizerTableau(2, x=[[1, 1], [1, 0]], z=[[1, 1], [0, 1]], sign=[1, 0])
        assert not _same_answer(tab, spec)

    def test_edges_inside_the_support_carry_the_sign(self):
        """K_0 K_1 K_2 on a triangle: X-part 111, Z-part 000, sign (-1)^3."""
        spec = gs.GraphSpec.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        x = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
        z = [[0, 0, 0], [1, 0, 1], [1, 1, 0]]
        assert _same_answer(gs.StabilizerTableau(3, x, z, [1, 0, 0]), spec)
        assert not _same_answer(gs.StabilizerTableau(3, x, z, [0, 0, 0]), spec)

    def test_size_mismatch(self):
        tab = gs.graph_state(gs.GraphSpec.chain(2))
        for check in (gs.equals_up_to_corrections, _ref_equals_up_to_corrections):
            with pytest.raises(ValueError, match="qubit counts differ"):
                check(tab, gs.GraphSpec.chain(3))

    def test_no_canonical_form(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the check ran canonical_form")

        monkeypatch.setattr(gs, "canonical_form", forbidden)
        tab, reg, measured = _grow(np.random.default_rng([23, 0]))
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           _to_plus(measured))


# The int64 form of _product_sign that the bit masks replaced, kept as the
# reference: equal bits, dtype and error on every input.


def _ref_product_sign(rows, source, n):
    x1 = rows[..., :n].astype(np.int64)
    z1 = rows[..., n:].astype(np.int64)
    x2 = source[..., :n].astype(np.int64)
    z2 = source[..., n:].astype(np.int64)
    g = (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    ).sum(axis=-1) % 4
    if (g % 2).any():
        raise AssertionError("row product produced an imaginary sign")
    return (g // 2).astype(np.uint8)


class TestProductSignMatchesInt64Reference:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 64])
    def test_random_rows(self, n):
        rng = np.random.default_rng([29, n])
        rows = rng.integers(0, 2, (400, 2 * n), dtype=np.uint8)
        sources = rng.integers(0, 2, (400, 2 * n), dtype=np.uint8)

        def anti(a, b):
            return (a[..., :n] * b[..., n:] + a[..., n:] * b[..., :n]).sum(axis=-1) % 2

        source = sources[sources.any(axis=1)][0]
        one = anti(rows, source) == 0  # rows that commute with one source
        pair = anti(rows, sources) == 0  # rows that commute with their partner
        assert 0 < one.sum() < len(rows) and 0 < pair.sum() < len(rows)
        for a, b in ((rows[one], source), (rows[pair], sources[pair]),
                     (rows[one][0], source), (rows[:0], source)):
            got, want = gs._product_sign(a, b, n), _ref_product_sign(a, b, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for a, b in ((rows[~one][:1], source), (rows, source), (rows, sources)):
            messages = []
            for sign in (gs._product_sign, _ref_product_sign):
                with pytest.raises(AssertionError) as err:
                    sign(a, b, n)
                messages.append(str(err.value))
            assert messages[0] == messages[1] == "row product produced an imaginary sign"


# The measurement kernels as they were before the g table, the single-column
# read and the one-row deterministic sign, kept as references
# (``_ref_measure_sign`` was ``_deterministic_sign``): the module's kernels
# must leave equal bytes, outcomes and errors.


def _ref_measure(tab, bits, forced=None, rng=None) -> int:
    n = tab.n
    hits = _ref_anticommuting(tab.m, bits)  # ascending, so generator rows come first
    if not hits.size or hits[0] >= n:
        outcome = _ref_measure_sign(tab, bits, hits - n)
        if forced is not None and int(forced) != outcome:
            raise ValueError(f"outcome is deterministic ({outcome:+d}); cannot force {forced:+d}")
        return outcome
    if forced is None:
        if rng is None:
            raise ValueError("random measurement outcome needs forced or rng")
        outcome = 1 if rng.integers(2) == 0 else -1
    else:
        outcome = int(forced)
        if outcome not in (1, -1):
            raise ValueError("forced outcome must be +1 or -1")
    p, rest = int(hits[0]), hits[1:]
    gens = rest[rest < n]
    tab.sign[gens] ^= tab.sign[p] ^ _ref_product_sign(tab.m[gens], tab.m[p], n)
    tab.m[rest] ^= tab.m[p]
    tab.m[n + p] = tab.m[p]
    tab.m[p] = bits
    tab.sign[p] = 0 if outcome == 1 else 1
    return outcome


def _ref_anticommuting(m, bits):
    n = len(bits) // 2
    cols = (np.flatnonzero(bits) + n) % (2 * n)
    return np.flatnonzero(np.bitwise_xor.reduce(m[:, cols], axis=1))


def _ref_measure_sign(tab, bits, used):
    rows = tab.m[used]
    if not np.array_equal(np.bitwise_xor.reduce(rows, axis=0), bits):
        raise ValueError("measured Pauli neither commutes into nor hits the group")
    before = np.zeros_like(rows)  # product of the rows ahead of each row
    before[1:] = np.bitwise_xor.accumulate(rows, axis=0)[:-1]
    sign = int(tab.sign[used].sum()) + int(_ref_product_sign(before, rows, tab.n).sum())
    return 1 - 2 * (sign % 2)


def _ref_hadamard(tab, qubit):
    n = tab.n
    tab.sign ^= tab.m[:n, qubit] & tab.m[:n, n + qubit]
    tab.m[:, [qubit, n + qubit]] = tab.m[:, [n + qubit, qubit]]


class TestMeasurementKernelsMatchReference:
    """Seeded sequences of measurements, Hadamards and Paulis on graph-state
    tableaux of 2-40 qubits, run once through the module's kernels and once
    through the references above.  After every step the two tableaux hold
    equal ``m`` and ``sign`` bytes, and the step gave equal outcomes or equal
    error messages."""

    def test_g_table_matches_loop_phase(self):
        assert gs._G.shape == (16,) and gs._G.dtype == np.int8
        for code in range(16):
            x1, z1, x2, z2 = (np.array([code >> s & 1]) for s in (3, 2, 1, 0))
            assert gs._G[code] % 4 == _ref_phase(x1, z1, x2, z2), code

    @staticmethod
    def _step(new, ref, run_new, run_ref):
        got = []
        for tab, run in ((new, run_new), (ref, run_ref)):
            try:
                got.append(run(tab))
            except ValueError as err:
                got.append(("ValueError", str(err)))
        assert got[0] == got[1]
        assert new.m.tobytes() == ref.m.tobytes()
        assert new.sign.tobytes() == ref.sign.tobytes()

    @pytest.mark.parametrize("seed", range(24))
    def test_random_sequences(self, seed):
        rng = np.random.default_rng([37, seed])
        spec = _random_graph(rng, 2, 40)
        n = spec.n
        new, ref = gs.graph_state(spec), gs.graph_state(spec)
        outcomes_new, outcomes_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        seen = set()
        for _ in range(max(4 * n, 40)):
            r = rng.random()
            if r < 0.8:
                if r < 0.5:  # X, Y or Z on one, two or three qubits
                    qubits = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)),
                                        replace=False)
                    bits = gs._string_to_bits(n, {int(q): "XYZ"[int(rng.integers(3))]
                                                  for q in qubits})
                    seen.add(f"{len(qubits)} qubits")
                else:  # a product of 0-4 generators: deterministic
                    k = int(rng.integers(0, min(4, n) + 1))
                    rows = new.m[rng.choice(n, size=k, replace=False)]
                    bits = np.bitwise_xor.reduce(rows, axis=0) if k else np.zeros(2 * n, np.uint8)
                hits = _ref_anticommuting(ref.m, bits)
                if hits.size and hits[0] < n:
                    seen.add("random")
                else:
                    seen.add(f"deterministic, {min(hits.size, 2)} rows")
                forced = [None, 1, -1][int(rng.integers(3))]
                self._step(new, ref,
                           lambda t: gs._measure(t, bits, forced, outcomes_new),
                           lambda t: _ref_measure(t, bits, forced, outcomes_ref))
            elif r < 0.9:
                q = int(rng.integers(n))
                self._step(new, ref, lambda t: gs._hadamard(t, q), lambda t: _ref_hadamard(t, q))
            else:
                q, ch = int(rng.integers(n)), "XYZ"[int(rng.integers(3))]
                self._step(new, ref, lambda t: gs._pauli(t, q, ch), lambda t: gs._pauli(t, q, ch))
        assert seen >= {"random", "deterministic, 0 rows", "deterministic, 1 rows",
                        "deterministic, 2 rows", "1 qubits", "2 qubits"}, seen
        validate(new)


class TestMeasurementCountsPinned:
    """Work counts of ``TestTableauBytesPinned``'s four grown registers: the
    measurements, the anticommutation passes (one per measurement) and the
    product-sign calls, with no GF(2) elimination.  A change that moves a
    count updates its pin and says why."""

    COUNTS = {  # seed -> (measurements, anticommutation passes, product signs)
        0: (110, 110, 12),
        1: (70, 70, 20),
        2: (71, 71, 20),
        3: (101, 101, 13),
    }

    @pytest.mark.parametrize("seed", sorted(COUNTS))
    def test_grown_register(self, seed, monkeypatch):
        counts = dict.fromkeys(("_measure", "_anticommuting", "_product_sign"), 0)
        for name in counts:
            def counted(*args, real=getattr(gs, name), name=name, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(gs, name, counted)
        monkeypatch.setattr(gs, "_row_reduce", _no_elimination)
        rng = np.random.default_rng([31, seed])
        lengths = [int(v) for v in rng.integers(1, 6, size=int(rng.integers(30, 60)))]
        _grow(rng, lengths=lengths)
        assert counts["_anticommuting"] == counts["_measure"]
        assert tuple(counts.values()) == self.COUNTS[seed]


def _tableau_bytes(tab):
    return tuple(None if a is None else a.tobytes()
                 for a in (tab.x, tab.z, tab.sign, tab.dx, tab.dz))


def _fuse_cases():
    """(chain lengths, qubits, variant, outcome) for every fusion outcome."""
    for outcome in gs.PARITY2_OUTCOMES:
        yield [3, 2], (2, 3), "parity-2", outcome
    for outcome in gs.GATE3_OUTCOMES:
        yield [2, 3, 2], (1, 2, 5), "gate-3", outcome


def _public_calls():
    """(name, call on a fresh tableau and registry) for each public operation."""
    for lengths, qubits, variant, outcome in _fuse_cases():
        def call(lengths=lengths, qubits=qubits, variant=variant, outcome=outcome):
            reg, spec = gs.ChainRegistry.disjoint_chains(lengths)
            tab = gs.graph_state(spec)
            return tab, lambda: gs.fuse(tab, qubits, variant, outcome, reg)
        yield f"fuse-{outcome}", call
    for forced in (1, -1):
        def call(forced=forced):
            reg, spec = gs.ChainRegistry.disjoint_chains([4])
            tab = gs.graph_state(spec)
            return tab, lambda: gs.recover_failure(tab, 3, reg, forced=forced)
        yield f"recover-{forced:+d}", call
    chain = gs.GraphSpec.chain(4)
    for name, run in [
        ("measure-random", lambda t: gs.measure_pauli_string(t, {1: "X", 2: "Y"}, forced=-1)),
        ("measure-deterministic", lambda t: gs.measure_pauli_string(t, {0: "X", 1: "Z"})),
        ("measure-single", lambda t: gs.measure_pauli(t, 2, "Z", forced=1)),
        ("corrections", lambda t: gs.apply_corrections(t, [(0, "X"), (1, "H"), (2, "Y")])),
        ("no-corrections", lambda t: gs.apply_corrections(t, [])),
        ("equals", lambda t: gs.equals_up_to_corrections(t, chain, [(1, "H"), (0, "Z")])),
    ]:
        def call(run=run):
            tab = gs.graph_state(chain)
            return tab, lambda: run(tab)
        yield name, call


PUBLIC_CALLS = dict(_public_calls())


class TestCopyContract:
    """Each public operation copies its input once and leaves it as it was."""

    @pytest.mark.parametrize("name", PUBLIC_CALLS)
    def test_input_unchanged(self, name):
        tab, run = PUBLIC_CALLS[name]()
        before = _tableau_bytes(tab)
        result = run()
        assert _tableau_bytes(tab) == before
        outs = [r for r in (result if isinstance(result, tuple) else (result,))
                if isinstance(r, gs.StabilizerTableau)]
        for out in outs:
            assert out is not tab
            for a, b in zip((out.x, out.z, out.sign, out.dx, out.dz),
                            (tab.x, tab.z, tab.sign, tab.dx, tab.dz)):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("name", PUBLIC_CALLS)
    def test_one_copy_per_call(self, name, monkeypatch):
        copies = []
        real = gs.StabilizerTableau.copy

        def counted(self, *args, **kwargs):
            copies.append(self)
            return real(self, *args, **kwargs)

        tab, run = PUBLIC_CALLS[name]()
        monkeypatch.setattr(gs.StabilizerTableau, "copy", counted)
        run()
        assert len(copies) == 1 and copies[0] is tab

    @pytest.mark.parametrize("qubit", [-1, 4])
    def test_rejected_correction_last_leaves_input(self, qubit):
        tab = gs.graph_state(gs.GraphSpec.chain(4))
        before = _tableau_bytes(tab)
        with pytest.raises(ValueError, match=rf"qubit {qubit} out of range"):
            gs.apply_corrections(tab, [(0, "X"), (1, "H"), (2, "Z"), (qubit, "Y")])
        assert _tableau_bytes(tab) == before

    def test_unknown_op_last_leaves_input(self):
        tab = gs.graph_state(gs.GraphSpec.chain(3))
        before = _tableau_bytes(tab)
        with pytest.raises(ValueError, match="unknown Pauli 'W'"):
            gs.apply_corrections(tab, [(0, "H"), (1, "W")])
        assert _tableau_bytes(tab) == before

    def test_hand_built_input_gains_only_destabilizers(self):
        ghz = gs.StabilizerTableau(3, x=GHZ_X, z=GHZ_Z)
        before = _tableau_bytes(ghz)[:3]
        reg, _ = gs.ChainRegistry.disjoint_chains([1, 1, 1])
        gs.fuse(ghz, (0, 1, 2), "gate-3", "ghz", reg)
        assert _tableau_bytes(ghz)[:3] == before
        assert ghz.dx is not None

    def test_copy_skips_init(self, monkeypatch):
        tab = gs.graph_state(gs.GraphSpec.star(5))
        bare = gs.StabilizerTableau(3, x=GHZ_X, z=GHZ_Z)

        def no_init(self, *args, **kwargs):
            raise AssertionError("copy went through __init__")

        monkeypatch.setattr(gs.StabilizerTableau, "__init__", no_init)
        out = tab.copy()
        assert _tableau_bytes(out) == _tableau_bytes(tab)
        # a copy holds what its tableau holds: no destabilizers, none derived
        out = bare.copy()
        assert out.dx is None and out.dz is None
        assert _tableau_bytes(out) == _tableau_bytes(bare)

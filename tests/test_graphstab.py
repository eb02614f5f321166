"""Stabilizer engine: graph states, measurement, fusion, recovery.

Every nontrivial claim is cross-checked against dense state vectors for
registers of up to eight qubits; the dense side never touches the tableau
algebra.
"""

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


def _ref_graph_state(spec):
    """The per-vertex neighbour loop that ``graph_state`` replaced."""
    tab = gs.StabilizerTableau(spec.n)
    for v in range(spec.n):
        tab.x[v, v] = 1
        for u in spec.neighbours(v):
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
        spec = gs.GraphSpec.chain(4)
        assert spec.neighbours(0) == [1]
        assert spec.neighbours(2) == [1, 3]

    def test_edge_list_round_trip(self):
        spec = gs.GraphSpec.star(4)
        again = gs.parse_edge_list(spec.to_edge_list())
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
        gs.graph_state(spec).validate()

    @pytest.mark.parametrize(
        "spec",
        [
            gs.GraphSpec.from_edges(1, []),
            gs.GraphSpec.from_edges(5, []),
            gs.GraphSpec.chain(2),
            gs.GraphSpec.chain(9),
            gs.GraphSpec.star(7),
            gs.GraphSpec.star(6, center=4),
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

    def test_z_then_conditional_z_recovers_chain(self):
        """Measuring out a chain end leaves the shorter chain after repair."""
        tab = gs.graph_state(gs.GraphSpec.chain(3))
        outcome, tab = gs.measure_pauli(tab, 2, "Z", forced=-1)
        tab = gs.apply_pauli(tab, 1, "Z")
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
            lambda: gs.apply_hadamard(tab, qubit),
            lambda: gs.apply_pauli(tab, qubit, "X"),
            lambda: gs.apply_corrections(tab, [(qubit, "Y")]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=rf"qubit {qubit} out of range 0\.\.2"):
                call()

    def test_edges_of_range_accepted(self):
        tab = gs.graph_state(gs.GraphSpec.chain(3))
        for qubit in (0, 2):
            gs.measure_pauli_string(tab, {qubit: "Z"}, forced=1)
            gs.apply_hadamard(tab, qubit)
            gs.apply_pauli(tab, qubit, "X")


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

    def test_non_end_warns(self):
        reg, spec = gs.ChainRegistry.disjoint_chains([3, 2])
        with pytest.warns(UserWarning, match="non-end"):
            gs.fuse(gs.graph_state(spec), (1, 3), "parity-2", "success-even", reg)

    def test_odd_branch_at_interior_qubit(self):
        """Every neighbour of a degree-2 qubit takes a Z, not only the first."""
        reg, spec = gs.ChainRegistry.disjoint_chains([3, 2])
        vec = dense_of(spec)
        with pytest.warns(UserWarning, match="non-end"):
            _, tab, corr = gs.fuse(gs.graph_state(spec), (3, 1), "parity-2",
                                   "success-odd", reg)
        assert corr == ((1, "X"), (0, "Z"), (2, "Z"))
        odd = fuse_vector(vec, spec.n, (3, 1), "parity-2", "success-odd", corr)
        even = fuse_vector(vec, spec.n, (3, 1), "parity-2", "success-even")
        assert np.allclose(odd, even)
        assert tableau_matches(tab, odd)

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
        flipped = gs.apply_pauli(tab, 0, "Z")
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
            tab.validate()


class TestTableauValidity:
    def test_operations_preserve_validity(self):
        rng = np.random.default_rng(11)
        reg, spec = gs.ChainRegistry.disjoint_chains([3, 2])
        tab = gs.graph_state(spec)
        tab.validate()
        _, tab, _ = gs.fuse(tab, (2, 3), "parity-2", "success-even", reg)
        tab.validate()
        _, tab = gs.measure_pauli(tab, 0, "Z", rng=rng)
        tab.validate()
        tab = gs.apply_hadamard(tab, 4)
        tab.validate()

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
            tab.validate()

    def test_dependent_generators(self):
        tab = gs.StabilizerTableau(
            3,
            x=[[1, 0, 0], [0, 1, 0], [1, 1, 0]],
            z=[[0, 1, 0], [1, 0, 0], [1, 1, 0]],
        )
        with pytest.raises(ValueError, match="not independent"):
            tab.validate()


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
        tab.validate()
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


def _ref_deterministic_sign(tab, xt, zt):
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
    return lambda side: (None, gs.apply_hadamard(side.tab, q))


def _pauli(q, ch):
    return lambda side: (None, gs.apply_pauli(side.tab, q, ch))


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
        xt, zt = gs._string_to_bits(tab.n, pauli)
        return not ((tab.x @ zt + tab.z @ xt) % 2).any()

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
        new.tab.validate()

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
        star = gs.apply_hadamard(gs.apply_hadamard(star, 1), 2)
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
            tab.validate()

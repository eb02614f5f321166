"""Stabilizer engine: graph states, measurement, fusion, recovery.

Every nontrivial claim is cross-checked against dense state vectors for
registers of up to four qubits; the dense side never touches the tableau
algebra.
"""

import itertools
import math

import numpy as np
import pytest

from qubuslab import graphstab as gs
from qubuslab.oracles import (
    apply_pauli_string,
    graph_state_vector,
    state_stabilized_by,
    statevector_stabilizer_signs,
)


def dense_of(spec):
    return graph_state_vector(spec.n, sorted(spec.edges))


def tableau_matches(tab, vec, tol=1e-9):
    gens = tab.generator_strings()
    return state_stabilized_by(vec, [p for _, p in gens], [s for s, _ in gens], tol)


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

    @pytest.mark.parametrize("lengths", [(1, 1), (1, 2), (2, 2), (1, 3), (3, 1)])
    def test_against_dense_oracle(self, lengths):
        reg, spec = gs.ChainRegistry.disjoint_chains(list(lengths))
        ends = (lengths[0] - 1, lengths[0])
        vec = dense_of(spec)
        for outcome in gs.PARITY2_OUTCOMES:
            reg_i, _ = gs.ChainRegistry.disjoint_chains(list(lengths))
            _, tab, corr = gs.fuse(gs.graph_state(spec), ends, "parity-2",
                                   outcome, reg_i)
            post = _dense_fuse(vec, ends, outcome, spec.n, corr)
            assert tableau_matches(tab, post)


def _dense_fuse(vec, ends, outcome, n, corrections):
    a, b = ends

    def pauli_at(v, q, ch):
        s = "".join(ch if i == q else "I" for i in range(n))
        return apply_pauli_string(v, s)

    if outcome.startswith("success"):
        sign = 1 if outcome.endswith("even") else -1
        post = 0.5 * (vec + sign * pauli_at(pauli_at(vec, a, "Z"), b, "Z"))
        post /= np.linalg.norm(post)
        for q, op in corrections:
            post = pauli_at(post, q, op)
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        mat = np.array([[1.0]])
        for q in range(n):
            mat = np.kron(mat, h if q == b else np.eye(2))
        return mat @ post
    bit_sign = 1 if outcome == "fail-00" else -1
    for q in ends:
        vec = 0.5 * (vec + bit_sign * pauli_at(vec, q, "Z"))
    return vec / np.linalg.norm(vec)


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
        corrections = []
        for q, outcome in sorted(measured.items()):
            if outcome == -1:
                corrections.append((q, "X"))
            corrections.append((q, "H"))
        assert gs.equals_up_to_corrections(tab, _implied_graph(reg, tab.n),
                                           corrections)


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
    n = int(rng.integers(2, 41))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    take = rng.random(len(possible)) < rng.uniform(0.05, 0.5)
    spec = gs.GraphSpec.from_edges(n, [e for e, keep in zip(possible, take) if keep])
    tab = gs.graph_state(spec)
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
        systems = [(m.T, m.T @ rng.integers(0, 2, n, dtype=np.uint8) % 2)]
        systems += [(tab.x.T, np.eye(n, dtype=np.uint8)[q]) for q in range(n)]
        systems += [(m.T, rng.integers(0, 2, 2 * n, dtype=np.uint8)) for _ in range(3)]
        systems += [(a[: n // 2].T, rng.integers(0, 2, n, dtype=np.uint8))
                    for a in (tab.x, tab.z)]
        outcomes = set()
        for a, b in systems:
            got, want = gs._gf2_solve(a, b), _ref_solve(a, b)
            outcomes.add(want is None)
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert outcomes == {True, False}

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

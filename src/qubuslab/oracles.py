"""Independent reference implementations used to cross-check the fast paths.

Everything here deliberately avoids the branch bookkeeping of
:mod:`qubuslab.busim` and the tableau algebra of :mod:`qubuslab.graphstab`:
the bus is expanded in a truncated number basis, register states are dense
vectors, and stabilizer claims are verified by brute-force operator action.
These routines are slow and only meant for small systems.  Only the
routine that uses SciPy imports it, so the graph-state check imports fast.
"""

from __future__ import annotations

import math

import numpy as np

from .busim import HybridState, QubitState, pauli_action

__all__ = [
    "FockOracle",
    "hybrid_to_dense",
    "two_gaussian_misassignment",
    "graph_state_vector",
    "statevector_stabilizer_signs",
    "apply_pauli_string",
    "state_stabilized_by",
    "is_graph_state",
    "apply_local_ops",
    "fuse_vector",
]


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


def two_gaussian_misassignment(separation: float) -> float:
    """Midpoint-threshold error between two unit-variance Gaussians.

    Integrates the tail of N(0, 1) over the 40 units beyond separation/2
    with a 32-point Gauss-Legendre rule on each half-unit panel; the
    closed form is erfc(separation / (2 sqrt 2)) / 2.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    centres = separation / 2.0 + 0.25 + 0.5 * np.arange(80)
    x = centres[:, None] + 0.25 * nodes
    pdf = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    return float(0.25 * (pdf @ weights).sum())


# ---------------------------------------------------------------------------
# dense stabilizer checks


def apply_pauli_string(vec: np.ndarray, pauli: str) -> np.ndarray:
    """Dense action of a Pauli string, qubit 0 leftmost; ``I`` is identity."""
    n = len(pauli)
    out = vec
    for q, ch in enumerate(pauli):
        if ch != "I":
            out = pauli_action(out, n, q, ch)
    return out


def graph_state_vector(n: int, edges) -> np.ndarray:
    """|+>^n with a controlled-Z on every edge."""
    vec = np.full(2**n, 2.0 ** (-n / 2), dtype=np.complex128)
    idx = np.arange(2**n)
    for u, v in edges:
        bu = (idx >> (n - 1 - u)) & 1
        bv = (idx >> (n - 1 - v)) & 1
        vec = vec * np.where((bu & bv) == 1, -1.0, 1.0)
    return vec


def statevector_stabilizer_signs(vec: np.ndarray, paulis, tol: float = 1e-9):
    """Signs s with P|psi> = s|psi>, or None where P does not stabilize."""
    signs = []
    for p in paulis:
        image = apply_pauli_string(vec, p)
        ov = np.vdot(vec, image)
        if abs(abs(ov) - 1.0) <= tol and abs(ov.imag) <= tol:
            signs.append(1 if ov.real > 0 else -1)
        else:
            signs.append(None)
    return signs


def state_stabilized_by(vec: np.ndarray, paulis, signs, tol: float = 1e-9) -> bool:
    """Whether every signed Pauli string fixes the vector exactly."""
    for p, s in zip(paulis, signs):
        image = s * apply_pauli_string(vec, p)
        if np.max(np.abs(image - vec)) > tol:
            return False
    return True


def is_graph_state(vec: np.ndarray, n: int, edges) -> bool:
    """Whether every generator X_v prod_{u ~ v} Z_u fixes vec with sign +1."""
    rows = [["I"] * n for _ in range(n)]
    for v in range(n):
        rows[v][v] = "X"
    for u, v in edges:
        rows[u][v] = "Z"
        rows[v][u] = "Z"
    paulis = ["".join(r) for r in rows]
    signs = statevector_stabilizer_signs(vec, paulis)
    return all(s == 1 for s in signs) and state_stabilized_by(vec, paulis, signs)


def apply_local_ops(vec: np.ndarray, n: int, ops) -> np.ndarray:
    """Dense action of (qubit, op) pairs in order, op in X, Y, Z, H."""
    for q, op in ops:
        if op != "H":
            vec = pauli_action(vec, n, q, op)
            continue
        psi = vec.reshape(2**q, 2, 2 ** (n - 1 - q))
        vec = np.stack([psi[:, 0] + psi[:, 1], psi[:, 0] - psi[:, 1]], axis=1)
        vec = vec.reshape(-1) / math.sqrt(2.0)
    return vec


def _fusion_plan(qubits, variant: str, outcome: str):
    """(Z-parity projections as (qubits, sign), Hadamard qubits) of a fusion."""
    if variant == "parity-2":
        a, b = qubits
        plans = {
            "success-even": ([((a, b), 1)], [b]),
            "success-odd": ([((a, b), -1)], [b]),
            "fail-00": ([((a,), 1), ((b,), 1)], []),
            "fail-11": ([((a,), -1), ((b,), -1)], []),
        }
    elif variant == "gate-3":
        a, b, c = qubits
        plans = {
            "ghz": ([((a, b), 1), ((b, c), 1)], [b, c]),
            "bell-q3-0": ([((a, b), -1), ((c,), 1)], [b]),
            "bell-q3-1": ([((a, b), -1), ((c,), -1)], [b]),
            "product-001": ([((a,), 1), ((b,), 1), ((c,), -1)], []),
            "product-110": ([((a,), -1), ((b,), -1), ((c,), 1)], []),
        }
    else:
        raise ValueError(f"unknown fuse variant {variant!r}")
    if outcome not in plans:
        raise ValueError(f"outcome {outcome!r} not in {tuple(plans)}")
    return plans[outcome]


def fuse_vector(vec: np.ndarray, n: int, qubits, variant: str, outcome: str,
                corrections=()) -> np.ndarray:
    """Dense image of a ``parity-2`` or ``gate-3`` fusion outcome.

    Projects onto the outcome's Z parities, renormalises, applies the
    reported Pauli ``corrections`` as (qubit, X/Y/Z) pairs, then the
    Hadamards that turn the fused qubits into graph-state form.
    """
    projections, hadamards = _fusion_plan(qubits, variant, outcome)
    for zs, sign in projections:
        vec = 0.5 * (vec + sign * apply_local_ops(vec, n, [(q, "Z") for q in zs]))
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError(f"outcome {outcome!r} has probability 0")
    return apply_local_ops(vec / norm, n, list(corrections) + [(q, "H") for q in hadamards])

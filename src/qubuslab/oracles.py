"""Independent dense references used to cross-check the fast paths.

Everything here deliberately avoids the tableau algebra of
:mod:`qubuslab.graphstab`: register states are dense vectors, stabilizer
claims are verified by brute-force operator action (a graph state by one
comparison with its vector), and the two-Gaussian misassignment tail is a
fixed quadrature.  These routines are slow and only meant for small
systems; none of them needs SciPy.  The truncated-Fock bus simulator that
checks :mod:`qubuslab.busim` lives in the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .busim import chunked_dot

__all__ = [
    "two_gaussian_misassignment",
    "pauli_action",
    "graph_state_vector",
    "apply_pauli_string",
    "state_stabilized_by",
    "is_graph_state",
    "apply_local_ops",
    "fuse_vector",
]


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


def pauli_action(amps: np.ndarray, n: int, qubit: int, pauli: str) -> np.ndarray:
    """Dense amplitudes after X, Y or Z on one qubit of an n-qubit vector.

    No norm check: the dense oracles apply it to unnormalised projections.
    """
    idx = np.arange(2**n)
    flip = idx ^ (1 << (n - 1 - qubit))
    z_sign = 1 - 2 * ((idx >> (n - 1 - qubit)) & 1)
    if pauli == "X":
        return amps[flip]
    if pauli == "Z":
        return amps * z_sign
    if pauli == "Y":
        return amps[flip] * (1j * z_sign)
    raise ValueError(f"unknown Pauli {pauli!r}")


def apply_pauli_string(vec: np.ndarray, pauli: str) -> np.ndarray:
    """Dense action of a Pauli string, qubit 0 leftmost; ``I`` is identity."""
    n = len(pauli)
    out = vec
    for q, ch in enumerate(pauli):
        if ch != "I":
            out = pauli_action(out, n, q, ch)
    return out


def graph_state_vector(n: int, edges) -> np.ndarray:
    """|+>^n with a controlled-Z on every edge.

    A pattern's sign is the parity of the edges whose two bits it sets, one
    XOR per edge.  Multiplying by -1.0 or 1.0 twice, for the other edges'
    parity and then for the last edge, gives the bytes of one such product
    per edge, signed zeros included: that leaves an imaginary -0.0 where the
    last edge turns a negative amplitude positive.
    """
    idx = np.arange(2**n)
    odd = last = np.zeros(2**n, dtype=np.int64)
    for u, v in edges:
        odd = odd ^ last
        last = (idx >> (n - 1 - u)) & (idx >> (n - 1 - v)) & 1
    vec = np.full(2**n, 2.0 ** (-n / 2), dtype=np.complex128)
    return vec * np.where(odd == 1, -1.0, 1.0) * np.where(last == 1, -1.0, 1.0)


def state_stabilized_by(vec: np.ndarray, paulis, signs, tol: float = 1e-9) -> bool:
    """Whether every signed Pauli string fixes the vector exactly."""
    for p, s in zip(paulis, signs):
        image = s * apply_pauli_string(vec, p)
        if np.max(np.abs(image - vec)) > tol:
            return False
    return True


def is_graph_state(vec: np.ndarray, n: int, edges) -> bool:
    """Whether every generator X_v prod_{u ~ v} Z_u fixes vec with sign +1.

    The graph state G is the generators' one joint +1 eigenvector, so vec
    must be a multiple phase * G.  The tolerances are those of applying each
    generator S: <vec|S vec> is |phase|**2 within 1e-9, and S vec - vec is
    within 1e-9 entrywise, which is twice vec's distance from phase * G
    where S flips the sign of that difference.
    """
    target = graph_state_vector(n, {(min(u, v), max(u, v)) for u, v in edges})
    phase = chunked_dot(np.vdot, target, vec)
    return bool(abs(abs(phase) ** 2 - 1.0) <= 1e-9
                and 2.0 * np.max(np.abs(vec - phase * target)) <= 1e-9)


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

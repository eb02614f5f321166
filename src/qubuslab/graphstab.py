"""Stabilizer engine for graph states: fusion, recovery and comparison.

A tableau holds n independent commuting Pauli generators with +-1 signs.
Operations return updated copies; measurement randomness comes from a caller
supplied generator or a forced outcome, so growth simulations can keep one
seeded stream per trial.

Beside its stabilizers a tableau keeps destabilizer rows, as Aaronson and
Gottesman do (quant-ph/0406196): destabilizer i anticommutes with generator
i and commutes with every other generator.  A deterministic measurement
reads which generators multiply to the observable off one symplectic product
with the destabilizers, with no elimination.  The remaining GF(2) linear
algebra (the independence check in ``validate``, ``canonical_form``, and
deriving the destabilizers of a hand-built tableau once) runs through one
Gauss-Jordan kernel, ``_row_reduce``; every row product takes its sign from
``_product_sign``, the Aaronson-Gottesman row-sum phase.

Chain bookkeeping (which qubit sits where in which chain, dangling bonds)
lives in a :class:`ChainRegistry` beside the tableau; the quantum state never
knows about chain identities.  Fusion reads the neighbourhoods of its
Pauli-frame fixes off the registry's graph, and ``equals_up_to_corrections``
against that graph is the check that registry and state agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphSpec",
    "StabilizerTableau",
    "ChainRegistry",
    "graph_state",
    "measure_pauli",
    "measure_pauli_string",
    "apply_hadamard",
    "apply_pauli",
    "apply_corrections",
    "fuse",
    "recover_failure",
    "equals_up_to_corrections",
    "canonical_form",
    "parse_edge_list",
    "PARITY2_OUTCOMES",
    "GATE3_OUTCOMES",
]

PARITY2_OUTCOMES = ("success-even", "success-odd", "fail-00", "fail-11")
GATE3_OUTCOMES = ("ghz", "bell-q3-0", "bell-q3-1", "product-001", "product-110")


# ---------------------------------------------------------------------------
# graph specs


@dataclass(frozen=True)
class GraphSpec:
    """Undirected simple graph over vertices 0..n-1."""

    n: int
    edges: frozenset

    @classmethod
    def from_edges(cls, n: int, edges) -> "GraphSpec":
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            norm.add((min(u, v), max(u, v)))
        return cls(n=n, edges=frozenset(norm))

    @classmethod
    def chain(cls, n: int) -> "GraphSpec":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def star(cls, n: int, center: int = 0) -> "GraphSpec":
        return cls.from_edges(n, [(center, v) for v in range(n) if v != center])

    def neighbours(self, v: int):
        return sorted(
            b if a == v else a for a, b in self.edges if v in (a, b)
        )

    def to_edge_list(self) -> str:
        return "\n".join(f"{u} {v}" for u, v in sorted(self.edges))


def parse_edge_list(text: str, n: int | None = None) -> GraphSpec:
    """Read a graph from lines of "u v" pairs; blank lines and # comments ok."""
    edges = []
    top = -1
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected 'u v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        top = max(top, u, v)
    if n is None:
        n = top + 1
    return GraphSpec.from_edges(n, edges)


# ---------------------------------------------------------------------------
# tableau representation


class StabilizerTableau:
    """n commuting, independent Pauli generators with signs.

    Row i of ``x``/``z`` holds the symplectic bits of generator i; ``sign``
    is 0 for +1 and 1 for -1.

    Rows of ``dx``/``dz`` are the destabilizers, unsigned, with
    ``dx @ z.T + dz @ x.T == I`` mod 2.  Deterministic measurements read the
    generator combination from them; the eliminations that remain are in
    ``validate`` and ``canonical_form``.
    ``graph_state`` sets them; a tableau built from ``x`` and ``z`` leaves
    them ``None`` and derives them on its first measurement.  The module's
    operations keep them in step: set them back to ``None`` after editing
    ``x`` or ``z`` by hand.
    """

    __slots__ = ("n", "x", "z", "sign", "dx", "dz")

    def __init__(self, n: int, x=None, z=None, sign=None):
        self.n = n
        self.x = np.zeros((n, n), dtype=np.uint8) if x is None else np.array(x, dtype=np.uint8)
        self.z = np.zeros((n, n), dtype=np.uint8) if z is None else np.array(z, dtype=np.uint8)
        self.sign = np.zeros(n, dtype=np.uint8) if sign is None else np.array(sign, dtype=np.uint8)
        self.dx = self.dz = None

    def copy(self) -> "StabilizerTableau":
        out = StabilizerTableau(self.n, self.x, self.z, self.sign)  # np.array copies
        if self.dx is not None:
            out.dx, out.dz = self.dx.copy(), self.dz.copy()
        return out

    def generator_strings(self):
        """Generators as (sign, pauli-string) pairs, qubit 0 leftmost."""
        out = []
        for i in range(self.n):
            chars = []
            for q in range(self.n):
                xb, zb = self.x[i, q], self.z[i, q]
                chars.append("IXZY"[xb + 2 * zb] if xb + 2 * zb != 3 else "Y")
            out.append((1 - 2 * int(self.sign[i]), "".join(chars)))
        return out

    def validate(self) -> None:
        anti = np.triu((self.x @ self.z.T + self.z @ self.x.T) % 2, 1)
        if anti.any():
            i, j = np.argwhere(anti)[0]
            raise ValueError(f"generators {i} and {j} anticommute")
        m = np.concatenate([self.x, self.z], axis=1) % 2
        if len(_row_reduce(m, 2 * self.n)) != self.n:
            raise ValueError("generators are not independent")

    def __repr__(self):
        gens = ", ".join(
            ("+" if s > 0 else "-") + p for s, p in self.generator_strings()
        )
        return f"StabilizerTableau({gens})"


def _row_reduce(m: np.ndarray, pivot_cols: int, sign=None) -> list:
    """Gauss-Jordan elimination over GF(2) of the rows of ``m``, in place.

    Pivots are sought in columns 0..pivot_cols-1, left to right, each in the
    first unreduced row holding that bit; every other row holding the bit is
    cleared with one XOR.  With ``sign``, the rows of ``m`` are [x|z] Paulis
    with those sign bits, and each row product carries its phase.  Returns
    the pivot columns; the first len(result) rows of ``m`` are the reduced
    rows.
    """
    pivots = []
    for c in range(pivot_cols):
        rank = len(pivots)
        if rank == m.shape[0]:
            break
        hit = np.flatnonzero(m[rank:, c])
        if not hit.size:
            continue
        p = rank + int(hit[0])
        if p != rank:
            m[[rank, p]] = m[[p, rank]]
            if sign is not None:
                sign[[rank, p]] = sign[[p, rank]]
        rows = np.flatnonzero(m[:, c])
        rows = rows[rows != rank]
        if sign is not None:
            sign[rows] ^= sign[rank] ^ _product_sign(m[rows], m[rank], m.shape[1] // 2)
        m[rows] ^= m[rank]
        pivots.append(c)
    return pivots


def _product_sign(rows: np.ndarray, source: np.ndarray, n: int) -> np.ndarray:
    """Sign bit that the phase of each product rows[k] * source contributes.

    ``rows`` and ``source`` hold [x|z] bits (``source`` broadcasts).  The
    phase is the sum over qubits of Aaronson and Gottesman's g, in units of
    i; commuting factors give 0 or 2 mod 4, that is sign bit 0 or 1.
    """
    x1 = rows[..., :n].astype(np.int64)
    z1 = rows[..., n:].astype(np.int64)
    x2 = source[..., :n].astype(np.int64)
    z2 = source[..., n:].astype(np.int64)
    g = (
        x1 * z1 * (z2 - x2)  # Y * ...
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)  # X * ...
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)  # Z * ...
    ).sum(axis=-1) % 4
    if (g % 2).any():
        raise AssertionError("row product produced an imaginary sign")
    return (g // 2).astype(np.uint8)


def _derive_destabilizers(tab: StabilizerTableau) -> None:
    """Set destabilizers for hand-built generators, with one elimination.

    Row-reducing [z | x | I] gives E [z | x] = R, with R's pivot column
    p_k zero outside row k; a matrix D whose column p_k is row k of E
    then has D [z | x]^T = I, which is the duality dx z^T + dz x^T = I.
    """
    n = tab.n
    m = np.concatenate([tab.z, tab.x, np.eye(n, dtype=np.uint8)], axis=1) % 2
    pivots = _row_reduce(m, 2 * n)
    if len(pivots) != n:
        raise ValueError("generators are not independent")
    d = np.zeros((n, 2 * n), dtype=np.uint8)
    d[:, pivots] = m[:, 2 * n:].T
    tab.dx, tab.dz = d[:, :n], d[:, n:]


def graph_state(spec: GraphSpec) -> StabilizerTableau:
    """Generators X_v prod_{u ~ v} Z_u with + signs; destabilizers Z_v."""
    tab = StabilizerTableau(spec.n)
    np.fill_diagonal(tab.x, 1)
    if spec.edges:
        u, v = np.array(list(spec.edges)).T
        tab.z[u, v] = tab.z[v, u] = 1
    tab.dx = np.zeros_like(tab.x)
    tab.dz = np.eye(spec.n, dtype=np.uint8)
    return tab


# ---------------------------------------------------------------------------
# Clifford updates


def _check_qubit(n: int, qubit: int) -> None:
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range 0..{n - 1}")


def apply_hadamard(tab: StabilizerTableau, qubit: int) -> StabilizerTableau:
    _check_qubit(tab.n, qubit)
    tab = tab.copy()
    xq = tab.x[:, qubit].copy()
    zq = tab.z[:, qubit].copy()
    tab.sign ^= xq & zq
    tab.x[:, qubit] = zq
    tab.z[:, qubit] = xq
    if tab.dx is not None:
        tab.dx[:, qubit], tab.dz[:, qubit] = tab.dz[:, qubit].copy(), tab.dx[:, qubit].copy()
    return tab


def apply_pauli(tab: StabilizerTableau, qubit: int, pauli: str) -> StabilizerTableau:
    """Conjugate every generator by a single-qubit Pauli (sign flips only).

    Destabilizers carry no signs, so they are left alone.
    """
    _check_qubit(tab.n, qubit)
    tab = tab.copy()
    xq, zq = tab.x[:, qubit], tab.z[:, qubit]
    if pauli == "X":
        tab.sign ^= zq
    elif pauli == "Z":
        tab.sign ^= xq
    elif pauli == "Y":
        tab.sign ^= xq ^ zq
    else:
        raise ValueError(f"unknown Pauli {pauli!r}")
    return tab


def apply_corrections(tab: StabilizerTableau, corrections) -> StabilizerTableau:
    """Apply (qubit, op) pairs with op in X, Y, Z, H."""
    for qubit, op in corrections:
        if op == "H":
            tab = apply_hadamard(tab, qubit)
        else:
            tab = apply_pauli(tab, qubit, op)
    return tab


# ---------------------------------------------------------------------------
# measurements


def _string_to_bits(n: int, pauli: dict[int, str]):
    xt = np.zeros(n, dtype=np.uint8)
    zt = np.zeros(n, dtype=np.uint8)
    for q, ch in pauli.items():
        _check_qubit(n, q)
        if ch == "X":
            xt[q] = 1
        elif ch == "Z":
            zt[q] = 1
        elif ch == "Y":
            xt[q] = zt[q] = 1
        else:
            raise ValueError(f"unknown Pauli {ch!r}")
    return xt, zt


def measure_pauli_string(
    tab: StabilizerTableau,
    pauli: dict[int, str],
    forced: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Measure a (multi-qubit) Pauli observable; returns (outcome, tableau).

    Deterministic outcomes are computed by expressing the observable inside
    the generator group; random outcomes need ``forced`` or ``rng``.  A
    tableau without destabilizers gets them here, once, on the input.
    """
    xt, zt = _string_to_bits(tab.n, pauli)
    if tab.dx is None:
        _derive_destabilizers(tab)
    anti = ((tab.x @ zt) + (tab.z @ xt)) % 2
    hits = np.flatnonzero(anti)
    tab = tab.copy()
    if hits.size:
        p = int(hits[0])
        rest = hits[1:]
        xz = np.concatenate([tab.x, tab.z], axis=1)
        tab.sign[rest] ^= tab.sign[p] ^ _product_sign(xz[rest], xz[p], tab.n)
        tab.x[rest] ^= tab.x[p]
        tab.z[rest] ^= tab.z[p]
        # Aaronson-Gottesman: destabilizer p becomes the old generator p, and
        # every other destabilizer that anticommutes with the observable
        # takes a factor of it, which keeps the duality with the new rows.
        drows = np.flatnonzero(((tab.dx @ zt) + (tab.dz @ xt)) % 2)
        drows = drows[drows != p]
        tab.dx[p], tab.dz[p] = tab.x[p], tab.z[p]
        tab.dx[drows] ^= tab.x[p]
        tab.dz[drows] ^= tab.z[p]
        if forced is None:
            if rng is None:
                raise ValueError("random measurement outcome needs forced or rng")
            outcome = 1 if rng.integers(2) == 0 else -1
        else:
            outcome = int(forced)
            if outcome not in (1, -1):
                raise ValueError("forced outcome must be +1 or -1")
        tab.x[p] = xt
        tab.z[p] = zt
        tab.sign[p] = 0 if outcome == 1 else 1
        return outcome, tab
    outcome = _deterministic_sign(tab, xt, zt)
    if forced is not None and int(forced) != outcome:
        raise ValueError(
            f"outcome is deterministic ({outcome:+d}); cannot force {forced:+d}"
        )
    return outcome, tab


def _deterministic_sign(tab: StabilizerTableau, xt, zt) -> int:
    """Sign of a Pauli that commutes with every generator.

    Generator i is a factor exactly when the Pauli anticommutes with
    destabilizer i; the combination is unique because the generators are
    independent.
    """
    used = np.flatnonzero(((tab.dx @ zt) + (tab.dz @ xt)) % 2)
    rows = np.concatenate([tab.x[used], tab.z[used]], axis=1)
    if not np.array_equal(np.bitwise_xor.reduce(rows, axis=0), np.concatenate([xt, zt])):
        raise ValueError("measured Pauli neither commutes into nor hits the group")
    before = np.zeros_like(rows)  # product of the rows ahead of each row
    before[1:] = np.bitwise_xor.accumulate(rows, axis=0)[:-1]
    sign = int(tab.sign[used].sum()) + int(_product_sign(before, rows, tab.n).sum())
    return 1 - 2 * (sign % 2)


def measure_pauli(
    tab: StabilizerTableau,
    qubit: int,
    basis: str,
    forced: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Single-qubit X, Y or Z measurement; returns (outcome, tableau)."""
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    return measure_pauli_string(tab, {qubit: basis}, forced=forced, rng=rng)


# ---------------------------------------------------------------------------
# chain registry


@dataclass
class ChainRegistry:
    """Classical bookkeeping of chains and dangling bonds beside a tableau."""

    backbones: dict = field(default_factory=dict)  # chain id -> list of qubits
    danglers: dict = field(default_factory=dict)  # dangler qubit -> anchor qubit
    chain_of: dict = field(default_factory=dict)  # qubit -> chain id
    tees: list = field(default_factory=list)  # (junction qubit, branch chain id)
    _next_id: int = 0

    @classmethod
    def disjoint_chains(cls, lengths):
        """Registry plus graph spec for side-by-side fresh chains."""
        reg = cls()
        edges = []
        q = 0
        for length in lengths:
            qubits = list(range(q, q + length))
            reg.new_chain(qubits)
            edges.extend((a, a + 1) for a in qubits[:-1])
            q += length
        return reg, GraphSpec.from_edges(q, edges)

    def new_chain(self, qubits) -> int:
        cid = self._next_id
        self._next_id += 1
        self.backbones[cid] = list(qubits)
        for qb in qubits:
            self.chain_of[qb] = cid
        return cid

    def neighbours(self, qubit: int) -> list:
        """Neighbours of ``qubit`` in the registry's graph.

        A dangling bond's only neighbour is its anchor.  Any other qubit has
        the bonds anchored on it, then its tee links (junction or branch
        head), then its backbone neighbours, previous before next.
        """
        if qubit in self.danglers:
            return [self.danglers[qubit]]
        out = [d for d, anchor in self.danglers.items() if anchor == qubit]
        for junction, cid in self.tees:
            head = self.backbones[cid][0] if cid in self.backbones else None
            if qubit == junction and head is not None:
                out.append(head)
            elif qubit == head:
                out.append(junction)
        cid = self.chain_of.get(qubit)
        if cid is not None:
            backbone = self.backbones[cid]
            i = backbone.index(qubit)
            out += backbone[max(i - 1, 0):i] + backbone[i + 1:i + 2]
        return out

    def degree(self, qubit: int) -> int:
        return len(self.neighbours(qubit))

    def is_end(self, qubit: int) -> bool:
        return self.degree(qubit) <= 1

    def neighbour(self, qubit: int):
        """The first of ``neighbours(qubit)``, or None; unique at an end."""
        return next(iter(self.neighbours(qubit)), None)

    def _oriented(self, qubit: int):
        """Backbone of qubit's chain, reversed if needed so it ends at qubit."""
        cid = self.chain_of[qubit]
        backbone = self.backbones[cid]
        if backbone[-1] == qubit:
            return cid, list(backbone)
        if backbone[0] == qubit:
            return cid, list(reversed(backbone))
        raise ValueError(f"qubit {qubit} is not a chain end")

    def fuse_success(self, a: int, b: int) -> None:
        """Merge b's chain into a's; b becomes a dangling bond on a.

        A tee on b's chain moves to the merged chain, which is reversed so
        the qubit that now carries the junction link (a when b was the
        branch head, else the old head) stays first.
        """
        cid_a, spine_a = self._oriented(a)
        cid_b, spine_b = self._oriented(b)
        if cid_a == cid_b:
            raise ValueError("cannot fuse a chain with itself")
        rest = list(reversed(spine_b))[1:]  # b's chain from b's neighbour outward
        merged = spine_a + rest
        if any(cid == cid_b for _, cid in self.tees):
            self.tees = [(j, cid_a if cid == cid_b else cid) for j, cid in self.tees]
            merged.reverse()
        del self.backbones[cid_b]
        self.backbones[cid_a] = merged
        for qb in rest:
            self.chain_of[qb] = cid_a
        del self.chain_of[b]
        self.danglers[b] = a

    def fuse_tee(self, a: int, b: int, c: int) -> None:
        """Three-way join: b's chain merges through a, c's hangs off a.

        Both b and c become dangling bonds on a.  The remainder of c's chain
        stays registered as its own backbone; the junction is recorded in
        ``tees`` so a census can tell branches from free chains.  Two of
        a, b and c on one chain raise before anything changes.
        """
        cid_c, spine_c = self._oriented(c)
        if cid_c in (self.chain_of.get(a), self.chain_of.get(b)):
            raise ValueError("cannot fuse a chain with itself")
        self.fuse_success(a, b)
        rest_c = list(reversed(spine_c))[1:]
        del self.chain_of[c]
        self.danglers[c] = a
        if rest_c:
            self.backbones[cid_c] = rest_c
            self.tees.append((a, cid_c))
        else:
            del self.backbones[cid_c]

    def remove(self, qubit: int) -> None:
        """Drop a measured-out qubit; its dangling bonds become one-qubit chains.

        A tee goes with its junction or with the head of its branch.
        """
        self.tees = [
            (junction, cid)
            for junction, cid in self.tees
            if qubit not in (junction, self.backbones.get(cid, [None])[0])
        ]
        for d in [d for d, anchor in self.danglers.items() if anchor == qubit]:
            del self.danglers[d]
            self.new_chain([d])
        if qubit in self.danglers:
            del self.danglers[qubit]
            return
        cid = self.chain_of.pop(qubit)
        backbone = self.backbones[cid]
        backbone.remove(qubit)
        if not backbone:
            del self.backbones[cid]

    def census(self, qubit: int):
        """(backbone length, dangler count) of the chain containing qubit."""
        cid = self.chain_of.get(qubit)
        if cid is None:
            cid = self.chain_of[self.danglers[qubit]]
        backbone = self.backbones[cid]
        dangs = sum(1 for anchor in self.danglers.values() if anchor in backbone)
        return len(backbone), dangs


# ---------------------------------------------------------------------------
# fusion and recovery


def fuse(
    tab: StabilizerTableau,
    qubits,
    variant: str,
    outcome: str,
    registry: ChainRegistry,
):
    """Join chains at their end qubits with a parity or three-qubit projection.

    Returns (label, tableau, corrections); corrections already applied.  The
    Z's of the odd-parity and Bell frame fixes go on the neighbours that
    ``registry`` gives the flipped qubit before the fusion.  Failure outcomes
    project the involved qubits to known product states but remove nothing
    from the chains; recovery is a separate explicit step.
    """
    if variant == "parity-2":
        return _fuse_parity2(tab, qubits, outcome, registry)
    if variant == "gate-3":
        return _fuse_gate3(tab, qubits, outcome, registry)
    raise ValueError(f"unknown fuse variant {variant!r}")


def _warn_not_ends(qubits, registry) -> None:
    bad = [q for q in qubits if not registry.is_end(q)]
    if bad:
        warnings.warn(
            f"fusing non-end qubits {bad} (degree > 1); chain bookkeeping skipped",
            stacklevel=3,
        )


def _odd_frame_corrections(b: int, registry):
    """Corrections mapping the odd parity branch onto the even one.

    On a graph state, X_b equals Z on b's neighbourhood (Hein, Eisert and
    Briegel), so flipping the parity frame with X_b leaves residual Z's on
    b's neighbours.  They are read off the registry's graph.
    """
    return [(b, "X")] + [(q, "Z") for q in sorted(registry.neighbours(b))]


def _fuse_parity2(tab, qubits, outcome, registry):
    a, b = qubits
    if outcome not in PARITY2_OUTCOMES:
        raise ValueError(f"outcome {outcome!r} not in {PARITY2_OUTCOMES}")
    _warn_not_ends(qubits, registry)
    corrections = []
    if outcome in ("success-even", "success-odd"):
        if outcome == "success-odd":
            corrections = _odd_frame_corrections(b, registry)
        forced = 1 if outcome == "success-even" else -1
        _, tab = measure_pauli_string(tab, {a: "Z", b: "Z"}, forced=forced)
        for q, op in corrections:
            tab = apply_pauli(tab, q, op)
        tab = apply_hadamard(tab, b)
        if registry.is_end(a) and registry.is_end(b):
            registry.fuse_success(a, b)
        return outcome, tab, tuple(corrections)
    forced = 1 if outcome == "fail-00" else -1
    _, tab = measure_pauli_string(tab, {a: "Z"}, forced=forced)
    _, tab = measure_pauli_string(tab, {b: "Z"}, forced=forced)
    return outcome, tab, ()


def _fuse_gate3(tab, qubits, outcome, registry):
    a, b, c = qubits
    if outcome not in GATE3_OUTCOMES:
        raise ValueError(f"outcome {outcome!r} not in {GATE3_OUTCOMES}")
    _warn_not_ends(qubits, registry)
    corrections = []
    if outcome == "ghz":
        _, tab = measure_pauli_string(tab, {a: "Z", b: "Z"}, forced=1)
        _, tab = measure_pauli_string(tab, {b: "Z", c: "Z"}, forced=1)
        tab = apply_hadamard(tab, b)
        tab = apply_hadamard(tab, c)
        if all(registry.is_end(q) for q in qubits):
            registry.fuse_tee(a, b, c)
        return outcome, tab, ()
    if outcome.startswith("bell-q3"):
        third_bit = int(outcome[-1])
        corrections = _odd_frame_corrections(b, registry)
        neigh_c = sorted(registry.neighbours(c))
        _, tab = measure_pauli_string(tab, {a: "Z", b: "Z"}, forced=-1)
        for q, op in corrections:
            tab = apply_pauli(tab, q, op)
        _, tab = measure_pauli_string(tab, {c: "Z"}, forced=1 if third_bit == 0 else -1)
        if third_bit == 1:
            for q in neigh_c:
                tab = apply_pauli(tab, q, "Z")
                corrections.append((q, "Z"))
        tab = apply_hadamard(tab, b)
        if registry.is_end(a) and registry.is_end(b):
            registry.fuse_success(a, b)
            if registry.chain_of.get(c) is not None or c in registry.danglers:
                registry.remove(c)
        return outcome, tab, tuple(corrections)
    bits = outcome.split("-")[1]
    for q, ch in zip((a, b, c), bits):
        _, tab = measure_pauli_string(tab, {q: "Z"}, forced=1 if ch == "0" else -1)
    return outcome, tab, ()


def recover_failure(
    tab: StabilizerTableau,
    end_qubit: int,
    registry: ChainRegistry,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
):
    """Measure out a chain-end qubit and repair its neighbour.

    The qubit is Z measured; on outcome -1 a Z correction is applied to its
    neighbour in the registry's graph, after which the shortened chain is
    again a graph state.  The qubit leaves the active chain bookkeeping.
    """
    if not registry.is_end(end_qubit):
        raise ValueError(
            f"qubit {end_qubit} has degree > 1; interior recovery is unsupported"
        )
    neighbour = registry.neighbour(end_qubit)
    outcome, tab = measure_pauli(tab, end_qubit, "Z", forced=forced, rng=rng)
    if outcome == -1 and neighbour is not None:
        tab = apply_pauli(tab, neighbour, "Z")
    registry.remove(end_qubit)
    return outcome, tab


# ---------------------------------------------------------------------------
# group comparison


def canonical_form(tab: StabilizerTableau) -> tuple:
    """Row-reduced echelon form (with signs) of the generator group."""
    m = np.concatenate([tab.x, tab.z], axis=1)
    sign = tab.sign.copy()
    _row_reduce(m, 2 * tab.n, sign)
    return tuple(sorted((int(s),) + tuple(row.tolist()) for s, row in zip(sign, m)))


def equals_up_to_corrections(
    tab: StabilizerTableau, spec: GraphSpec, corrections=()
) -> bool:
    """Whether corrected generators generate exactly the graph-state group."""
    if tab.n != spec.n:
        raise ValueError("qubit counts differ")
    corrected = apply_corrections(tab, corrections)
    return canonical_form(corrected) == canonical_form(graph_state(spec))

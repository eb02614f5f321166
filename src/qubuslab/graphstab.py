"""Stabilizer engine for graph states: fusion, recovery and comparison.

A tableau holds n independent commuting Pauli generators with +-1 signs.
Each public operation copies its input once and updates that copy in place,
through the private kernels ``_hadamard``, ``_pauli`` and ``_measure``;
measurement randomness comes from a caller supplied generator or a forced
outcome, so growth simulations can keep one seeded stream per trial.

Beside its stabilizers a tableau keeps destabilizer rows, as Aaronson and
Gottesman do (quant-ph/0406196): destabilizer i anticommutes with generator
i and commutes with every other generator.  Both kinds sit in one [x|z] bit
matrix and a Pauli is one [x|z] bit vector, so one pass, XOR-ing the few
columns of an observable's support, finds every row that anticommutes with
it.  A random outcome multiplies those rows by one generator in one XOR; a
deterministic one reads its generator factors off its destabilizers, with
no elimination.  The remaining GF(2) linear algebra (the
independence check in ``equals_up_to_corrections``, ``canonical_form``,
and deriving the destabilizers of a hand-built tableau once) runs through
one Gauss-Jordan kernel, ``_row_reduce``; every row product takes its sign
from ``_product_sign``, the Aaronson-Gottesman row-sum phase, read per qubit
from one 16-entry table of their g.

Chain bookkeeping (which qubit sits where in which chain, dangling bonds)
lives in a :class:`ChainRegistry` beside the tableau; the quantum state never
knows about chain identities.  Each fusion outcome is one row of a table,
its Z-parity projections, Hadamards and registry step, and one routine runs
any row.  Fusion reads the neighbourhoods of its Pauli-frame fixes off the
registry's graph, and ``equals_up_to_corrections`` against that graph is
the check that registry and state agree.  That check
is a membership test in the graph-state group (Hein, Eisert and Briegel,
PRA 69, 062311), not a comparison of canonical forms.  The generator
K_v = X_v Z_N(v) is the only one with an X on v, so a row with X part
S = x_r can only be the product of K_v over v in S.  The row is that product
when its Z part is A x_r (A the adjacency matrix) and its sign bit is
e(S) + |x_r & z_r| / 2 mod 2, with e(S) the number of edges inside S.  Rows
that pass generate the whole group when x has rank n, the certificate that
one sign-less elimination of x gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphSpec",
    "StabilizerTableau",
    "ChainRegistry",
    "graph_state",
    "measure_pauli",
    "measure_pauli_string",
    "apply_corrections",
    "fuse",
    "recover_failure",
    "equals_up_to_corrections",
    "canonical_form",
    "parse_edge_list",
    "PARITY2_OUTCOMES",
    "GATE3_OUTCOMES",
]

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
    def star(cls, n: int) -> "GraphSpec":
        """Vertex 0 joined to every other vertex."""
        return cls.from_edges(n, [(0, v) for v in range(1, n)])


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

    One uint8 matrix ``m`` holds the tableau as Aaronson and Gottesman lay
    it out: columns [x | z], rows 0..n-1 the generators and rows n..2n-1
    the destabilizers.  ``sign`` is the generators' signs, 0 for +1 and 1
    for -1.  Destabilizers carry none, and satisfy ``dx @ z.T + dz @ x.T ==
    I`` mod 2.  ``x``, ``z``, ``dx`` and ``dz`` are views of ``m`` taken at
    each access, so writing to one writes to the tableau.

    ``graph_state`` builds all 2n rows.  A tableau built from ``x`` and
    ``z`` holds the generator rows alone (``dx`` and ``dz`` are ``None``)
    until its first measurement appends the derived destabilizers in a new
    ``m``.  The module's operations keep the rows in step: drop the
    destabilizers (``tab.m = tab.m[:tab.n]``) after editing ``x`` or ``z``.
    """

    __slots__ = ("n", "m", "sign")

    def __init__(self, n: int, x=None, z=None, sign=None):
        self.n = n
        self.m = np.zeros((n, 2 * n), dtype=np.uint8)
        self.sign = np.zeros(n, dtype=np.uint8)
        for name, value, target in (("x", x, self.x), ("z", z, self.z), ("sign", sign, self.sign)):
            if value is not None:
                bits = np.asarray(value)
                if bits.shape != target.shape or not np.isin(bits, (0, 1)).all():
                    raise ValueError(f"{name} must be a {target.shape} array of 0s and 1s")
                target[...] = bits

    x = property(lambda t: t.m[:t.n, :t.n])
    z = property(lambda t: t.m[:t.n, t.n:])
    dx = property(lambda t: t.m[t.n:, :t.n] if len(t.m) > t.n else None)
    dz = property(lambda t: t.m[t.n:, t.n:] if len(t.m) > t.n else None)

    def copy(self) -> "StabilizerTableau":
        """A copy sharing no array."""
        out = object.__new__(StabilizerTableau)
        out.n, out.m, out.sign = self.n, self.m.copy(), self.sign.copy()
        return out

    def generator_strings(self):
        """Generators as (sign, pauli-string) pairs, qubit 0 leftmost."""
        return [
            (1 - 2 * int(s), "".join("IXZY"[b] for b in (xr + 2 * zr).tolist()))
            for s, xr, zr in zip(self.sign, self.x, self.z)
        ]

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


def _g_table() -> np.ndarray:
    """Aaronson and Gottesman's g for one qubit of a row product, at each
    code 8 x1 + 4 z1 + 2 x2 + z2 of that qubit's bits in the two factors."""
    x1, z1, x2, z2 = np.arange(16) >> np.arange(3, -1, -1)[:, None] & 1
    # g is +1 on the cyclic pairs XY, YZ, ZX and -1 on YX, ZY, XZ; the bits
    # are 0/1, so ~ only needs its lowest bit
    plus = (x1 & z2 & (z1 ^ x2)) | (z1 & x2 & ~(x1 | z2))
    minus = (z1 & x2 & (x1 ^ z2)) | (x1 & z2 & ~(z1 | x2))
    return (plus - minus).astype(np.int8)


_G = _g_table()


def _product_sign(rows: np.ndarray, source: np.ndarray, n: int) -> np.ndarray:
    """Sign bit that the phase of each product rows[k] * source contributes.

    ``rows`` and ``source`` hold [x|z] bits (``source`` broadcasts).  The
    phase is the sum over qubits of Aaronson and Gottesman's g, in units of
    i, read from ``_G`` at each qubit's code; commuting factors give 0 or 2
    mod 4, that is sign bit 0 or 1.
    """
    code = (rows[..., :n] << 3) | (rows[..., n:] << 2) | ((source[..., :n] << 1) | source[..., n:])
    g = _G[code].sum(axis=-1, dtype=np.int64) % 4
    if (g % 2).any():
        raise AssertionError("row product produced an imaginary sign")
    return (g // 2).astype(np.uint8)


def _derive_destabilizers(tab: StabilizerTableau) -> None:
    """Append destabilizers to hand-built generators, with one elimination.

    Row-reducing [z | x | I] gives E [z | x] = R, with R's pivot column
    p_k zero outside row k; a matrix D whose column p_k is row k of E
    then has D [z | x]^T = I, which is the duality dx z^T + dz x^T = I.
    """
    n = tab.n
    e = np.concatenate([tab.z, tab.x, np.eye(n, dtype=np.uint8)], axis=1)
    pivots = _row_reduce(e, 2 * n)
    if len(pivots) != n:
        raise ValueError("generators are not independent")
    tab.m = np.concatenate([tab.m, np.zeros_like(tab.m)])
    tab.m[n:, pivots] = e[:, 2 * n:].T


def graph_state(spec: GraphSpec) -> StabilizerTableau:
    """Generators X_v prod_{u ~ v} Z_u with + signs; destabilizers Z_v."""
    tab = StabilizerTableau(spec.n)
    tab.m = np.eye(2 * spec.n, dtype=np.uint8)  # rows X_v, then rows Z_v
    if spec.edges:
        u, v = np.array(list(spec.edges)).T
        tab.z[u, v] = tab.z[v, u] = 1
    return tab


# ---------------------------------------------------------------------------
# Clifford updates


def _check_qubit(n: int, qubit: int) -> None:
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range 0..{n - 1}")


def _hadamard(tab: StabilizerTableau, qubit: int) -> None:
    n = tab.n
    x, z = tab.m[:, qubit], tab.m[:, n + qubit]
    tab.sign ^= x[:n] & z[:n]
    swap = x.copy()
    x[:] = z
    z[:] = swap


def _pauli(tab: StabilizerTableau, qubit: int, pauli: str) -> None:
    """Conjugate every generator by a single-qubit Pauli (sign flips only).

    Destabilizers carry no signs, so they are left alone.
    """
    if pauli not in ("X", "Y", "Z"):
        raise ValueError(f"unknown Pauli {pauli!r}")
    if pauli != "Z":  # X and Y flip the generators with a Z bit on the qubit
        tab.sign ^= tab.m[:tab.n, tab.n + qubit]
    if pauli != "X":  # Z and Y flip those with an X bit
        tab.sign ^= tab.m[:tab.n, qubit]


def _correct(tab: StabilizerTableau, corrections) -> None:
    """Apply (qubit, op) pairs with op in X, Y, Z, H to ``tab`` in place."""
    for qubit, op in corrections:
        _check_qubit(tab.n, qubit)
        if op == "H":
            _hadamard(tab, qubit)
        else:
            _pauli(tab, qubit, op)


def apply_corrections(tab: StabilizerTableau, corrections) -> StabilizerTableau:
    """Copy of ``tab`` with (qubit, op) pairs applied, op in X, Y, Z, H."""
    tab = tab.copy()
    _correct(tab, corrections)
    return tab


# ---------------------------------------------------------------------------
# measurements


def _string_to_bits(n: int, pauli: dict[int, str]) -> np.ndarray:
    """The [x|z] bit vector of a Pauli given as {qubit: "X" | "Y" | "Z"}."""
    bits = np.zeros(2 * n, dtype=np.uint8)
    for q, ch in pauli.items():
        _check_qubit(n, q)
        if ch not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli {ch!r}")
        bits[q], bits[n + q] = ch != "Z", ch != "X"
    return bits


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
    bits = _string_to_bits(tab.n, pauli)
    tab = _owned_copy(tab)
    return _measure(tab, bits, forced, rng), tab


def _owned_copy(tab: StabilizerTableau) -> StabilizerTableau:
    """Derive missing destabilizers on ``tab`` (once), then copy it."""
    if tab.dx is None:
        _derive_destabilizers(tab)
    return tab.copy()


def _measure(tab: StabilizerTableau, bits, forced=None, rng=None) -> int:
    """Measure the Pauli ``bits`` ([x|z]) on ``tab`` in place; returns the outcome.

    ``forced`` must be the integer +1 or -1, NumPy integers included; a bool,
    float or string is refused before any change.
    """
    if forced is not None and (
            isinstance(forced, bool) or not isinstance(forced, (int, np.integer))
            or forced not in (1, -1)):
        raise ValueError("forced outcome must be +1 or -1")
    n = tab.n
    hits = _anticommuting(tab.m, bits)  # ascending, so generator rows come first
    split = int(hits.searchsorted(n))  # the generator rows among them
    if not split:
        outcome = _deterministic_sign(tab, bits, hits - n)
        if forced is not None and forced != outcome:
            raise ValueError(f"outcome is deterministic ({outcome:+d}); cannot force {forced:+d}")
        return outcome
    if forced is None:
        if rng is None:
            raise ValueError("random measurement outcome needs forced or rng")
        outcome = 1 if rng.integers(2) == 0 else -1
    else:
        outcome = int(forced)
    p = int(hits[0])
    if split > 1:
        gens = hits[1:split]
        tab.sign[gens] ^= tab.sign[p] ^ _product_sign(tab.m[gens], tab.m[p], n)
    # Aaronson-Gottesman: every other row that anticommutes with the
    # observable takes a factor of generator p, which keeps the duality;
    # destabilizer p becomes generator p, and generator p the observable
    if len(hits) > 1:
        tab.m[hits[1:]] ^= tab.m[p]
    tab.m[n + p] = tab.m[p]
    tab.m[p] = bits
    tab.sign[p] = 0 if outcome == 1 else 1
    return outcome


def _anticommuting(m: np.ndarray, bits) -> np.ndarray:
    """Rows of ``m`` ([x|z] Paulis) that anticommute with the Pauli ``bits``.

    The symplectic product meets each X bit of the Pauli with the rows' Z
    column on that qubit and each Z bit with their X column, so it XORs
    those few columns instead of running a matrix product; a Pauli with one
    such column reads it alone.
    """
    n = len(bits) // 2
    cols = (bits.nonzero()[0] + n) % (2 * n)
    if len(cols) == 1:
        return m[:, cols[0]].nonzero()[0]
    return np.bitwise_xor.reduce(m[:, cols], axis=1).nonzero()[0]


def _deterministic_sign(tab: StabilizerTableau, bits, used) -> int:
    """Sign of the Pauli ``bits``, which commutes with every generator.

    Generator i is a factor exactly when the Pauli anticommutes with
    destabilizer i, that is when i is in ``used``; the combination is unique
    because the generators are independent.  One factor times the identity
    adds no phase, so only two or more factors take a product-sign pass.
    """
    rows = tab.m[used]
    if not np.array_equal(np.bitwise_xor.reduce(rows, axis=0), bits):
        raise ValueError("measured Pauli neither commutes into nor hits the group")
    sign = int(tab.sign[used].sum())
    if len(rows) > 1:
        before = np.zeros_like(rows)  # product of the rows ahead of each row
        before[1:] = np.bitwise_xor.accumulate(rows, axis=0)[:-1]
        sign += int(_product_sign(before, rows, tab.n).sum())
    return 1 - 2 * (sign % 2)


def measure_pauli(
    tab: StabilizerTableau,
    qubit: int,
    basis: str,
    forced: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Single-qubit X, Y or Z measurement; returns (outcome, tableau)."""
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

    def _move_links(self, old: int, new: int) -> None:
        """Re-anchor the dangling bonds and tee junctions of ``old`` on ``new``."""
        for d, anchor in self.danglers.items():
            if anchor == old:
                self.danglers[d] = new
        self.tees = [(new if j == old else j, cid) for j, cid in self.tees]

    def fuse_success(self, a: int, b: int) -> None:
        """Merge b's chain into a's; b becomes a dangling bond on a.

        b's neighbours become a's, so the bonds and tee junctions anchored
        on b move to a.  A tee on b's chain moves to the merged chain, which
        is reversed so the qubit that now carries the junction link (a when
        b was the branch head, else the old head) stays first.
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
        self._move_links(b, a)
        self.danglers[b] = a

    def _holds_links(self, qubits, step: str, nbrs: dict) -> bool:
        """Whether the registry can hold the links a success at ``qubits`` makes.

        ``nbrs`` maps each fused qubit to its neighbours.  The joined qubits
        (a and b, and c of a three-way join) must neither share a neighbour
        nor neighbour each other (a tee junction and its branch head): the
        fused qubit's neighbourhood is the symmetric difference of theirs, so
        a shared edge cancels, but the chain layout would keep it, and a
        junction fused to its own branch would link to itself.

        A branch links to its junction at its first qubit only.  Joining two
        branches links the merged chain at both ends unless it is one qubit
        long.  A branch that is c of a three-way join keeps its link at the
        far end and gains one at c's neighbour, so it must be two qubits
        long: a one-qubit branch c would hand its junction's link to a,
        which no chain of the layout can carry.
        """
        joined = qubits[:3 if step == "tee" else 2]
        cids = [self.chain_of[q] for q in joined]
        if len(set(cids)) < len(cids):
            return True  # the registry step refuses to fuse a chain with itself
        held = list(joined) + [v for q in joined for v in nbrs[q]]
        if len(set(held)) < len(held):
            return False
        branches = {cid for _, cid in self.tees}
        if set(cids[:2]) <= branches and sum(len(self.backbones[c]) for c in cids[:2]) > 2:
            return False
        if step != "tee" or cids[2] not in branches:
            return True
        return len(self.backbones[cids[2]]) == 2

    def fuse_tee(self, a: int, b: int, c: int) -> None:
        """Three-way join: b's chain merges through a, c's hangs off a.

        Both b and c become dangling bonds on a, and what was anchored on
        them moves to a.  The remainder of c's chain stays registered as its
        own backbone; the junction is recorded in ``tees`` so a census can
        tell branches from free chains.  Two of a, b and c on one chain
        raise before anything changes.
        """
        cid_c, spine_c = self._oriented(c)
        if cid_c in (self.chain_of.get(a), self.chain_of.get(b)):
            raise ValueError("cannot fuse a chain with itself")
        self.fuse_success(a, b)
        rest_c = list(reversed(spine_c))[1:]
        del self.chain_of[c]
        self._move_links(c, a)
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


# variant -> (qubit count, outcome -> row).  A row holds the Z-parity
# projections as (qubit positions, forced sign), the positions that take a
# Hadamard, and the registry step: "join" (the pair fuses, a third qubit is
# measured out), "tee" (a three-way join) or None (a failure, which leaves
# the chains as they are).
_FUSIONS = {
    "parity-2": (2, {
        "success-even": ((((0, 1), 1),), (1,), "join"),
        "success-odd": ((((0, 1), -1),), (1,), "join"),
        "fail-00": ((((0,), 1), ((1,), 1)), (), None),
        "fail-11": ((((0,), -1), ((1,), -1)), (), None),
    }),
    "gate-3": (3, {
        "ghz": ((((0, 1), 1), ((1, 2), 1)), (1, 2), "tee"),
        "bell-q3-0": ((((0, 1), -1), ((2,), 1)), (1,), "join"),
        "bell-q3-1": ((((0, 1), -1), ((2,), -1)), (1,), "join"),
        "product-001": ((((0,), 1), ((1,), 1), ((2,), -1)), (), None),
        "product-110": ((((0,), -1), ((1,), -1), ((2,), 1)), (), None),
    }),
}
PARITY2_OUTCOMES = tuple(_FUSIONS["parity-2"][1])
GATE3_OUTCOMES = tuple(_FUSIONS["gate-3"][1])


def fuse(
    tab: StabilizerTableau,
    qubits,
    variant: str,
    outcome: str,
    registry: ChainRegistry,
):
    """Join chains at their end qubits with a parity or three-qubit projection.

    Returns (label, tableau, corrections); corrections already applied.  The
    outcome's row of ``_FUSIONS`` runs in order: each Z-parity projection is
    measured with its forced sign, then the Hadamards, then the registry
    step.  On a success a -1 projection is fixed at once: X on the pair's
    last qubit (on a graph state X_b equals Z on b's neighbourhood, Hein,
    Eisert and Briegel), and Z on the neighbour that ``registry`` gives
    that qubit before the fusion.  Failure outcomes project the involved
    qubits to known product states but remove nothing from the chains;
    recovery is a separate explicit step.  These raise before anything
    changes: a wrong qubit count (2 for parity-2, 3 for gate-3), a qubit
    that is a dangling bond, measured out or not a chain end (degree > 1),
    and a success whose links the registry cannot hold (see
    ``ChainRegistry._holds_links``): joined qubits that are neighbours or
    share one, or tee links outside the (junction, chain id) layout.
    """
    for q in qubits:
        if q not in registry.chain_of:
            where = "a dangling bond" if q in registry.danglers else "on no chain"
            raise ValueError(f"qubit {q} is {where}; fusion joins chain qubits")
    if variant not in _FUSIONS:
        raise ValueError(f"unknown fuse variant {variant!r}")
    width, rows = _FUSIONS[variant]
    if len(qubits) != width:
        raise ValueError(f"{variant} fuses {width} qubits, got {len(qubits)}")
    if outcome not in rows:
        raise ValueError(f"outcome {outcome!r} not in {tuple(rows)}")
    projections, hadamards, step = rows[outcome]
    nbrs = {q: registry.neighbours(q) for q in qubits}  # before the fusion
    bad = [q for q in qubits if len(nbrs[q]) > 1]
    if bad:
        raise ValueError(f"qubits {bad} have degree > 1; fusion joins chain ends")
    if step is not None and not registry._holds_links(qubits, step, nbrs):
        raise ValueError(
            f"fusing {tuple(qubits)} makes links that the registry's (junction, "
            "chain id) layout cannot hold, or joins qubits that are neighbours "
            "or share a neighbour"
        )
    tab = _owned_copy(tab)
    corrections = []
    for positions, sign in projections:
        _measure(tab, _string_to_bits(tab.n, {qubits[p]: "Z" for p in positions}), forced=sign)
        if step is not None and sign == -1:
            last = qubits[positions[-1]]
            fixes = [(last, "X")] if len(positions) == 2 else []
            fixes += [(q, "Z") for q in nbrs[last]]
            _correct(tab, fixes)
            corrections += fixes
    for p in hadamards:
        _hadamard(tab, qubits[p])
    if step is not None:
        if step == "tee":
            registry.fuse_tee(*qubits)
        else:
            registry.fuse_success(qubits[0], qubits[1])
            for q in qubits[2:]:
                registry.remove(q)
    return outcome, tab, tuple(corrections)


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
    again a graph state.  The qubit leaves the active chain bookkeeping.  A
    qubit the registry no longer holds, or one of degree > 1, raises before
    anything changes.
    """
    if end_qubit not in registry.chain_of and end_qubit not in registry.danglers:
        raise ValueError(f"qubit {end_qubit} is on no chain; nothing to recover")
    neighbours = registry.neighbours(end_qubit)
    if len(neighbours) > 1:
        raise ValueError(
            f"qubit {end_qubit} has degree > 1; interior recovery is unsupported"
        )
    outcome, tab = measure_pauli(tab, end_qubit, "Z", forced=forced, rng=rng)
    if outcome == -1 and neighbours:
        _correct(tab, [(neighbours[0], "Z")])
    registry.remove(end_qubit)
    return outcome, tab


# ---------------------------------------------------------------------------
# group comparison


def canonical_form(tab: StabilizerTableau) -> tuple:
    """Row-reduced echelon form (with signs) of the generator group."""
    m = tab.m[:tab.n].copy()
    sign = tab.sign.copy()
    _row_reduce(m, 2 * tab.n, sign)
    return tuple(sorted((int(s),) + tuple(row.tolist()) for s, row in zip(sign, m)))


def equals_up_to_corrections(
    tab: StabilizerTableau, spec: GraphSpec, corrections=()
) -> bool:
    """Whether corrected generators generate exactly the graph-state group.

    A membership test, with no canonical form.  The graph generator
    K_v = X_v Z_N(v) is the only one with an X bit on v, so a group element
    is fixed by its X part: corrected row r, whose X bits mark the vertex set
    S = x_r, can only be the product of K_v over v in S.  Row r is that
    product when

    - its Z part is A x_r mod 2, A the adjacency matrix (column u of the
      Z parts is the XOR of the X columns of u's neighbours), and
    - its sign bit is e(S) + |x_r & z_r| / 2 mod 2, with e(S) the number of
      edges inside S: moving each X_v left past the Z's of the factors
      before it gives one -1 per edge inside S, and writing each XZ on one
      qubit as -iY gives (-i)^|x_r & z_r|.

    Rows that pass are in the group; they generate all of it when they are
    independent.  Their Pauli parts are independent exactly when their X
    parts are, so the certificate is rank n of x, from one sign-less
    elimination.
    """
    if tab.n != spec.n:
        raise ValueError("qubit counts differ")
    corrected = apply_corrections(tab, corrections)
    x, z = corrected.x, corrected.z
    cols = np.ascontiguousarray(x.T)  # cols[v]: which rows hold X on v
    want_z = np.zeros_like(cols)
    inside = 0  # per row, parity of the edges inside its X support
    for u, v in spec.edges:
        want_z[u] ^= cols[v]
        want_z[v] ^= cols[u]
        inside ^= cols[u] & cols[v]
    if not np.array_equal(want_z, z.T):
        return False
    half_y = (x & z).sum(axis=1) // 2 % 2
    if not np.array_equal(corrected.sign, inside ^ half_y):
        return False
    return len(_row_reduce(x, tab.n)) == tab.n

"""Measurement-free entangling via geometric phases in phase space.

Conditional displacements that trace a closed loop return the bus to its
starting amplitude exactly while each branch keeps a phase proportional to
the enclosed area.  Choosing the area pi/8 makes the loop a controlled-Z up
to local corrections, with no measurement needed; ordering the
displacements along a line builds a whole linear cluster state with two
interactions per qubit.  Every builder here returns a program, its
(qubit, beta) displacement steps, and its corrections, and each program runs
the same way: attach a bus, run the sequence, extract the qubits, apply the
corrections.  A conditional displacement can itself be built from bus
rotations and unconditional displacements.
"""

import math

import numpy as np

from qubuslab import busim, gates
from qubuslab.oracles import graph_state_vector

BETA = math.sqrt(math.pi / 8.0)

print("1. Four-displacement loop = controlled-Z")
seq, corrections = gates.geometric_cz(1j * BETA, BETA)
start = busim.QubitState.plus(2)
out = gates.run_sequence(busim.attach_bus(start, 0.0), seq)
cz = busim.QubitState(2, start.amplitudes * np.array([1, 1, 1, -1]))
fid = busim.fidelity(gates.apply_corrections(busim.extract_qubits(out), corrections), cz)
print(f"   bus spread after the loop : {busim.bus_spread(out)!r} (exactly closed)")
print(f"   corrected CZ fidelity     : {fid:.15f}")
print(f"   corrections               : "
      + ", ".join(f"Z({c.angle:.3f}) on q{c.qubit}" for c in corrections))

print("\n2. A conditional displacement built from rotations")
print("   D(a cos t) R(t Z) D(-2a) R(-t Z) D(a cos t) = D(2i a sin(t) Z)")
start = busim.attach_bus(busim.QubitState.plus(1), 0.2 - 0.4j)
via = gates.conditional_displacement_by_rotations(start, 0, 0.8, 0.3)
direct = busim.run_displacement_program(start, [(0, 2j * 0.8 * math.sin(0.3))])
gap = max(np.max(np.abs(via.bus - direct.bus)), np.max(np.abs(via.coeff - direct.coeff)))
print(f"   largest gap at a = 0.8, t = 0.3: {gap:.1e} (no residual phase)")

print("\n3. Star and linear cluster states without any measurement")
for name, maker, edges in (
    ("star", gates.star_sequence, lambda n: [(0, k) for k in range(1, n)]),
    ("chain", gates.chain_sequence, lambda n: [(k, k + 1) for k in range(n - 1)]),
):
    for n in (3, 5):
        seq, corrections = maker(n, BETA)
        out = gates.run_sequence(busim.attach_bus(busim.QubitState.plus(n), 0.7), seq)
        state = gates.apply_corrections(busim.extract_qubits(out), corrections)
        target = graph_state_vector(n, edges(n))
        fid = abs(np.vdot(target, state.amplitudes)) ** 2
        print(f"   {name:<5} n={n}: interactions {len(seq.steps):>2}, "
              f"bus spread {busim.bus_spread(out)!r}, graph fidelity {fid:.12f}")

print("\n4. The bus forgets finished qubits as the chain sequence runs")
n = 5
seq, _ = gates.chain_sequence(n, BETA)
state = busim.attach_bus(busim.QubitState.plus(n), 0.0)
seen = {}
for qubit, beta in seq.steps:
    state = busim.run_displacement_program(state, [(qubit, beta)])
    seen[qubit] = seen.get(qubit, 0) + 1
    distinct = len({complex(round(b.real, 9) + 1j * round(b.imag, 9))
                    for b in state.bus})
    tag = f"q{qubit} kick {seen[qubit]}"
    print(f"   after {tag:<12} distinct bus values: {distinct}")
print("   (never more than 4 = two open qubits' sign patterns)")

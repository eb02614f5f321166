"""Fusing chains in the stabilizer picture: bonds, tees and recovery.

A successful parity projection merges two chains into one of length
L1 + L2 - 1 with the spare qubit left as a dangling bond for later vertical
links; a failed attempt projects the two end qubits to known product states
and each chain recovers by measuring out its end.
"""

import numpy as np

from qubuslab import graphstab as gs

rng = np.random.default_rng(2)

print("1. Two 3-chains, successful fusion at their facing ends")
reg, spec = gs.ChainRegistry.disjoint_chains([3, 3])
tab = gs.graph_state(spec)
label, tab, corr = gs.fuse(tab, (2, 3), "parity-2", "success-even", reg)
backbone, danglers = reg.census(2)
print(f"   outcome {label}: backbone length {backbone}, danglers {danglers}")
print(f"   registry backbone: {reg.backbones}")
predicted = gs.GraphSpec.from_edges(6, [(0, 1), (1, 2), (2, 4), (4, 5), (2, 3)])
print(f"   tableau equals predicted dangling-bond graph: "
      f"{gs.equals_up_to_corrections(tab, predicted)}")

print("\n2. The odd parity branch needs an extra frame flip")
reg2, spec2 = gs.ChainRegistry.disjoint_chains([3, 3])
label, tab2, corr = gs.fuse(gs.graph_state(spec2), (2, 3), "parity-2",
                            "success-odd", reg2)
print(f"   reported corrections: {list(corr)}")
print(f"   corrected odd branch equals the predicted graph: "
      f"{gs.equals_up_to_corrections(tab2, predicted)}")

print("\n3. A failed attempt shrinks both chains by one after recovery")
reg3, spec3 = gs.ChainRegistry.disjoint_chains([4, 4])
tab3 = gs.graph_state(spec3)
label, tab3, _ = gs.fuse(tab3, (3, 4), "parity-2", "fail-00", reg3)
print(f"   outcome {label}: chains still {sorted(len(b) for b in reg3.backbones.values())}")
for end in (3, 4):
    _, tab3 = gs.recover_failure(tab3, end, reg3, rng=rng)
print(f"   after recovery: {sorted(len(b) for b in reg3.backbones.values())}")

print("\n4. The three-qubit gate joins three chains into a tee")
regT, specT = gs.ChainRegistry.disjoint_chains([3, 3, 3])
label, tabT, _ = gs.fuse(gs.graph_state(specT), (2, 3, 6), "gate-3", "ghz", regT)
backbone, danglers = regT.census(2)
print(f"   outcome {label}: main backbone {backbone}, danglers {danglers}, "
      f"branches {len(regT.tees)}")

print("\n5. GHZ groups are star graphs up to Hadamards on the leaves")
ghz = gs.StabilizerTableau(
    3,
    x=[[1, 1, 1], [0, 0, 0], [0, 0, 0]],
    z=[[0, 0, 0], [1, 1, 0], [0, 1, 1]],
)
print(f"   equals star(3) with H on leaves: "
      f"{gs.equals_up_to_corrections(ghz, gs.GraphSpec.star(3), [(1, 'H'), (2, 'H')])}")

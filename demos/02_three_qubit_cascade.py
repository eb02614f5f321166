"""The three-qubit gate and its cascade generalization.

Having one qubit interact twice as strongly (and in reverse) folds the bus
trajectories so that a single momentum measurement heralds a GHZ state, a
Bell pair, or a known product.  Adding more qubits with doubled angles
pushes the pair-entangling success to 1 - 2**(1-n), at the price of a gate
time that doubles with every extra qubit.
"""

from qubuslab import gates

print("Three-qubit outcome table (alpha = 1000, theta = 0.003):")
table = gates.three_qubit_outcomes(1000.0, 0.003)
for out in table:
    print(f"  {out.label:<12} p = {str(out.exact_probability):>5}"
          f"  ({out.probability:.3f})")

success = gates.cascade_pair_success(table)
print(f"\npair-entangling success: {success} "
      f"(GHZ counts: measuring the third qubit leaves a Bell pair)")

print("\nCascade scaling:")
print(f"  {'n':>2} {'success':>9} {'gate time':>10}")
for n in range(2, 9):
    p = gates.cascade_pair_success(gates.cascade_outcomes(n, 1000.0, 0.003))
    t = gates.cascade_gate_time(n)
    print(f"  {n:>2} {str(p):>9} {t:>10}")
print("\nThe success probability climbs as 1 - 2**(1-n) while the")
print("interaction time doubles per qubit: the three-qubit point is the")
print("sweet spot used by the growth strategies (p = 3/4).")

print("\nFour-qubit outcome table:")
for out in gates.cascade_outcomes(4, 1000.0, 0.001):
    print(f"  {out.label:<14} p = {str(out.exact_probability):>6}")

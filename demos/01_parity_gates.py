"""Tour of the two-qubit parity gates.

A coherent bus interacts once with each of two qubits, rotating by an angle
whose sign follows the qubit's Z value, and is then measured.  Depending on
the measurement the projection heralds the odd Bell state, an even Bell
state, or a known product state.  This script walks through the three
measurement options and their error budgets.
"""

import math

import numpy as np

from qubuslab import busim, gates

ALPHA = 1000.0

# the rotation angle comes from the dispersive coupling chi = g^2/detuning
# applied for the interaction time
params = busim.PhysicalParams.from_coupling(g=2.0e8, delta=4.0e12, t_int=3.0e-7)
THETA = params.theta


def show(title):
    print()
    print(title)
    print("-" * len(title))


print(f"coupling g = {params.g:.2e} rad/s, detuning {params.delta:.2e} rad/s")
print(f"dispersive rate chi = {params.chi:.2e} rad/s, pulse {params.t_int:.1e} s")
print(f"per-interaction rotation theta = {THETA}")

show("1. Joint state after the two conditional rotations")
state = busim.init_plus_state(2, ALPHA)
state = busim.apply_conditional_rotation(state, 0, THETA)
state = busim.apply_conditional_rotation(state, 1, THETA)
for bits, coeff, bus in zip(state.bits.tolist(), state.coeff.tolist(), state.bus.tolist()):
    print(f"  |{bits:02b}>  coeff {coeff:.3f}  bus angle {np.angle(bus):+.4f} rad")
print(f"  bus spread: {busim.bus_spread(state):.4f} (entangled with the register)")

show("2. Momentum-quadrature measurement: three peaks")
model = busim.homodyne_pdf(state, math.pi / 2)
for peak in model.peaks:
    members = ", ".join(f"{m:02b}" for m in sorted(peak.members))
    print(f"  center {peak.center:+9.3f}  weight {peak.weight:.3f}  members {members}")

show("3. Outcome table (probabilities are exact branch counts)")
for out in gates.momentum_parity_outcomes(ALPHA, THETA):
    print(f"  {out.label:<12} p = {out.probability:.4f}  "
          f"window p = {out.window_probability:.6f}")

show("4. Position quadrature: a near-deterministic entangler")
for out in gates.position_parity_outcomes(ALPHA, THETA):
    print(f"  {out.label:<12} p = {out.probability:.4f}")
print("  (both outcomes herald Bell states; the price is a much larger")
print("   separation requirement, see the budget below)")

show("5. Bucket detection after displacing the bus back")
vac, click = gates.bucket_parity_outcomes(ALPHA, THETA)
print(f"  vacuum  -> {vac.label}, p = {vac.probability:.6f}")
print(f"  click   -> heralded failure, p = {click.probability:.6f}")
resolved = gates.bucket_parity_outcomes(2.0, 0.4, number_resolving=True, n_max=4)
print("  with photon-number resolution (alpha=2, theta=0.4):")
for out in resolved[1:]:
    print(f"    {out.label:<12} p = {out.probability:.4f}")

show("6. Error budget at the working point")
budget = gates.error_budget(ALPHA, THETA)
print(f"  momentum misassignment : {budget.p_err_momentum:.3e}")
print(f"  position misassignment : {budget.p_err_position:.3e}")
print(f"  false vacuum           : {budget.p_err_vacuum:.3e}")
print(f"  separation parameter   : {budget.separation_parameter:.3f}"
      f"  (regime ok: {budget.momentum_regime_ok})")

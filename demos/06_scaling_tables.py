"""Closed-form resource comparison across strategies, plus the SVG figures.

Every series comes from a row of ``analytics.SERIES``, the table that
``qubuslab scaling`` prints.  Reproduces the operation-count and time
comparisons: the full pairwise doubling strategy beats the minimal-chain
merge law (the quoted law at p = 3/4) up to lengths around 250 qubits, while
sequential adding wins on operations outright but pays linear time.  Then
prints each row's first length with a value (the reference fits start above
their roots), and the quoted-constants table with its flagged entries.  The
figure is written to ``scaling_comparison.svg`` in the working directory.
"""

from pathlib import Path

from qubuslab import analytics, svgplot

P = 0.75
dc, merge, seq = (analytics.SERIES[name] for name in ("dc", "merge", "seq"))

print(f"Operation counts at p = {P}:")
print(f"  {'L':>5} {'doubling':>12} {'merge':>10} {'sequential':>11}")
for L in (5, 17, 65, 129, 257, 385):
    print(f"  {L:>5} {dc.N(L, P):>12.1f} {merge.N(L, P):>10.1f} {seq.N(L, P):>11.1f}")

cross = analytics.merge_crossover(P)
print(f"\ndoubling/merge crossover: L = {cross:.1f}")

print("\nTime (units of one attempt):")
print(f"  {'L':>5} {'doubling':>9} {'merge':>8} {'sequential':>11}")
for L in (9, 65, 257):
    print(f"  {L:>5} {dc.T(L, P, 1.0):>9.2f} {merge.T(L, P, 1.0):>8.2f} "
          f"{seq.T(L, P, 1.0):>11.2f}")

print(f"\nEvery series at p = {P} (the reference fits give operations only):")
print(f"  {'series':<22} {'start':>5} {'N(100)':>9} {'T(100)':>7}")
for name, row in analytics.SERIES.items():
    time = "-" if row.T is None else f"{row.T(100, P, 1.0):.2f}"
    print(f"  {name:<22} {row.start(P):>5} {row.N(100, P):>9.1f} {time:>7}")

print("\nQuoted constants:")
marks = {"reproduced": "  ok", "flagged": "FLAG", None: "  --"}  # None: stored only
for const in analytics.QUOTED_CONSTANTS.values():
    status = const.status
    print(f"  [{marks[status]}] {const.name} = {const.value}")
    if status == "flagged":
        print(f"         {const.note}")

out = Path("scaling_comparison.svg")  # in the working directory
series = {
    label: [(L, row.N(L, P)) for L in range(5, 401)]
    for label, row in (("doubling", dc), ("merge", merge), ("sequential", seq))
}
out.write_text(svgplot.line_plot(
    series, xlabel="chain length L", ylabel="entangling operations",
    title=f"strategy comparison at p = {P}", log_y=True,
))
print(f"\nwrote {out}")

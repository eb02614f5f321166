"""Closed-form resource comparison across strategies, plus the SVG figures.

Reproduces the operation-count and time comparisons: the full pairwise
doubling strategy beats the minimal-chain merge law up to lengths around
250 qubits, while sequential adding wins on operations outright but pays
linear time.  Also prints the quoted-constants table with its two flagged
entries.  The figure is written to ``scaling_comparison.svg`` in the
working directory.
"""

from pathlib import Path

from qubuslab import analytics, svgplot

P = 0.75

print(f"Operation counts at p = {P} (merge law 8L - 44/3):")
print(f"  {'L':>5} {'doubling':>12} {'merge':>10} {'sequential':>11}")
merge = analytics.reference_series("paper-8L-44/3")
for L in (5, 17, 65, 129, 257, 385):
    dc = analytics.dc_series_value(L, P)
    seq, _ = analytics.seq_scaling(L, P)
    print(f"  {L:>5} {dc:>12.1f} {merge.value(L):>10.1f} {seq:>11.1f}")

cross = analytics.merge_crossover(P)
print(f"\ndoubling/merge crossover: L = {cross:.1f}")

print("\nTime (units of one attempt):")
print(f"  {'L':>5} {'doubling':>9} {'merge':>8} {'sequential':>11}")
for L in (9, 65, 257):
    t_dc = analytics.dc_scaling(P, 1, L=L)["T_dc"]
    t_merge = analytics.merge_scaling(L, P).t_sum_ceil
    _, t_seq = analytics.seq_scaling(L, P)
    print(f"  {L:>5} {t_dc:>9.2f} {t_merge:>8.2f} {t_seq:>11.2f}")

print("\nComparison series (operations per chain of length L):")
for name in ("rus-pf-0.6", "rus-pf-0.4", "linear-optics-p-half", "paper-8L-44/3"):
    s = analytics.reference_series(name)
    print(f"  {name:<22} {s.slope:>7.1f} L {s.intercept:+9.1f}   ({s.note})")

print("\nQuoted constants:")
for const in analytics.QUOTED_CONSTANTS.values():
    mark = "FLAG" if const.status == "flagged" else "  ok"
    print(f"  [{mark}] {const.name} = {const.value}")
    if const.status == "flagged":
        print(f"         {const.note}")

out = Path("scaling_comparison.svg")  # in the working directory
series = {}
for L in range(5, 401):
    series.setdefault("doubling", []).append((L, analytics.dc_series_value(L, P)))
    series.setdefault("merge", []).append((L, merge.value(L)))
    series.setdefault("sequential", []).append((L, analytics.seq_scaling(L, P)[0]))
out.write_text(svgplot.line_plot(
    series, xlabel="chain length L", ylabel="entangling operations",
    title=f"strategy comparison at p = {P}", log_y=True,
))
print(f"\nwrote {out}")

"""Span tracing around the layer boundaries of qubuslab, from outside the package.

``Tracer.installed()`` replaces the public functions that the per-layer
metrics name (and the ``HybridState`` constructor) with wrappers that record
one span per call: name, start, end, parent span and workload.  Spans stay in
memory; self time is each span's duration minus the time its child spans
cover, accumulated per span name as the spans close.  The original attributes
are restored when the context exits, so untraced runs execute unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

from qubuslab import analytics, busim, cli, gates, graphstab, growth

# (module, attribute) -> span name.  Only the functions that per-layer
# metrics name are wrapped.  Callers in other layers reach them through the
# module attribute, so patching the attribute catches those calls as well.
WRAPPED = {
    (growth, "trial_rng"): "growth.trial_rng",
    (growth, "simulate"): "growth.simulate",
    (gates, "three_qubit_outcomes"): "gates.three_qubit_outcomes",
    (gates, "cascade_outcomes"): "gates.cascade_outcomes",
    (gates, "momentum_parity_outcomes"): "gates.parity_outcomes",
    (gates, "position_parity_outcomes"): "gates.parity_outcomes",
    (gates, "bucket_parity_outcomes"): "gates.parity_outcomes",
    (gates, "solve_local_z_corrections"): "gates.solve_local_z_corrections",
    (gates, "run_sequence"): "gates.run_sequence",
    (busim, "homodyne_pdf"): "busim.homodyne_pdf",
    (busim, "homodyne_project"): "busim.homodyne_project",
    (busim, "run_displacement_program"): "busim.run_displacement_program",
    (busim, "measure_bucket"): "busim.measure_bucket",
    (busim, "extract_qubits"): "busim.extract_qubits",
    (graphstab, "fuse"): "graphstab.fuse",
    (graphstab, "measure_pauli_string"): "graphstab.measure_pauli_string",
    (graphstab, "recover_failure"): "graphstab.recover_failure",
    (graphstab, "canonical_form"): "graphstab.canonical_form",
    (cli, "render_growth_jsonl"): "cli.render_jsonl",
    (cli, "render_growth_csv"): "cli.render_csv",
}
# every public analytics function is one "analytics" span
WRAPPED.update(
    {
        (analytics, name): "analytics"
        for name, obj in vars(analytics).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == analytics.__name__
    }
)

HOMODYNE_TABLES = ("cascade_outcomes", "momentum_parity_outcomes",
                   "position_parity_outcomes")
TABLE_BUILDERS = HOMODYNE_TABLES + ("bucket_parity_outcomes",)
FUSE_FAILURES = ("fail-00", "fail-11") + tuple(
    o for o in graphstab.GATE3_OUTCOMES if o.startswith("product")
)
SIMULATE_VARIANTS = ("sequential", "vertical_link", "divide_conquer", "merge", "gate3")


def _simulate_span(config) -> str:
    variant = "gate3" if config.gate_backend else config.variant
    return f"growth.simulate.{variant}"


class Tracer:
    """In-memory span recorder with per-name self time and call counts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._table_inputs: set = set()
        self._stack: list[list] = []  # [span index, child seconds]

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent))
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        index, child_s = self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        duration = end - start
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, func, span_name: str, attr: str):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = span_name
            if attr == "simulate":
                name = _simulate_span(args[0] if args else kwargs["config"])
            elif attr in TABLE_BUILDERS:
                tracer.counters["gates.table_builds"] += 1
                tracer.counters["gates.homodyne_tables"] += attr in HOMODYNE_TABLES
                tracer._table_inputs.add((attr, repr(args), repr(sorted(kwargs.items()))))
            tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
            if attr == "fuse" and result[0] in FUSE_FAILURES:
                tracer.counters["graphstab.fuse.failed_outcomes"] += 1
            elif attr == "render_growth_jsonl":
                tracer.counters["cli.jsonl_bytes"] += len(result.encode())
                tracer.counters["cli.jsonl_records"] += result.count("\n")
            return result

        return wrapper

    def _wrap_constructor(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(state, qubit_count, bits, *rest, **kwargs):
            tracer.counters["busim.branch_merge.branches_in"] += len(bits)
            tracer._enter("busim.branch_merge")
            try:
                init(state, qubit_count, bits, *rest, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped attribute for the duration of the block."""
        saved = []
        try:
            for (module, attr), span_name in WRAPPED.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name, attr))
            init = busim.HybridState.__dict__["__init__"]
            saved.append((busim.HybridState, "__init__", init))
            busim.HybridState.__init__ = self._wrap_constructor(init)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def end_round(self) -> None:
        """Close a round: table inputs count as distinct within one round."""
        self.counters["gates.table_distinct_inputs"] += len(self._table_inputs)
        self._table_inputs.clear()

    # -- output -----------------------------------------------------------

    def metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics, each a per-round figure over ``rounds`` rounds."""
        calls = {k: v / rounds for k, v in self.calls.items()}
        self_s = {k: v / rounds for k, v in self.self_s.items()}
        count = {k: v / rounds for k, v in self.counters.items()}

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "growth.trial_rng.calls": calls.get("growth.trial_rng", 0.0),
            "growth.trial_rng.self_s": self_s.get("growth.trial_rng", 0.0),
        }
        for variant in SIMULATE_VARIANTS:
            out[f"growth.simulate.{variant}.self_s"] = self_s.get(
                f"growth.simulate.{variant}", 0.0)
        builds = count.get("gates.table_builds", 0.0)
        distinct = count.get("gates.table_distinct_inputs", 0.0)
        out.update({
            "gates.three_qubit_outcomes.calls": calls.get("gates.three_qubit_outcomes", 0.0),
            "gates.table_builds": builds,
            "gates.table_distinct_inputs": distinct,
            "gates.table_builds_per_distinct_input": ratio(builds, distinct),
            "busim.homodyne_pdf.calls_per_table": ratio(
                calls.get("busim.homodyne_pdf", 0.0), count.get("gates.homodyne_tables", 0.0)),
            "busim.branch_merge.branches_in": count.get("busim.branch_merge.branches_in", 0.0),
            "graphstab.fuse.failed_outcomes": count.get("graphstab.fuse.failed_outcomes", 0.0),
            "cli.jsonl_bytes_per_record": ratio(
                count.get("cli.jsonl_bytes", 0.0), count.get("cli.jsonl_records", 0.0)),
            "trace.overhead_s": overhead_s,
            "trace.spans": len(self.spans) / rounds,
        })
        for name in ("gates.solve_local_z_corrections", "busim.homodyne_pdf",
                     "busim.homodyne_project", "busim.branch_merge", "graphstab.fuse",
                     "graphstab.measure_pauli_string", "graphstab.recover_failure",
                     "graphstab.canonical_form"):
            out[f"{name}.calls"] = calls.get(name, 0.0)
        for name in ("gates.cascade_outcomes", "gates.parity_outcomes",
                     "gates.solve_local_z_corrections", "gates.run_sequence",
                     "busim.homodyne_pdf", "busim.homodyne_project",
                     "busim.run_displacement_program", "busim.branch_merge",
                     "busim.measure_bucket", "busim.extract_qubits", "graphstab.fuse",
                     "graphstab.measure_pauli_string", "graphstab.recover_failure",
                     "graphstab.canonical_form", "cli.render_jsonl", "cli.render_csv",
                     "analytics"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        return out

    def write(self, path) -> None:
        """Write every span as one gzip-compressed JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tail = json.dumps(self.workload)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                # span names are plain identifiers, so no JSON escaping is needed
                fh.write(f'{{"id": {index}, "name": "{name}", "start": {start!r}, '
                         f'"end": {end!r}, "parent": {parent}, "workload": {tail}}}\n')

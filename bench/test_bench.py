"""Smoke test of the benchmark at a tiny size.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

import json
import signal

import pytest

import run

run.use_checkout_source()

import spans  # noqa: E402  (needs the checkout's qubuslab on sys.path)
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _patchable():
    """Identity of every attribute the tracer patches."""
    out = {(module.__name__, attr): getattr(module, attr) for module, attr in spans.WRAPPED}
    out["HybridState.__init__"] = spans.busim.HybridState.__dict__["__init__"]
    return out


def _run_tiny(monkeypatch, capsys, workload, trace):
    monkeypatch.setitem(workloads.SIZES, "full", workloads.SIZES["tiny"])
    before = _patchable()
    handler = signal.getsignal(signal.SIGALRM)
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    after = _patchable()
    assert all(after[key] is before[key] for key in before), "a wrapper was left installed"
    assert signal.getsignal(signal.SIGALRM) is handler, "the probe's handler was left installed"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "the probe timer was left running"
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit_and_direction(monkeypatch, capsys, workload, trace):
    notes, result = _run_tiny(monkeypatch, capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert m["better"] in ("higher", "lower")
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"# {m['name']} = ") and line.endswith(
            f" {m['unit']} ({m['better']} is better)") for line in notes), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload, idle", [
    ("mc_sweep", ("graphstab.fuse.calls",)),
    ("gate_tables", ("growth.trial_rng.calls", "graphstab.fuse.calls")),
    ("fusion", ("growth.trial_rng.calls", "busim.homodyne_pdf.calls")),
])
def test_workloads_isolate_their_layers(monkeypatch, capsys, workload, idle):
    _, result = _run_tiny(monkeypatch, capsys, workload, 1)
    for name in idle:
        assert result["metrics"][name]["value"] == 0, name

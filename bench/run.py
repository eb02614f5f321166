"""qubuslab benchmark: one workload per process, one caller, threads=1.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout.  Every input comes
from ``--seed``.  Rounds of the workload run back to back (a closed loop)
until ``--seconds`` is used up; every output is checked.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` runs the
same rounds untraced and then traced and reports the per-layer metrics.
Round times are gated in units of a reference probe (``refclock.py``) that
runs inside the untraced rounds, so the host's speed drift cancels; the
same figures in seconds are printed as ungated lines.
The last line of standard output is the JSON result; the lines before it
give provenance, per-stage figures and information that is not gated.
Result files and span dumps go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def use_checkout_source() -> None:
    """Import qubuslab from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "qubuslab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qubuslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qubuslab

    if Path(qubuslab.__file__).resolve().parent != SRC / "qubuslab":
        raise SystemExit(f"bench: qubuslab imported from {qubuslab.__file__}, not {SRC}")


def round_rng(seed: int, index: int):
    import numpy as np

    return np.random.default_rng([seed, index])


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# rounds


def timed_round(run_round, inputs, clock=None):
    """One round with every warning raised as an error.

    Returns (Round, seconds, probe units).  With a clock the seconds leave
    probe time out; without one there is no probe and no probe-unit figure.
    """
    from workloads import Round

    rnd = Round(clock)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if clock is None:
            t0 = time.perf_counter()
            run_round(inputs, rnd)
            return rnd, time.perf_counter() - t0, None
        clock.start()
        try:
            run_round(inputs, rnd)
        finally:
            clock.stop()
    return rnd, clock.raw_s, clock.ref


def run_rounds(workload: str, seed: int, sizes: dict, seconds: float, tracer=None):
    """Rounds back to back until the next one would overrun ``seconds``.

    Returns (untraced rounds, traced rounds, untraced round seconds, untraced
    round probe units, traced-minus-untraced seconds).  With a tracer, each
    round's inputs run untraced and then again with the wrappers installed,
    so machine drift hits both sides of the overhead; traced rounds run
    without the probe, so spans hold no probe time.
    """
    from refclock import RefClock
    from workloads import WORKLOADS

    make_inputs, run_round = WORKLOADS[workload]
    clock = RefClock()
    rounds, traced, times, refs, overheads = [], [], [], [], []
    start = time.perf_counter()
    while True:
        inputs = make_inputs(round_rng(seed, len(times)), sizes)
        rnd, plain_s, plain_ref = timed_round(run_round, inputs, clock)
        rounds.append(rnd)
        times.append(plain_s)
        refs.append(plain_ref)
        if tracer is not None:
            with tracer.installed():
                rnd, traced_s, _ = timed_round(run_round, inputs)
            tracer.end_round()
            traced.append(rnd)
            overheads.append(traced_s - plain_s)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(times) > seconds:
            return rounds, traced, times, refs, overheads


def warm_up(workload: str, seed: int) -> None:
    """Import every layer the workload touches and run one tiny round."""
    from workloads import SIZES

    rounds = run_rounds(workload, seed, SIZES["tiny"], seconds=0.0)[0]
    for error in rounds[0].errors:
        print(f"# warm-up failure: {error}", file=sys.stderr)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds for a fresh interpreter to import, draw inputs and warm up."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait returns at exit; wait(timeout=...) polls in 50 ms steps
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"bench: set-up probe exited with {code}")
    return samples


def stage_figures(rounds) -> dict:
    """Per-stage figures (not gated), as name -> (value, unit, better, samples)."""
    count, secs, samples = {}, {}, {}
    for rnd in rounds:
        for name, c in rnd.stage_count.items():
            count[name] = count.get(name, 0.0) + c
            secs[name] = secs.get(name, 0.0) + rnd.stage_s[name]
            samples.setdefault(name, []).extend(rnd.samples[name])
    out = {}

    def rate(key, stage, unit="1/s"):
        if secs.get(stage):
            out[key] = (count[stage] / secs[stage], unit, "higher", len(samples[stage]))

    def median(key, stage):
        if samples.get(stage):
            out[key] = (statistics.median(samples[stage]), "s", "lower", len(samples[stage]))

    for variant in ("sequential", "vertical_link", "divide_conquer", "merge", "gate3"):
        rate(f"mc.{variant}.trials_per_s", f"mc.{variant}")
    rate("mc.render.records_per_s", "mc.render")
    median("tables.cascade_n8_s", "tables.cascade_n8")
    median("tables.chain_n14_s", "tables.chain_n14")
    rate("tables.parity_per_s", "tables.parity")
    rate("fusion.fusions_per_s", "fusion.ops")
    median("fusion.check_s", "fusion.check")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    use_checkout_source()

    if args.setup_probe:
        warm_up(args.workload, args.seed)
        return 0

    from spans import Tracer
    from workloads import ITEMS, SIZES

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    warm_up(args.workload, args.seed)
    tracer = Tracer(args.workload) if args.trace else None
    rounds, traced, times, refs, overheads = run_rounds(
        args.workload, args.seed, SIZES["full"], args.seconds, tracer)
    # ungated: the same figures in seconds, which carry the host's drift
    raw = {
        "wall_s": statistics.median(times),
        "items_per_s": statistics.median(r.items / r.item_s for r in rounds),
    }
    if tracer is not None:
        metrics = tracer.metrics(len(times), statistics.median(overheads))
        names = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.median(refs),
            # item time in probe units, at its round's seconds-to-units rate
            "items_per_ref": statistics.median(
                r.items * s / (r.item_s * u) for r, s, u in zip(rounds, times, refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = spec["end_to_end"]

    attempted = sum(r.attempted for r in rounds + traced)
    failed = sum(r.failed for r in rounds + traced)
    stages = stage_figures(rounds)
    prov = provenance()
    digest = rounds[0].digest.hexdigest()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in names},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads[args.workload],
        "items": ITEMS[args.workload], "rounds": len(rounds),
        "provenance": prov, "digest_round0": digest,
        "setup_samples_s": setup, "round_s": times, "round_ref": refs,
        "ungated": raw, "stages": stages,
        "info": rounds[0].info, "errors": [e for r in rounds + traced for e in r.errors],
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl.gz")

    print(f"# workload {args.workload}: {workloads[args.workload]}")
    print(f"# provenance {json.dumps(prov)}")
    print(f"# rounds {len(rounds)}; items_per_ref counts {ITEMS[args.workload]}")
    for m in names:
        print(f"# {m['name']} = {metrics[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
    print(f"# ungated wall_s = {raw['wall_s']:.6g} s, items_per_s = "
          f"{raw['items_per_s']:.6g} 1/s (medians in seconds, host drift included)")
    for name, (value, unit, better, n) in stages.items():
        print(f"# stage {name} = {value:.6g} {unit} ({better} is better, {n} samples)")
    for line in rounds[0].info:
        print(f"# info (not gated, round 0): {line}")
    print(f"# output digest (round 0) sha256 {digest}")
    for error in record["errors"][:20]:
        print(f"# FAILED {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

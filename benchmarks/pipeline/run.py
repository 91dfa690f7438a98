"""End-to-end pipeline benchmark: four workloads, one closed-loop client.

Run every workload, each in its own process::

    python3 benchmarks/pipeline/run.py --seed 2024            # end-to-end
    python3 benchmarks/pipeline/run.py --seed 2024 --trace 1  # per layer

or one workload in this process (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/pipeline/run.py --workload repo-batch --seed 7 \\
        --seconds 20 --trace 0

A workload has a fixed number of instances, each generated from a seed
derived from ``--seed`` before any clock starts.  A *round* sets up and
runs every instance once; rounds repeat until ``--seconds`` have passed, with at least two.
An operation's time is its minimum over the rounds, and an instance's
set-up time likewise: the machine's speed drifts by a third over tens
of seconds, and the minimum over rounds spread through the run is the
statistic that drift moves least.  Plan-quality metrics and correctness
checks come from the first round.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 1 when any output was wrong.

With ``--trace 1`` the rounds alternate between untraced and traced
(the layer wrappers of ``trace.py`` installed).  The metrics are then
the per-layer ones, the spans go to ``results/pipeline/`` as JSON lines,
and ``trace_overhead`` compares the two kinds of round.  End-to-end
metrics come only from untraced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import trace  # noqa: E402  (this directory's trace.py, not the stdlib module)
import workloads  # noqa: E402

DEFAULT_SEED = 2024
MIN_ROUNDS = 2
RESULTS = ROOT / "results" / "pipeline"

WORKLOADS = {
    w.name: w
    for w in (
        workloads.Solve996(),
        workloads.RepoBatch(),
        workloads.OnlineMixed(),
        workloads.RouterChurn(),
    )
}

#: end-to-end metric -> unit (``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "retrieval_per_version": "cost",
    "storage_ratio": "ratio",
}

COUNTERS = ("engine.resolves", "store.bytes_written", "store.objects_written",
            "store.objects_deleted")

#: per-layer metric -> unit (``--trace 1``)
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in trace.LAYERS
       for kind, unit in (("calls", "count"), ("self_share", "fraction"))},
    **{f"setup.{layer}.self_share": "fraction" for layer in trace.LAYERS},
    **{name: "count" for name in COUNTERS},
    "store.checkouts_per_write": "count",
    "trace.coverage": "fraction",
    "trace_overhead": "ratio",
}


@dataclass
class Round:
    """One pass over every instance of a workload."""

    setup_s: list[float] = field(default_factory=list)  # per instance
    op_s: list[float] = field(default_factory=list)  # per op; NaN = failed
    counters: dict[str, float] = field(default_factory=dict)  # measured-phase deltas


@dataclass
class Outcome:
    """Everything a run measured, untraced and traced rounds apart."""

    plain: list[Round] = field(default_factory=list)
    traced: list[Round] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    quality: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        if self.failed == 0:
            print(f"first failed op: {why}", file=sys.stderr)
        self.failed += 1


def sub_seed(seed: int, i: int) -> int:
    """Seed of instance ``i`` of a run with ``--seed`` ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _phase(tracer, name: str):
    return tracer.phase(name) if tracer is not None else contextlib.nullcontext()


def run_instance(wl, inp, rnd: Round, out: Outcome, tracer=None):
    """Set up one instance and run its timed operations; returns the state."""
    gc.collect()
    with _phase(tracer, "setup"):
        t0 = time.perf_counter()
        st = wl.setup(inp)
        rnd.setup_s.append(time.perf_counter() - t0)
    before = wl.counters(st)
    gc.collect()
    with _phase(tracer, "measured"):
        for call, verify in wl.ops(st):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception:  # a failed op is counted, and the loop goes on
                out.fail(traceback.format_exc())
                rnd.op_s.append(np.nan)
                continue
            elapsed = time.perf_counter() - t0
            if verify is not None and not verify(result):
                out.fail(f"wrong output from {call}")
                elapsed = np.nan
            rnd.op_s.append(elapsed)
    for name, value in wl.counters(st).items():
        rnd.counters[name] = rnd.counters.get(name, 0) + value - before[name]
    return st


def run_round(wl, inputs: list, out: Outcome, tracer=None) -> None:
    """Run every instance once; the first round also checks each one."""
    rnd = Round()
    first = not out.plain and not out.traced
    if tracer is not None:
        tracer.install()
    try:
        for inp in inputs:
            st = run_instance(wl, inp, rnd, out, tracer)
            if first:
                try:
                    q = wl.check(st)
                except Exception:  # a check that cannot run is a failed check
                    out.failures.append(traceback.format_exc())
                else:
                    out.quality.append(q)
                    out.failures += q.failures
            del st
    finally:
        if tracer is not None:
            tracer.uninstall()
    (out.plain if tracer is None else out.traced).append(rnd)


def run_workload(wl, seed: int, seconds: float, traced: bool) -> dict:
    """Run ``wl`` for ``seconds``; returns the result object to print."""
    inputs = [wl.make_input(sub_seed(seed, i)) for i in range(wl.instances)]
    tracer = trace.Tracer() if traced else None
    out = Outcome()
    deadline = time.perf_counter() + seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        run_round(wl, inputs, out, tracer if r % 2 else None)
        r += 1
    for why in out.failures:
        print(f"check failed: {why}", file=sys.stderr)

    if traced:
        metrics = layer_metrics(tracer, out)
        tracer.write(RESULTS / f"trace-{wl.name}-seed{seed}.jsonl")
        report_self_times(tracer, out)
    else:
        metrics = end_to_end_metrics(out)
    rounds = out.traced if traced else out.plain
    print(f"{wl.name}: seed {seed}, {wl.instances} instances, "
          f"{len(out.plain)} untraced + {len(out.traced)} traced rounds, "
          f"{len(rounds[0].op_s)} ops and {len(rounds[0].setup_s)} set-ups "
          f"per round, {out.failed} failed ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    return {
        "correct": not out.failures and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def min_over_rounds(rounds: list[Round], attr: str) -> np.ndarray:
    """Per-item minimum over rounds; NaN where the item ever failed."""
    return np.array([getattr(r, attr) for r in rounds]).min(axis=0)


def end_to_end_metrics(out: Outcome) -> dict[str, tuple[float, str]]:
    """The user-facing metrics of the untraced rounds."""
    ops = min_over_rounds(out.plain, "op_s")
    ops = ops[~np.isnan(ops)]  # a failed op has no latency
    quality = out.quality
    values = {
        "setup_s": float(np.median(min_over_rounds(out.plain, "setup_s"))),
        "op_p50_ms": float(np.percentile(ops, 50)) * 1e3 if ops.size else 0.0,
        "op_p99_ms": float(np.percentile(ops, 99)) * 1e3 if ops.size else 0.0,
        "ops_per_s": ops.size / float(ops.sum()) if ops.size else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "retrieval_per_version": (sum(q.retrieval for q in quality)
                                  / max(1, sum(q.versions for q in quality))),
        "storage_ratio": (sum(q.stored for q in quality)
                          / max(1.0, sum(q.raw for q in quality))),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def layer_metrics(tracer, out: Outcome) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds (counts per instance)."""
    n = max(1, sum(len(r.setup_s) for r in out.traced))
    measured_s = float(np.nansum([r.op_s for r in out.traced])) or 1.0
    setup_s = float(np.sum([r.setup_s for r in out.traced])) or 1.0
    measured = tracer.layer_totals("measured")
    setup = tracer.layer_totals("setup")
    values: dict[str, float] = {}
    for layer in trace.LAYERS:
        calls, self_s = measured.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls / n
        values[f"{layer}.self_share"] = self_s / measured_s
        values[f"setup.{layer}.self_share"] = setup.get(layer, (0, 0.0))[1] / setup_s
    for name in COUNTERS:
        values[name] = sum(r.counters.get(name, 0) for r in out.traced) / n
    syncs = {s[0] for s in tracer.spans if s[2] == "store.sync" and s[5] == "measured"}
    nested = sum(1 for s in tracer.spans if s[2] == "store.checkout" and s[1] in syncs)
    writes = measured.get("engine.commit", (0, 0.0))[0]
    values["store.checkouts_per_write"] = nested / writes if writes else 0.0
    values["trace.coverage"] = tracer.root_seconds("measured") / measured_s
    plain_s = float(np.nansum(min_over_rounds(out.plain, "op_s"))) or 1.0
    values["trace_overhead"] = (
        float(np.nansum(min_over_rounds(out.traced, "op_s"))) / plain_s - 1.0
    )
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def report_self_times(tracer, out: Outcome) -> None:
    """Print absolute self seconds per layer and instance, both phases."""
    n = max(1, sum(len(r.setup_s) for r in out.traced))
    for phase in ("setup", "measured"):
        for layer, (calls, self_s) in sorted(tracer.layer_totals(phase).items()):
            print(f"  self {phase:8s} {layer:20s} {self_s / n:10.4f} s "
                  f"{calls / n:10.1f} calls  (per instance)")


def run_all(seed: int, seconds: float, traced: int) -> int:
    """Every workload in its own process; prints a combined summary."""
    ok = True
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    summary["correct"] = ok
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload here (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace)
    result = run_workload(WORKLOADS[args.workload], args.seed, seconds,
                          bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests of the pipeline benchmark itself, at tiny sizes (a few seconds)."""

from __future__ import annotations

import json
import math
import re
import time
from types import SimpleNamespace

import pytest

import run
import trace
import workloads
from repro.store import MaterializationStore

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "solve-996": workloads.Solve996(versions=60, instances=1),
    "repo-batch": workloads.RepoBatch(commits=30, instances=1),
    "online-mixed": workloads.OnlineMixed(commits=30, warmup=10, instances=1),
    "router-churn": workloads.RouterChurn(arrivals=40, instances=1),
}


def _benchmark() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_trace_module_is_this_benchmarks():
    # the stdlib has a ``trace`` module too; the benchmark must get its own
    assert hasattr(trace, "Tracer")


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_passes_checks_and_emits_every_metric(name, traced, tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    result = run.run_workload(TINY[name], seed=3, seconds=0, traced=traced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = _benchmark()["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric, value in result["metrics"].items():
        assert math.isfinite(value["value"]), metric
        if not traced:
            assert value["value"] > 0, metric
    if traced:
        assert list(tmp_path.glob(f"trace-{name}-seed3.jsonl"))


def test_router_churn_bypasses_start_tree_and_store(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    result = run.run_workload(TINY["router-churn"], seed=5, seconds=0, traced=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["arborescence.start.calls"] == 0
    assert metrics["sharded.route.calls"] > 0
    for layer in ("store.materialize", "store.sync", "store.checkout"):
        assert metrics[f"{layer}.calls"] == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        (2, 1, "leaf", 2.0, 2.5, "m"),
        (1, 0, "mid", 1.0, 3.0, "m"),
        (3, 0, "mid", 4.0, 4.5, "m"),
        (0, None, "root", 0.0, 10.0, "m"),
        (4, None, "leaf", 11.0, 12.0, "m"),
    ]
    assert trace.layer_totals(spans) == {
        "root": (1, 7.5), "mid": (2, 2.0), "leaf": (2, 1.5),
    }


def test_tracer_records_nested_calls_only_inside_a_phase():
    ns = SimpleNamespace()

    def inner():
        time.sleep(0.002)

    def outer():
        ns.inner()
        ns.inner()

    ns.inner, ns.outer = inner, outer
    tracer = trace.Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    with tracer.phase("measured"):
        ns.outer()
    ns.outer()  # outside any phase: no spans
    tracer.uninstall()
    assert ns.inner is inner and ns.outer is outer

    assert [s[2] for s in tracer.spans] == ["inner", "inner", "outer"]
    (oid, oparent, _, ostart, oend, _), = [s for s in tracer.spans if s[2] == "outer"]
    assert oparent is None
    inners = [s for s in tracer.spans if s[2] == "inner"]
    assert all(s[1] == oid and ostart <= s[3] <= s[4] <= oend for s in inners)
    totals = tracer.layer_totals("measured")
    assert totals["inner"][0] == 2
    assert totals["outer"] == (1, (oend - ostart) - sum(s[4] - s[3] for s in inners))
    assert tracer.root_seconds("measured") == oend - ostart


def test_wrong_checkout_bytes_fail_the_run(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "repo-batch", TINY["repo-batch"])
    monkeypatch.setattr(MaterializationStore, "checkout",
                        lambda self, v: {"wrong.txt": ("bytes",)})
    code = run.main(["--workload", "repo-batch", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_benchmark_json_names_match_the_runner():
    benchmark = _benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    assert names == list(run.WORKLOADS)
    for kind, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in benchmark[kind]} == declared
    every = names + [m["name"] for k in ("end_to_end", "per_layer") for m in benchmark[k]]
    assert all(NAME.fullmatch(n) for n in every)
    assert len(set(every)) == len(every)
    assert benchmark["command"][1:] == ["benchmarks/pipeline/run.py"]

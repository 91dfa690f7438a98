"""Outside-in layer tracing for the pipeline benchmark.

:class:`Tracer` replaces the public entry point of each layer (a module
function or a class method) with a wrapper, by ``setattr`` on the
owning module or class, and restores the originals on
:meth:`Tracer.uninstall`.  No code under ``src/`` changes: callers that
look the entry point up at call time (module globals, methods,
function-local imports) reach the wrapper.  A caller that bound the
original earlier is invisible; the ingest engine's greedy kernel, held
in ``ENGINE_KERNELS``, is one, so its time shows up as ``engine.ingest``
self time.

A wrapper records a span ``(id, parent id, name, start, end, phase)``
only while a phase is open (:meth:`Tracer.phase`), so correctness
checks run between phases leave no spans.  Spans stay in memory and are
written as JSON lines by :meth:`Tracer.write`.  A span's self time is
its duration minus the durations of its direct children; the benchmark
is single-threaded, so children never overlap each other.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from repro.core.graph import VersionGraph
from repro.engine import IngestEngine, ShardRouter
from repro.fastgraph import arborescence, solvers, trajectory
from repro.fastgraph.plantree import ArrayPlanTree
from repro.store import MaterializationStore
from repro.vcs import build as vcs_build

#: layer name -> entry points ``(owner, attribute)`` it wraps.
LAYERS: dict[str, tuple[tuple[object, str], ...]] = {
    "vcs.diff": ((vcs_build, "snapshot_delta_bytes_pair"),),
    "vcs.build": ((vcs_build, "build_graph_from_repo"),),
    "core.compile": ((VersionGraph, "compile"),),
    "arborescence.start": ((arborescence, "min_storage_parent_edges"),),
    "solvers.greedy": (
        (solvers, "lmg_array"),
        (solvers, "lmg_all_array"),
        (solvers, "bmr_lmg_array"),
    ),
    "trajectory.sweep": ((trajectory, "sweep_greedy"),),
    "plantree.append": ((ArrayPlanTree, "append_version"),),
    "plantree.detach": ((ArrayPlanTree, "detach_version"),),
    "plantree.to_plan": ((ArrayPlanTree, "to_plan"),),
    "engine.commit": ((IngestEngine, "ingest_commit"),),
    "engine.ingest": ((IngestEngine, "ingest_version"),),
    "engine.retire": ((IngestEngine, "retire_version"),),
    "sharded.route": (
        (ShardRouter, "ingest_version"),
        (ShardRouter, "retire_version"),
    ),
    "store.materialize": ((MaterializationStore, "materialize"),),
    "store.sync": ((MaterializationStore, "sync"),),
    "store.checkout": ((MaterializationStore, "checkout"),),
}


class Tracer:
    """Span recorder over wrapped layer entry points."""

    def __init__(self) -> None:
        #: finished spans: ``(id, parent id or None, name, start, end, phase)``
        self.spans: list[tuple[int, int | None, str, float, float, str]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._phase: str | None = None
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = vars(owner)[attr]  # for a class: the plain function

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            phase = self._phase
            if phase is None:
                return original(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, phase))

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS`."""
        for name, points in LAYERS.items():
            for owner, attr in points:
                self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        """Restore every wrapped entry point, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record spans under phase ``name`` for the duration of the block."""
        self._phase = name
        try:
            yield
        finally:
            self._phase = None

    # ------------------------------------------------------------------
    def layer_totals(self, phase: str) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)`` over the spans of ``phase``."""
        return layer_totals([s for s in self.spans if s[5] == phase])

    def root_seconds(self, phase: str) -> float:
        """Time covered by top-level spans of ``phase``."""
        return sum(e - b for _, p, _, b, e, ph in self.spans if p is None and ph == phase)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, start, end, phase in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "phase": phase,
                }) + "\n")


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """``name -> (calls, self seconds)``; self = duration - direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time[sid]
    return {name: (calls[name], self_s[name]) for name in calls}

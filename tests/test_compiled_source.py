"""The compiled graph keeps its source graph, not a copy of it.

``CompiledGraph.source`` is the graph a compile read; the CSR arrays are
the only form of the extended graph ``G_aux`` it keeps.  Pinned here:

* appends and retirements reach the dict graph once per source
  mutation (no second, mirrored write);
* on a router stream with retirements, the oracle view
  ``ArrayPlanTree.to_plan_tree()`` equals a ``PlanTree`` over a fresh
  ``source.extended()`` after every event, and ``check_invariants``
  holds;
* a sweep scores identically whether it is handed the graph or its
  compile.
"""

import math
import random

import pytest

from repro.algorithms import min_storage_plan_tree
from repro.core import AUX, VersionGraph
from repro.core.solution import PlanTree
from repro.engine import IngestEngine, ShardRouter
from repro.fastgraph import CompiledGraph, sweep_greedy
from repro.gen import random_digraph

from helpers import cached_natural_graph as natural_graph

RETIRE_EVERY = 9


def tenant_stream(rng, tenant, arrivals):
    """``("add", v, storage, deltas)`` / ``("retire", v)`` ops of one tenant.

    Each arrival carries up to three deltas (both directions) to earlier
    live versions; one live version retires per ``RETIRE_EVERY``
    arrivals.
    """
    ops, live = [], []
    for i in range(arrivals):
        v = f"w{tenant}.{i}"
        deltas = []
        for u in rng.sample(live, min(3, len(live))):
            s = float(rng.randint(5, 60))
            deltas.append((u, v, s, s * 1.5))
            deltas.append((v, u, s * 0.6, s * 0.9))
        ops.append(("add", v, float(rng.randint(80, 160)), deltas))
        live.append(v)
        if i % RETIRE_EVERY == RETIRE_EVERY - 1 and len(live) > 4:
            ops.append(("retire", live.pop(rng.randrange(len(live)))))
    return ops


def interleaved(tenants, arrivals, seed):
    """Round-robin merge of ``tenants`` tenant streams."""
    rng = random.Random(seed)
    streams = [tenant_stream(rng, t, arrivals) for t in range(tenants)]
    return [s[i] for i in range(max(map(len, streams))) for s in streams
            if i < len(s)]


def tenant_of(v):
    return int(v[1 : v.index(".")])


def route(sink, op):
    if op[0] == "add":
        sink.ingest_version(op[1], op[2], op[3])
    else:
        sink.retire_version(op[1])


class TestCompileCopiesNothing:
    def test_source_is_the_compiled_graph(self):
        g = random_digraph(8, seed=1)
        cg = g.compile()
        assert cg.source is g
        assert not g.has_aux
        ext = cg.extended_graph()
        assert ext is not g and ext.has_aux
        assert ext.num_deltas == g.num_deltas + g.num_versions

    def test_extended_source_is_its_own_aux_graph(self):
        ext = random_digraph(8, seed=2).extended()
        cg = CompiledGraph(ext)
        assert cg.source is ext
        assert cg.extended_graph() is ext

    def test_no_version_graph_but_the_source(self):
        cg = random_digraph(6, seed=3).compile()
        held = [
            getattr(cg, s) for s in type(cg).__slots__ if hasattr(cg, s)
        ]
        graphs = [x for x in held if isinstance(x, VersionGraph)]
        assert graphs == [cg.source]

    @pytest.mark.parametrize("problem", ["msr", "bmr"])
    def test_one_dict_write_per_source_mutation(self, monkeypatch, problem):
        """Every ``add_delta`` / ``remove_delta`` call is one source
        mutation event: the compiled graph replays nothing into a
        dict graph of its own."""
        calls = {"add_delta": 0, "remove_delta": 0}
        for name in calls:
            original = getattr(VersionGraph, name)

            def counted(self, *args, _name=name, _original=original, **kw):
                calls[_name] += 1
                return _original(self, *args, **kw)

            monkeypatch.setattr(VersionGraph, name, counted)
        engine = IngestEngine(problem=problem, budget_factor=4.0)
        events = {"add_delta": 0, "remove_delta": 0}

        def listen(event):
            if event.kind in events:
                events[event.kind] += 1

        engine.graph.subscribe(listen)
        for op in tenant_stream(random.Random(5), 0, 90):
            route(engine, op)
        assert engine.graph.compiled_cache is not None  # absorbed in place
        assert events["add_delta"] > 0 and events["remove_delta"] > 0
        assert calls == events
        engine.close()


class TestOracleViewOnRouterStream:
    def test_plan_tree_view_matches_fresh_extension_every_event(self):
        router = ShardRouter(
            3, budget_factor=4.0, staleness_threshold=math.inf,
            shard_key=tenant_of,
        )
        checked = 0
        for op in interleaved(3, 45, seed=2024):
            route(router, op)
            for shard in router.shards:
                tree = shard.tree
                if tree is None:
                    continue
                tree.check_invariants()
                view = tree.to_plan_tree()
                fresh = PlanTree(shard.graph.extended(), tree.parent_map())
                assert view.parent == fresh.parent
                assert view.ret == fresh.ret
                assert view.subtree_size == fresh.subtree_size
                assert view.total_storage == fresh.total_storage
                assert AUX in view.graph and not shard.graph.has_aux
                checked += 1
        assert checked > 100
        assert sum(s.graph.num_versions for s in router.shards) < 3 * 45
        router.close()


class TestSweepScoresOnSource:
    @pytest.mark.parametrize(
        "problem,solver", [("msr", "lmg"), ("msr", "lmg-all"), ("bmr", "bmr-lmg")]
    )
    def test_graph_and_compile_give_identical_entries(self, problem, solver):
        g = natural_graph(60, seed=4)
        if problem == "msr":
            base = min_storage_plan_tree(g).total_storage
            budgets = [base * 0.5, base * 1.02, base * 1.5, base * 3.0]
        else:
            base = g.max_retrieval_cost()
            budgets = [0.0, base, base * 3.0]
        by_graph = sweep_greedy(g, problem, solver, budgets)
        by_compile = sweep_greedy(g.compile(), problem, solver, budgets)
        assert [e.plan for e in by_graph] == [e.plan for e in by_compile]
        assert [e.score for e in by_graph] == [e.score for e in by_compile]
        assert sum(e.plan is not None for e in by_graph) >= 2

"""Tests for the online ingest engine and incremental compilation.

The ISSUE-3 acceptance bar, pinned here:

* for any ingest sequence, the engine's post-re-solve plan is
  *identical* to a from-scratch solve on the final graph;
* the incrementally extended :class:`CompiledGraph` equals a fresh
  ``compile()`` of the final graph, arrays compared elementwise.
"""

import numpy as np
import pytest

from repro.algorithms.registry import get_engine_solver, get_solver
from repro.core.graph import AUX, GraphError, GraphMutation, VersionGraph
from repro.core.solution import PlanTree
from repro.engine import IngestEngine
from repro.fastgraph import ArrayPlanTree, CompiledGraph, lmg_array
from repro.fastgraph.arborescence import min_storage_parent_edges
from repro.gen import random_digraph
from repro.parallel import BackgroundResolver

# shared instance/budget helpers live in tests/helpers.py (see conftest)
from helpers import cached_repo, repo_graph_budget
from helpers import storage_span_budget as repo_budget

COMPARED_ARRAYS = (
    "node_storage",
    "edge_src",
    "edge_dst",
    "edge_storage",
    "edge_retrieval",
    "aux_edge",
    "out_indptr",
    "out_edges",
    "in_indptr",
    "in_edges",
)


def assert_compiled_equal(a: CompiledGraph, b: CompiledGraph):
    assert a.n == b.n and a.aux == b.aux and a.num_edges == b.num_edges
    assert a.nodes == b.nodes
    assert a.index == b.index
    for attr in COMPARED_ARRAYS:
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


class TestGraphMutationEvents:
    def test_listeners_see_every_mutation(self):
        g = VersionGraph()
        events = []
        g.subscribe(events.append)
        g.add_version("a", 5.0)
        g.add_version("b", 7.0)
        g.add_delta("a", "b", 2.0, 3.0)
        g.add_version("a", 6.0)  # update
        g.add_delta("a", "b", 1.0, 9.0, keep_cheapest=True)  # update (merge)
        g.remove_delta("a", "b")
        kinds = [e.kind for e in events]
        assert kinds == [
            "add_version",
            "add_version",
            "add_delta",
            "update_version",
            "update_delta",
            "remove_delta",
        ]
        # the keep_cheapest merge reports the merged costs
        merged = events[4]
        assert (merged.storage, merged.retrieval) == (1.0, 3.0)
        g.unsubscribe(events.append)
        g.add_version("c", 1.0)
        assert len(kinds) == 6

    def test_append_kinds_constant(self):
        assert GraphMutation.APPEND_KINDS == {"add_version", "add_delta"}

    def test_listeners_not_pickled(self):
        import pickle

        g = VersionGraph()
        g.add_version("a", 1.0)
        g.subscribe(lambda e: None)  # unpicklable listener must be dropped
        g2 = pickle.loads(pickle.dumps(g))
        assert g2.num_versions == 1
        assert g2._listeners == []


class TestIncrementalCompile:
    def test_appends_extend_cache_elementwise_equal(self):
        g = random_digraph(8, seed=1)
        cg = g.compile()
        for i in range(5):
            g.add_version(f"n{i}", 10.0 + i)
            g.add_delta(g.versions[i], f"n{i}", 1.0 + i, 2.0)
            g.add_delta(f"n{i}", g.versions[i], 1.5 + i, 2.5)
        assert g.compile() is cg  # extended in place, never rebuilt
        fresh = CompiledGraph(g)
        assert_compiled_equal(cg, fresh)

    def test_interleaved_compiles_stay_equal(self):
        g = random_digraph(6, seed=2)
        cg = g.compile()
        for i in range(4):
            g.add_version(f"m{i}", 3.0)
            g.add_delta(f"m{i}", g.versions[0], 1.0, 1.0)
            # force a refresh mid-stream: arrays must be correct each time
            assert_compiled_equal(g.compile(), CompiledGraph(g))
        assert g.compile() is cg

    def test_edge_id_current_between_refreshes(self):
        g = random_digraph(5, seed=3)
        cg = g.compile()
        g.add_version("x", 4.0)
        g.add_delta(g.versions[0], "x", 1.0, 1.0)
        vi = cg.index["x"]
        assert vi == 5
        real_eid = cg.edge_id(cg.index[g.versions[0]], vi)
        aux_eid = cg.edge_id(cg.aux, vi)
        cg.refresh()
        assert cg.edge_id(cg.index[g.versions[0]], vi) == real_eid
        assert int(cg.aux_edge[vi]) == aux_eid
        assert cg.edge_dst[real_eid] == vi

    def test_snapshot_is_frozen(self):
        g = random_digraph(6, seed=4)
        cg = g.compile()
        snap = cg.snapshot()
        n0, m0 = snap.n, snap.num_edges
        edge_src0 = snap.edge_src.copy()
        g.add_version("later", 9.0)
        g.add_delta(g.versions[0], "later", 1.0, 1.0)
        g.compile()  # refresh the live arrays
        assert (snap.n, snap.num_edges) == (n0, m0)
        assert np.array_equal(snap.edge_src, edge_src0)
        assert cg.n == n0 + 1
        # the snapshot still solves correctly
        tree = lmg_array(snap, repo_budget(random_digraph(6, seed=4)))
        assert tree.num_versions == n0

    def test_snapshot_shares_arrays_not_indexes(self):
        cg = random_digraph(8, seed=6).compile()
        snap = cg.snapshot()
        for name in CompiledGraph.__slots__:
            a = getattr(cg, name)
            if isinstance(a, np.ndarray):
                assert getattr(snap, name) is a, name
        for name in ("nodes", "index", "_edge_index"):
            assert getattr(snap, name) == getattr(cg, name)
            assert getattr(snap, name) is not getattr(cg, name), name

    def test_detach_mutations_are_absorbed(self):
        # removals tombstone + compact in place instead of invalidating
        g = random_digraph(6, seed=5)
        cg = g.compile()
        u, v, _ = next(g.deltas())
        g.remove_delta(u, v)
        cg2 = g.compile()
        assert cg2 is cg
        assert_compiled_equal(cg2, CompiledGraph(g))
        g.remove_version(g.versions[-1])
        cg3 = g.compile()
        assert cg3 is cg
        assert_compiled_equal(cg3, CompiledGraph(g))

    def test_update_mutations_invalidate(self):
        g = random_digraph(6, seed=5)
        cg = g.compile()
        u, v, d = next(g.deltas())
        g.add_delta(u, v, d.storage / 2, d.retrieval / 2, keep_cheapest=True)
        cg2 = g.compile()
        assert cg2 is not cg
        assert_compiled_equal(cg2, CompiledGraph(g))

    def test_compiling_extended_graph_opts_out(self):
        # a compile of an already-extended graph must not absorb events
        # (the caller mutates that graph directly: double-apply hazard)
        g = random_digraph(5, seed=6)
        ext = g.extended()
        cg = ext.compile()
        assert cg.source is ext
        ext.add_version("new", 2.0)
        cg2 = ext.compile()
        assert cg2 is not cg


class TestArrayPlanTreeAppend:
    def test_append_matches_from_scratch(self):
        g = random_digraph(10, seed=7, extra_edge_prob=0.3)
        cg = g.compile()
        tree = ArrayPlanTree(cg, min_storage_parent_edges(cg))
        # grow the graph + tree by three versions, attach variously
        for i, parent_pos in enumerate([0, 3, 1]):
            name = f"g{i}"
            g.add_version(name, 50.0 + i)
            g.add_delta(g.versions[parent_pos], name, 5.0 + i, 7.0 + i)
            vi = cg.index[name]
            p_idx = cg.index[g.versions[parent_pos]]
            eid = cg.edge_id(p_idx, vi)
            new_v = tree.append_version(p_idx, eid, 5.0 + i, 7.0 + i)
            assert new_v == vi
        cg.refresh()
        # rebuild from the parent *map* — AUX par_edge ids in the live
        # tree go stale as later real edges shift the AUX id block
        rebuilt = ArrayPlanTree.from_parent_map(cg, tree.parent_map())
        assert np.array_equal(tree.parent, rebuilt.parent)
        assert np.array_equal(tree.size, rebuilt.size)
        assert np.allclose(tree.ret, rebuilt.ret)
        assert tree.total_storage == pytest.approx(rebuilt.total_storage)
        assert tree.total_retrieval == pytest.approx(rebuilt.total_retrieval)
        tree.check_invariants()

    def test_append_materialized(self):
        g = random_digraph(4, seed=8)
        cg = g.compile()
        tree = ArrayPlanTree(cg, min_storage_parent_edges(cg))
        g.add_version("mat", 42.0)
        vi = cg.index["mat"]
        eid = cg.edge_id(cg.aux, vi)
        tree.append_version(cg.aux, eid, 42.0, 0.0)
        assert tree.parent[vi] == cg.aux
        assert float(tree.ret[vi]) == 0.0
        assert "mat" in tree.materialized_versions()
        tree.check_invariants()

    def test_append_rejects_bad_parent(self):
        g = random_digraph(4, seed=9)
        cg = g.compile()
        tree = ArrayPlanTree(cg, min_storage_parent_edges(cg))
        with pytest.raises(GraphError):
            tree.append_version(99, 0, 1.0, 1.0)


class TestBatchSubtreeShift:
    def test_vectorized_shift_matches_dict_reference(self):
        # dense-ish graph: every LMG-All move shifts a real subtree; the
        # vectorized masked shift must stay bit-identical to PlanTree
        from repro.algorithms import lmg_all

        g = random_digraph(40, seed=10, extra_edge_prob=0.4)
        budget = repo_budget(g, span=1.6)
        ref = lmg_all(g, budget)
        arr = get_solver("msr", "lmg-all")(g, budget)
        assert ref.to_plan() == arr
        tree = ArrayPlanTree.from_parent_map(g.compile(), ref.parent)
        assert tree.total_retrieval == pytest.approx(ref.total_retrieval)


class TestIngestEngineEquivalence:
    @pytest.mark.parametrize("solver", ["lmg", "lmg-all"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_post_resolve_plan_identical_to_batch(self, solver, seed):
        repo, batch, budget = repo_graph_budget(60, seed=seed)
        engine = IngestEngine(
            budget=budget, solver=solver, staleness_threshold=0.1
        )
        for stats in engine.ingest_repository(repo):
            assert stats.storage <= budget * (1 + 1e-9) + 1e-6
        tree = engine.resolve()
        ref = get_engine_solver("msr", solver)(batch.compile(), budget)
        assert tree.to_plan() == ref.to_plan()
        assert tree.total_storage == ref.total_storage
        assert tree.total_retrieval == ref.total_retrieval
        assert_compiled_equal(engine.graph.compile(), CompiledGraph(batch))

    def test_ingest_graph_byte_identical_to_batch_graph(self):
        repo, batch, budget = repo_graph_budget(
            80, seed=5, merge_prob=0.15, branch_prob=0.25
        )
        assert any(len(c.parents) == 2 for c in repo.commits)  # merges exercised
        engine = IngestEngine(
            budget=budget, staleness_threshold=float("inf"), name="repo"
        )
        for _ in engine.ingest_repository(repo):
            pass
        assert engine.graph.to_dict() == batch.to_dict()
        assert_compiled_equal(engine.graph.compile(), CompiledGraph(batch))

    def test_live_plan_tree_invariants_hold_between_resolves(self):
        repo, _, budget = repo_graph_budget(50, seed=6)
        engine = IngestEngine(budget=budget, staleness_threshold=float("inf"))
        for _ in engine.ingest_repository(repo):
            pass
        # only one bootstrap solve happened; every other arrival was a
        # greedy attach — the cached totals must still be exact
        assert engine.resolves == 1
        engine.graph.compile()  # refresh arrays for the dict-view check
        engine.tree.check_invariants()
        plan = engine.plan()
        assert plan.is_feasible(engine.graph)

    def test_plan_tree_view_roundtrip(self):
        repo, _, budget = repo_graph_budget(30, seed=7)
        engine = IngestEngine(budget=budget)
        for _ in engine.ingest_repository(repo):
            pass
        cg = engine.graph.compile()
        view = engine.tree.to_plan_tree()
        assert isinstance(view, PlanTree)
        assert view.total_storage == pytest.approx(engine.tree.total_storage)
        assert cg.source is engine.graph
        assert cg.extended_graph().has_aux


class TestIngestEngineBehavior:
    def test_staleness_resets_on_resolve(self):
        repo, _, budget = repo_graph_budget(60, seed=8)
        engine = IngestEngine(budget=budget, staleness_threshold=0.02)
        saw_reset = False
        prev = 0.0
        for stats in engine.ingest_repository(repo):
            if stats.resolved:
                assert stats.staleness == 0.0
                saw_reset = prev > 0.0 or saw_reset
            prev = stats.staleness
        assert saw_reset
        assert engine.resolves > 1

    def test_budget_factor_mode_stays_feasible(self):
        repo = cached_repo(60, seed=9)
        engine = IngestEngine(budget_factor=4.0, staleness_threshold=0.1)
        for stats in engine.ingest_repository(repo):
            assert stats.storage <= stats.budget * (1 + 1e-9) + 1e-6
        # the dynamic budget is a factor over a *lower* bound on the
        # minimum-storage arborescence: must be solvable throughout
        assert engine.resolves >= 1

    def test_infeasible_budget_raises(self):
        repo = cached_repo(20, seed=10)
        engine = IngestEngine(budget=1.0, staleness_threshold=float("inf"))
        with pytest.raises(ValueError, match="infeasible"):
            for _ in engine.ingest_repository(repo):
                pass

    def test_infeasible_attach_falls_back_to_resolve(self):
        # no attach candidate fits the budget, but a full re-solve can
        # restructure the plan (materialize the cheap newcomer, reach the
        # expensive old version through a delta): repair must fall back,
        # not fail
        engine = IngestEngine(budget=14.0, staleness_threshold=float("inf"))
        engine.ingest_version("old", 10.0)
        assert engine.resolves == 1
        stats = engine.ingest_version(
            "new",
            5.0,
            [("old", "new", 6.0, 6.0), ("new", "old", 1.0, 1.0)],
        )
        assert stats.resolved
        assert engine.resolves == 2
        assert stats.storage == 6.0  # materialize "new" + delta new->old
        assert engine.plan().materialized == frozenset({"new"})

    def test_duplicate_version_rejected(self):
        engine = IngestEngine(budget=100.0)
        engine.ingest_version("a", 10.0)
        with pytest.raises(GraphError):
            engine.ingest_version("a", 10.0)

    def test_non_incident_delta_rejected(self):
        engine = IngestEngine(budget=100.0)
        engine.ingest_version("a", 10.0)
        engine.ingest_version("b", 10.0, [("a", "b", 1.0, 1.0)])
        with pytest.raises(GraphError):
            engine.ingest_version("c", 10.0, [("a", "b", 1.0, 1.0)])

    def test_rejected_ingest_is_atomic(self):
        # a bad delta anywhere in the list must leave the graph, the
        # bookkeeping and the live tree untouched — the engine keeps
        # working afterwards as if the call never happened
        engine = IngestEngine(budget=1000.0)
        engine.ingest_version("a", 10.0)
        engine.ingest_version("b", 10.0, [("a", "b", 1.0, 1.0)])
        bad_calls = [
            ("x", [("a", "x", 1.0, 1.0), ("a", "b", 1.0, 1.0)]),  # non-incident 2nd
            ("x", [("a", "x", 1.0, 1.0), ("ghost", "x", 1.0, 1.0)]),  # unknown src
            ("x", [("a", "x", 1.0, 1.0), ("a", "x", 2.0, 2.0)]),  # duplicate edge
            ("x", [("x", "x", 1.0, 1.0)]),  # self-delta
            ("x", [("a", "x", -1.0, 1.0)]),  # negative cost
        ]
        for name, deltas in bad_calls:
            with pytest.raises(GraphError):
                engine.ingest_version(name, 5.0, deltas)
            assert "x" not in engine.graph
        # the engine is still fully functional and consistent
        engine.ingest_version("c", 10.0, [("b", "c", 2.0, 2.0)])
        tree = engine.resolve()
        ref = lmg_array(CompiledGraph(engine.graph), 1000.0)
        assert tree.to_plan() == ref.to_plan()
        assert engine.graph.num_versions == 3

    def test_out_of_band_mutation_triggers_rebuild(self):
        repo, _, budget = repo_graph_budget(40, seed=12)
        engine = IngestEngine(budget=budget, staleness_threshold=float("inf"))
        commits = iter(repo.commits)
        for _ in range(30):
            engine.ingest_commit(repo, next(commits))
        # out-of-band: a delta disappears (e.g. garbage collection)
        u, v, _ = next(engine.graph.deltas())
        engine.graph.remove_delta(u, v)
        for c in commits:
            engine.ingest_commit(repo, c)
        tree = engine.resolve()
        # reference: the same final graph, solved from scratch
        ref = lmg_array(CompiledGraph(engine.graph), budget)
        assert tree.to_plan() == ref.to_plan()

    def test_engine_requires_exactly_one_budget_mode(self):
        with pytest.raises(ValueError):
            IngestEngine()
        with pytest.raises(ValueError):
            IngestEngine(budget=5.0, budget_factor=2.0)

    def test_unknown_solver_rejected(self):
        with pytest.raises(KeyError, match="engine solver"):
            IngestEngine(budget=5.0, solver="dp-msr")


class TestBackgroundMode:
    def test_background_resolver_runs_and_collects(self):
        bg = BackgroundResolver()
        assert bg.poll() is None
        bg.submit(lambda x: x * 2, 21)
        bg.wait()
        ok, value = bg.poll()
        assert ok and value == 42
        assert not bg.busy

    def test_background_resolver_captures_exceptions(self):
        bg = BackgroundResolver()

        def boom():
            raise ValueError("nope")

        bg.submit(boom)
        bg.wait()
        ok, err = bg.poll()
        assert not ok and isinstance(err, ValueError)

    def test_background_resolver_single_slot(self):
        import threading

        bg = BackgroundResolver()
        release = threading.Event()
        bg.submit(release.wait, 5)
        with pytest.raises(RuntimeError):
            bg.submit(lambda: None)
        release.set()
        bg.wait()
        assert bg.poll() is not None

    def test_stale_failed_background_result_is_dropped(self):
        # a background solve that fails AFTER a sync resolve superseded
        # it (its captured budget no longer applies) must not abort the
        # ingest stream
        repo, batch, budget = repo_graph_budget(30, seed=14)
        engine = IngestEngine(
            budget=budget, staleness_threshold=float("inf"), background=True
        )
        commits = iter(repo.commits)
        for _ in range(10):
            engine.ingest_commit(repo, next(commits))

        def boom(cg, b):
            raise ValueError("infeasible against a superseded budget")

        engine._bg_sub_gen = engine._bg_gen
        engine._bg.submit(boom, None, 0.0)
        engine.resolve()  # sync resolve bumps the generation
        engine._bg.wait()
        engine._poll_background()  # stale failure: swallowed, not raised
        for c in commits:
            engine.ingest_commit(repo, c)
        tree = engine.resolve()
        assert tree.to_plan() == lmg_array(batch.compile(), budget).to_plan()

    def test_current_background_failure_still_raises(self):
        engine = IngestEngine(budget=1e9, background=True)
        engine.ingest_version("a", 10.0)

        def boom(cg, b):
            raise ValueError("genuinely infeasible")

        engine._bg_sub_gen = engine._bg_gen
        engine._bg.submit(boom, None, 0.0)
        engine._bg.wait()
        with pytest.raises(ValueError, match="genuinely infeasible"):
            engine._poll_background()
        # the failure nulls the tree (like _resolve_sync), so a caller
        # that catches the error gets a clean full re-solve next ingest
        assert engine.tree is None
        stats = engine.ingest_version("b", 10.0, [("a", "b", 1.0, 1.0)])
        assert stats.resolved
        engine.tree.check_invariants()

    def test_background_engine_converges_to_batch_plan(self):
        repo, batch, budget = repo_graph_budget(60, seed=13)
        engine = IngestEngine(
            budget=budget,
            solver="lmg",
            staleness_threshold=0.02,
            background=True,
        )
        for stats in engine.ingest_repository(repo):
            assert stats.storage <= budget * (1 + 1e-9) + 1e-6
        engine.wait()
        engine.tree.check_invariants()
        tree = engine.resolve()
        ref = lmg_array(batch.compile(), budget)
        assert tree.to_plan() == ref.to_plan()


class TestEngineAuxInvariants:
    def test_aux_index_tracks_graph_growth(self):
        engine = IngestEngine(budget=1e9)
        engine.ingest_version("r", 10.0)
        engine.ingest_version("a", 12.0, [("r", "a", 3.0, 3.0), ("a", "r", 3.0, 3.0)])
        cg = engine.graph.compile()
        assert cg.aux == 2
        assert cg.index[AUX] == 2
        tree = engine.tree
        assert len(tree.parent) == 3
        assert tree.parent[tree.cg.index["a"]] in (cg.index["r"], cg.aux)

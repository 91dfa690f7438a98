"""Incremental version retirement: tombstones, plan repair, lifecycle.

The PR-10 acceptance bar, pinned here:

* detach events are *absorbed* by the cached :class:`CompiledGraph`
  (tombstoned in place, no wholesale invalidation) and the next
  ``compile()`` refresh compacts to arrays elementwise-equal to a
  fresh compile of the post-retirement graph;
* after any retire sequence the graph — tombstones, compaction and
  all — is indistinguishable from never having ingested the retired
  versions (equality against an insertion-order replay);
* :meth:`IngestEngine.retire_version` repairs the live plan in
  O(depth): the repaired plan stays budget-feasible, covers exactly
  the surviving versions, and the engine's online lower bound matches
  a from-scratch rebuild after every single step;
* lifecycle: the engine is a context manager with deterministic,
  idempotent shutdown — no resolver thread outlives the block.
"""

import random
import threading

import numpy as np
import pytest

from repro.core.graph import AUX, GraphError, VersionGraph
from repro.engine import IngestEngine
from repro.fastgraph import CompiledGraph
from repro.gen import CostModel, er_construction, natural_graph

# shared instance/budget helpers live in tests/helpers.py (see conftest)
from helpers import cached_repo

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

#: budget factors validated to keep full retire sequences feasible
#: (the MSR lower bound is legitimately loose on post-retirement
#: graphs, where cheap bidirectional deltas cannot all be used)
FACTOR = {"msr": 8.0, "bmr": 3.0}


def assert_compiled_equal(a, b):
    assert a.n == b.n and a.aux == b.aux and a.num_edges == b.num_edges
    assert a.nodes == b.nodes
    assert a.index == b.index
    for name in COMPARED_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def replay_live(g, name="replay"):
    """Rebuild ``g``'s surviving versions/deltas in insertion order.

    The graph a clairvoyant writer would have built by never ingesting
    the retired versions at all.
    """
    g2 = VersionGraph(name=name)
    for v in g.versions:
        g2.add_version(v, g.storage_cost(v))
    for u, w, d in g.deltas():
        g2.add_delta(u, w, d.storage, d.retrieval)
    return g2


def graphs_for(seed):
    natural = natural_graph(50, seed=seed)
    er = er_construction(natural, 0.25, CostModel(), seed=seed + 1)
    return [natural, er]


# ----------------------------------------------------------------------
# compiled-graph detach contract (graph level, no engine)
# ----------------------------------------------------------------------
class TestCompiledDetach:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_remove_delta_absorbed_and_compacted(self, seed):
        for g in graphs_for(seed):
            cg = g.compile()
            rng = random.Random(seed)
            edges = [(u, w) for u, w, _ in g.deltas()]
            for u, w in rng.sample(edges, min(15, len(edges))):
                g.remove_delta(u, w)
                # absorbed: the cached compiled graph is tombstoned in
                # place, not thrown away
                assert g.compiled_cache is cg
            refreshed = g.compile()
            assert refreshed is cg
            assert_compiled_equal(cg, CompiledGraph(g))

    @pytest.mark.parametrize("seed", [1, 4])
    def test_remove_version_tombstoned_then_compacted(self, seed):
        for g in graphs_for(seed):
            cg = g.compile()
            rng = random.Random(seed)
            for v in rng.sample(g.versions, 10):
                g.remove_version(v)
                assert g.compiled_cache is cg
            refreshed = g.compile()
            assert refreshed is cg
            assert_compiled_equal(cg, CompiledGraph(g))

    def test_detach_equals_never_ingested(self):
        g = natural_graph(40, seed=7)
        g.compile()
        rng = random.Random(7)
        for v in rng.sample(g.versions, 12):
            g.remove_version(v)
        # tombstone + compaction must be indistinguishable from a
        # history where the retired versions never arrived
        assert_compiled_equal(g.compile(), CompiledGraph(replay_live(g)))

    def test_interleaved_adds_and_removes(self):
        g = VersionGraph(name="interleave")
        cg = g.compile()
        rng = random.Random(11)
        live = []
        for i in range(60):
            v = f"v{i}"
            g.add_version(v, float(rng.randint(50, 150)))
            for u in rng.sample(live, min(2, len(live))):
                s = float(rng.randint(1, 40))
                g.add_delta(u, v, s, s)
                g.add_delta(v, u, s * 0.5, s * 0.5)
            live.append(v)
            if i % 5 == 4:
                victim = live.pop(rng.randrange(len(live)))
                g.remove_version(victim)
        assert g.compile() is cg
        assert_compiled_equal(cg, CompiledGraph(g))
        assert_compiled_equal(cg, CompiledGraph(replay_live(g)))


# ----------------------------------------------------------------------
# engine plan repair
# ----------------------------------------------------------------------
def check_engine_coherence(eng):
    """Per-step acceptance: LB, tree invariants, feasibility, coverage."""
    fresh = eng.spec.lower_bound_tracker()
    fresh.rebuild(eng.graph)
    assert abs(fresh.value() - eng._lb.value()) < 1e-6 * max(fresh.value(), 1.0)
    eng.tree.check_invariants()
    plan = eng.plan()
    assert plan.is_feasible(eng.graph)
    assert set(eng.tree.parent_map()) == set(eng.graph.versions)
    return plan


class TestRetirePlanRepair:
    @pytest.mark.parametrize("problem", ["msr", "bmr"])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_retire_sequence_stays_feasible(self, problem, seed):
        repo = cached_repo(60, seed=seed)
        with IngestEngine(
            problem=problem, budget_factor=FACTOR[problem]
        ) as eng:
            for commit in repo.commits:
                eng.ingest_commit(repo, commit)
            rng = random.Random(seed)
            for v in rng.sample(eng.graph.versions, 15):
                eng.retire_version(v)
                check_engine_coherence(eng)
            # after compaction the graph is byte-identical to one where
            # the retired versions never arrived ...
            eng.resolve()
            assert_compiled_equal(
                eng.graph.compile(), CompiledGraph(replay_live(eng.graph))
            )
            # ... so the engine's re-solve equals a scratch solve
            scratch = eng._solver(
                CompiledGraph(replay_live(eng.graph)), eng.current_budget()
            )
            assert eng.plan() == scratch.to_plan()

    @pytest.mark.parametrize("problem", ["msr", "bmr"])
    def test_retire_interleaved_with_arrivals(self, problem):
        repo = cached_repo(80, seed=2)
        # versions later commits diff against must stay: an arrival's
        # delta endpoints have to exist at ingest time
        referenced = {p for c in repo.commits for p in c.parents}
        with IngestEngine(
            problem=problem, budget_factor=FACTOR[problem]
        ) as eng:
            rng = random.Random(2)
            retired = 0
            for i, commit in enumerate(repo.commits):
                eng.ingest_commit(repo, commit)
                if i % 7 == 6:
                    victims = [
                        v for v in eng.graph.versions if v not in referenced
                    ]
                    if victims:
                        eng.retire_version(rng.choice(victims))
                        retired += 1
                        check_engine_coherence(eng)
            assert retired >= 5
            eng.resolve()
            check_engine_coherence(eng)

    def test_background_retirement(self):
        repo = cached_repo(60, seed=3)
        with IngestEngine(
            problem="msr", budget_factor=8.0, background=True
        ) as eng:
            for commit in repo.commits:
                eng.ingest_commit(repo, commit)
            eng.wait()
            rng = random.Random(3)
            for v in rng.sample(eng.graph.versions, 10):
                eng.retire_version(v)
                eng.wait()
                check_engine_coherence(eng)
            eng.resolve()
            assert_compiled_equal(
                eng.graph.compile(), CompiledGraph(replay_live(eng.graph))
            )


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
class TestRetireEdgeCases:
    def test_unknown_version_raises(self):
        eng = IngestEngine(budget=1000.0)
        eng.ingest_version("a", 10.0)
        with pytest.raises(GraphError, match="unknown"):
            eng.retire_version("zzz")

    def test_retire_without_plan_forces_resolve(self):
        g = VersionGraph(name="pre")
        g.add_version("a", 10.0)
        g.add_version("b", 12.0)
        g.add_delta("a", "b", 2.0, 2.0)
        eng = IngestEngine(g, budget=1000.0)
        assert eng.tree is None
        eng.retire_version("b")  # plain removal, no plan to repair
        assert eng.tree is None and "b" not in eng.graph
        stats = eng.ingest_version("c", 8.0, [("a", "c", 1.0, 1.0)])
        assert stats.resolved
        assert eng.plan().is_feasible(eng.graph)

    def test_out_of_band_removal_forces_resolve(self):
        eng = IngestEngine(budget=1000.0)
        eng.ingest_version("a", 10.0)
        eng.ingest_version("b", 12.0, [("a", "b", 2.0, 2.0)])
        eng.ingest_version("c", 9.0, [("b", "c", 3.0, 3.0)])
        eng.graph.remove_delta("b", "c")  # behind the engine's back
        stats = eng.ingest_version("d", 5.0, [("a", "d", 1.0, 1.0)])
        assert stats.resolved  # dirty bookkeeping -> full re-solve
        assert eng.plan().is_feasible(eng.graph)
        assert_compiled_equal(eng.graph.compile(), CompiledGraph(eng.graph))

    def test_infeasible_retirement_raises(self):
        # a(100) -> b -> c on cheap deltas; retiring b leaves c only the
        # expensive a->c edge (50) or materialization (100): both blow
        # the MSR budget, so repair falls back to a full re-solve that
        # must report infeasibility
        eng = IngestEngine(problem="msr", budget=110.0)
        eng.ingest_version("a", 100.0)
        eng.ingest_version("b", 100.0, [("a", "b", 1.0, 1.0)])
        eng.ingest_version(
            "c", 100.0, [("b", "c", 1.0, 1.0), ("a", "c", 50.0, 50.0)]
        )
        with pytest.raises(ValueError):
            eng.retire_version("b")
        # graph removal stands; the engine is in retry-with-full-solve
        assert "b" not in eng.graph and eng.tree is None

    def test_bmr_retirement_always_repairable(self):
        # BMR: materialization costs zero retrieval, so repair can
        # always fall back to storing the orphan outright
        eng = IngestEngine(problem="bmr", budget=5.0)
        eng.ingest_version("a", 100.0)
        eng.ingest_version("b", 100.0, [("a", "b", 1.0, 4.0)])
        eng.ingest_version("c", 100.0, [("b", "c", 1.0, 4.0)])
        eng.retire_version("b")
        plan = eng.plan()
        assert plan.is_feasible(eng.graph)
        assert set(eng.tree.parent_map()) == {"a", "c"}


# ----------------------------------------------------------------------
# the repair rule, by hand: arrivals and retirements choose alike
# ----------------------------------------------------------------------
def repair_engine(problem="msr", budget=1e9):
    """``a`` and ``b`` materialized, no re-solve after the first."""
    eng = IngestEngine(problem=problem, budget=budget, staleness_threshold=float("inf"))
    eng.ingest_version("a", 100.0)
    eng.ingest_version("b", 100.0)
    return eng


def parent_of(eng, v):
    return eng.tree.parent_map()[v]


def retire_orphaning_c(eng, storage, deltas):
    """Hang ``c`` under ``x`` through a cheap edge, then retire ``x``.

    ``deltas`` are ``c``'s surviving in-edges; only ``x -> c`` beats
    them, so the repair must choose among exactly these options.
    """
    eng.ingest_version("x", 100.0, [("a", "x", 1.0, 1.0)])
    eng.ingest_version("c", storage, [("x", "c", 0.5, 0.5), *deltas])
    assert parent_of(eng, "c") == "x"
    eng.retire_version("x")
    check_engine_coherence(eng)
    return parent_of(eng, "c")


class TestRepairRule:
    STORAGE_TIE = [("a", "c", 5.0, 10.0), ("b", "c", 5.0, 3.0)]

    def test_arrival_storage_tie_takes_lower_retrieval(self):
        eng = repair_engine()
        eng.ingest_version("c", 100.0, self.STORAGE_TIE)
        assert parent_of(eng, "c") == "b"

    def test_retirement_storage_tie_takes_lower_retrieval(self):
        assert retire_orphaning_c(repair_engine(), 100.0, self.STORAGE_TIE) == "b"

    @pytest.mark.parametrize("first", ["a", "b"])
    def test_arrival_full_tie_keeps_first_predecessor(self, first):
        second = "b" if first == "a" else "a"
        eng = repair_engine()
        eng.ingest_version(
            "c", 100.0, [(first, "c", 5.0, 3.0), (second, "c", 5.0, 3.0)]
        )
        assert parent_of(eng, "c") == first

    @pytest.mark.parametrize("first", ["a", "b"])
    def test_retirement_full_tie_keeps_first_predecessor(self, first):
        second = "b" if first == "a" else "a"
        deltas = [(first, "c", 5.0, 3.0), (second, "c", 5.0, 3.0)]
        assert retire_orphaning_c(repair_engine(), 100.0, deltas) == first

    # (node storage, in-edge storage, in-edge retrieval) -> winner: a
    # materialized parent gives the delta retrieval 0 + r, so only a
    # strictly smaller (storage, retrieval) key lets materialization win
    MATERIALIZE_CASES = [
        (5.0, 5.0, 0.0, "a"),  # full tie: the delta comes first
        (5.0, 6.0, 0.0, AUX),  # strictly less storage
        (5.0, 5.0, 1.0, AUX),  # storage tie, strictly less retrieval
        (6.0, 5.0, 9.0, "a"),  # the delta stores less
    ]

    @pytest.mark.parametrize("node_s,edge_s,edge_r,winner", MATERIALIZE_CASES)
    def test_arrival_materializes_only_when_strictly_cheaper(
        self, node_s, edge_s, edge_r, winner
    ):
        eng = repair_engine()
        eng.ingest_version("c", node_s, [("a", "c", edge_s, edge_r)])
        assert parent_of(eng, "c") == winner

    @pytest.mark.parametrize("node_s,edge_s,edge_r,winner", MATERIALIZE_CASES)
    def test_retirement_materializes_only_when_strictly_cheaper(
        self, node_s, edge_s, edge_r, winner
    ):
        deltas = [("a", "c", edge_s, edge_r)]
        assert retire_orphaning_c(repair_engine(), node_s, deltas) == winner

    def test_retirement_never_rehomes_under_own_subtree(self):
        # d hangs below c and offers c the cheapest surviving in-edge:
        # taking it would close the cycle c -> d -> c
        eng = repair_engine()
        eng.ingest_version("x", 100.0, [("a", "x", 1.0, 1.0)])
        eng.ingest_version("c", 100.0, [("x", "c", 0.5, 0.5), ("a", "c", 5.0, 5.0)])
        eng.ingest_version("d", 100.0, [("c", "d", 0.5, 0.5), ("d", "c", 0.1, 0.1)])
        assert parent_of(eng, "d") == "c"
        eng.retire_version("x")
        check_engine_coherence(eng)
        assert parent_of(eng, "c") == "a"
        assert parent_of(eng, "d") == "c"

    def test_bmr_arrival_rejects_parent_over_budget(self):
        eng = repair_engine("bmr", budget=10.0)
        eng.ingest_version("c", 100.0, [("a", "c", 1.0, 11.0), ("b", "c", 2.0, 10.0)])
        assert parent_of(eng, "c") == "b"

    def test_bmr_retirement_checks_deepest_descendant(self):
        # ret: x = 2, c = 4, d = 9 under a max-retrieval budget of 10.
        # Orphaned c could hang under b (storage 2) at retrieval 6 <= 10,
        # but that shifts d to 11: the repair must pay for a -> c instead
        eng = repair_engine("bmr", budget=10.0)
        eng.ingest_version("x", 100.0, [("a", "x", 1.0, 2.0)])
        eng.ingest_version(
            "c",
            100.0,
            [("x", "c", 1.0, 2.0), ("b", "c", 2.0, 6.0), ("a", "c", 3.0, 1.0)],
        )
        eng.ingest_version("d", 100.0, [("c", "d", 1.0, 5.0)])
        assert eng.tree.retrieval_summary().maximum == 9.0
        eng.retire_version("x")
        check_engine_coherence(eng)
        assert parent_of(eng, "c") == "a"
        assert eng.tree.retrieval_summary().per_version["d"] == 6.0


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def resolver_threads():
    return [
        t for t in threading.enumerate() if t.name == "repro-bg-resolve"
    ]


class TestLifecycle:
    def test_context_manager_joins_resolver(self):
        repo = cached_repo(60, seed=0)
        with IngestEngine(
            problem="msr", budget_factor=8.0, background=True
        ) as eng:
            for commit in repo.commits:
                eng.ingest_commit(repo, commit)
        assert eng._bg is None
        assert not any(t.is_alive() for t in resolver_threads())

    def test_close_is_idempotent_and_degrades_to_sync(self):
        repo = cached_repo(40, seed=1)
        eng = IngestEngine(problem="msr", budget_factor=8.0, background=True)
        for commit in repo.commits[:20]:
            eng.ingest_commit(repo, commit)
        eng.close()
        eng.close()  # idempotent
        assert eng._bg is None
        # a closed engine keeps working, synchronously
        for commit in repo.commits[20:]:
            eng.ingest_commit(repo, commit)
        assert eng.plan().is_feasible(eng.graph)

    def test_close_without_background_is_noop(self):
        eng = IngestEngine(budget=100.0)
        eng.ingest_version("a", 10.0)
        eng.close()
        eng.ingest_version("b", 10.0, [("a", "b", 1.0, 1.0)])
        assert eng.plan().is_feasible(eng.graph)

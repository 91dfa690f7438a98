"""Tests for the fastgraph subsystem (compiled graphs + array kernels).

The load-bearing guarantee: every array kernel produces a plan
*identical* to its dict reference — same parent map, same storage, same
retrieval — on random graphs, natural graphs, and every
``repro.gen.presets`` dataset (the ISSUE-1 acceptance bar is
cost-identity; we assert the stronger structural identity).
"""

import pickle

import numpy as np
import pytest

from repro.core.graph import AUX, GraphError, VersionGraph
from repro.core.solution import PlanTree
from repro.algorithms import lmg, lmg_all, mp, min_storage_plan_tree
from repro.algorithms.arborescence import min_storage_arborescence
from repro.algorithms.registry import BACKENDS, SOLVERS, get_solver
from repro.fastgraph import ArrayPlanTree, CompiledGraph, lmg_all_array, lmg_array, mp_array
from repro.fastgraph.arborescence import (
    edmonds_rounds,
    min_storage_parent_edges,
)
from repro.gen import natural_graph, random_digraph
from repro.gen.presets import PRESETS

# Scales keep each preset at a size where the dict reference is fast
# enough for CI while still exercising branches/merges/ER densification.
PRESET_SCALES = {
    "datasharing": 1.0,
    "styleguide": 0.2,
    "996.ICU": 0.05,
    "freeCodeCamp": 0.008,
    "LeetCodeAnimation": 0.5,
    "LeetCode (0.05)": 0.35,
    "LeetCode (0.2)": 0.35,
    "LeetCode (1)": 0.1,
}


def preset_graph(name):
    return PRESETS[name].build(scale=PRESET_SCALES[name])


def assert_tree_equal(ref: PlanTree, arr: ArrayPlanTree):
    assert ref.parent == arr.parent_map()
    assert ref.total_storage == arr.total_storage
    assert ref.total_retrieval == pytest.approx(arr.total_retrieval, rel=1e-12, abs=1e-9)


class TestCompiledGraph:
    def test_interning_and_arrays(self):
        g = random_digraph(10, seed=1)
        cg = g.compile()
        assert cg.n == 10
        assert cg.aux == 10
        ext = cg.graph
        assert cg.num_edges == ext.num_deltas
        # every edge of the extended graph is represented, costs intact
        for eid, (u, v, d) in enumerate(ext.deltas()):
            assert cg.edge_src[eid] == cg.index[u]
            assert cg.edge_dst[eid] == cg.index[v]
            assert cg.edge_storage[eid] == d.storage
            assert cg.edge_retrieval[eid] == d.retrieval
        for i, v in enumerate(cg.nodes):
            assert cg.node_storage[i] == g.storage_cost(v)
        assert cg.node_storage[cg.aux] == 0.0

    def test_aux_edges(self):
        g = random_digraph(8, seed=2)
        cg = g.compile()
        for i, v in enumerate(cg.nodes):
            eid = int(cg.aux_edge[i])
            assert cg.edge_src[eid] == cg.aux
            assert cg.edge_dst[eid] == i
            assert cg.edge_storage[eid] == g.storage_cost(v)
            assert cg.edge_retrieval[eid] == 0.0

    def test_csr_matches_adjacency(self):
        g = random_digraph(12, extra_edge_prob=0.3, seed=3)
        cg = g.compile()
        ext = cg.graph
        for u in ext.versions:
            ui = cg.index[u]
            succ = [cg.nodes[cg.edge_dst[e]] if cg.edge_dst[e] != cg.aux else AUX
                    for e in cg.out_slice(ui)]
            assert succ == list(ext.successors(u))
            pred = [cg.node_of(int(cg.edge_src[e])) for e in cg.in_slice(ui)]
            assert pred == list(ext.predecessors(u))

    def test_compile_is_cached_and_extended_on_append(self):
        g = random_digraph(6, seed=4)
        cg1 = g.compile()
        assert g.compile() is cg1
        # pure appends extend the cached compiled graph in place ...
        g.add_version("fresh", 5.0)
        cg2 = g.compile()
        assert cg2 is cg1
        assert cg2.n == 7
        assert np.array_equal(cg2.node_storage, CompiledGraph(g).node_storage)

    def test_compile_absorbs_removals_as_tombstones(self):
        g = random_digraph(6, seed=4)
        cg1 = g.compile()
        before = cg1.num_edges
        u, v, _ = next(g.deltas())
        g.remove_delta(u, v)  # a detach: tombstoned, compacted on compile
        cg2 = g.compile()
        assert cg2 is cg1
        assert cg2.num_edges == before - 1
        fresh = CompiledGraph(g)
        assert np.array_equal(cg2.edge_storage, fresh.edge_storage)
        assert np.array_equal(cg2.edge_retrieval, fresh.edge_retrieval)

    def test_compile_invalidated_on_cost_update(self):
        g = random_digraph(6, seed=4)
        cg1 = g.compile()
        g.add_version(g.versions[0], 123.0)  # storage update, same node
        cg2 = g.compile()
        assert cg2 is not cg1
        assert cg2.node_storage[0] == 123.0

    def test_compiled_graph_pickles(self):
        g = random_digraph(6, seed=5)
        cg = g.compile()
        g2 = pickle.loads(pickle.dumps(g))
        cg2 = g2.compile()  # cache rides along through pickle
        assert cg2.n == cg.n
        assert np.array_equal(cg2.edge_storage, cg.edge_storage)

    def test_accepts_extended_graph(self):
        g = random_digraph(5, seed=6)
        cg = CompiledGraph(g.extended())
        assert cg.n == 5
        assert int(cg.aux_edge.min()) >= 0


class TestArrayPlanTree:
    def make_pair(self, seed=7):
        g = random_digraph(12, extra_edge_prob=0.3, seed=seed)
        cg = g.compile()
        parent = min_storage_arborescence(cg.graph)
        return cg, PlanTree(cg.graph, parent), ArrayPlanTree.from_parent_map(cg, parent)

    def test_construction_matches_plantree(self):
        cg, ref, arr = self.make_pair()
        assert_tree_equal(ref, arr)
        for i, v in enumerate(cg.nodes):
            assert ref.ret[v] == arr.ret[i]
            assert ref.subtree_size[v] == arr.size[i]

    def test_swap_contract_matches(self):
        cg, ref, arr = self.make_pair(seed=8)
        ref.refresh_euler()
        for eid in range(cg.num_edges):
            u = int(cg.edge_src[eid])
            v = int(cg.edge_dst[eid])
            nu = cg.node_of(u)
            nv = cg.nodes[v]
            if ref.parent[nv] is nu or ref.is_ancestor(nv, nu):
                continue
            ds_ref, dr_ref = ref.swap_deltas(nu, nv)
            ds_arr, dr_arr = arr.swap_deltas_edge(eid)
            assert ds_ref == ds_arr
            assert dr_ref == dr_arr

    def test_apply_swap_matches(self):
        cg, ref, arr = self.make_pair(seed=9)
        applied = 0
        for eid in range(cg.num_edges):
            u = int(cg.edge_src[eid])
            v = int(cg.edge_dst[eid])
            nu = cg.node_of(u)
            nv = cg.nodes[v]
            if ref.parent[nv] is nu or ref.is_ancestor(nv, nu):
                continue
            ref.apply_swap(nu, nv)
            arr.apply_swap_edge(eid)
            applied += 1
            if applied >= 5:
                break
        assert applied > 0
        assert_tree_equal(ref, arr)
        arr.check_invariants()

    def test_cycle_swap_rejected(self):
        cg, ref, arr = self.make_pair(seed=10)
        for eid in range(cg.num_edges):
            u = int(cg.edge_src[eid])
            v = int(cg.edge_dst[eid])
            if u != cg.aux and arr.is_ancestor(v, u) and u != v:
                with pytest.raises(GraphError):
                    arr.apply_swap_edge(eid)
                return
        pytest.skip("no cycle-creating edge in this instance")

    def test_subtree_matches_plantree_descendants(self):
        cg, ref, arr = self.make_pair(seed=12)
        node = cg.node_of
        # from AUX: the dict tree's own root-first walk, order included
        assert [node(x) for x in arr.subtree(cg.aux)] == ref._topo_order()
        ref.refresh_euler()
        for v in range(cg.n):
            sub = arr.subtree(v)
            assert sub[0] == v and len(sub) == int(arr.size[v])
            assert {node(x) for x in sub} == {
                y for y in ref.parent if ref.is_ancestor(cg.nodes[v], y)
            }
            seen = set()
            for x in sub[1:]:  # preorder: every parent comes first
                assert int(arr.parent[x]) in seen | {v}
                seen.add(x)

    def test_clone_mutations_leave_original_bit_identical(self):
        cg, _, arr = self.make_pair(seed=13)
        # grow the original first: a clone must not share its append buffers
        arr.append_version(0, cg.num_edges, 3.0, 1.0)
        arr.refresh_euler()

        def state(t):
            t._ensure_children()
            return (
                [a.tobytes() for a in (t.parent, t.par_edge, t.ret, t.size)],
                [list(c) for c in t.children],
                t.total_storage,
                t.total_retrieval,
            )

        before = state(arr)
        tin, pre = arr._tin.tobytes(), arr._preorder.tobytes()
        leaf = next(v for v in range(cg.n) if arr.size[v] == 1 and arr.parent[v] != cg.aux)
        aux_eid = int(cg.aux_edge[leaf])
        old_s = float(cg.edge_storage[arr.par_edge[leaf]])

        def swap(t):  # fresh path: the intervals are current
            t.materialize(leaf)

        def walk(t):  # walk-path move on clean child sets, append, detach
            aux = t.num_versions
            t.rehome_subtree(leaf, aux, aux_eid, float(cg.edge_storage[aux_eid]), 0.0, old_s)
            new_v = t.append_version(leaf, cg.num_edges, 2.0, 1.0)
            t.detach_version(new_v, 2.0)

        for mutate in (swap, walk):
            copy = arr.clone()
            mutate(copy)
            assert state(copy) != before
            assert state(arr) == before
            assert (arr._tin.tobytes(), arr._preorder.tobytes()) == (tin, pre)

    def test_exports(self):
        cg, ref, arr = self.make_pair(seed=11)
        assert ref.to_plan() == arr.to_plan()
        assert sorted(map(str, ref.materialized_versions())) == sorted(
            map(str, arr.materialized_versions())
        )
        assert arr.max_retrieval() == ref.max_retrieval()
        back = arr.to_plan_tree()
        assert back.parent == ref.parent


class TestArrayArborescence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dict_edmonds_random(self, seed):
        g = random_digraph(14, extra_edge_prob=0.4, seed=seed)
        cg = g.compile()
        ref = min_storage_arborescence(cg.graph)
        pairs = min_storage_parent_edges(cg)
        arr = {cg.nodes[v]: cg.node_of(int(cg.edge_src[e])) for v, e in pairs}
        assert ref == arr

    def test_matches_dict_edmonds_natural(self):
        g = natural_graph(60, seed=12)
        cg = g.compile()
        ref = min_storage_arborescence(cg.graph)
        pairs = min_storage_parent_edges(cg)
        arr = {cg.nodes[v]: cg.node_of(int(cg.edge_src[e])) for v, e in pairs}
        assert ref == arr

    def test_directed_chain_spans_via_aux(self):
        g = VersionGraph()
        g.add_version("a", 5)
        g.add_version("b", 5)
        g.add_delta("a", "b", 1, 1)
        cg = g.compile()  # extends internally: reachable via AUX
        assert len(min_storage_parent_edges(cg)) == 2


class TestStartTreeCache:
    """One Edmonds run per compiled graph, never a stale tree."""

    @staticmethod
    def fresh(graph):
        """Start tree of a from-scratch compile of ``graph``."""
        return min_storage_parent_edges(graph.copy().compile())

    def test_repeated_calls_return_equal_independent_lists(self):
        cg = natural_graph(40, seed=3).compile()
        first = min_storage_parent_edges(cg)
        second = min_storage_parent_edges(cg)
        assert first == second and first is not second
        first.clear()
        second[0] = (0, -1)
        assert min_storage_parent_edges(cg) == self.fresh(cg.graph)

    @staticmethod
    def _tree_edge(graph):
        """A non-AUX start-tree edge ``(u, v)`` of ``graph``."""
        cg = graph.compile()
        for v, e in min_storage_parent_edges(cg):
            u = int(cg.edge_src[e])
            if u != cg.aux:
                return cg.nodes[u], cg.nodes[v]
        raise AssertionError("start tree materializes every version")

    def _mutate(self, graph, kind):
        if kind == "add_version":
            graph.add_version("new", 1.0)
            graph.add_delta("new", graph.versions[0], 0.5, 1.0)
        elif kind == "add_delta":
            # a near-free delta into a version the tree pays a delta for
            u, v = self._tree_edge(graph)
            src = next(
                x for x in graph.versions if x not in (u, v) and not graph.has_delta(x, v)
            )
            graph.add_delta(src, v, 1e-3, 1.0)
        elif kind == "remove_delta":
            graph.remove_delta(*self._tree_edge(graph))
        else:  # remove_version, compacted by the next compile
            graph.remove_version(self._tree_edge(graph)[0])

    @pytest.mark.parametrize(
        "kind", ["add_version", "add_delta", "remove_delta", "remove_version"]
    )
    def test_mutation_yields_fresh_compile_tree(self, kind):
        graph = natural_graph(40, seed=5)
        cg = graph.compile()
        before = min_storage_parent_edges(cg)
        self._mutate(graph, kind)
        assert graph.compile() is cg  # absorbed in place, not recompiled
        after = min_storage_parent_edges(cg)
        assert after == self.fresh(graph)
        assert after != before

    def test_int64_upcast_yields_fresh_compile_tree(self):
        from repro.core.graph import GraphMutation

        graph = natural_graph(30, seed=6)  # span 90: fits int8
        cg = CompiledGraph(graph, index_dtype=np.int8)
        min_storage_parent_edges(cg)
        grown = graph.copy()
        events = []
        for i in range(20):  # push the edge span past int8's 127
            events.append(GraphMutation("add_version", None, f"x{i}", 3.0))
            events.append(GraphMutation("add_delta", i, f"x{i}", 1.0, 1.0))
        for ev in events:
            assert cg.apply_mutation(ev)
            if ev.kind == "add_version":
                grown.add_version(ev.v, ev.storage)
            else:
                grown.add_delta(ev.u, ev.v, ev.storage, ev.retrieval)
        cg.refresh()
        assert cg.index_dtype == np.dtype(np.int64)
        assert min_storage_parent_edges(cg) == self.fresh(grown)

    def test_cost_update_recomputes(self):
        graph = natural_graph(40, seed=7)
        cg = graph.compile()
        before = min_storage_parent_edges(cg)
        u, v = self._tree_edge(graph)
        graph.add_version(v, 1e-3)  # update_version: cheaper to materialize
        new_cg = graph.compile()
        assert new_cg is not cg
        after = min_storage_parent_edges(new_cg)
        assert after == self.fresh(graph) and after != before

    def test_snapshot_keeps_its_tree(self):
        graph = natural_graph(40, seed=8)
        live = graph.compile()
        snap = live.snapshot()
        frozen = min_storage_parent_edges(snap)
        self._mutate(graph, "add_delta")
        assert min_storage_parent_edges(graph.compile()) != frozen
        assert min_storage_parent_edges(snap) == frozen
        # a snapshot taken after the fill carries the cached tree over
        cached = min_storage_parent_edges(graph.compile())
        assert min_storage_parent_edges(graph.compile().snapshot()) == cached

    def test_one_edmonds_run_per_compiled_graph(self, monkeypatch):
        from repro.fastgraph import arborescence
        from repro.fastgraph.plantree import ArrayPlanTree
        from repro.fastgraph.trajectory import sweep_greedy

        calls = []
        real = arborescence._edmonds_array

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(arborescence, "_edmonds_array", counting)
        cg = natural_graph(60, seed=9).compile()
        s0 = ArrayPlanTree(cg, min_storage_parent_edges(cg)).total_storage
        lmg_array(cg, 2 * s0)
        lmg_all_array(cg, 2 * s0)
        sweep_greedy(cg, "msr", "lmg", [1.2 * s0, 2 * s0, 4 * s0])
        assert len(calls) == 1

    def test_rounds_contract_disjoint_cycles_together(self):
        def graph(deltas):
            g = VersionGraph()
            for v in "abcd":
                g.add_version(v, 10)
            for u, v, s in deltas:
                g.add_delta(u, v, s, 1)
            return g.compile()

        two_cycles = [("a", "b", 1), ("b", "a", 1), ("c", "d", 1), ("d", "c", 1)]
        assert edmonds_rounds(graph([])) == 0
        assert edmonds_rounds(graph(two_cycles)) == 1
        # the two super nodes point at each other: a second round
        assert edmonds_rounds(graph(two_cycles + [("b", "c", 2), ("d", "a", 2)])) == 2


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        g = random_digraph(12, extra_edge_prob=0.3, seed=seed)
        base = min_storage_plan_tree(g).total_storage
        for frac in (1.0, 1.4, 2.5):
            budget = base * frac + 1
            assert_tree_equal(lmg(g, budget), lmg_array(g, budget))
            assert_tree_equal(lmg_all(g, budget), lmg_all_array(g, budget))
        rmax = g.max_retrieval_cost()
        for rb in (0.0, rmax, 3 * rmax, float("inf")):
            assert_tree_equal(mp(g, rb), mp_array(g, rb))

    @pytest.mark.parametrize("name", sorted(PRESET_SCALES))
    def test_presets(self, name):
        g = preset_graph(name)
        base = min_storage_plan_tree(g).total_storage
        for frac in (1.02, 1.5, 3.0):
            budget = base * frac
            assert_tree_equal(lmg(g, budget), lmg_array(g, budget))
            assert_tree_equal(lmg_all(g, budget), lmg_all_array(g, budget))
        rb = g.max_retrieval_cost() * 2
        assert_tree_equal(mp(g, rb), mp_array(g, rb))

    @pytest.mark.parametrize("seed", range(4))
    def test_float_costs_bitwise_equivalent(self, seed):
        # Non-integer costs exercise the float accumulation ordering:
        # both backends must agree bitwise on storage totals so budget
        # boundary decisions can never diverge by an ulp.
        rng = np.random.default_rng(seed)
        n = 12
        g = VersionGraph()
        for i in range(n):
            g.add_version(i, float(rng.uniform(0.01, 5.0)))
        for i in range(1, n):
            j = int(rng.integers(0, i))
            g.add_bidirectional_delta(
                j, i, float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.01, 2.0))
            )
        ref = min_storage_plan_tree(g)
        arr = lmg_array(g, ref.total_storage)
        assert ref.total_storage == arr.total_storage  # exact, not approx
        base = ref.total_storage
        for frac in (1.01, 1.7):
            assert_tree_equal(lmg(g, base * frac), lmg_array(g, base * frac))
            assert_tree_equal(lmg_all(g, base * frac), lmg_all_array(g, base * frac))

    def test_infeasible_budget_raises_like_reference(self):
        g = random_digraph(8, seed=20)
        base = min_storage_plan_tree(g).total_storage
        with pytest.raises(ValueError):
            lmg_array(g, base - 1)
        with pytest.raises(ValueError):
            lmg_all_array(g, base - 1)
        with pytest.raises(ValueError):
            mp_array(g, -1.0)

    def test_max_iterations_cap(self):
        g = natural_graph(30, seed=4)
        budget = g.total_version_storage()
        ref = lmg(g, budget, max_iterations=2)
        arr = lmg_array(g, budget, max_iterations=2)
        assert_tree_equal(ref, arr)
        ref = lmg_all(g, budget, max_iterations=3)
        arr = lmg_all_array(g, budget, max_iterations=3)
        assert_tree_equal(ref, arr)


class TestRegistryBackends:
    def test_default_is_array(self):
        assert get_solver("msr", "lmg") is SOLVERS[("msr", "lmg")]
        assert get_solver("msr", "lmg") is BACKENDS[("msr", "lmg")]["array"]
        assert get_solver("bmr", "mp") is BACKENDS[("bmr", "mp")]["array"]

    def test_backends_agree_through_registry(self):
        # every registered dict/array pair, feasible and infeasible
        g = random_digraph(10, seed=30)
        base = min_storage_plan_tree(g).total_storage
        feasible = {"msr": base * 2, "bmr": g.max_retrieval_cost()}
        infeasible = {"msr": base - 1, "bmr": -1.0}
        for problem, name in BACKENDS:
            fast = get_solver(problem, name)
            ref = get_solver(problem, name, backend="dict")
            plan = fast(g, feasible[problem])
            assert plan is not None, (problem, name)
            assert plan == ref(g, feasible[problem]), (problem, name)
            low = infeasible[problem]
            assert fast(g, low) is None and ref(g, low) is None, (problem, name)

    def test_backend_ignored_for_non_greedy(self):
        dp = get_solver("msr", "dp-msr")
        assert get_solver("msr", "dp-msr", backend="dict") is dp
        assert get_solver("msr", "dp-msr", backend="array") is dp

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_solver("msr", "lmg", backend="gpu")

    def test_solvers_accept_compiled_graph(self):
        g = random_digraph(9, seed=31)
        cg = g.compile()
        base = min_storage_plan_tree(g).total_storage
        assert_tree_equal(lmg(g, base * 2), lmg_array(cg, base * 2))
        assert_tree_equal(mp(g, 1e9), mp_array(cg, 1e9))

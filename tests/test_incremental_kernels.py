"""Three-way plan identity for the incremental greedy kernels.

The incremental kernels (:mod:`repro.fastgraph.solvers`), the frozen
rescan baselines (:mod:`repro.fastgraph.rescan`) and the dict reference
solvers are three independent implementations of the same greedy
loops.  All must produce *bit-identical* plans to each other,
across presets, random graphs and budget regimes — this is the
non-negotiable acceptance bar for the incremental rewrite.

Also covered here: the fresh-path (vectorized, Euler-maintaining) swap
application agreeing with the python-walk path on arbitrary admissible
move sequences, and the incrementally-refreshed range-max table of
:meth:`~repro.fastgraph.plantree.ArrayPlanTree.subtree_max_retrieval`
agreeing with a cold rebuild.
"""

import numpy as np
import pytest

from repro.algorithms.bmr_greedy import bmr_lmg
from repro.algorithms.lmg import lmg
from repro.algorithms.lmg_all import lmg_all
from repro.fastgraph import rescan
from repro.fastgraph.solvers import (
    _materialized_array_tree,
    _min_storage_array_tree,
    bmr_lmg_array,
    lmg_all_array,
    lmg_array,
)
from repro.gen import natural_graph, random_digraph
from repro.gen.presets import PRESETS

PRESET_CASES = [
    ("datasharing", 1.0),
    ("996.ICU", 0.03),
    ("LeetCodeAnimation", 0.3),
]


def graphs():
    for name, scale in PRESET_CASES:
        yield f"{name}", PRESETS[name].build(scale=scale)
    yield "random", random_digraph(150, extra_edge_prob=0.15, seed=11)
    yield "natural", natural_graph(120, seed=7)


def msr_budgets(graph):
    base = _min_storage_array_tree(graph.compile()).total_storage
    return [base * 1.02, base * 1.5, base * 4.0]


def bmr_budgets(graph):
    cg = graph.compile()
    tree = _materialized_array_tree(cg)
    # loose cap from the spread of single-edge retrievals
    top = float(cg.edge_retrieval.max()) if cg.num_edges else 1.0
    del tree
    return [top * 2.0, top * 8.0]


def assert_same_tree(a, b):
    assert a.parent_map() == b.parent_map()
    assert a.total_storage == b.total_storage
    assert a.total_retrieval == b.total_retrieval


class TestThreeWayIdentity:
    @pytest.mark.parametrize("name,graph", list(graphs()))
    def test_lmg_variants_match_dict(self, name, graph):
        for budget in msr_budgets(graph):
            ref = lmg(graph, budget)
            arr = lmg_array(graph, budget)
            assert ref.parent == arr.parent_map(), (name, budget)
            res = rescan.lmg_array_rescan(graph, budget)
            assert_same_tree(arr, res)

    @pytest.mark.parametrize("name,graph", list(graphs()))
    def test_lmg_all_variants_match_dict(self, name, graph):
        for budget in msr_budgets(graph):
            ref = lmg_all(graph, budget)
            arr = lmg_all_array(graph, budget)
            assert ref.parent == arr.parent_map(), (name, budget)
            res = rescan.lmg_all_array_rescan(graph, budget)
            assert_same_tree(arr, res)

    @pytest.mark.parametrize("name,graph", list(graphs()))
    def test_bmr_lmg_variants_match_dict(self, name, graph):
        for budget in bmr_budgets(graph):
            ref = bmr_lmg(graph, budget)
            arr = bmr_lmg_array(graph, budget)
            assert ref.parent == arr.parent_map(), (name, budget)
            res = rescan.bmr_lmg_array_rescan(graph, budget)
            assert_same_tree(arr, res)

    def test_infeasible_budgets_raise_everywhere(self):
        graph = random_digraph(30, seed=3)
        cg = graph.compile()
        low = _min_storage_array_tree(cg).total_storage * 0.5
        for solver in (
            lmg_array,
            rescan.lmg_array_rescan,
            lmg_all_array,
            rescan.lmg_all_array_rescan,
        ):
            with pytest.raises(ValueError, match="MSR infeasible"):
                solver(graph, low)
        for solver in (bmr_lmg_array, rescan.bmr_lmg_array_rescan):
            with pytest.raises(ValueError, match="infeasible"):
                solver(graph, -1.0)


class TestSwapPathEquivalence:
    """Fresh-path (vectorized Euler-maintaining) vs python-walk swaps."""

    def admissible_edges(self, tree, rng):
        """A random admissible non-tree edge id, or None."""
        cg = tree.cg
        ids = rng.permutation(cg.num_edges)  # real deltas + aux edges
        for eid in ids[:200]:
            eid = int(eid)
            u, v = int(cg.edge_src[eid]), int(cg.edge_dst[eid])
            if v == cg.aux or int(tree.par_edge[v]) == eid:
                continue
            if u != cg.aux and tree.is_ancestor(v, u):
                continue
            return eid
        return None

    def test_random_swap_sequences_agree(self):
        graph = random_digraph(80, extra_edge_prob=0.25, seed=21)
        cg = graph.compile()
        rng = np.random.default_rng(5)
        fresh = _materialized_array_tree(cg)
        walk = _materialized_array_tree(cg)
        fresh.ensure_euler()  # arm the vectorized path
        for _ in range(60):
            eid = self.admissible_edges(fresh, rng)
            if eid is None:
                break
            fresh.apply_swap_edge(eid)
            walk._apply_swap_rescan(eid)
            assert not fresh._order_dirty  # stayed on the fresh path
        assert np.array_equal(fresh.parent, walk.parent)
        assert np.array_equal(fresh.par_edge, walk.par_edge)
        assert np.array_equal(fresh.size, walk.size)
        assert np.array_equal(fresh.ret, walk.ret)  # bit-identical floats
        assert fresh.total_storage == walk.total_storage
        assert fresh.total_retrieval == walk.total_retrieval
        fresh.check_invariants()

    def test_fresh_euler_is_a_valid_preorder(self):
        graph = random_digraph(60, extra_edge_prob=0.3, seed=8)
        cg = graph.compile()
        rng = np.random.default_rng(9)
        tree = _materialized_array_tree(cg)
        tree.ensure_euler()
        for _ in range(40):
            eid = self.admissible_edges(tree, rng)
            if eid is None:
                break
            tree.apply_swap_edge(eid)
            tin, tout, pre = tree._tin, tree._tout, tree._preorder
            n1 = len(tree.parent)
            # tin is a permutation and preorder is its inverse
            assert sorted(tin.tolist()) == list(range(n1))
            assert np.array_equal(pre[tin], np.arange(n1))
            # every node sits inside its parent's interval
            for v in range(n1 - 1):
                p = int(tree.parent[v])
                assert tin[p] < tin[v] <= tout[v] <= tout[p]

    def test_subtree_max_retrieval_incremental_refresh(self):
        graph = random_digraph(70, extra_edge_prob=0.25, seed=13)
        cg = graph.compile()
        rng = np.random.default_rng(17)
        tree = _materialized_array_tree(cg)
        tree.ensure_euler()
        tree.subtree_max_retrieval()  # build the cached table once
        for _ in range(30):
            eid = self.admissible_edges(tree, rng)
            if eid is None:
                break
            tree.apply_swap_edge(eid)
            got = tree.subtree_max_retrieval()  # partial refresh
            cold = tree.clone().subtree_max_retrieval()  # cold rebuild
            assert np.array_equal(got, cold)


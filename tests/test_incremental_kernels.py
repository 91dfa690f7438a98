"""Three-way identity for the incremental greedy kernels.

The incremental kernels (:mod:`repro.fastgraph.solvers`) and the dict
reference solvers are independent implementations of the same greedy
loops.  They must produce *identical* plans across presets, random
graphs and budget regimes.  The third leg replays each kernel's
recorded moves through :class:`~repro.fastgraph.plantree.ArrayPlanTree`'s
python-walk swap path: the kernels update the tree arrays with their
own vectorized code, so the replay must reach *bit-identical* state
(``parent``, ``par_edge``, ``size``, ``ret`` and both float totals).

Also covered here: the fresh-path (vectorized, Euler-maintaining) swap
application agreeing with the python-walk path, and with retirement
repair's explicit-cost :meth:`rehome_subtree`, on arbitrary admissible
move sequences.
"""

import numpy as np
import pytest

from repro.algorithms.bmr_greedy import bmr_lmg
from repro.algorithms.lmg import lmg
from repro.algorithms.lmg_all import lmg_all
from repro.fastgraph.solvers import (
    _bmr_default_rounds,
    _bmr_run,
    _lmg_all_default_rounds,
    _lmg_all_run,
    _lmg_candidates,
    _lmg_default_rounds,
    _lmg_run,
    _materialized_array_tree,
    _min_storage_array_tree,
    bmr_lmg_array,
    lmg_all_array,
    lmg_array,
    mp_array,
)
from repro.gen import natural_graph, random_digraph
from repro.gen.presets import PRESETS

from helpers import assert_bit_identical

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
    # loose cap from the spread of single-edge retrievals
    top = float(cg.edge_retrieval.max()) if cg.num_edges else 1.0
    return [top * 2.0, top * 8.0]


def replay_walk(tree, record):
    """Re-apply recorded kernel moves through the python-walk swap path."""
    cg = tree.cg
    for eid, *_ in record:
        tree._apply_swap_python(eid, int(cg.edge_src[eid]), int(cg.edge_dst[eid]))
    return tree


def run_lmg(cg, tree, budget, record):
    cand = _lmg_candidates(cg, tree)
    _lmg_run(cg, tree, cand, budget, _lmg_default_rounds(cg), record)


def run_lmg_all(cg, tree, budget, record):
    _lmg_all_run(cg, tree, budget, _lmg_all_default_rounds(cg), record)


def run_bmr(cg, tree, budget, record):
    _bmr_run(cg, tree, budget, _bmr_default_rounds(cg), record)


def min_storage_start(cg, budget):
    return _min_storage_array_tree(cg)


def materialized_start(cg, budget):
    return _materialized_array_tree(cg)


#: (start tree, incremental round runner, budget grid) per kernel; the
#: mp start is mp-local's (MP's tree depends on the budget)
KERNELS = [
    (min_storage_start, run_lmg, msr_budgets),
    (min_storage_start, run_lmg_all, msr_budgets),
    (materialized_start, run_bmr, bmr_budgets),
    (mp_array, run_bmr, bmr_budgets),
]


class TestThreeWayIdentity:
    @pytest.mark.parametrize("name,graph", list(graphs()))
    def test_lmg_variants_match_dict(self, name, graph):
        for budget in msr_budgets(graph):
            ref = lmg(graph, budget)
            arr = lmg_array(graph, budget)
            assert ref.parent == arr.parent_map(), (name, budget)

    @pytest.mark.parametrize("name,graph", list(graphs()))
    def test_lmg_all_variants_match_dict(self, name, graph):
        for budget in msr_budgets(graph):
            ref = lmg_all(graph, budget)
            arr = lmg_all_array(graph, budget)
            assert ref.parent == arr.parent_map(), (name, budget)

    @pytest.mark.parametrize("name,graph", list(graphs()))
    def test_bmr_lmg_variants_match_dict(self, name, graph):
        for budget in bmr_budgets(graph):
            ref = bmr_lmg(graph, budget)
            arr = bmr_lmg_array(graph, budget)
            assert ref.parent == arr.parent_map(), (name, budget)

    @pytest.mark.parametrize("name,graph", list(graphs()))
    def test_recorded_moves_replay_bit_identically(self, name, graph):
        cg = graph.compile()
        moves = 0
        for start, run, budgets in KERNELS:
            for budget in budgets(graph):
                tree, record = start(cg, budget), []
                run(cg, tree, budget, record)
                assert_bit_identical(tree, replay_walk(start(cg, budget), record))
                moves += len(record)
        assert moves > 0  # the replay exercised real moves

    def test_infeasible_budgets_raise_everywhere(self):
        graph = random_digraph(30, seed=3)
        cg = graph.compile()
        low = _min_storage_array_tree(cg).total_storage * 0.5
        for solver in (lmg_array, lmg_all_array):
            with pytest.raises(ValueError, match="MSR infeasible"):
                solver(graph, low)
        with pytest.raises(ValueError, match="infeasible"):
            bmr_lmg_array(graph, -1.0)


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
            walk._apply_swap_python(
                eid, int(cg.edge_src[eid]), int(cg.edge_dst[eid])
            )
            assert not fresh._order_dirty  # stayed on the fresh path
        assert_bit_identical(fresh, walk)
        fresh.check_invariants()

    def test_rehome_subtree_agrees_with_edge_swaps(self):
        # retirement repair's explicit-cost move is the same move
        graph = random_digraph(80, extra_edge_prob=0.25, seed=23)
        cg = graph.compile()
        rng = np.random.default_rng(6)
        by_edge = _materialized_array_tree(cg)
        rehomed = _materialized_array_tree(cg)
        moves = 0
        for _ in range(60):
            eid = self.admissible_edges(by_edge, rng)
            if eid is None:
                break
            u, v = int(cg.edge_src[eid]), int(cg.edge_dst[eid])
            old_s = float(cg.edge_storage[rehomed.par_edge[v]])
            rehomed.rehome_subtree(
                v,
                u,
                eid,
                float(cg.edge_storage[eid]),
                float(cg.edge_retrieval[eid]),
                old_s,
            )
            by_edge.apply_swap_edge(eid)
            moves += 1
        assert moves > 20
        assert_bit_identical(by_edge, rehomed)
        rehomed.check_invariants()

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

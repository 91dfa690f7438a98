"""Tests for the BMR greedy family (dict references + array kernels).

The ISSUE-4 acceptance bar, pinned here:

* the array kernels ``bmr_lmg_array`` / ``mp_local_array`` are
  *plan-identical* to the dict references on preset and random graphs
  (same parent map, same storage, same retrieval);
* every produced plan satisfies the max-retrieval budget through the
  shared :mod:`repro.core.tolerance` helpers;
* ``mp_local`` never stores more than plain MP, and both greedy plans
  are sanity-checked against the DP-BMR reference;
* the trajectory-replay retrieval-budget sweep emits plans identical
  to independent per-budget solves.
"""

import pytest

from repro.algorithms import mp
from repro.algorithms.bmr_greedy import bmr_lmg, mp_local
from repro.algorithms.dp_bmr import dp_bmr_heuristic
from repro.algorithms.registry import get_solver
from repro.core.solution import PlanTree
from repro.core.tolerance import within_budget, within_budget_recomputed
from repro.core.problems import evaluate_plan
from repro.fastgraph import (
    ArrayPlanTree,
    bmr_lmg_array,
    mp_local_array,
    sweep_greedy_bmr,
)
from repro.gen import natural_graph, random_digraph
from repro.gen.presets import PRESETS

# Scales keep each preset at a size where the dict reference is fast
# enough for CI (mirrors tests/test_fastgraph.py).
PRESET_SCALES = {
    "datasharing": 1.0,
    "styleguide": 0.2,
    "996.ICU": 0.05,
    "LeetCodeAnimation": 0.5,
}


def assert_tree_equal(ref: PlanTree, arr: ArrayPlanTree):
    assert ref.parent == arr.parent_map()
    assert ref.total_storage == arr.total_storage
    assert ref.total_retrieval == pytest.approx(arr.total_retrieval, rel=1e-12, abs=1e-9)


def budgets_for(g):
    rmax = g.max_retrieval_cost()
    return (0.0, rmax * 0.5, rmax, 3 * rmax, float("inf"))


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        g = random_digraph(12, extra_edge_prob=0.3, seed=seed)
        for rb in budgets_for(g):
            assert_tree_equal(bmr_lmg(g, rb), bmr_lmg_array(g, rb))
            assert_tree_equal(mp_local(g, rb), mp_local_array(g, rb))

    @pytest.mark.parametrize("name", sorted(PRESET_SCALES))
    def test_presets(self, name):
        g = PRESETS[name].build(scale=PRESET_SCALES[name])
        rmax = g.max_retrieval_cost()
        for rb in (0.0, rmax, 4 * rmax):
            assert_tree_equal(bmr_lmg(g, rb), bmr_lmg_array(g, rb))
            assert_tree_equal(mp_local(g, rb), mp_local_array(g, rb))

    def test_natural_graph(self):
        g = natural_graph(70, seed=9)
        rb = g.max_retrieval_cost() * 2
        assert_tree_equal(bmr_lmg(g, rb), bmr_lmg_array(g, rb))
        assert_tree_equal(mp_local(g, rb), mp_local_array(g, rb))

    def test_max_iterations_cap(self):
        g = natural_graph(30, seed=4)
        rb = g.max_retrieval_cost() * 3
        assert_tree_equal(
            bmr_lmg(g, rb, max_iterations=2), bmr_lmg_array(g, rb, max_iterations=2)
        )
        assert_tree_equal(
            mp_local(g, rb, max_iterations=3), mp_local_array(g, rb, max_iterations=3)
        )

    def test_infeasible_budget_raises_like_reference(self):
        g = random_digraph(8, seed=20)
        for fn in (bmr_lmg, mp_local, bmr_lmg_array, mp_local_array):
            with pytest.raises(ValueError, match="infeasible"):
                fn(g, -1.0)


class TestPlanQuality:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_plan_respects_the_budget(self, seed):
        g = random_digraph(14, extra_edge_prob=0.35, seed=seed)
        for rb in budgets_for(g):
            for tree in (bmr_lmg_array(g, rb), mp_local_array(g, rb)):
                assert within_budget(tree.max_retrieval(), rb)
                score = evaluate_plan(g, tree.to_plan())
                assert within_budget_recomputed(score.max_retrieval, rb)

    @pytest.mark.parametrize("seed", range(4))
    def test_mp_local_dominates_mp(self, seed):
        g = random_digraph(14, extra_edge_prob=0.35, seed=seed)
        for rb in budgets_for(g):
            assert mp_local(g, rb).total_storage <= mp(g, rb).total_storage

    def test_zero_budget_materializes_everything(self):
        g = random_digraph(10, seed=5)
        tree = bmr_lmg_array(g, 0.0)
        assert tree.max_retrieval() == 0.0
        # only zero-retrieval deltas may replace materializations
        assert tree.total_storage <= g.total_version_storage()

    @pytest.mark.parametrize("seed", range(3))
    def test_sane_against_dp_reference(self, seed):
        # The DP is exact on its extracted tree but not on the full
        # digraph, so neither side dominates; both must be feasible and
        # within a loose factor of each other on natural graphs.
        g = natural_graph(40, seed=seed)
        rb = g.max_retrieval_cost() * 2
        dp_storage = dp_bmr_heuristic(g, rb).plan.storage_cost(g)
        greedy = mp_local_array(g, rb).total_storage
        assert greedy <= dp_storage * 10
        assert dp_storage <= greedy * 10


class TestRegistryIntegration:
    def test_backends_agree_through_registry(self):
        g = random_digraph(10, seed=30)
        rb = g.max_retrieval_cost()
        for name in ("bmr-lmg", "mp-local"):
            fast = get_solver("bmr", name)
            ref = get_solver("bmr", name, backend="dict")
            assert fast(g, rb) == ref(g, rb)
            assert fast(g, -1.0) is None and ref(g, -1.0) is None

    def test_solvers_accept_compiled_graph(self):
        g = random_digraph(9, seed=31)
        cg = g.compile()
        rb = g.max_retrieval_cost() * 2
        assert_tree_equal(bmr_lmg(g, rb), bmr_lmg_array(cg, rb))
        assert_tree_equal(mp_local(g, rb), mp_local_array(cg, rb))


class TestTrajectorySweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_plan_identical_to_independent_solves(self, seed):
        g = random_digraph(13, extra_edge_prob=0.3, seed=seed)
        rmax = g.max_retrieval_cost()
        budgets = [-1.0, 0.0, rmax * 0.25, rmax * 0.8, rmax * 2, rmax * 5, rmax]
        entries = sweep_greedy_bmr(g, "bmr-lmg", budgets)
        assert [e.budget for e in entries] == [float(b) for b in budgets]
        for e in entries:
            if e.budget < 0:
                assert e.plan is None and not e.feasible
                continue
            ref = bmr_lmg_array(g, e.budget)
            assert e.plan == ref.to_plan()
            assert e.score.storage == ref.total_storage

    def test_sweep_natural_graph_with_divergences(self):
        g = natural_graph(80, seed=7)
        rmax = g.max_retrieval_cost()
        budgets = [rmax * f for f in (0.1, 0.3, 0.6, 1.0, 1.8, 3.0, 6.0)]
        entries = sweep_greedy_bmr(g, "bmr-lmg", budgets)
        assert any(e.replayed for e in entries)  # replay actually used
        for e in entries:
            assert e.plan == bmr_lmg_array(g, e.budget).to_plan()

    def test_unknown_sweep_solver_raises(self):
        g = random_digraph(6, seed=1)
        with pytest.raises(KeyError, match="unknown BMR sweep solver"):
            sweep_greedy_bmr(g, "mp", [1.0])

    def test_all_infeasible_grid(self):
        g = random_digraph(6, seed=2)
        entries = sweep_greedy_bmr(g, "bmr-lmg", [-5.0, -1.0])
        assert all(e.plan is None for e in entries)

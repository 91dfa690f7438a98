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
  to independent per-budget solves;
* on small integer-cost graphs (many equal ratios, zero-shift moves)
  and at boundary budgets, the lazy-heap kernel still picks the dict
  reference's move, and a run resumed from a mid-trajectory clone ends
  bit-identical to the uninterrupted run.
"""

from functools import partial

import numpy as np
import pytest

from repro.algorithms import mp
from repro.algorithms.bmr_greedy import bmr_lmg, mp_local
from repro.algorithms.dp_bmr import dp_bmr_heuristic
from repro.algorithms.registry import get_solver
from repro.core.graph import VersionGraph
from repro.core.solution import PlanTree
from repro.core.tolerance import within_budget, within_budget_recomputed
from repro.core.problems import evaluate_plan
from repro.fastgraph import (
    ArrayPlanTree,
    bmr_lmg_array,
    mp_local_array,
    sweep_greedy,
)
from repro.fastgraph.solvers import (
    _bmr_default_rounds,
    _bmr_run,
    _materialized_array_tree,
    mp_array,
)
from repro.gen import natural_graph, random_digraph
from repro.gen.presets import PRESETS

from helpers import assert_bit_identical

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
        entries = sweep_greedy(g, "bmr", "bmr-lmg", budgets)
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
        entries = sweep_greedy(g, "bmr", "bmr-lmg", budgets)
        assert any(e.replayed for e in entries)  # replay actually used
        for e in entries:
            assert e.plan == bmr_lmg_array(g, e.budget).to_plan()

    def test_unknown_sweep_solver_raises(self):
        g = random_digraph(6, seed=1)
        with pytest.raises(KeyError, match="unknown BMR sweep solver"):
            sweep_greedy(g, "bmr", "mp", [1.0])

    def test_all_infeasible_grid(self):
        g = random_digraph(6, seed=2)
        entries = sweep_greedy(g, "bmr", "bmr-lmg", [-5.0, -1.0])
        assert all(e.plan is None for e in entries)


def tie_graph(seed: int, n: int = 14) -> VersionGraph:
    """Dense small graph with small integer costs.

    Delta retrievals in {0, 1, 2} make zero-shift moves common, and
    storage savings over a handful of values make many moves share the
    same ``reduction / shift`` ratio, so the edge-order tie-break
    decides most rounds.
    """
    rng = np.random.default_rng(seed)
    g = VersionGraph(name=f"ties{seed}")
    for v in range(n):
        g.add_version(v, int(rng.integers(2, 7)))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.35:
                g.add_delta(u, v, int(rng.integers(0, 4)), int(rng.integers(0, 3)))
    return g


def boundary_budgets(g: VersionGraph) -> list[float]:
    """0, inf, and budgets equal to a move's own ``submax + shift``.

    The recorded feasibility value of every move of the unbounded run
    is a reachable subtree maximum after a shift; using it as the
    budget puts that move exactly on the admission boundary.
    """
    cg = g.compile()
    record: list = []
    tree = _materialized_array_tree(cg)
    _bmr_run(cg, tree, float("inf"), _bmr_default_rounds(cg), record)
    reached = sorted({r for _, r, _ in record})
    return [0.0, *reached[:: max(1, len(reached) // 4)], float("inf")]


TIE_SEEDS = range(12)


class TestTiesTiersBoundaries:
    def test_generator_produces_ties_and_zero_shifts(self):
        # at the all-materialized start every delta's shift is its own
        # retrieval, and its reduction is s_v - s_uv
        zero_shift = tied = 0
        for seed in TIE_SEEDS:
            g = tie_graph(seed)
            keys = []
            for u, v, d in g.deltas():
                if d.storage < g.storage_cost(v):
                    red = g.storage_cost(v) - d.storage
                    flat = d.retrieval == 0
                    zero_shift += flat
                    keys.append((flat, red if flat else red / d.retrieval))
            tied += len(keys) - len(set(keys))
        assert zero_shift >= 10 and tied >= 50

    @pytest.mark.parametrize("seed", TIE_SEEDS)
    def test_kernels_match_dict(self, seed):
        g = tie_graph(seed)
        budgets = boundary_budgets(g)
        assert len(budgets) >= 4
        for rb in budgets:
            assert_tree_equal(bmr_lmg(g, rb), bmr_lmg_array(g, rb))
            assert_tree_equal(mp_local(g, rb), mp_local_array(g, rb))

    @pytest.mark.parametrize("seed", TIE_SEEDS)
    def test_sweep_matches_dict(self, seed):
        g = tie_graph(seed)
        budgets = boundary_budgets(g)
        for e in sweep_greedy(g, "bmr", "bmr-lmg", budgets):
            assert e.plan == bmr_lmg(g, e.budget).to_plan(), e.budget

    @pytest.mark.parametrize("seed", TIE_SEEDS)
    def test_resume_from_clone_matches_uninterrupted(self, seed):
        g = tie_graph(seed)
        cg = g.compile()
        rounds = _bmr_default_rounds(cg)
        for rb in boundary_budgets(g)[1:]:
            mp_start = partial(mp_array, retrieval_budget=rb)
            for start in (_materialized_array_tree, mp_start):
                full, record = start(cg), []
                _bmr_run(cg, full, rb, rounds, record)
                for k in sorted({1, len(record) // 2, len(record) - 1}):
                    if not 0 < k < len(record):
                        continue
                    head, rest = start(cg), []
                    assert _bmr_run(cg, head, rb, k) == k
                    fork = head.clone()
                    _bmr_run(cg, fork, rb, rounds - k, rest)
                    assert_bit_identical(fork, full)
                    assert rest == record[k:]

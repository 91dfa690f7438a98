"""Tests for the trajectory-replay sweep engine and the shared
feasibility tolerance.

The load-bearing guarantee: every grid point of
:func:`repro.fastgraph.sweep_greedy` is *identical* (parent map,
storage, retrieval) to an independent solver run at that budget — on
preset datasets, float-cost graphs, and a hand-built instance that
forces the replay to diverge and resume the live greedy.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.core import VersionGraph, budget_cap, evaluate_plan, within_budget
from repro.core.graph import GraphError
from repro.algorithms import min_storage_plan_tree
from repro.algorithms.registry import get_solver, get_sweep
from repro.bench.harness import run_msr_experiment
from repro.fastgraph import TRAJECTORY_SOLVERS, lmg_all_array, lmg_array, sweep_greedy
from repro.gen import random_digraph

# shared cached instances live in tests/helpers.py (see conftest)
from helpers import cached_natural_graph as natural_graph
from repro.gen.presets import PRESETS

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

# Small scales keep preset sweeps fast while exercising branch/merge/ER
# structure (same spirit as tests/test_fastgraph.py).
PRESET_SCALES = {
    "datasharing": 1.0,
    "styleguide": 0.15,
    "996.ICU": 0.04,
    "freeCodeCamp": 0.005,
    "LeetCodeAnimation": 0.4,
    "LeetCode (0.05)": 0.3,
    "LeetCode (0.2)": 0.3,
    "LeetCode (1)": 0.1,
}

FRESH = {"lmg": lmg_array, "lmg-all": lmg_all_array}

#: MSR solvers with a trajectory sweep.
MSR_SWEEP_SOLVERS = sorted(n for p, n in TRAJECTORY_SOLVERS if p == "msr")


def grid_for(graph, points=9):
    """A budget grid spanning infeasible, boundary and loose budgets."""
    base = min_storage_plan_tree(graph).total_storage
    return (
        [base * 0.5, base]
        + [float(b) for b in np.geomspace(base * 1.02, base * 4.0, points)]
        + [math.inf]
    )


def assert_sweep_matches_fresh(graph, solver, budgets):
    entries = sweep_greedy(graph, "msr", solver, budgets)
    assert [e.budget for e in entries] == [float(b) for b in budgets]
    for e, b in zip(entries, budgets):
        try:
            ref = FRESH[solver](graph, b)
        except ValueError:
            assert e.plan is None and e.score is None and not e.feasible
            continue
        assert e.feasible
        assert e.plan == ref.to_plan(), (solver, b)
        ref_score = evaluate_plan(graph, ref.to_plan())
        assert e.score == ref_score, (solver, b)
    return entries


class TestWithinBudget:
    def test_boundary_exact(self):
        assert within_budget(100.0, 100.0)
        assert within_budget(0.0, 0.0)
        assert within_budget(-5.0, -5.0)

    def test_tolerance_width(self):
        assert within_budget(100.0 + 5e-11, 100.0)  # inside rel+abs slack
        assert not within_budget(100.1, 100.0)
        assert within_budget(5e-10, 0.0)  # absolute term near zero
        assert not within_budget(1e-8, 0.0)

    def test_infinite_budget(self):
        assert within_budget(1e300, math.inf)
        assert budget_cap(math.inf) == math.inf

    def test_elementwise_on_arrays(self):
        vals = np.array([1.0, 2.0, 3.0])
        out = within_budget(vals, 2.0)
        assert out.dtype == bool
        assert out.tolist() == [True, True, False]

    def test_no_inline_tolerance_in_src(self):
        """Inline tolerance arithmetic must not reappear outside
        core/tolerance.py — enforced by the AST rule, which sees every
        spelling of the pattern (not just one regex)."""
        from repro.analysis import get_rule, lint_paths

        findings = lint_paths(
            [SRC_ROOT / "repro"], rules=[get_rule("tolerance-discipline")]
        )
        assert not findings, "inline tolerance expressions:\n" + "\n".join(
            f.render() for f in findings
        )


class TestTrajectorySweep:
    @pytest.mark.parametrize("solver", MSR_SWEEP_SOLVERS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, solver, seed):
        g = random_digraph(14, extra_edge_prob=0.3, seed=seed)
        assert_sweep_matches_fresh(g, solver, grid_for(g))

    @pytest.mark.parametrize("solver", MSR_SWEEP_SOLVERS)
    @pytest.mark.parametrize("name", sorted(PRESET_SCALES))
    def test_presets(self, solver, name):
        g = PRESETS[name].build(scale=PRESET_SCALES[name])
        assert_sweep_matches_fresh(g, solver, grid_for(g, points=7))

    @pytest.mark.parametrize("solver", MSR_SWEEP_SOLVERS)
    @pytest.mark.parametrize("seed", range(3))
    def test_float_costs(self, solver, seed):
        # non-integer costs exercise boundary-budget float decisions
        rng = np.random.default_rng(seed)
        n = 14
        g = VersionGraph()
        for i in range(n):
            g.add_version(i, float(rng.uniform(0.01, 5.0)))
        for i in range(1, n):
            j = int(rng.integers(0, i))
            g.add_bidirectional_delta(
                j, i, float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.01, 2.0))
            )
        assert_sweep_matches_fresh(g, solver, grid_for(g, points=11))

    def test_divergence_resumes_live_greedy(self):
        # Crafted so the loose run's first move (materialize "b", big
        # storage jump, best ratio) is infeasible at the tight budget,
        # where the fresh greedy settles for the cheaper "c" move: the
        # replay must fork and continue live, not emit the bare prefix.
        g = VersionGraph()
        g.add_version("a", 100.0)
        g.add_version("b", 50.0)
        g.add_version("c", 8.0)
        g.add_delta("a", "b", 5.0, 100.0)
        g.add_delta("a", "c", 5.0, 4.0)
        base = min_storage_plan_tree(g).total_storage  # a mat + two deltas
        assert base == 110.0
        tight, loose = 114.0, 160.0
        entries = sweep_greedy(g, "msr", "lmg", [tight, loose])
        ref_tight = lmg_array(g, tight)
        ref_loose = lmg_array(g, loose)
        assert entries[0].plan == ref_tight.to_plan()
        assert entries[1].plan == ref_loose.to_plan()
        assert not entries[0].replayed  # forked + continued live
        assert entries[1].replayed
        # the tight plan took the cheap move the loose trajectory skipped
        assert "c" in map(str, ref_tight.to_plan().materialized)
        assert "b" not in map(str, ref_tight.to_plan().materialized)

    @pytest.mark.parametrize("solver", MSR_SWEEP_SOLVERS)
    def test_duplicate_and_unsorted_budgets(self, solver):
        g = natural_graph(30, seed=5)
        base = min_storage_plan_tree(g).total_storage
        budgets = [base * 2.0, base * 1.1, base * 2.0, base * 0.5, base * 3.0]
        assert_sweep_matches_fresh(g, solver, budgets)

    def test_all_infeasible(self):
        g = natural_graph(20, seed=6)
        base = min_storage_plan_tree(g).total_storage
        entries = sweep_greedy(g, "msr", "lmg", [base * 0.1, base * 0.5])
        assert all(not e.feasible for e in entries)

    def test_empty_grid(self):
        g = natural_graph(20, seed=6)
        assert sweep_greedy(g, "msr", "lmg", []) == []

    def test_unknown_solver_raises(self):
        g = natural_graph(20, seed=6)
        with pytest.raises(KeyError):
            sweep_greedy(g, "msr", "mp", [1.0])

    def test_registry_sweep_lookup(self):
        assert get_sweep("msr", "lmg") is not None
        assert get_sweep("msr", "lmg-all") is not None
        assert get_sweep("msr", "dp-msr") is None
        assert get_sweep("msr", "nope") is None


class TestHarnessUsesSweep:
    def test_msr_experiment_series_match_per_budget_solves(self):
        g = natural_graph(40, seed=8)
        base = min_storage_plan_tree(g).total_storage
        budgets = [float(b) for b in np.geomspace(base * 1.02, base * 3, 6)]
        result = run_msr_experiment(
            g, name="t", solvers=["lmg", "lmg-all"], budgets=budgets
        )
        for name in ("lmg", "lmg-all"):
            series = result.objective[name]
            assert series.x == budgets
            for b, y in zip(series.x, series.y):
                plan = get_solver("msr", name)(g, b)
                expect = (
                    math.inf if plan is None else evaluate_plan(g, plan).sum_retrieval
                )
                assert y == expect  # byte-identical, not approx
            # single-run amortization: one flat time across the grid
            assert len(set(result.runtime[name].y)) == 1


class TestIdentitySwap:
    def test_materialize_twice_is_bit_exact_noop(self):
        g = natural_graph(25, seed=9)
        cg = g.compile()
        tree = lmg_array(g, min_storage_plan_tree(g).total_storage * 2.5)
        mats = [i for i in range(cg.n) if tree.parent[i] == cg.aux]
        assert mats
        before_storage = tree.total_storage
        before_retrieval = tree.total_retrieval
        before_ret = tree.ret.copy()
        before_children = [list(c) for c in tree.children]
        for v in mats:
            tree.materialize(v)  # identity swap: must early-return
        assert tree.total_storage == before_storage  # exact, no float churn
        assert tree.total_retrieval == before_retrieval
        assert np.array_equal(tree.ret, before_ret)
        assert tree.children == before_children
        tree.check_invariants()

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_swaps_preserve_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        g = random_digraph(12, extra_edge_prob=0.4, seed=seed)
        cg = g.compile()
        from repro.fastgraph.arborescence import min_storage_parent_edges
        from repro.fastgraph import ArrayPlanTree

        tree = ArrayPlanTree(cg, min_storage_parent_edges(cg))
        # interleave real swaps with identity swaps of the current
        # parent edge; caches must stay bit-identical to a fresh build
        for _ in range(30):
            v = int(rng.integers(0, cg.n))
            if rng.random() < 0.5:
                tree.apply_swap_edge(int(tree.par_edge[v]))  # identity
            else:
                eid = int(cg.aux_edge[v])
                if eid != int(tree.par_edge[v]):
                    tree.apply_swap_edge(eid)
        tree.check_invariants()

    def test_clone_is_independent(self):
        g = natural_graph(20, seed=10)
        cg = g.compile()
        from repro.fastgraph.arborescence import min_storage_parent_edges
        from repro.fastgraph import ArrayPlanTree

        tree = ArrayPlanTree(cg, min_storage_parent_edges(cg))
        copy = tree.clone()
        assert copy.total_storage == tree.total_storage
        assert copy.parent_map() == tree.parent_map()
        v = int(cg.edge_dst[cg.aux_edge[0]])
        if tree.parent[v] != cg.aux:
            copy.materialize(v)
            assert tree.parent[v] != cg.aux  # original untouched
            tree.check_invariants()
            copy.check_invariants()


class TestBoundaryBudgetMP:
    def test_mp_boundary_budget_no_spurious_infeasible(self):
        # Regression: the relaxation filter and the final feasibility
        # assertion must share one tolerance — a budget exactly equal
        # to an admitted path retrieval must not raise.
        from repro.algorithms import mp
        from repro.fastgraph import mp_array

        g = VersionGraph()
        for name, sto in (("a", 100.0), ("b", 100.0), ("c", 100.0)):
            g.add_version(name, sto)
        g.add_delta("a", "b", 1.0, 1.0)
        g.add_delta("b", "c", 1.0, 1.0)
        for budget in (2.0, 1.0, 0.3 + 0.3 + 0.3 + 0.1 + 1.0):
            ref = mp(g, budget)
            arr = mp_array(g, budget)
            assert ref.parent == arr.parent_map()
            assert ref.max_retrieval() <= budget_cap(budget)

    def test_mp_float_accumulated_boundary(self):
        # budget equal to a float-accumulated path sum (0.1*3 != 0.3)
        from repro.algorithms import mp
        from repro.fastgraph import mp_array

        g = VersionGraph()
        for i in range(5):
            g.add_version(i, 50.0)
        for i in range(4):
            g.add_delta(i, i + 1, 1.0, 0.1)
        exact_path = 0.1 + 0.1 + 0.1 + 0.1  # the deepest retrieval
        ref = mp(g, exact_path)
        arr = mp_array(g, exact_path)
        assert ref.parent == arr.parent_map()
        assert ref.max_retrieval() == arr.max_retrieval()

    def test_mp_negative_budget_still_infeasible(self):
        from repro.algorithms import mp
        from repro.fastgraph import mp_array

        g = random_digraph(6, seed=11)
        with pytest.raises(ValueError):
            mp(g, -1.0)
        with pytest.raises(ValueError):
            mp_array(g, -1.0)


class TestSweepCLI:
    def test_cli_sweep_json_matches_solvers(self, tmp_path, capsys):
        import json

        from repro.cli import main

        g = natural_graph(25, seed=12)
        path = tmp_path / "g.json"
        path.write_text(g.to_json())
        base = min_storage_plan_tree(g).total_storage
        budgets = [base * 1.1, base * 2.0]
        rc = main(
            [
                "sweep",
                "msr",
                str(path),
                "--solvers",
                "lmg,lmg-all",
                "--budgets",
                ",".join(str(b) for b in budgets),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        g2 = VersionGraph.from_json(path.read_text())
        for name in ("lmg", "lmg-all"):
            assert payload["objective"][name]["x"] == budgets
            for b, y in zip(budgets, payload["objective"][name]["y"]):
                plan = get_solver("msr", name)(g2, b)
                assert y == evaluate_plan(g2, plan).sum_retrieval
        assert rc == 0

    def test_cli_sweep_markdown(self, tmp_path, capsys):
        from repro.cli import main

        g = natural_graph(20, seed=13)
        path = tmp_path / "g.json"
        path.write_text(g.to_json())
        rc = main(
            ["sweep", "msr", str(path), "--solvers", "lmg", "--points", "4",
             "--format", "markdown"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "| storage budget |" in out and "lmg" in out

    def test_cli_sweep_requires_one_input(self, capsys):
        from repro.cli import main

        assert main(["sweep", "msr"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_sweep_infinite_budget_strict_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        g = natural_graph(20, seed=17)
        path = tmp_path / "g.json"
        path.write_text(g.to_json())
        rc = main(["sweep", "msr", str(path), "--solvers", "lmg", "--budgets", "inf"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"]["lmg"]["x"] == [None]  # inf budget -> null
        assert payload["objective"]["lmg"]["y"][0] is not None

    def test_cli_sweep_bad_dataset_and_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "msr", "--dataset", "styleguid"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["sweep", "msr", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err
        rc = main(
            ["solve", "msr", str(tmp_path / "missing.json"), "--budget", "1"]
        )
        assert rc == 2  # solve shares the loader's clean error path
        assert "error:" in capsys.readouterr().err

    def test_cli_sweep_unknown_solver(self, tmp_path, capsys):
        from repro.cli import main

        g = natural_graph(20, seed=14)
        path = tmp_path / "g.json"
        path.write_text(g.to_json())
        assert main(["sweep", "msr", str(path), "--solvers", "nope"]) == 2

    def test_cli_sweep_infeasible_points_emit_strict_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        g = natural_graph(20, seed=16)
        path = tmp_path / "g.json"
        path.write_text(g.to_json())
        base = min_storage_plan_tree(g).total_storage
        rc = main(
            ["sweep", "msr", str(path), "--solvers", "lmg",
             "--budgets", f"{base * 0.5},{base * 2.0}"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Infinity" not in out  # strict RFC JSON: null, not Infinity
        payload = json.loads(out)
        assert payload["objective"]["lmg"]["y"][0] is None
        assert payload["objective"]["lmg"]["y"][1] is not None

    def test_cli_sweep_dataset_out(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "panel.json"
        rc = main(
            ["sweep", "msr", "--dataset", "datasharing", "--solvers", "lmg",
             "--points", "3", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert "lmg" in payload["objective"]


def test_graph_error_unused_guard():
    # sweeping a graph mutated after compile still works through the
    # cached-compile hook (cache invalidation, then fresh compile)
    g = natural_graph(15, seed=15)
    g.compile()
    g.add_version("extra", 3.0)
    base = min_storage_plan_tree(g)
    try:
        entries = sweep_greedy(g, "msr", "lmg", [base.total_storage * 2])
        assert entries[0].feasible
    except GraphError:  # pragma: no cover - would indicate stale cache
        pytest.fail("stale compiled cache used after mutation")

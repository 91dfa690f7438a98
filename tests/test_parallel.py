"""Tests for the parallel substrate (pool, sweeps, parallel DP)."""

import importlib
import math
import multiprocessing

import pytest

from repro.gen import natural_graph, random_bidirectional_tree
from repro.parallel import (
    default_workers,
    dp_msr_frontier_parallel,
    parallel_map,
    sweep,
)
from repro.algorithms import dp_msr_frontier, min_storage_plan_tree

# the module, not the ``sweep`` function the package re-exports
sweep_module = importlib.import_module("repro.parallel.sweep")


def square(x):
    return x * x


def probe_start_tree(task):
    """Sweep-task stand-in: report whether this worker's graph arrived
    with its start tree cached (reads the cache, never runs Edmonds)."""
    return [sweep_module._WORKER_GRAPH._compiled._start is not None]


def raise_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestParallelMap:
    def test_preserves_order_serial(self):
        assert parallel_map(square, list(range(10)), processes=1) == [
            x * x for x in range(10)
        ]

    def test_preserves_order_parallel(self):
        xs = list(range(50))
        assert parallel_map(square, xs, processes=4) == [x * x for x in xs]

    def test_small_inputs_fall_back_to_serial(self):
        assert parallel_map(square, [2], processes=8) == [4]

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError):
            parallel_map(raise_on_three, [1, 2, 3, 4] * 4, processes=2)

    def test_default_workers_sane(self):
        assert 1 <= default_workers() <= 8


class TestSweeps:
    @pytest.fixture(scope="class")
    def graph(self):
        return natural_graph(25, seed=1)

    def test_msr_sweep_serial_vs_parallel(self, graph):
        base = min_storage_plan_tree(graph).total_storage
        budgets = [base * f for f in (1.05, 1.3, 1.8, 2.5)]
        serial = sweep(graph, "msr", ["lmg", "lmg-all"], budgets, processes=1)
        para = sweep(graph, "msr", ["lmg", "lmg-all"], budgets, processes=2)
        assert len(serial) == len(para) == 8
        for a, b in zip(serial, para):
            assert a.solver == b.solver and a.budget == b.budget
            assert a.score.sum_retrieval == pytest.approx(b.score.sum_retrieval)

    def test_msr_sweep_infeasible_budget(self, graph):
        base = min_storage_plan_tree(graph).total_storage
        pts = sweep(graph, "msr", ["lmg"], [base * 0.1], processes=1)
        assert not pts[0].feasible

    def test_bmr_sweep(self, graph):
        budgets = [0.0, graph.max_retrieval_cost() * 3]
        pts = sweep(graph, "bmr", ["mp", "dp-bmr"], budgets, processes=1)
        for p in pts:
            assert p.feasible
            assert p.score.max_retrieval <= p.budget + 1e-6
        assert all(p.seconds >= 0 for p in pts)

    def test_msr_sweep_matches_independent_solver_runs(self, graph):
        # the trajectory-replay task must be plan-identical to fresh
        # per-budget solves through the registry
        from repro.core.problems import evaluate_plan
        from repro.algorithms.registry import get_solver

        base = min_storage_plan_tree(graph).total_storage
        budgets = [base * f for f in (1.05, 1.4, 2.2)]
        pts = sweep(graph, "msr", ["lmg", "lmg-all"], budgets, processes=1)
        for p in pts:
            plan = get_solver("msr", p.solver)(graph, p.budget)
            assert p.score == evaluate_plan(graph, plan)

    def test_worker_initializer_under_spawn(self, graph):
        # The initializer ships the graph with its compiled cache; under
        # spawn it is pickled instead of inherited, so exercise that
        # path explicitly (fork-only coverage otherwise).
        from repro.parallel.sweep import _init_worker, _run_task

        base = min_storage_plan_tree(graph).total_storage
        budgets = [base * 1.1, base * 2.0]
        graph.compile()
        tasks = [("msr", "lmg", budgets), ("msr", "lmg-all", budgets)]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(
            processes=2, initializer=_init_worker, initargs=(graph,)
        ) as pool:
            chunks = pool.map(_run_task, tasks)
        flat = [p for chunk in chunks for p in chunk]
        serial = sweep(graph, "msr", ["lmg", "lmg-all"], budgets, processes=1)
        assert len(flat) == len(serial) == 4
        for a, b in zip(flat, serial):
            assert a.solver == b.solver and a.budget == b.budget
            assert a.score == b.score

    def test_spawn_workers_find_start_tree_warm(self, graph, monkeypatch):
        # sweep() must compute the MSR start tree in the parent, so the
        # pickled graph carries it and no spawned worker runs Edmonds.
        # Its pool is replaced by a spawn pool with the same initializer
        # and initargs that maps only the probe task.
        cold = graph.copy()
        assert cold._compiled is None
        warm = []

        def spawn_map(fn, items, *, processes, initializer, initargs, **_):
            ctx = multiprocessing.get_context("spawn")
            with ctx.Pool(processes, initializer=initializer, initargs=initargs) as pool:
                chunks = pool.map(probe_start_tree, items, chunksize=1)
            warm.extend(w for chunk in chunks for w in chunk)
            return []

        monkeypatch.setattr(sweep_module, "parallel_map", spawn_map)
        base = min_storage_plan_tree(graph).total_storage
        sweep(cold, "msr", ["lmg", "lmg-all"], [base * 1.1, base * 2.0], processes=2)
        assert warm == [True, True]


class TestParallelDP:
    @pytest.mark.parametrize("n", [15, 30])
    def test_matches_serial_exact(self, n):
        g = random_bidirectional_tree(n, seed=n)
        serial = dp_msr_frontier(g, ticks=None)
        para = dp_msr_frontier_parallel(g, ticks=None, processes=2)
        assert serial.points() == para.points()

    def test_matches_serial_thinned(self):
        g = natural_graph(40, seed=2)
        serial = dp_msr_frontier(g, ticks=32)
        para = dp_msr_frontier_parallel(g, ticks=32, processes=3)
        assert len(serial) == len(para)
        for (s1, r1), (s2, r2) in zip(serial.points(), para.points()):
            assert math.isclose(s1, s2, rel_tol=1e-12)
            assert math.isclose(r1, r2, rel_tol=1e-12)

    def test_single_process_fallback(self):
        g = random_bidirectional_tree(12, seed=3)
        assert dp_msr_frontier_parallel(g, ticks=None, processes=1).points() == \
            dp_msr_frontier(g, ticks=None).points()

"""JSON round-trip property tests across the solver registry.

``VersionGraph.from_json(g.to_json())`` must be solver-equivalent to
``g`` itself: every registered solver, fed the round-tripped graph, has
to land on a plan with the same cost.  This catches ``repr_node``
node-type coercion drift — e.g. tuple- or object-keyed nodes are
serialized as strings, and a solver whose tie-breaking depends on node
*types* (``sorted(..., key=str)``, heap orderings) could silently pick
a different plan after a round trip.
"""

import math

import pytest

from repro.core import VersionGraph, evaluate_plan
from repro.core.instances import figure1_graph
from repro.algorithms.registry import SOLVERS, get_solver
from repro.algorithms import min_storage_plan_tree
from repro.gen import natural_graph, random_digraph


class VersionTag:
    """Non-JSON-native node type: serialized through ``repr_node`` as str."""

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        return hash(("VersionTag", self.n))

    def __eq__(self, other):
        return isinstance(other, VersionTag) and self.n == other.n

    def __str__(self):
        return f"rev-{self.n:04d}"

    __repr__ = __str__


def graph_instances():
    yield "figure1-str-nodes", figure1_graph()
    yield "natural-int-nodes", natural_graph(24, seed=5)
    yield "random-int-nodes", random_digraph(10, extra_edge_prob=0.25, seed=3)
    g = random_digraph(9, extra_edge_prob=0.3, seed=8)
    relabeled = VersionGraph(name="tagged")
    for v in g.versions:
        relabeled.add_version(VersionTag(v), g.storage_cost(v))
    for u, v, d in g.deltas():
        relabeled.add_delta(VersionTag(u), VersionTag(v), d.storage, d.retrieval)
    yield "object-nodes", relabeled


def plan_cost(graph, plan):
    score = evaluate_plan(graph, plan)
    return (score.storage, score.sum_retrieval, score.max_retrieval)


@pytest.mark.parametrize("label,graph", list(graph_instances()))
class TestRoundTrip:
    def test_structure_survives(self, label, graph):
        back = VersionGraph.from_json(graph.to_json())
        assert back.num_versions == graph.num_versions
        assert back.num_deltas == graph.num_deltas
        assert back.total_version_storage() == graph.total_version_storage()

    @pytest.mark.parametrize("solver", sorted(n for p, n in SOLVERS if p == "msr"))
    def test_msr_solvers_cost_stable(self, label, graph, solver):
        back = VersionGraph.from_json(graph.to_json())
        base = min_storage_plan_tree(graph).total_storage
        fn = get_solver("msr", solver)
        for frac in (1.05, 2.0):
            budget = base * frac
            plan = fn(graph, budget)
            plan_back = fn(back, budget)
            assert (plan is None) == (plan_back is None)
            if plan is None:
                continue
            a = plan_cost(graph, plan)
            b = plan_cost(back, plan_back)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9), (label, solver, frac)

    @pytest.mark.parametrize("solver", sorted(n for p, n in SOLVERS if p == "bmr"))
    def test_bmr_solvers_cost_stable(self, label, graph, solver):
        back = VersionGraph.from_json(graph.to_json())
        rmax = graph.max_retrieval_cost()
        fn = get_solver("bmr", solver)
        for budget in (0.0, rmax * 2):
            plan = fn(graph, budget)
            plan_back = fn(back, budget)
            assert (plan is None) == (plan_back is None)
            if plan is None:
                continue
            a = plan_cost(graph, plan)
            b = plan_cost(back, plan_back)
            assert math.isfinite(a[2])
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9), (label, solver, budget)

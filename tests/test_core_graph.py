"""Unit tests for :mod:`repro.core.graph`."""

import json

import pytest

from repro.core import AUX, Delta, GraphError, VersionGraph, validate_graph
from repro.core.instances import figure1_graph


def make_chain(n=4, sv=100.0, se=5.0, re=7.0):
    g = VersionGraph(name="chain")
    for i in range(n):
        g.add_version(i, sv)
    for i in range(n - 1):
        g.add_delta(i, i + 1, se, re)
    return g


class TestConstruction:
    def test_add_version_and_lookup(self):
        g = VersionGraph()
        g.add_version("v", 12.5)
        assert "v" in g
        assert g.storage_cost("v") == 12.5
        assert g.num_versions == 1

    def test_re_add_version_updates_cost(self):
        g = VersionGraph()
        g.add_version("v", 1.0)
        g.add_version("v", 2.0)
        assert g.storage_cost("v") == 2.0
        assert g.num_versions == 1

    def test_negative_storage_rejected(self):
        g = VersionGraph()
        with pytest.raises(GraphError):
            g.add_version("v", -1.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(GraphError):
            Delta(-1, 0)
        with pytest.raises(GraphError):
            Delta(0, -1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delta_rejected(self, bad):
        with pytest.raises(GraphError, match="finite"):
            Delta(bad, 1.0)
        with pytest.raises(GraphError, match="finite"):
            Delta(1.0, bad)
        g = make_chain(2)
        with pytest.raises(GraphError, match="finite"):
            g.add_delta(1, 0, bad, 1.0)
        assert not g.has_delta(1, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_storage_rejected(self, bad):
        g = VersionGraph()
        with pytest.raises(GraphError, match="finite"):
            g.add_version("v", bad)
        assert "v" not in g
        g.add_version("w", 3.0)
        with pytest.raises(GraphError, match="finite"):
            g.add_version("w", bad)  # an update is checked too
        assert g.storage_cost("w") == 3.0

    def test_add_delta_requires_versions(self):
        g = VersionGraph()
        g.add_version("u", 1)
        with pytest.raises(GraphError):
            g.add_delta("u", "v", 1, 1)

    def test_self_delta_rejected(self):
        g = VersionGraph()
        g.add_version("u", 1)
        with pytest.raises(GraphError):
            g.add_delta("u", "u", 1, 1)

    def test_duplicate_delta_rejected(self):
        g = make_chain(2)
        with pytest.raises(GraphError):
            g.add_delta(0, 1, 1, 1)

    def test_duplicate_delta_keep_cheapest(self):
        g = make_chain(2, se=5, re=7)
        g.add_delta(0, 1, 3, 9, keep_cheapest=True)
        d = g.delta(0, 1)
        assert (d.storage, d.retrieval) == (3, 7)

    def test_bidirectional_delta_defaults(self):
        g = VersionGraph()
        g.add_version("u", 1)
        g.add_version("v", 1)
        g.add_bidirectional_delta("u", "v", 2, 3)
        assert g.delta("v", "u") == Delta(2, 3)

    def test_bidirectional_delta_asymmetric(self):
        g = VersionGraph()
        g.add_version("u", 1)
        g.add_version("v", 1)
        g.add_bidirectional_delta("u", "v", 2, 3, storage_back=4, retrieval_back=5)
        assert g.delta("u", "v") == Delta(2, 3)
        assert g.delta("v", "u") == Delta(4, 5)

    def test_remove_delta(self):
        g = make_chain(3)
        g.remove_delta(0, 1)
        assert not g.has_delta(0, 1)
        with pytest.raises(GraphError):
            g.remove_delta(0, 1)
        validate_graph(g)

    def test_aux_reserved(self):
        g = VersionGraph()
        with pytest.raises(GraphError):
            g.add_version(AUX, 0)


class TestQueries:
    def test_degrees_and_adjacency(self):
        g = figure1_graph()
        assert g.out_degree("v1") == 2
        assert g.in_degree("v5") == 2
        assert set(g.successors("v2")) == {"v4", "v5"}
        assert set(g.predecessors("v5")) == {"v2", "v3"}

    def test_stats_match_figure1(self):
        g = figure1_graph()
        stats = g.stats()
        assert stats["nodes"] == 5
        assert stats["edges"] == 5
        assert stats["avg_version_storage"] == pytest.approx(
            (10000 + 10100 + 9700 + 9800 + 10120) / 5
        )
        assert stats["avg_delta_storage"] == pytest.approx((200 + 1000 + 50 + 800 + 200) / 5)

    def test_total_version_storage(self):
        g = make_chain(3, sv=10)
        assert g.total_version_storage() == 30

    def test_max_retrieval_cost(self):
        g = figure1_graph()
        assert g.max_retrieval_cost() == 3000

    def test_empty_graph_stats(self):
        g = VersionGraph()
        assert g.average_version_storage() == 0
        assert g.average_delta_storage() == 0
        assert g.max_retrieval_cost() == 0


class TestExtended:
    def test_extended_adds_aux_edges(self):
        g = figure1_graph()
        ext = g.extended()
        assert ext.has_aux
        assert not g.has_aux  # original untouched
        assert ext.num_versions == 6
        for v in g.versions:
            d = ext.delta(AUX, v)
            assert d.storage == g.storage_cost(v)
            assert d.retrieval == 0

    def test_extended_preserves_deltas(self):
        g = figure1_graph()
        ext = g.extended()
        assert ext.delta("v1", "v3") == g.delta("v1", "v3")

    def test_extended_is_consistent(self):
        validate_graph(figure1_graph().extended())

    def test_extending_an_extended_graph_raises(self):
        ext = figure1_graph().extended()
        deltas = ext.num_deltas
        with pytest.raises(GraphError, match="already extended"):
            ext.extended()
        assert ext.num_deltas == deltas
        assert not ext.has_delta(AUX, AUX)


class TestTransforms:
    def test_copy_is_deep_for_structure(self):
        g = make_chain(3)
        h = g.copy()
        h.add_version("x", 1)
        h.remove_delta(0, 1)
        assert "x" not in g
        assert g.has_delta(0, 1)

    def test_map_deltas(self):
        g = make_chain(3, se=10, re=20)
        h = g.map_deltas(lambda u, v, d: d.scaled(0.5, 2.0))
        assert h.delta(0, 1) == Delta(5, 40)
        assert g.delta(0, 1) == Delta(10, 20)

    def test_subgraph(self):
        g = figure1_graph()
        sub = g.subgraph(["v1", "v2", "v4"])
        assert sub.num_versions == 3
        assert sub.has_delta("v1", "v2") and sub.has_delta("v2", "v4")
        assert sub.num_deltas == 2

    def test_undirected_edges_merges_directions(self):
        g = VersionGraph()
        for v in "abc":
            g.add_version(v, 1)
        g.add_bidirectional_delta("a", "b", 1, 1)
        g.add_delta("b", "c", 1, 1)
        assert len(g.undirected_edges()) == 2


class TestBidirectionalTree:
    def test_chain_is_not_bidirectional(self):
        g = make_chain(3)
        assert not g.is_bidirectional_tree()

    def test_bidirectional_chain_is_tree(self):
        g = VersionGraph()
        for i in range(4):
            g.add_version(i, 1)
        for i in range(3):
            g.add_bidirectional_delta(i, i + 1, 1, 1)
        assert g.is_bidirectional_tree()

    def test_cycle_is_not_tree(self):
        g = VersionGraph()
        for i in range(3):
            g.add_version(i, 1)
        for i in range(3):
            g.add_bidirectional_delta(i, (i + 1) % 3, 1, 1)
        assert not g.is_bidirectional_tree()

    def test_disconnected_is_not_tree(self):
        g = VersionGraph()
        for i in range(4):
            g.add_version(i, 1)
        g.add_bidirectional_delta(0, 1, 1, 1)
        g.add_bidirectional_delta(2, 3, 1, 1)
        assert not g.is_bidirectional_tree()

    def test_empty_graph_is_a_tree(self):
        # Regression: the n == 0 early return used to sit after the
        # edge-count check, where len(und) != n - 1 (0 != -1) shadowed it.
        assert VersionGraph().is_bidirectional_tree()

    def test_single_node_is_a_tree(self):
        g = VersionGraph()
        g.add_version("only", 1)
        assert g.is_bidirectional_tree()

    def test_single_node_with_self_history_stays_tree(self):
        g = VersionGraph()
        g.add_version(0, 1)
        g.add_version(1, 1)
        g.add_delta(0, 1, 1, 1)  # one direction only: not bidirectional
        assert not g.is_bidirectional_tree()


class TestTriangleInequality:
    def test_figure1_satisfies_triangle(self):
        # figure 1 has no 2-hop shortcut edges that violate it
        assert figure1_graph().check_triangle_inequality() == []

    def test_violation_detected(self):
        g = VersionGraph()
        for v in "abc":
            g.add_version(v, 10)
        g.add_delta("a", "b", 1, 1)
        g.add_delta("b", "c", 1, 1)
        g.add_delta("a", "c", 1, 5)  # r_ac > r_ab + r_bc
        assert g.check_triangle_inequality() == [("a", "b", "c")]

    def test_generalized_triangle(self):
        g = VersionGraph()
        g.add_version("u", 1)
        g.add_version("v", 100)
        g.add_delta("u", "v", 1, 1)  # 1 + 1 < 100: violation
        assert g.check_generalized_triangle_inequality() == [("u", "v")]
        # Figure 1 itself has one generalized-triangle violation:
        # s_v3 + s_(v3,v5) = 9700 + 200 < s_v5 = 10120 (the paper's costs
        # are illustrative, not metric) — the diagnostic should find it.
        assert figure1_graph().check_generalized_triangle_inequality() == [("v3", "v5")]


class TestSerialization:
    def test_round_trip(self):
        g = figure1_graph()
        h = VersionGraph.from_json(g.to_json())
        assert set(h.versions) == set(g.versions)
        assert {(u, v): d for u, v, d in h.deltas()} == {(u, v): d for u, v, d in g.deltas()}

    def test_json_is_plain(self):
        payload = json.loads(figure1_graph().to_json())
        assert payload["name"] == "figure1"
        assert len(payload["versions"]) == 5

    def test_aux_never_serialized(self):
        ext = figure1_graph().extended()
        payload = ext.to_dict()
        assert len(payload["versions"]) == 5
        assert all(len(row) == 4 for row in payload["deltas"])

    def test_repr(self):
        assert "figure1" in repr(figure1_graph())

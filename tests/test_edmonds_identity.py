"""Tie-dense differential suite: array Edmonds against the dict oracle.

``min_storage_parent_edges`` must return, for every version, the same
parent as ``min_storage_arborescence`` on the extended graph — not just
a tree of equal weight.  The instances here are built to stress the
tie-breaking contract ("the earliest edge wins") and rounds that
contract many cycles at once:

* random digraphs with integer storage weights in {1, 2, 3}, so most
  nodes have several cheapest in-edges and the first round holds many
  disjoint cycles;
* bidirectional graphs (tie-dense random ones, and the natural-graph
  generator);
* hand-built cases whose answer hinges on one tie or on super nodes
  that form a new cycle in the next round.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.arborescence import min_storage_arborescence
from repro.core import AUX, VersionGraph
from repro.fastgraph.arborescence import min_storage_parent_edges
from repro.gen import natural_graph


def array_parents(graph: VersionGraph) -> dict:
    """``{version: parent}`` from the array kernel, checking edge ids."""
    cg = graph.compile()
    out = {}
    for v, e in min_storage_parent_edges(cg):
        assert int(cg.edge_dst[e]) == v, "parent edge must enter its version"
        out[cg.nodes[v]] = cg.node_of(int(cg.edge_src[e]))
    return out


def assert_identical(graph: VersionGraph) -> dict:
    ref = min_storage_arborescence(graph.compile().extended_graph())
    assert array_parents(graph) == ref
    return ref


def tie_dense_digraph(
    n: int, seed: int, *, edge_prob: float = 0.35, bidirectional: bool = False
) -> VersionGraph:
    """Random digraph, delta storage in {1, 2, 3}, shuffled edge order."""
    rng = random.Random(seed)
    g = VersionGraph(name=f"ties-{seed}")
    for v in range(n):
        g.add_version(v, rng.choice([2, 3]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    for u, v in pairs:
        if rng.random() < edge_prob:
            if bidirectional:
                edges += [(u, v), (v, u)]
            else:
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
                if rng.random() < 0.5:
                    edges.append(edges[-1][::-1])
    rng.shuffle(edges)
    for u, v in edges:
        g.add_delta(u, v, rng.choice([1, 2, 3]), 1)
    return g


def bidirectional(seed: int) -> VersionGraph:
    """Sparse tie-dense bidirectional graph: several cycles in round one."""
    return tie_dense_digraph(
        20 + 2 * seed, 1000 + seed, edge_prob=0.12, bidirectional=True
    )


def first_round_cycles(graph: VersionGraph) -> int:
    """Cycles among the cheapest in-edges (earliest on ties), round one."""
    ext = graph.compile().extended_graph()
    best: dict = {}
    for u, v, d in ext.deltas():
        if v not in best or d.storage < best[v][1]:
            best[v] = (u, d.storage)
    seen: set = set()
    cycles = 0
    for start in best:
        path = []
        x = start
        while x in best and x not in seen and x not in path:
            path.append(x)
            x = best[x][0]
        if x in path:
            cycles += 1
        seen.update(path)
    return cycles


class TestRandomTieDense:
    @pytest.mark.parametrize("seed", range(40))
    def test_directed(self, seed):
        assert_identical(tie_dense_digraph(6 + seed % 30, seed))

    @pytest.mark.parametrize("seed", range(25))
    def test_bidirectional(self, seed):
        assert_identical(bidirectional(seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_bidirectional(self, seed):
        g = tie_dense_digraph(60, 2000 + seed, edge_prob=0.06, bidirectional=True)
        assert_identical(g)

    def test_instances_are_cycle_dense(self):
        # the suite only pins multi-cycle rounds if round one has them
        counts = [first_round_cycles(bidirectional(s)) for s in range(25)]
        assert min(counts) >= 2
        assert sum(counts) / len(counts) >= 4


class TestNaturalGraphs:
    @pytest.mark.parametrize("n,seed", [(40, 1), (80, 2), (120, 3), (200, 4)])
    def test_natural(self, n, seed):
        assert_identical(natural_graph(n, seed=seed))


def _graph(versions: dict, deltas: list[tuple[str, str, int]]) -> VersionGraph:
    g = VersionGraph()
    for v, s in versions.items():
        g.add_version(v, s)
    for u, v, s in deltas:
        g.add_delta(u, v, s, 1)
    return g


class TestHandBuilt:
    def test_two_disjoint_two_cycles_with_tied_entries(self):
        # {a, b} and {c, d} contract in the same round; every AUX edge
        # enters its cycle at reduced weight 4, so the earliest AUX edge
        # (insertion order a, b, c, d) picks the entry member
        g = _graph(
            {"a": 5, "b": 5, "c": 5, "d": 5},
            [("a", "b", 1), ("b", "a", 1), ("c", "d", 1), ("d", "c", 1)],
        )
        assert first_round_cycles(g) == 2
        ref = assert_identical(g)
        assert ref == {"a": AUX, "b": "a", "c": AUX, "d": "c"}

    def test_super_nodes_form_a_new_cycle(self):
        # round one: {a, b} and {c, d}; round two: the two super nodes
        # point at each other through b->c and d->a and contract again;
        # the AUX entries then all tie at 8 and the earliest (into a) wins
        g = _graph(
            {"a": 10, "b": 10, "c": 10, "d": 10},
            [
                ("a", "b", 1), ("b", "a", 1), ("c", "d", 1), ("d", "c", 1),
                ("b", "c", 2), ("d", "a", 2),
            ],
        )
        assert first_round_cycles(g) == 2
        ref = assert_identical(g)
        assert ref == {"a": AUX, "b": "a", "c": "b", "d": "c"}

    @pytest.mark.parametrize(
        "first,expected",
        [
            # a->b first: b's parent is a; one 3-cycle a->b->c->a
            ("a", {"a": "c", "b": "a", "c": AUX}),
            # c->b first: b's parent is c; the 2-cycle {b, c} contracts,
            # then absorbs a in round two
            ("c", {"a": "c", "b": "c", "c": AUX}),
        ],
    )
    def test_cycle_member_with_tied_cheapest_in_edges(self, first, expected):
        # b has two cheapest in-edges (a->b, c->b, both 1); whichever was
        # inserted first is b's cycle edge, and the two answers differ
        # while weighing the same (storage 5)
        tied = [("a", "b", 1), ("c", "b", 1)]
        if first == "c":
            tied.reverse()
        g = _graph(
            {"a": 5, "b": 4, "c": 3},
            tied + [("b", "a", 3), ("c", "a", 1), ("b", "c", 1)],
        )
        ref = assert_identical(g)
        assert ref == expected

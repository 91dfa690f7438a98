"""Shared test helpers: seeded instances, span-based budgets, tree checks.

One implementation behind both access paths: the conftest fixtures
(``repo_factory`` / ``graph_factory`` / ``storage_budget`` /
``retrieval_budget``) wrap these functions, and test modules that
predate the fixtures import them directly.  All caches are keyed by the
full parameter tuple and generation is deterministic, so a cached
object is indistinguishable from a fresh one — treat everything
returned here as read-only.
"""

import numpy as np

from repro.vcs import build_graph_from_repo, random_repository

_repos = {}
_graphs = {}
_natural = {}


def cached_repo(commits, *, seed=0, branch_prob=0.15, merge_prob=0.05):
    """The seeded random repository for this parameter tuple (cached)."""
    key = (commits, seed, branch_prob, merge_prob)
    if key not in _repos:
        _repos[key] = random_repository(
            commits, branch_prob=branch_prob, merge_prob=merge_prob, seed=seed
        )
    return _repos[key]


def cached_graph(commits, *, seed=0, branch_prob=0.15, merge_prob=0.05):
    """The version graph of :func:`cached_repo` (cached)."""
    key = (commits, seed, branch_prob, merge_prob)
    if key not in _graphs:
        _graphs[key] = build_graph_from_repo(
            cached_repo(
                commits, seed=seed, branch_prob=branch_prob, merge_prob=merge_prob
            )
        )
    return _graphs[key]


def cached_natural_graph(n, *, seed=0):
    """A cached ``repro.gen.natural_graph`` instance."""
    from repro.gen import natural_graph

    key = (n, seed)
    if key not in _natural:
        _natural[key] = natural_graph(n, seed=seed)
    return _natural[key]


def storage_span_budget(graph, span=2.0):
    """``span`` x the min-storage arborescence cost: a feasible MSR
    storage budget with known slack."""
    from repro.fastgraph import ArrayPlanTree, CompiledGraph
    from repro.fastgraph.arborescence import min_storage_parent_edges

    cg = CompiledGraph(graph)
    tree = ArrayPlanTree(cg, min_storage_parent_edges(cg))
    return span * tree.total_storage


def retrieval_span_budget(graph, span=2.0):
    """``span`` x the worst single-edge retrieval cost: a feasible BMR
    max-retrieval budget."""
    return graph.max_retrieval_cost() * span


def repo_graph_budget(commits, *, seed=0, span=2.0, problem="msr",
                      branch_prob=0.15, merge_prob=0.05):
    """``(repo, graph, budget)`` — the triplet every engine test opens with."""
    repo = cached_repo(
        commits, seed=seed, branch_prob=branch_prob, merge_prob=merge_prob
    )
    graph = cached_graph(
        commits, seed=seed, branch_prob=branch_prob, merge_prob=merge_prob
    )
    if problem == "msr":
        budget = storage_span_budget(graph, span)
    else:
        budget = retrieval_span_budget(graph, span)
    return repo, graph, budget


def assert_bit_identical(a, b):
    """Two ArrayPlanTrees hold bit-identical state and float totals."""
    for field in ("parent", "par_edge", "size", "ret"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.total_storage == b.total_storage
    assert a.total_retrieval == b.total_retrieval

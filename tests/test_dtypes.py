"""Index-dtype diet: int32 below the 2^31 span, int64 above.

:class:`~repro.fastgraph.compiled.CompiledGraph` parameterizes every
index-valued array (edge endpoints, CSR adjacency, ``aux_edge``) on an
``index_dtype`` chosen automatically from the graph's span — int32 for
everything that fits (halving index memory at XL scale), int64 beyond.
These tests pin the selection rule, the overflow guard, the elementwise
equality of int32 vs int64 compiles, dtype inheritance into
:class:`~repro.fastgraph.plantree.ArrayPlanTree` (clone included), and
the in-place upcast when a tree outgrows its narrow dtype.
"""

import numpy as np
import pytest

from repro.core.graph import GraphError
from repro.fastgraph import solvers as solvers_mod
from repro.fastgraph.compiled import (
    _INT32_CAPACITY,
    CompiledGraph,
    _auto_index_dtype,
    _check_index_capacity,
    _index_span,
)
from repro.fastgraph.solvers import (
    _lmg_candidates,
    _lmg_run,
    _materialized_array_tree,
    _min_storage_array_tree,
)
from repro.gen import random_digraph

INDEX_ATTRS = [
    "edge_src",
    "edge_dst",
    "aux_edge",
    "out_indptr",
    "out_edges",
    "in_indptr",
    "in_edges",
]
FLOAT_ATTRS = ["edge_storage", "edge_retrieval"]


class TestDtypeSelection:
    def test_small_graphs_compile_to_int32(self):
        cg = random_digraph(40, seed=2).compile()
        assert cg.index_dtype == np.dtype(np.int32)
        for attr in INDEX_ATTRS:
            assert getattr(cg, attr).dtype == np.dtype(np.int32), attr

    def test_auto_dtype_boundary(self):
        # span = max(nodes + 1, edges); int32 holds spans up to 2^31 - 1
        assert _auto_index_dtype(10, 20) == np.dtype(np.int32)
        assert _auto_index_dtype(_INT32_CAPACITY - 1, 0) == np.dtype(np.int32)
        assert _auto_index_dtype(_INT32_CAPACITY, 0) == np.dtype(np.int64)
        assert _auto_index_dtype(0, _INT32_CAPACITY + 1) == np.dtype(np.int64)
        assert _index_span(10, 3) == 11
        assert _index_span(10, 30) == 30

    def test_overflow_guard_message(self):
        with pytest.raises(GraphError, match="index dtype int32 cannot address"):
            _check_index_capacity(_INT32_CAPACITY, 0, np.dtype(np.int32))
        with pytest.raises(GraphError, match="cannot address"):
            _check_index_capacity(200, 5, np.dtype(np.int8))
        # and through the constructor
        with pytest.raises(GraphError, match="cannot address"):
            CompiledGraph(random_digraph(300, seed=1), index_dtype=np.int8)
        # int64 always fits
        _check_index_capacity(_INT32_CAPACITY + 7, 0, np.dtype(np.int64))


class TestDtypeEquivalence:
    def test_int32_and_int64_compiles_elementwise_equal(self):
        graph = random_digraph(120, extra_edge_prob=0.2, seed=6)
        cg32 = CompiledGraph(graph, index_dtype=np.int32)
        cg64 = CompiledGraph(graph, index_dtype=np.int64)
        assert cg32.index_dtype == np.dtype(np.int32)
        assert cg64.index_dtype == np.dtype(np.int64)
        assert cg32.n == cg64.n and cg32.num_edges == cg64.num_edges
        for attr in INDEX_ATTRS:
            a32, a64 = getattr(cg32, attr), getattr(cg64, attr)
            assert a32.dtype == np.dtype(np.int32), attr
            assert a64.dtype == np.dtype(np.int64), attr
            assert np.array_equal(a32, a64), attr
        for attr in FLOAT_ATTRS:
            assert np.array_equal(getattr(cg32, attr), getattr(cg64, attr)), attr

    def test_kernel_plans_identical_across_dtypes(self):
        graph = random_digraph(100, extra_edge_prob=0.2, seed=9)
        trees = {}
        for dtype in (np.int32, np.int64):
            cg = CompiledGraph(graph, index_dtype=dtype)
            tree = _min_storage_array_tree(cg)
            budget = tree.total_storage * 2.0
            _lmg_run(
                cg,
                tree,
                _lmg_candidates(cg, tree),
                budget,
                solvers_mod._lmg_default_rounds(cg),
            )
            trees[np.dtype(dtype).name] = tree
        t32, t64 = trees["int32"], trees["int64"]
        assert np.array_equal(t32.parent, t64.parent)
        assert np.array_equal(t32.ret, t64.ret)  # bit-identical floats
        assert t32.total_storage == t64.total_storage
        assert t32.total_retrieval == t64.total_retrieval


class TestTreeDtypeInheritance:
    def test_tree_arrays_inherit_index_dtype(self):
        graph = random_digraph(60, seed=3)
        for dtype in (np.int32, np.int64):
            cg = CompiledGraph(graph, index_dtype=dtype)
            tree = _materialized_array_tree(cg)
            tree.ensure_euler()
            for attr in ("parent", "par_edge", "size", "_tin", "_tout", "_preorder"):
                assert getattr(tree, attr).dtype == np.dtype(dtype), (attr, dtype)
            assert tree.ret.dtype == np.dtype(np.float64)

    def test_clone_preserves_dtypes(self):
        graph = random_digraph(50, seed=4)
        cg = CompiledGraph(graph, index_dtype=np.int32)
        tree = _materialized_array_tree(cg)
        tree.ensure_euler()
        new = tree.clone()
        for attr in ("parent", "par_edge", "size", "_tin", "_tout", "_preorder"):
            assert getattr(new, attr).dtype == np.dtype(np.int32), attr
        assert new.parent_map() == tree.parent_map()

    def test_append_version_upcasts_on_overflow(self):
        graph = random_digraph(30, seed=5)
        cg = CompiledGraph(graph, index_dtype=np.int32)
        tree = _materialized_array_tree(cg)
        tree.ensure_euler()
        before = tree.parent.copy()
        old_aux = len(before) - 1
        assert tree.parent.dtype == np.dtype(np.int32)
        # an edge id beyond int32 forces the in-place int64 upgrade
        # (par_eid is bookkeeping only, so a synthetic id is fine here)
        big_eid = _INT32_CAPACITY + 10
        new_v = tree.append_version(tree.cg.aux, big_eid, 5.0, 1.0)
        for attr in ("parent", "par_edge", "size"):
            assert getattr(tree, attr).dtype == np.dtype(np.int64), attr
        # appends leave the Euler intervals stale; they are rebuilt at
        # the upgraded dtype on next use
        tree.ensure_euler()
        for attr in ("_tin", "_tout", "_preorder"):
            assert getattr(tree, attr).dtype == np.dtype(np.int64), attr
        assert len(tree._preorder) == len(tree.parent)
        assert int(tree.par_edge[new_v]) == big_eid
        new_aux = len(tree.parent) - 1
        assert int(tree.parent[new_v]) == new_aux
        # pre-existing structure survived the AUX renumber + upcast
        # (the tree only is appended here, so compare raw indices, not
        # the node-keyed views that consult the compiled graph)
        for v in range(old_aux):
            p = int(before[v])
            assert int(tree.parent[v]) == (new_aux if p == old_aux else p)

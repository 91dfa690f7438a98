"""Index-compiled version graphs (node interning + CSR arrays).

A :class:`CompiledGraph` freezes one *extended* version graph into flat
NumPy arrays.  Everything is keyed by small integers:

* versions get indices ``0 .. n-1`` in insertion order, the auxiliary
  root :data:`~repro.core.graph.AUX` gets index ``n`` (:attr:`aux`);
* edges get ids ``0 .. m-1`` in the extended graph's edge *insertion*
  order — original deltas first, then one ``(AUX, v)`` materialization
  edge per version.  Edge-id order is load-bearing: the greedy kernels
  break ties by scan order exactly like the dict reference solvers.

The CSR adjacency (``out_indptr``/``out_edges`` and the ``in_`` pair)
stores *edge ids* rather than neighbor indices, so every per-edge
attribute lookup is one array load.  Within a source node the CSR slice
preserves successor insertion order, matching
``VersionGraph.successors(u)`` iteration.

Incremental appends and detaches
--------------------------------
Online ingest grows a graph one version at a time, and recompiling the
whole thing per arrival is O(V + E) *interpreter* work.  A compiled
graph therefore absorbs pure append mutations in place
(:meth:`apply_mutation`, driven by the :class:`~repro.core.graph.
GraphMutation` event stream): new versions and new deltas land in cheap
pending buffers, the integer-keyed lookups (``index``, :meth:`edge_id`,
``n``/``aux``/``num_edges``) stay current eagerly, and the flat arrays
are rebuilt lazily by :meth:`refresh` with vectorized NumPy passes
(concatenate + stable argsort CSR) — identical, elementwise, to a
from-scratch compile of the final graph.

Detach mutations (``remove_delta`` / ``remove_version`` — version
retirement) are absorbed too: the removed edge ids / node slots are
*tombstoned* and the next :meth:`refresh` compacts them out with
vectorized masks, renumbering survivors while preserving relative
insertion order.  The compacted result is elementwise-equal to a fresh
compile of the post-retirement graph.  Between refreshes the scalar
lookups stay coherent with a *slot* numbering that still includes dead
slots (``n`` / ``aux`` count them; ``index`` does not resolve retired
nodes; ``num_edges`` counts live edges only), so plan repair can keep
working in the pre-compaction id space and re-solve after the compile.

Two id-stability rules follow from the canonical edge layout (real
deltas first, AUX edges after):

* **real** edge ids never change once assigned;
* **AUX** edge ids shift by one for every real delta appended later
  (they sit after the real block).  Between refreshes
  ``edge_id(aux, v)`` always answers with the id that the *next*
  refresh will assign, so callers that hold AUX edge ids across appends
  must re-query them (the ingest engine re-solves from scratch instead
  of holding them).

Index dtypes (the memory diet)
------------------------------
Every index-valued array (endpoints, CSR adjacency, ``aux_edge``) is
stored in :attr:`index_dtype` — ``int32`` while both the node and edge
counts fit (halving index memory and cache traffic at the 100k+ bench
tiers), ``int64`` otherwise.  The dtype is chosen automatically at
compile time, can be forced via ``index_dtype=``, and is upgraded in
place by :meth:`refresh` if incremental appends outgrow the 32-bit
range; forcing ``int32`` past its capacity raises
:class:`~repro.core.graph.GraphError`.  Index *values* are exact either
way, so plans are unaffected.
"""

from __future__ import annotations

import copy

import numpy as np

from ..core.graph import AUX, GraphError, GraphMutation, Node, VersionGraph

__all__ = ["CompiledGraph"]

#: Largest count an ``int32``-indexed compiled graph can address.
_INT32_CAPACITY = int(np.iinfo(np.int32).max)


def _index_span(num_nodes: int, num_edges: int) -> int:
    """Largest value the index arrays must represent (AUX id included)."""
    return max(num_nodes + 1, num_edges)


def _auto_index_dtype(num_nodes: int, num_edges: int) -> np.dtype:
    """Narrowest index dtype that can address the graph."""
    if _index_span(num_nodes, num_edges) <= _INT32_CAPACITY:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _check_index_capacity(
    num_nodes: int, num_edges: int, dtype: np.dtype
) -> None:
    """Raise ``GraphError`` when ``dtype`` cannot address the graph."""
    span = _index_span(num_nodes, num_edges)
    limit = int(np.iinfo(dtype).max)
    if span > limit:
        raise GraphError(
            f"index dtype {np.dtype(dtype).name} cannot address "
            f"{num_nodes} versions / {num_edges} edges "
            f"(needs {span} > {limit})"
        )


class CompiledGraph:
    """Flat-array snapshot of an extended :class:`VersionGraph`.

    Attributes
    ----------
    graph:
        The extended :class:`VersionGraph` this was compiled from (kept
        for interop: building dict ``PlanTree`` views, arborescences).
    nodes:
        Version objects by index (length ``n``; AUX is *not* listed).
    index:
        Mapping node → index, including ``AUX → n``.
    aux:
        Index of the auxiliary root (``== n``).
    node_storage:
        ``float64[n + 1]`` materialization costs (0.0 for AUX).
    edge_src / edge_dst:
        ``index_dtype[m]`` endpoints per edge id.
    edge_storage / edge_retrieval:
        ``float64[m]`` delta costs per edge id.
    aux_edge:
        ``index_dtype[n]`` — edge id of ``(AUX, v)`` per version index.
    index_dtype:
        Dtype of every index-valued array (``int32`` while the graph
        fits, ``int64`` otherwise; see the module docstring).
    out_indptr / out_edges, in_indptr / in_edges:
        CSR adjacency over edge ids, successor/predecessor order
        preserved from the source graph.

    The array attributes are valid only while no appends are pending;
    :meth:`refresh` (called automatically by
    :meth:`~repro.core.graph.VersionGraph.compile`) folds pending
    appends in.  The scalar/lookup attributes (``n``, ``aux``,
    ``num_edges``, ``index``, ``nodes``, :meth:`edge_id`) are always
    current.
    """

    __slots__ = (
        "graph",
        "nodes",
        "index",
        "n",
        "aux",
        "num_edges",
        "node_storage",
        "edge_src",
        "edge_dst",
        "edge_storage",
        "edge_retrieval",
        "aux_edge",
        "out_indptr",
        "out_edges",
        "in_indptr",
        "in_edges",
        "_edge_index",
        "name",
        "_r_src",
        "_r_dst",
        "_r_es",
        "_r_er",
        "_m_real",
        "_node_store",
        "_pend_nodes",
        "_pend_edges",
        "_dead_nodes",
        "_dead_edges",
        "_owns_graph",
        "_stale",
        "index_dtype",
        "_str_order",
        "_start",
    )

    def __init__(
        self,
        graph: VersionGraph,
        *,
        index_dtype: np.dtype | type | None = None,
    ) -> None:
        """Compile ``graph``; construction is the append path.

        Every version and real delta is queued as a pending append and
        the first :meth:`refresh` folds them in from empty arrays.
        """
        ext = graph if graph.has_aux else graph.extended()
        self.graph = ext
        self.name = ext.name
        # appends can only be routed here by the *source* graph's event
        # stream; a compile of an already-extended graph would see its
        # own mutations twice, so it opts out of incremental absorption
        self._owns_graph = ext is not graph
        self.nodes: list[Node] = [v for v in ext.versions if v is not AUX]
        n = len(self.nodes)
        self.n = n
        self.aux = n
        self.index: dict[Node, int] = {v: i for i, v in enumerate(self.nodes)}
        self.index[AUX] = n

        # real deltas in insertion order; ``extended()`` appends the AUX
        # edges after them, so this is the canonical edge-id layout
        self._pend_nodes: list[float] = [ext.storage_cost(v) for v in self.nodes]
        self._pend_edges: list[tuple[int, int, float, float]] = [
            (self.index[u], self.index[v], d.storage, d.retrieval)
            for u, v, d in ext.deltas()
            if u is not AUX
        ]
        m = len(self._pend_edges)
        self._m_real = m
        if index_dtype is None:
            idt = _auto_index_dtype(n, m + n)
        else:
            idt = np.dtype(index_dtype)
            _check_index_capacity(n, m + n, idt)
        self.index_dtype = idt
        self._str_order: np.ndarray | None = None
        # (start-tree pairs, Edmonds rounds), filled lazily by
        # ``arborescence.min_storage_parent_edges``; refresh() clears it
        self._start: tuple[tuple[tuple[int, int], ...], int] | None = None
        self._node_store = np.empty(0, dtype=np.float64)
        self._r_src = np.empty(0, dtype=idt)
        self._r_dst = np.empty(0, dtype=idt)
        self._r_es = np.empty(0, dtype=np.float64)
        self._r_er = np.empty(0, dtype=np.float64)
        self._dead_nodes: set[int] = set()
        self._dead_edges: set[int] = set()
        self.num_edges = m + n
        self._stale = True
        self.refresh()
        self._rebuild_edge_index()

    # ------------------------------------------------------------------
    # incremental appends
    # ------------------------------------------------------------------
    def apply_mutation(self, event: GraphMutation) -> bool:
        """Absorb an append or detach mutation; False = cache dropped.

        ``add_version`` interns the new node (taking over the old AUX
        index, AUX moves to ``n + 1``) and schedules its storage cost and
        materialization edge; ``add_delta`` assigns the next real edge id
        eagerly and buffers the costs.  ``remove_delta`` /
        ``remove_version`` tombstone the edge id / node slot for the
        next :meth:`refresh` to compact out (lazily — removals are
        amortized into the next re-solve's compile).  Cost updates
        (``update_version`` / ``update_delta``) return False so the
        owning graph falls back to full invalidation.
        """
        if not self._owns_graph:
            return False
        if event.kind in GraphMutation.DETACH_KINDS:
            return self._apply_detach(event)
        if event.kind not in GraphMutation.APPEND_KINDS:
            return False
        ext = self.graph
        if event.kind == "add_version":
            v = event.v
            i = self.n
            self.nodes.append(v)
            self.index[v] = i
            self.n = i + 1
            self.aux = self.n
            self.index[AUX] = self.n
            self._pend_nodes.append(float(event.storage))
            self.num_edges += 1  # the (AUX, v) materialization edge
            ext.add_version(v, event.storage)
            ext.add_delta(AUX, v, event.storage, 0.0)
        else:  # add_delta
            ui = self.index[event.u]
            vi = self.index[event.v]
            self._edge_index[(ui, vi)] = self._m_real
            self._m_real += 1
            self.num_edges += 1
            self._pend_edges.append(
                (ui, vi, float(event.storage), float(event.retrieval))
            )
            ext.add_delta(event.u, event.v, event.storage, event.retrieval)
        self._stale = True
        return True

    def _apply_detach(self, event: GraphMutation) -> bool:
        """Tombstone a removed edge / retired version for lazy compaction.

        The pre-compaction *slot* numbering is left intact (``n`` /
        ``aux`` still count dead slots; real edge ids keep their eager
        assignment) so mid-stream consumers holding node indices stay
        coherent until the next :meth:`refresh`.  ``num_edges`` drops
        eagerly to the live count.
        """
        ext = self.graph
        if event.kind == "remove_delta":
            ui = self.index[event.u]
            vi = self.index[event.v]
            eid = self._edge_index.pop((ui, vi))
            self._dead_edges.add(eid)
            self.num_edges -= 1
            ext.remove_delta(event.u, event.v)
        else:  # remove_version — incident deltas already removed upstream
            vi = self.index.pop(event.v)
            self._dead_nodes.add(vi)
            self.num_edges -= 1  # the (AUX, v) materialization edge
            self._str_order = None  # dead slots must drop out of scan order
            ext.remove_version(event.v)
        self._stale = True
        return True

    def refresh(self) -> "CompiledGraph":
        """Fold pending appends and compact tombstones into the arrays.

        Amortized O(V + E) *vectorized* work (array concatenation, mask
        compaction when detaches are pending, plus a stable argsort per
        CSR direction); a from-scratch compile is this same fold from
        empty arrays.  No-op when nothing is pending.  The
        rebuilt arrays are fresh objects — previously returned arrays
        (e.g. held by a :meth:`snapshot`) are never mutated in place.

        Compaction renumbers surviving nodes and edges densely while
        preserving relative insertion order, which keeps the result
        elementwise-equal to a fresh compile of the post-retirement
        graph (dicts preserve survivor order under deletion).
        """
        if not self._stale:
            return self
        self._start = None  # the arrays are rebuilt below
        if _index_span(self.n, self.num_edges) > np.iinfo(self.index_dtype).max:
            # appends outgrew int32: upgrade in place before rebuilding
            self.index_dtype = np.dtype(np.int64)
            self._r_src = self._r_src.astype(np.int64)
            self._r_dst = self._r_dst.astype(np.int64)
        if self._pend_nodes:
            self._node_store = np.concatenate(
                [self._node_store, np.array(self._pend_nodes, dtype=np.float64)]
            )
            self._pend_nodes = []
        if self._pend_edges:
            pend = self._pend_edges
            idt = self.index_dtype
            self._r_src = np.concatenate(
                [self._r_src, np.array([e[0] for e in pend], dtype=idt)]
            )
            self._r_dst = np.concatenate(
                [self._r_dst, np.array([e[1] for e in pend], dtype=idt)]
            )
            self._r_es = np.concatenate(
                [self._r_es, np.array([e[2] for e in pend], dtype=np.float64)]
            )
            self._r_er = np.concatenate(
                [self._r_er, np.array([e[3] for e in pend], dtype=np.float64)]
            )
            self._pend_edges = []
        compacted = False
        if self._dead_edges:
            keep = np.ones(len(self._r_src), dtype=bool)
            keep[np.fromiter(self._dead_edges, dtype=np.int64)] = False
            self._r_src = self._r_src[keep]
            self._r_dst = self._r_dst[keep]
            self._r_es = self._r_es[keep]
            self._r_er = self._r_er[keep]
            self._m_real = len(self._r_src)
            self._dead_edges = set()
            compacted = True
        if self._dead_nodes:
            alive = np.ones(self.n, dtype=bool)
            alive[np.fromiter(self._dead_nodes, dtype=np.int64)] = False
            remap = np.cumsum(alive) - 1  # old slot -> compacted index
            idt = self.index_dtype
            self._r_src = remap[self._r_src].astype(idt, copy=False)
            self._r_dst = remap[self._r_dst].astype(idt, copy=False)
            self._node_store = self._node_store[alive]
            self.nodes = [v for i, v in enumerate(self.nodes) if alive[i]]
            self.n = len(self.nodes)
            self.aux = self.n
            self.index = {v: i for i, v in enumerate(self.nodes)}
            self.index[AUX] = self.n
            self._dead_nodes = set()
            self._str_order = None
            compacted = True
        if compacted:
            self._rebuild_edge_index()
        n = self.n
        m = self._m_real
        idt = self.index_dtype
        arange_n = np.arange(n, dtype=idt)
        self.node_storage = np.append(self._node_store, 0.0)
        self.edge_src = np.concatenate([self._r_src, np.full(n, self.aux, dtype=idt)])
        self.edge_dst = np.concatenate([self._r_dst, arange_n])
        self.edge_storage = np.concatenate([self._r_es, self._node_store])
        self.edge_retrieval = np.concatenate(
            [self._r_er, np.zeros(n, dtype=np.float64)]
        )
        self.aux_edge = (m + arange_n).astype(idt, copy=False)
        self.out_indptr, self.out_edges = _csr_from_keys(self.edge_src, n + 1, idt)
        self.in_indptr, self.in_edges = _csr_from_keys(self.edge_dst, n + 1, idt)
        self._stale = False
        return self

    def _rebuild_edge_index(self) -> None:
        """Rebuild ``(src, dst) -> eid`` from the real-edge arrays.

        O(m) interpreter work, paid at construction and after a
        compaction pass (appends assign their ids eagerly).
        """
        self._edge_index = {
            (int(u), int(v)): eid
            for eid, (u, v) in enumerate(
                zip(self._r_src.tolist(), self._r_dst.tolist())
            )
        }

    def snapshot(self) -> "CompiledGraph":
        """Frozen shallow copy for off-thread solves.

        Shares the flat arrays (which are replaced wholesale, never
        mutated, by :meth:`refresh`) and copies the small Python-side
        indexes, so subsequent appends to the live graph leave the
        snapshot untouched.  The ``graph`` attribute still references
        the live extended graph — array-only consumers (the solver
        kernels, ``ArrayPlanTree.to_plan``) are safe; dict-graph
        consumers must not race an ingesting writer.
        """
        self.refresh()
        new = copy.copy(self)
        new.nodes = list(self.nodes)
        new.index = dict(self.index)
        new._edge_index = dict(self._edge_index)
        new._pend_nodes = []
        new._pend_edges = []
        new._dead_nodes = set()
        new._dead_edges = set()
        new._owns_graph = False
        return new

    # ------------------------------------------------------------------
    def node_of(self, i: int) -> Node:
        """Original node object for index ``i`` (AUX for :attr:`aux`)."""
        return AUX if i == self.aux else self.nodes[i]

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of ``(u, v)`` by node indices; KeyError when absent.

        Always current: AUX edges answer ``m_real + v`` (the id the next
        :meth:`refresh` materializes), real edges their eagerly assigned
        id.
        """
        if u == self.aux:
            if 0 <= v < self.n:
                return self._m_real + v
            raise KeyError((u, v))
        return self._edge_index[(u, v)]

    def out_slice(self, u: int) -> np.ndarray:
        """Edge ids leaving ``u``, in successor insertion order."""
        return self.out_edges[self.out_indptr[u] : self.out_indptr[u + 1]]

    def in_slice(self, v: int) -> np.ndarray:
        """Edge ids entering ``v``, in predecessor insertion order."""
        return self.in_edges[self.in_indptr[v] : self.in_indptr[v + 1]]

    @property
    def str_order(self) -> np.ndarray:
        """Version indices sorted by ``str(node)`` — the LMG scan order.

        The greedy LMG kernel and the MP heap both enumerate candidates
        in string order of the node labels (matching the dict reference
        solvers' ``sorted`` calls).  Stringifying every node per solve is
        O(n) interpreter work, so the key array is computed once and
        cached; appends are detected by length and trigger a re-sort.
        """
        # guarded-by: compile-owner (same single-writer discipline as the
        # flat arrays: ingest mutates only via apply_mutation/refresh on
        # the owning thread, solvers read a snapshot())
        cached = self._str_order
        if cached is None or cached.size != self.n:
            nodes = self.nodes
            order = sorted(range(self.n), key=lambda i: str(nodes[i]))
            cached = np.array(order, dtype=self.index_dtype)
            self._str_order = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - trivial
        label = f" {self.name!r}" if self.name else ""
        return f"<CompiledGraph{label}: {self.n} versions, {self.num_edges} edges>"


def _csr_from_keys(
    keys: np.ndarray, num_nodes: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, edge ids) grouping edge ids by ``keys``.

    A stable argsort preserves edge-id order within each node — exactly
    the per-node insertion order the dict adjacency iterates in.
    """
    indptr = np.zeros(num_nodes + 1, dtype=dtype)
    np.cumsum(np.bincount(keys, minlength=num_nodes), out=indptr[1:])
    indices = np.argsort(keys, kind="stable").astype(dtype, copy=False)
    return indptr, indices

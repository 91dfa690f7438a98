"""Flat-array plan trees with the PlanTree O(1) swap contract.

:class:`ArrayPlanTree` mirrors :class:`~repro.core.solution.PlanTree`
over a :class:`~repro.fastgraph.compiled.CompiledGraph`: per-node cached
retrieval costs and subtree sizes make evaluating the move "re-route
``v`` through edge ``e``" a constant number of array loads, and the
cached vectors themselves are the inputs the vectorized greedy kernels
scan with NumPy instead of per-candidate Python loops.

Equivalence discipline
----------------------
The array kernels must produce *plan-identical* results to the dict
reference solvers, whose tie-breaks compare floats for exact equality.
Every cached quantity here is therefore computed with the same IEEE
operations in the same order as ``PlanTree``:

* construction consumes ``(version, parent-edge)`` pairs in the same
  iteration order as ``PlanTree``'s ``parent.items()`` loop, so the
  Python-float storage accumulator matches bit for bit;
* retrieval costs are path sums ``ret[parent] + r_e`` assigned in the
  identical root-first DFS order (:meth:`ArrayPlanTree.subtree` from
  AUX, the one subtree walk every method here shares);
* :meth:`apply_swap_edge` shifts the moved subtree with one addition
  per node, exactly like ``PlanTree.apply_swap``.

One subtree move, two forms
---------------------------
The paper's local move "make ``u`` the parent of ``v``" shifts every
retrieval cost in ``v``'s subtree by the same amount.  It exists here in
two forms.  The *walk* form (:meth:`_move`) does O(1) child surgery
(child sets are insertion-ordered dicts), two O(depth) ancestor size
walks (the new chain's also rejects cycles) and an O(subtree) retrieval
walk, and invalidates the Euler intervals (``_order_dirty``).  Every
walk-path swap, the BMR-LMG runner's moves and the engine's retirement
repair (:meth:`rehome_subtree`) apply it.  The *fresh* form
(:meth:`_apply_swap_fresh`) runs when the intervals are current and
keeps them current: moving ``v``'s subtree is a contiguous block move
inside the preorder (shift the nodes between the block and its
destination by ``±size(v)``, slide the block, rederive ``tout = tin +
size - 1``), ancestor size updates are two interval-containment masks,
and the subtree retrieval shift is one masked add.  All O(V)
vectorized, zero Python walks — this is what makes the LMG-All kernel
O(V) per round instead of "re-DFS the tree per round".  Child sets are
rebuilt lazily (``_children_dirty``) in index order.  Swaps and Euler
tours do not depend on child *order* (a DFS preorder from rebuilt sets
is a different but equally valid Euler tour, and
``materialized_versions`` callers sort); retirement repair does, since
it re-homes a version's children in iteration order, so the greedy
kernels hand their trees on with index-ordered child sets.  Both forms
apply the identical single IEEE addition per shifted node, so plans stay
bit-identical whichever runs.  Tests replay the greedy kernels' recorded
moves through the walk form as their reference.
"""

from __future__ import annotations

import copy

import numpy as np

from ..core.graph import AUX, GraphError, Node
from ..core.solution import PlanTree, RetrievalSummary, StoragePlan
from ..core.tolerance import close_enough
from .compiled import CompiledGraph

__all__ = ["ArrayPlanTree"]


class ArrayPlanTree:
    """A spanning arborescence of a compiled graph, rooted at AUX.

    State is indexed by node index (AUX = ``cg.aux``):

    * ``parent`` — parent node index (-1 for AUX);
    * ``par_edge`` — edge id of ``(parent[v], v)`` (-1 for AUX);
    * ``ret`` — retrieval cost ``R(v)`` along the unique AUX path;
    * ``size`` — subtree sizes (the paper's "dependency number");
    * ``children`` — per-node child sets (insertion-ordered
      ``dict[int, None]``), rebuilt lazily from ``parent`` after
      vectorized swaps (``_ensure_children``);
    * Euler intervals ``tin``/``tout`` for O(1) ancestor tests,
      maintained incrementally by fresh-path swaps and recomputed
      lazily otherwise.

    Index-valued arrays inherit the compiled graph's
    :attr:`~repro.fastgraph.compiled.CompiledGraph.index_dtype`.
    """

    __slots__ = (
        "cg",
        "parent",
        "par_edge",
        "ret",
        "size",
        "children",
        "total_storage",
        "total_retrieval",
        "_tin",
        "_tout",
        "_preorder",
        "_order_dirty",
        "_children_dirty",
        "_iota",
        "_cap",
        "_parent_buf",
        "_par_edge_buf",
        "_ret_buf",
        "_size_buf",
    )

    def __init__(self, cg: CompiledGraph, parent_edges: list[tuple[int, int]]):
        """Build from ``(version index, parent edge id)`` pairs.

        The pair order defines the child-set and storage-summation
        order (see module docstring).  Every version must appear exactly
        once; the referenced edge must end at it.
        """
        n = cg.n
        idt = cg.index_dtype
        self.cg = cg
        self.parent = np.full(n + 1, -1, dtype=idt)
        self.par_edge = np.full(n + 1, -1, dtype=idt)
        self.ret = np.zeros(n + 1, dtype=np.float64)
        self.size = np.ones(n + 1, dtype=idt)
        self.children: list[dict[int, None]] = [{} for _ in range(n + 1)]
        self.total_storage = 0.0
        self.total_retrieval = 0.0
        self._tin = np.zeros(n + 1, dtype=idt)
        self._tout = np.zeros(n + 1, dtype=idt)
        self._preorder = np.zeros(0, dtype=idt)
        self._order_dirty = True
        self._children_dirty = False
        self._iota: np.ndarray | None = None
        # guarded-by: tree-owner — amortized-growth backing buffers for
        # the four per-node arrays (see append_version); 0 = not buffered
        self._cap = 0
        self._parent_buf: np.ndarray | None = None
        self._par_edge_buf: np.ndarray | None = None
        self._ret_buf: np.ndarray | None = None
        self._size_buf: np.ndarray | None = None

        seen = 0
        for v, eid in parent_edges:
            if cg.edge_dst[eid] != v or self.par_edge[v] != -1:
                raise GraphError(f"bad parent edge {eid} for version index {v}")
            p = int(cg.edge_src[eid])
            self.parent[v] = p
            self.par_edge[v] = eid
            self.children[p][int(v)] = None
            self.total_storage += float(cg.edge_storage[eid])
            seen += 1
        if seen != n:
            raise GraphError(f"parent map covers {seen} of {n} versions")
        self._recompute_all()

    @classmethod
    def from_parent_map(cls, cg: CompiledGraph, parent: dict[Node, Node]) -> "ArrayPlanTree":
        """Build from a node-keyed parent map (e.g. an arborescence)."""
        pairs = [
            (cg.index[v], cg.edge_id(cg.index[p], cg.index[v]))
            for v, p in parent.items()
            if v is not AUX
        ]
        return cls(cg, pairs)

    # ------------------------------------------------------------------
    def _recompute_all(self) -> None:
        """Recompute R, subtree sizes and total retrieval in O(V)."""
        aux = self.cg.aux
        er = self.cg.edge_retrieval
        order = self.subtree(aux)  # same DFS as PlanTree._topo_order
        if len(order) != self.cg.n + 1:
            raise GraphError("parent map contains a cycle")
        self.total_retrieval = 0.0
        self.ret[aux] = 0.0
        for v in order[1:]:
            self.ret[v] = self.ret[self.parent[v]] + er[self.par_edge[v]]
            self.total_retrieval += float(self.ret[v])
        self.size[:] = 1
        for v in reversed(order[1:]):
            self.size[self.parent[v]] += self.size[v]
        self._order_dirty = True

    def subtree(self, v: int) -> list[int]:
        """``v`` and its descendants in root-first stack-DFS preorder.

        The walk order of ``PlanTree._topo_order``, which every cached
        retrieval sum here follows.
        """
        self._ensure_children()
        children = self.children
        order: list[int] = []
        append = order.append
        stack = [v]
        pop = stack.pop
        extend = stack.extend
        while stack:
            x = pop()
            append(x)
            c = children[x]
            if c:
                extend(c)
        return order

    def _ensure_children(self) -> None:
        """Rebuild the per-node child sets from ``parent`` if stale.

        Fresh-path swaps are fully vectorized and keep no child sets:
        they just flip ``_children_dirty``, and the sets are rebuilt
        here in node-index order on the next consumer.  Walk-path
        moves edit the sets in place — O(1) per insert or delete, so
        AUX's O(V) children in the BMR all-materialized start tree cost
        nothing.  Child order matters only to retirement repair
        (module docstring).
        """
        if not self._children_dirty:
            return
        n1 = len(self.parent)
        children: list[dict[int, None]] = [{} for _ in range(n1)]
        for v, p in enumerate(self.parent.tolist()):
            if p >= 0:
                children[p][v] = None
        self.children = children
        self._children_dirty = False

    def ensure_euler(self) -> None:
        """Make the Euler intervals current (no-op when already fresh)."""
        if self._order_dirty:
            self.refresh_euler()

    def refresh_euler(self) -> None:
        """Recompute the subtree intervals used by :meth:`is_ancestor`.

        One single-visit DFS collects the preorder; the intervals are
        then derived vectorized from the cached subtree sizes:
        ``tin[v] = preorder position``, ``tout[v] = tin[v] + size[v] -
        1``.  A node's subtree is exactly the preorder block
        ``[tin, tout]``, so every containment test (`is_ancestor`, the
        kernels' cycle masks, :meth:`apply_swap_edge`'s batch shift
        mask) answers identically to the classic entry/exit-timer
        Euler tour while paying one Python walk instead of two.  The
        preorder itself is kept on :attr:`_preorder`: the fresh swap
        path slides blocks of it, and LMG snapshots it.
        """
        idt = self.parent.dtype
        # the tree's own AUX slot: appends may run ahead of the compiled graph
        order = np.array(self.subtree(len(self.parent) - 1), dtype=idt)
        # detached (dead) rows are unreachable from AUX: their positions
        # stay -1, which every interval-containment mask excludes
        pos = np.full(len(self.parent), -1, dtype=idt)
        pos[order] = np.arange(len(order), dtype=idt)
        self._preorder = order
        self._tin = pos
        self._tout = pos + self.size - 1
        self._order_dirty = False

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when node index ``a`` is an ancestor of ``b`` (or equal)."""
        if self._order_dirty:
            self.refresh_euler()
        return bool(self._tin[a] <= self._tin[b] and self._tout[b] <= self._tout[a])

    # ------------------------------------------------------------------
    # moves (by edge id)
    # ------------------------------------------------------------------
    def swap_deltas_edge(self, eid: int) -> tuple[float, float]:
        """Evaluate re-routing ``dst(eid)`` through edge ``eid``.

        Returns ``(delta_storage, delta_total_retrieval)``; the caller
        must ensure ``src(eid)`` is not inside ``dst(eid)``'s subtree.
        """
        cg = self.cg
        u = cg.edge_src[eid]
        v = cg.edge_dst[eid]
        ds = float(cg.edge_storage[eid] - cg.edge_storage[self.par_edge[v]])
        dr = float((self.ret[u] + cg.edge_retrieval[eid] - self.ret[v]) * self.size[v])
        return ds, dr

    def apply_swap_edge(self, eid: int) -> None:
        """Apply the move evaluated by :meth:`swap_deltas_edge`.

        Identity swaps (``eid`` already is ``v``'s parent edge, e.g.
        :meth:`materialize` on an already-materialized version) return
        immediately: the full child surgery plus size/retrieval walks
        would be a semantic no-op but accumulate float churn in
        ``total_storage`` / ``total_retrieval``.

        Dispatches on Euler freshness: with current intervals the move
        is applied fully vectorized *and leaves them current*
        (:meth:`_apply_swap_fresh`); otherwise the walk form runs and
        the intervals stay invalidated.  Both forms perform identical
        IEEE float updates (module docstring).
        """
        cg = self.cg
        u = int(cg.edge_src[eid])
        v = int(cg.edge_dst[eid])
        if eid == int(self.par_edge[v]):
            return
        if u != cg.aux and self.is_ancestor(v, u):
            raise GraphError(f"swap would create a cycle: {u} is in subtree({v})")
        # the fresh path's preorder scatter assumes every slot is live;
        # with detached (dead) rows present the python walk runs instead
        if self._order_dirty or len(self._preorder) != len(self.parent):
            self._apply_swap_python(eid, u, v)
        else:
            self._apply_swap_fresh(eid, u, v)

    def _apply_swap_python(self, eid: int, u: int, v: int) -> list[int] | None:
        """Walk-form swap: :meth:`_move` with costs from the compiled
        arrays.  Leaves ``_order_dirty`` set and returns :meth:`_move`'s
        subtree walk."""
        cg = self.cg
        ds = float(cg.edge_storage[eid] - cg.edge_storage[self.par_edge[v]])
        shift = float(self.ret[u] + cg.edge_retrieval[eid] - self.ret[v])
        return self._move(v, u, eid, ds, shift)

    def _add_size(self, x: int, d: int) -> None:
        """Add ``d`` to the subtree sizes of ``x`` and all its ancestors."""
        aux = len(self.parent) - 1
        size = self.size
        parent = self.parent
        while True:
            size[x] += d
            if x == aux:
                break
            x = int(parent[x])

    def _move(
        self, v: int, u: int, eid: int, ds: float, shift: float
    ) -> list[int] | None:
        """The walk form of "make ``u`` the parent of ``v``".

        O(1) child surgery, O(depth) size walks up the old and the new
        ancestor chain, and an O(|subtree(v)|) walk adding ``shift`` to
        every retrieval cost once.  ``ds`` is the storage delta of the
        edge change; the total retrieval moves by ``shift * size(v)``,
        the same product :meth:`swap_deltas_edge` evaluates.  Returns
        that walk, :meth:`subtree` of ``v`` after the move, or ``None``
        when ``shift`` is zero and no walk was made.  Raises
        :class:`GraphError`, before any state changes, when ``u`` lies
        inside ``v``'s subtree: the new chain's size walk meets ``v``.
        """
        parent = self.parent
        aux = len(parent) - 1
        chain = []  # u's ancestors; meeting v means u is in v's subtree
        x = u
        while x != aux:
            if x == v:
                raise GraphError(f"move would create a cycle: {u} is in subtree({v})")
            chain.append(x)
            x = int(parent[x])
        chain.append(aux)
        p = int(parent[v])
        self._ensure_children()
        children = self.children
        del children[p][v]
        children[u][v] = None
        parent[v] = u
        self.par_edge[v] = eid

        size = self.size
        sz = int(size[v])
        self._add_size(p, -sz)
        for x in chain:
            size[x] += sz
        sub = None
        if shift != 0.0:
            ret = self.ret
            sub = self.subtree(v)
            for y in sub:
                ret[y] += shift
        self.total_storage += ds
        self.total_retrieval += shift * sz
        self._order_dirty = True
        return sub

    def _apply_swap_fresh(self, eid: int, u: int, v: int) -> None:
        """Vectorized swap that keeps the Euler intervals current.

        Requires fresh intervals.  The preorder block of ``v``'s
        subtree ``[a, b]`` slides to just after ``u``'s entry ``pu``
        (becoming ``u``'s first child — a different but valid preorder
        of the new tree); the nodes between the block and its
        destination shift by ``±size(v)``; exits are rederived as
        ``tout = tin + size - 1`` from the updated sizes.  Ancestor
        size updates use interval-containment masks over the *old*
        intervals — ancestors of ``p``/``u`` are never inside ``v``'s
        subtree (the cycle guard ran), so the masks touch exactly the
        nodes the Python walks would.  Retrieval gets the same
        one-masked-add subtree shift as before.  Child lists are left
        stale (``_children_dirty``).
        """
        cg = self.cg
        p = int(self.parent[v])
        ds, dr = self.swap_deltas_edge(eid)
        shift = float(self.ret[u] + cg.edge_retrieval[eid] - self.ret[v])

        tin = self._tin
        tout = self._tout
        size = self.size
        sz = int(size[v])
        a = int(tin[v])
        b = int(tout[v])
        pu = int(tin[u])
        # masks over the *pre-move* intervals
        block = (tin >= a) & (tin <= b)
        anc_p = (tin <= tin[p]) & (tout >= tout[p])
        anc_u = (tin <= pu) & (tout >= tout[u])

        self.parent[v] = u
        self.par_edge[v] = eid
        size[anc_p] -= sz
        size[anc_u] += sz
        if shift != 0.0:
            self.ret[block] += shift

        # slide the preorder block to sit right after u
        if pu < a:
            between = (tin > pu) & (tin < a)
            tin[between] += sz
            tin[block] += (pu + 1) - a
        else:  # pu > b: u cannot be inside the block (cycle guard)
            between = (tin > b) & (tin <= pu)
            tin[between] -= sz
            tin[block] += (pu - sz + 1) - a
        np.add(tin, size, out=tout)
        tout -= 1
        iota = self._iota
        if iota is None or iota.size != tin.size:
            iota = np.arange(tin.size, dtype=tin.dtype)
            self._iota = iota
        self._preorder[tin] = iota

        self._children_dirty = True
        self.total_storage += ds
        self.total_retrieval += dr

    def materialize(self, v: int) -> None:
        """Shortcut: re-route version index ``v`` through its AUX edge."""
        self.apply_swap_edge(int(self.cg.aux_edge[v]))

    # ------------------------------------------------------------------
    # retirement (online version removal)
    # ------------------------------------------------------------------
    def detach_version(self, v: int, edge_storage: float) -> None:
        """Remove leaf version index ``v`` from the plan (retirement).

        ``edge_storage`` is the storage cost of ``v``'s current parent
        edge, passed explicitly because the compiled arrays may already
        have tombstoned it.  ``v`` must be a leaf — the caller re-homes
        its children first (:meth:`rehome_subtree`).  O(depth): one size
        walk up to AUX.

        The slot becomes a *dead row* (``parent[v] == -1`` with ``v !=
        aux``): it keeps its position so every other slot's numbering —
        shared with the engine's bookkeeping and the pre-compaction
        compiled graph — stays intact until the next full re-solve.
        Dead rows are skipped by the exporters (:meth:`to_plan`,
        :meth:`parent_map`, :meth:`retrieval_summary`) and excluded
        from the Euler order; trees carrying dead rows support appends,
        detaches, re-homes and exports, but not the fresh swap path
        (re-solves rebuild the tree on a compacted graph first).
        """
        aux = len(self.parent) - 1
        p = int(self.parent[v])
        if not (0 <= v < aux) or p < 0:
            raise GraphError(f"cannot detach index {v}: not a live version")
        if int(self.size[v]) != 1:
            raise GraphError(
                f"cannot detach index {v}: {int(self.size[v]) - 1} "
                "dependants still attach through it"
            )
        self._ensure_children()
        del self.children[p][v]
        self.total_retrieval -= float(self.ret[v])
        self.total_storage -= float(edge_storage)
        self._add_size(p, -1)
        self.parent[v] = -1
        self.par_edge[v] = -1
        self.ret[v] = 0.0
        self.size[v] = 1
        self._order_dirty = True

    def rehome_subtree(
        self,
        v: int,
        new_parent: int,
        par_eid: int,
        edge_storage: float,
        edge_retrieval: float,
        old_edge_storage: float,
    ) -> None:
        """Re-route ``v`` (subtree and all) under ``new_parent``.

        The plan-repair move for retirement: when a retired version's
        tree child must find a new parent, the whole child subtree moves
        with it.  All edge costs are passed explicitly (the compiled
        arrays may be mid-tombstone); ``par_eid`` is recorded for
        bookkeeping only.  The move itself is :meth:`_move`, which
        raises :class:`GraphError` when ``new_parent`` lies inside
        ``v``'s subtree.
        """
        aux = len(self.parent) - 1
        u = int(new_parent)
        if not (0 <= v < aux) or self.parent[v] < 0:
            raise GraphError(f"cannot re-home index {v}: not a live version")
        if u == v or not (0 <= u <= aux) or (u != aux and self.parent[u] < 0):
            raise GraphError(f"bad re-home parent index {u}")
        ds = float(edge_storage) - float(old_edge_storage)
        shift = float(self.ret[u] + edge_retrieval - self.ret[v])
        self._move(v, u, par_eid, ds, shift)

    # ------------------------------------------------------------------
    # incremental growth (online ingest)
    # ------------------------------------------------------------------
    @property
    def num_versions(self) -> int:
        """Versions covered by this tree (its own count — during online
        ingest the compiled graph may already be ahead by one)."""
        return len(self.parent) - 1

    def append_version(
        self,
        parent_index: int,
        par_eid: int,
        edge_storage: float,
        edge_retrieval: float,
    ) -> int:
        """Grow the tree by one version attached through the given edge.

        The new version takes the next index (``num_versions`` before
        the call — matching the compiled graph's interning order) and
        the AUX root moves up by one slot, exactly like
        :class:`~repro.fastgraph.compiled.CompiledGraph` renumbers AUX
        on appends.  Edge costs are passed explicitly so the tree never
        reads the (possibly snapshotted or mid-append) compiled arrays;
        ``par_eid`` is recorded for bookkeeping only.

        Amortized O(1) array growth (the four per-node arrays are views
        into capacity-doubling backing buffers), O(#materialized) for
        the AUX renumber (a fancy-index over AUX's child set instead
        of a full-array mask scan), O(depth) for subtree sizes — this
        is what keeps per-arrival ingest latency flat as the graph
        grows.  Returns the new version's index.
        """
        old_len = len(self.parent)
        old_aux = old_len - 1  # AUX slot == old version count
        new_v = old_aux  # the new version takes over the old AUX index
        new_aux = old_len
        if parent_index == old_aux:
            parent_index = new_aux  # caller said "materialize" pre-renumber
        if not (0 <= parent_index <= new_aux) or parent_index == new_v:
            raise GraphError(f"bad attach parent index {parent_index}")
        idt = self.parent.dtype
        if max(new_aux, par_eid) > np.iinfo(idt).max:
            # the graph outgrew this tree's index dtype (mirrors
            # CompiledGraph.refresh's in-place upgrade); the narrow
            # backing buffers are dropped and re-allocated below.  The
            # Euler intervals are rebuilt at the new dtype on next use.
            idt = np.dtype(np.int64)
            self.parent = self.parent.astype(idt)
            self.par_edge = self.par_edge.astype(idt)
            self.size = self.size.astype(idt)
            self._cap = 0

        self._ensure_children()  # before growth: built from the old parent
        aux_children = self.children[old_aux]

        new_len = old_len + 1
        if self._cap < new_len:
            cap = max(2 * old_len, new_len, 8)
            for name in ("parent", "par_edge", "ret", "size"):
                cur = getattr(self, name)
                buf = np.empty(cap, dtype=cur.dtype)
                buf[:old_len] = cur
                setattr(self, f"_{name}_buf", buf)
            self._cap = cap
        # the public arrays are always views of the buffers once capped,
        # so extending a view preserves all previously written slots
        parent = self._parent_buf[:new_len]
        par_edge = self._par_edge_buf[:new_len]
        ret = self._ret_buf[:new_len]
        size = self._size_buf[:new_len]

        # AUX moves up one slot: re-parent exactly its children (the
        # materialized versions) instead of mask-scanning every node
        if aux_children:
            parent[np.fromiter(aux_children, dtype=idt, count=len(aux_children))] = new_aux
        parent[new_aux] = -1
        parent[new_v] = -1
        self.parent = parent
        par_edge[new_aux] = -1
        par_edge[new_v] = -1
        self.par_edge = par_edge
        ret[new_aux] = 0.0
        ret[new_v] = 0.0
        self.ret = ret
        size[new_aux] = size[old_aux]
        size[new_v] = 1
        self.size = size
        self.children.append(aux_children)  # AUX child set moves up
        self.children[old_aux] = {}

        p = int(parent_index)
        self.parent[new_v] = p
        self.par_edge[new_v] = par_eid
        self.children[p][new_v] = None
        self.ret[new_v] = self.ret[p] + edge_retrieval
        self.total_storage += float(edge_storage)
        self.total_retrieval += float(self.ret[new_v])
        self._add_size(p, 1)
        self._order_dirty = True
        return new_v

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def clone(self) -> "ArrayPlanTree":
        """O(V) snapshot sharing the compiled graph.

        Cached floats are copied bit-for-bit, so a clone continues any
        greedy run exactly where the original stood — the trajectory
        sweep forks one at each budget divergence point.
        """
        new = copy.copy(self)
        new.parent = self.parent.copy()
        new.par_edge = self.par_edge.copy()
        new.ret = self.ret.copy()
        new.size = self.size.copy()
        # stale child sets are rebuilt on demand from the parent array
        new.children = [] if self._children_dirty else [c.copy() for c in self.children]
        new._tin = self._tin.copy()
        new._tout = self._tout.copy()
        new._preorder = self._preorder.copy()
        new._cap = 0  # clones re-buffer lazily on their first append
        new._parent_buf = new._par_edge_buf = new._ret_buf = new._size_buf = None
        return new

    # ------------------------------------------------------------------
    # conversions / inspection
    # ------------------------------------------------------------------
    def max_retrieval(self) -> float:
        """``max_v R(v)`` over the versions (0.0 for an empty graph)."""
        n = self.cg.n
        return float(self.ret[:n].max()) if n else 0.0

    def retrieval_summary(self) -> RetrievalSummary:
        """Aggregate retrieval statistics of the current tree.

        Dead (detached) rows are skipped, like every exporter here.
        """
        per = {
            self.cg.nodes[i]: float(self.ret[i])
            for i in range(self.cg.n)
            if self.parent[i] >= 0
        }
        return RetrievalSummary(
            total=self.total_retrieval,
            maximum=max(per.values(), default=0.0),
            per_version=per,
        )

    def materialized_versions(self) -> list[Node]:
        """Versions stored in full (children of AUX)."""
        self._ensure_children()
        return [self.cg.nodes[i] for i in self.children[self.cg.aux]]

    def parent_map(self) -> dict[Node, Node]:
        """Node-keyed parent map (AUX parents for materialized nodes).

        Dead (detached) rows are skipped.
        """
        return {
            self.cg.nodes[v]: self.cg.node_of(int(self.parent[v]))
            for v in range(self.cg.n)
            if self.parent[v] >= 0
        }

    def to_plan(self) -> StoragePlan:
        """Export as a :class:`StoragePlan` over the original nodes."""
        aux = self.cg.aux
        nodes = self.cg.nodes
        mats = []
        deltas = []
        for v in range(self.cg.n):
            p = int(self.parent[v])
            if p == aux:
                mats.append(nodes[v])
            elif p >= 0:  # dead (detached) rows are skipped
                deltas.append((nodes[p], nodes[v]))
        return StoragePlan.of(mats, deltas)

    def to_plan_tree(self) -> PlanTree:
        """The equivalent dict :class:`PlanTree` over a fresh ``G_aux``
        (:meth:`CompiledGraph.extended_graph`); the oracle view."""
        return PlanTree(self.cg.extended_graph(), self.parent_map())

    def check_invariants(self) -> None:
        """Validate cached values against the dict implementation."""
        fresh = self.to_plan_tree()
        if not close_enough(self.total_storage, fresh.total_storage):
            raise GraphError(
                f"storage cache drift: {self.total_storage} vs {fresh.total_storage}"
            )
        if not close_enough(self.total_retrieval, fresh.total_retrieval):
            raise GraphError(
                f"retrieval cache drift: {self.total_retrieval} vs {fresh.total_retrieval}"
            )
        for i, node in enumerate(self.cg.nodes):
            if self.parent[i] < 0:
                continue  # dead (detached) row
            if not close_enough(float(self.ret[i]), fresh.ret[node]):
                raise GraphError(f"retrieval cache drift at {node!r}")
            if fresh.subtree_size[node] != int(self.size[i]):
                raise GraphError(f"subtree size drift at {node!r}")

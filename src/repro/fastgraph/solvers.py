"""Greedy kernels on compiled graphs: LMG, LMG-All, MP and BMR-LMG.

Each kernel is a drop-in replacement for its dict reference
(:func:`repro.algorithms.lmg.lmg`, :func:`repro.algorithms.lmg_all.
lmg_all`, :func:`repro.algorithms.mp.mp`, :func:`repro.algorithms.
bmr_greedy.bmr_lmg` / ``mp_local``) with the per-round candidate scan
turned into NumPy array arithmetic or a lazy heap.  The *choices* are
identical by construction:

* candidates are laid out in the reference scan order (string-sorted
  versions for LMG, edge insertion order for LMG-All and BMR, heap
  order for MP), so ``np.argmax``'s first-maximum rule, or a heap
  keyed ``(-score, position)``, reproduces the reference "strictly
  better" tie-breaking;
* move deltas are computed with the same IEEE float operations on the
  same cached quantities, so equal-ratio ties resolve the same way;
* infeasibility is signalled identically (``ValueError`` when the MSR
  storage budget is below the minimum storage configuration).

All of them accept either a :class:`~repro.core.graph.VersionGraph`
(compiled on the fly through the cached ``.compile()`` hook) or a
pre-built :class:`CompiledGraph`, which is how budget sweeps amortize
compilation across probes.

The LMG / LMG-All / BMR greedy loops are factored into *resumable*
round runners (:func:`_lmg_run`, :func:`_lmg_all_run`,
:func:`_bmr_run`) that start from any existing :class:`ArrayPlanTree`
state and optionally record the applied move sequence.
:mod:`repro.fastgraph.trajectory` builds the single-pass budget-grid
sweep on top of them: record the trajectory once at the loosest budget,
replay prefixes for every tighter budget, and resume the live greedy
from a cloned tree on the rare divergence.

Incremental scoring
-------------------
The round runners are *incremental*: instead of re-deriving every
candidate's gain and feasibility from the tree each round, they hold the
per-move quantities that feed the selection — ``ds``/``reduction`` per
LMG candidate, ``ds``/``dr``/cycle/tree-edge masks per edge for
LMG-All — across rounds, and after each applied swap recompute only the
entries the move invalidated.  A swap of
``v``'s subtree from ``p`` to ``u`` perturbs retrieval inside
``subtree(v)`` (one Euler-interval preorder slice), subtree sizes on the
ancestors of ``p`` and ``u`` (two interval-containment masks), and
``v``'s own parent edge; the affected *edges* are gathered from the CSR
adjacency of exactly those nodes.  The recomputed entries use the same
IEEE expressions on the same cached quantities, so the state arrays stay
bit-equal to a from-scratch rescore and the argmax picks the identical
move (checked against the dict reference and a python-walk replay of
the recorded moves).  :class:`ArrayPlanTree` keeps its Euler intervals
current across swaps (see the plantree module docstring), so no
per-round Python DFS remains in the round loop.

BMR-LMG drops the per-round O(V + E) pass altogether.  Its budget is
fixed for the whole run, so an edge's admissibility changes only where a
move changed its inputs, and a move touches tens of nodes, not V:
:func:`_bmr_run` keeps the admissible edges in two lazy heaps, one per
score tier, and per-node subtree maxima and cycle tests as O(depth)
walks.  LMG-All keeps its vectorized pass: its budget test reads the
global storage slack, which every move shifts for every edge.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..core.graph import VersionGraph
from ..core.tolerance import budget_cap, within_budget
from .compiled import CompiledGraph
from .plantree import ArrayPlanTree

__all__ = ["lmg_array", "lmg_all_array", "mp_array", "bmr_lmg_array", "mp_local_array"]

_NEG_INF = -math.inf


def _compiled(graph: VersionGraph | CompiledGraph) -> CompiledGraph:
    if isinstance(graph, CompiledGraph):
        return graph
    return graph.compile()


def _min_storage_array_tree(cg: CompiledGraph) -> ArrayPlanTree:
    """Minimum-storage starting configuration as an :class:`ArrayPlanTree`.

    Uses the vectorized Chu-Liu/Edmonds, which returns the identical
    arborescence to the dict solvers' ``min_storage_plan_tree`` start.
    """
    from .arborescence import min_storage_parent_edges

    return ArrayPlanTree(cg, min_storage_parent_edges(cg))


def _check_msr_feasible(tree: ArrayPlanTree, storage_budget: float) -> None:
    if not within_budget(tree.total_storage, storage_budget):
        raise ValueError(
            f"storage budget {storage_budget} below minimum storage "
            f"{tree.total_storage}: MSR infeasible"
        )


def _lmg_default_rounds(cg: CompiledGraph) -> int:
    """Default LMG round cap: each round materializes one version."""
    return cg.n


def _lmg_all_default_rounds(cg: CompiledGraph) -> int:
    """Default LMG-All round cap: every applied move strictly reduces
    retrieval, so the loop stops far earlier in practice."""
    return 4 * cg.n + 64


# Re-snapshot the LMG kernel's static Euler copy once the accumulated
# masked-interval work exceeds this multiple of the node count: numpy
# passes cost ~ns/element while a refresh is an O(V) Python DFS
# (~us/element), so refreshes must amortize over far more than one
# full-array pass of saved work.
_LMG_RESNAPSHOT_FACTOR = 1024


def _lmg_candidates(cg: CompiledGraph, tree: ArrayPlanTree) -> np.ndarray:
    """LMG's remaining-candidate array in the reference scan order
    (versions sorted by str, non-materialized only)."""
    order = cg.str_order
    return order[tree.parent[order] != cg.aux]


def _csr_gather(indptr: np.ndarray, edges: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows for ``nodes`` (edge ids, duplicates kept).

    Vectorized equivalent of ``concatenate([edges[indptr[v]:indptr[v+1]]
    for v in nodes])`` — the incremental kernels use it to gather every
    edge incident to the node set a swap invalidated.
    """
    starts = indptr[nodes].astype(np.int64, copy=False)
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return edges[:0]
    ends = np.cumsum(counts)
    # slot i of the output belongs to row r(i) = searchsorted-style rank;
    # offset every slot by its row's start relative to the running total
    slots = np.arange(total, dtype=np.int64)
    slots += np.repeat(starts - (ends - counts), counts)
    return edges[slots]


def _lmg_run(
    cg: CompiledGraph,
    tree: ArrayPlanTree,
    cand: np.ndarray,
    storage_budget: float,
    rounds: int,
    record: list[tuple[int, float, float]] | None = None,
) -> np.ndarray:
    """Run LMG greedy rounds from the current ``tree`` / ``cand`` state.

    Mutates ``tree`` in place and returns the surviving candidate array.
    When ``record`` is given, each applied move appends
    ``(edge id, total_storage after, total_retrieval after)``.

    Incremental: ``ds`` per candidate is fixed for its lifetime (a
    candidate's parent edge only changes when it is itself materialized
    and leaves the pool) and the retrieval ``reduction`` is recomputed
    only for candidates inside the materialized subtree or above its old
    parent.

    Selection is lazy greedy (CELF): ``reduction`` is monotone
    non-increasing for every candidate — materializing a node only
    lowers ``ret`` inside its subtree and ``size`` on its old ancestor
    chain — so a max-heap keyed ``(-score, position)`` whose stale tops
    are re-keyed on pop always surfaces the true maximum, and the
    position tie-break reproduces ``np.argmax``'s first-maximum rule
    over the surviving candidates in scan order.  The two score tiers
    stay exact: the inf tier (``ds <= 0``, always within budget while
    the loop runs) can only lose members, so every inf-tier round
    precedes every ratio-tier round; once the ratio tier is in charge
    ``total_storage`` is strictly increasing, so a ratio candidate that
    exceeds the budget cap never becomes feasible again and may be
    dropped from the heap (it stays in the returned candidate pool).
    """
    aux = cg.aux
    es = cg.edge_storage
    er = cg.edge_retrieval
    if cand.size == 0:
        return cand
    # Static Euler snapshot + detach labels.  LMG only ever reattaches a
    # subtree under AUX, so relative preorder never changes: a node's
    # *current* subtree is exactly the positions of its snapshot
    # interval whose deepest materialized-since-snapshot ancestor
    # (``labels``) matches its own.  That turns every move into an
    # O(snapshot interval) masked pass instead of the O(V) permutation
    # maintenance of the generic fresh-swap path; when the accumulated
    # interval work exceeds ``_LMG_RESNAPSHOT_FACTOR * V`` the snapshot
    # is refreshed so stale (over-wide) intervals cannot compound.
    tree.ensure_euler()
    pre0 = tree._preorder.copy()
    tin0 = tree._tin.copy()
    tout0 = tree._tout.copy()
    labels = np.full(pre0.size, -1, dtype=np.int64)
    resnapshot_at = _LMG_RESNAPSHOT_FACTOR * pre0.size
    work = 0
    ret = tree.ret
    size = tree.size
    parent = tree.parent
    par_edge = tree.par_edge

    alive = np.asarray(tree.parent[cand] != aux)
    n_alive = int(np.count_nonzero(alive))
    # materialization move per candidate: (P(v), v) -> (AUX, v)
    ds = es[cg.aux_edge[cand]] - es[tree.par_edge[cand]]
    reduction = tree.ret[cand] * tree.size[cand]  # == -dr
    pos_of = np.full(len(tree.parent), -1, dtype=np.int64)
    pos_of[cand] = np.arange(cand.size, dtype=np.int64)
    # within_budget(x, b) is exactly x <= budget_cap(b): hoisting the
    # cap keeps the identical IEEE comparison across lazy re-checks
    cap = budget_cap(storage_budget)
    pos_red = reduction > 0.0
    ds_le0 = ds <= 0.0  # ds is fixed for a candidate's lifetime
    # inf tier: larger reduction wins, first position on ties
    idx_a = np.flatnonzero(alive & ds_le0 & pos_red)
    heap_a = [(-float(reduction[i]), int(i)) for i in idx_a]
    heapq.heapify(heap_a)
    # ratio tier: rho = reduction / ds; cache the reduction the key was
    # computed from so a pop can tell whether the entry is stale
    idx_b = np.flatnonzero(alive & ~ds_le0 & pos_red)
    heap_b = [
        (-float(r) / float(d), int(i), float(r))
        for r, d, i in zip(reduction[idx_b], ds[idx_b], idx_b)
    ]
    heapq.heapify(heap_b)

    for _ in range(rounds):
        if tree.total_storage >= storage_budget or n_alive == 0:
            break
        pick = -1
        while heap_a:
            neg_red, i = heap_a[0]
            if not alive[i]:
                heapq.heappop(heap_a)
                continue
            r = float(reduction[i])
            if r != -neg_red:
                heapq.heappop(heap_a)
                if r > 0.0:
                    heapq.heappush(heap_a, (-r, i))
                continue
            pick = i
            break
        if pick < 0:
            while heap_b:
                neg_rho, i, red_c = heap_b[0]
                if not alive[i]:
                    heapq.heappop(heap_b)
                    continue
                r = float(reduction[i])
                if r != red_c:
                    heapq.heappop(heap_b)
                    if r > 0.0:
                        heapq.heappush(heap_b, (-r / float(ds[i]), i, r))
                    continue
                if not ds[i] + tree.total_storage <= cap:
                    # ratio phase: total_storage only grows from here on
                    heapq.heappop(heap_b)
                    continue
                pick = i
                break
        if pick < 0:
            break
        best_v = int(cand[pick])
        eid = int(cg.aux_edge[best_v])
        # apply (P(v), v) -> (AUX, v) in place: the same IEEE float
        # updates as apply_swap_edge specialized to u = AUX, with the
        # current subtree resolved from the snapshot labels and the old
        # ancestors walked as P(v)'s parent chain (O(depth))
        ds_move = float(es[eid] - es[par_edge[best_v]])
        dscore = ret[aux] + er[eid] - ret[best_v]
        dr_move = float(dscore * size[best_v])
        shift = float(dscore)
        a = int(tin0[best_v])
        b = int(tout0[best_v])
        seg_lab = labels[a : b + 1]
        sel = seg_lab == labels[a]
        sub = pre0[a : b + 1][sel]
        p = int(parent[best_v])
        anc = []
        x = p
        while True:
            anc.append(x)
            if x == aux:
                break
            x = int(parent[x])
        anc_arr = np.asarray(anc, dtype=np.int64)
        sz = int(size[best_v])
        parent[best_v] = aux
        par_edge[best_v] = eid
        size[anc_arr] -= sz
        size[aux] += sz
        if shift != 0.0:
            ret[sub] += shift
        tree.total_storage += ds_move
        tree.total_retrieval += dr_move
        seg_lab[sel] = best_v
        tree._order_dirty = True
        tree._children_dirty = True
        alive[pick] = False
        n_alive -= 1
        if record is not None:
            record.append((eid, tree.total_storage, tree.total_retrieval))
        touched = pos_of[np.concatenate([sub.astype(np.int64, copy=False), anc_arr])]
        touched = touched[touched >= 0]
        nodes = cand[touched]
        reduction[touched] = ret[nodes] * size[nodes]
        work += b - a + 1
        if work >= resnapshot_at:
            tree.refresh_euler()
            pre0 = tree._preorder.copy()
            tin0 = tree._tin.copy()
            tout0 = tree._tout.copy()
            labels.fill(-1)
            tree._order_dirty = True
            work = 0
    return cand[alive]


def lmg_array(
    graph: VersionGraph | CompiledGraph,
    storage_budget: float,
    *,
    max_iterations: int | None = None,
) -> ArrayPlanTree:
    """Array kernel for LMG (Algorithm 1); plan-identical to dict LMG.

    Each greedy round evaluates every remaining candidate's
    materialization move with four vectorized array expressions instead
    of a Python loop, then applies the best move exactly as the
    reference does.  Raises ``ValueError`` when ``storage_budget`` is
    below the minimum storage configuration (MSR infeasible).
    """
    cg = _compiled(graph)
    tree = _min_storage_array_tree(cg)
    _check_msr_feasible(tree, storage_budget)
    cand = _lmg_candidates(cg, tree)
    rounds = max_iterations if max_iterations is not None else _lmg_default_rounds(cg)
    _lmg_run(cg, tree, cand, storage_budget, rounds)
    return tree


def _lmg_all_run(
    cg: CompiledGraph,
    tree: ArrayPlanTree,
    storage_budget: float,
    rounds: int,
    record: list[tuple[int, float, float]] | None = None,
) -> None:
    """Run LMG-All greedy rounds from the current ``tree`` state.

    Mutates ``tree`` in place; ``record`` collects applied moves as in
    :func:`_lmg_run`.

    Incremental: the per-edge move quantities (``nontree``/cycle masks,
    ``ds``, ``dr``) persist across rounds.  Applying edge ``e = (u, v)``
    invalidates ``ds`` and ``nontree`` for ``v``'s in-edges (its parent
    edge changed), ``dr`` for edges incident to ``subtree(v)``
    (retrieval shifted) or entering an old/new ancestor (size changed),
    and the cycle mask for edges *leaving* ``subtree(v)`` (the only
    sources whose ancestor chain changed).  All recomputed with the
    initial expressions: state stays bit-equal to a from-scratch rescore.
    """
    aux = cg.aux
    src, dst = cg.edge_src, cg.edge_dst
    es, er = cg.edge_storage, cg.edge_retrieval
    out_indptr, out_edges = cg.out_indptr, cg.out_edges
    in_indptr, in_edges = cg.in_indptr, cg.in_edges
    if rounds <= 0:
        return
    tree.ensure_euler()
    tin, tout, preorder = tree._tin, tree._tout, tree._preorder
    ret, size = tree.ret, tree.size

    # skip current tree edges and moves that would create a cycle
    # (src inside dst's subtree; AUX sources can never be)
    nontree = tree.parent[dst] != src
    cyc = (src != aux) & (tin[dst] <= tin[src]) & (tout[src] <= tout[dst])
    ds = es - es[tree.par_edge[dst]]
    dr = (ret[src] + er - ret[dst]) * size[dst]
    # budget-independent mask parts, maintained at the invalidation
    # sites of their inputs (recombinations only — no new float ops).
    # Algorithm 7 line 9: retrieval must improve (dr < 0)
    static_ok = nontree & ~cyc & (dr < 0.0)
    ds_le0 = ds <= 0.0
    reduction = -dr

    for _ in range(rounds):
        if tree.total_storage >= storage_budget:
            break
        valid = static_ok & within_budget(tree.total_storage + ds, storage_budget)
        if not valid.any():
            break
        inf_tier = valid & ds_le0
        if inf_tier.any():
            pick = int(np.argmax(np.where(inf_tier, reduction, _NEG_INF)))
        else:
            rho = np.full(reduction.shape, _NEG_INF)
            np.divide(reduction, ds, out=rho, where=valid)
            pick = int(np.argmax(rho))
        v = int(dst[pick])
        u = int(src[pick])
        p = int(tree.parent[v])
        # pre-move invalidation sets (Euler arrays mutate in place)
        sub = preorder[int(tin[v]) : int(tout[v]) + 1].copy()
        anc = (tin <= tin[p]) & (tout >= tout[p])
        anc |= (tin <= tin[u]) & (tout >= tout[u])
        tree.apply_swap_edge(pick)
        if record is not None:
            record.append((pick, tree.total_storage, tree.total_retrieval))
        # v's parent edge changed: ds / nontree for its in-edges
        ein = cg.in_slice(v)
        ds[ein] = es[ein] - es[tree.par_edge[v]]
        nontree[ein] = src[ein] != u
        ds_le0[ein] = ds[ein] <= 0.0
        # retrieval shifted inside subtree(v), sizes changed on the old
        # and new ancestor chains: dr for every edge touching either set
        e_out = _csr_gather(out_indptr, out_edges, sub)
        e_in = _csr_gather(in_indptr, in_edges, sub)
        e_anc = _csr_gather(in_indptr, in_edges, np.nonzero(anc)[0])
        touched = np.concatenate([e_out, e_in, e_anc])
        dr[touched] = (ret[src[touched]] + er[touched] - ret[dst[touched]]) * size[
            dst[touched]
        ]
        reduction[touched] = -dr[touched]
        # only subtree(v) members' ancestor chains changed: cycle mask
        # for their out-edges, against the post-move intervals
        cyc[e_out] = (
            (src[e_out] != aux)
            & (tin[dst[e_out]] <= tin[src[e_out]])
            & (tout[src[e_out]] <= tout[dst[e_out]])
        )
        # recombine the static mask where any ingredient changed (ein is
        # a subset of e_in — v is in its own subtree — so dr is current)
        sidx = np.concatenate([ein, e_out, touched])
        static_ok[sidx] = nontree[sidx] & ~cyc[sidx] & (dr[sidx] < 0.0)


def lmg_all_array(
    graph: VersionGraph | CompiledGraph,
    storage_budget: float,
    *,
    max_iterations: int | None = None,
) -> ArrayPlanTree:
    """Array kernel for LMG-All (Algorithm 7); plan-identical to dict.

    The per-round scan over every extended-graph edge becomes a masked
    array computation; cycle tests use the vectorized Euler intervals.
    Raises ``ValueError`` on MSR-infeasible budgets like the reference.
    """
    cg = _compiled(graph)
    tree = _min_storage_array_tree(cg)
    _check_msr_feasible(tree, storage_budget)
    rounds = (
        max_iterations if max_iterations is not None else _lmg_all_default_rounds(cg)
    )
    _lmg_all_run(cg, tree, storage_budget, rounds)
    return tree


def mp_array(
    graph: VersionGraph | CompiledGraph,
    retrieval_budget: float,
) -> ArrayPlanTree:
    """Array kernel for Modified Prim's (BMR); plan-identical to dict MP.

    Prim growth is inherently sequential and each attachment relaxes
    only a node's few out-edges, so the sweep is a scalar loop over
    ``.tolist()`` mirrors of the CSR arrays with the budget cap hoisted
    (``within_budget(x, b)`` is exactly ``x <= budget_cap(b)``).  It
    applies the reference's float ops and comparisons and pushes the
    improving edges in CSR order — the order the dict reference pushes
    them, so heap ties resolve identically.  Reads only the compiled
    arrays (background re-solves run it on a snapshot).  Raises
    ``ValueError`` when the finite retrieval budget is infeasible
    (negative budgets: even materializing everything has max
    retrieval 0).
    """
    cg = _compiled(graph)
    n, aux = cg.n, cg.aux
    es, er, dst = cg.edge_storage.tolist(), cg.edge_retrieval.tolist(), cg.edge_dst.tolist()
    out_ptr, out_edges = cg.out_indptr.tolist(), cg.out_edges.tolist()
    cap = budget_cap(retrieval_budget)

    # best known attachment per unattached version: (storage, retrieval,
    # parent, edge id)
    best_e = cg.aux_edge.tolist()
    best_s = [es[e] for e in best_e]
    best_r = [0.0] * n
    best_p = [aux] * n
    attached = [False] * n
    # heap entries: (storage, retrieval, seq, v, parent) — lazy deletion,
    # initial order sorted by str to match the reference (the cached key
    # array replaces an O(n) re-stringify + sort per solve)
    str_order = cg.str_order.tolist()
    heap: list[tuple[float, float, int, int, int]] = [
        (best_s[v], 0.0, seq, v, aux) for seq, v in enumerate(str_order)
    ]
    seq = len(heap)
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    attach_order: list[tuple[int, int]] = []

    while heap:
        s, r, _, v, p = pop(heap)
        if attached[v] or best_s[v] != s or best_r[v] != r or best_p[v] != p:
            continue
        attached[v] = True
        attach_order.append((v, best_e[v]))
        for e in out_edges[out_ptr[v] : out_ptr[v + 1]]:
            w = dst[e]
            if w == aux or attached[w]:
                continue
            nr = r + er[e]
            if not nr <= cap:
                continue
            ws = es[e]
            if ws < best_s[w] or (ws == best_s[w] and nr < best_r[w]):
                best_s[w] = ws
                best_r[w] = nr
                best_p[w] = v
                best_e[w] = e
                push(heap, (ws, nr, seq, w, v))
                seq += 1

    assert len(attach_order) == n, "materialization keeps MP feasible"
    tree = ArrayPlanTree(cg, attach_order)
    if math.isfinite(retrieval_budget) and not within_budget(
        tree.max_retrieval(), retrieval_budget
    ):
        raise ValueError(
            f"retrieval budget {retrieval_budget} infeasible: MP plan has "
            f"max retrieval {tree.max_retrieval()}"
        )
    return tree


# ----------------------------------------------------------------------
# BMR greedy family (minimize storage under a max-retrieval budget)
# ----------------------------------------------------------------------
def _bmr_default_rounds(cg: CompiledGraph) -> int:
    """Default BMR local-move round cap: every applied move strictly
    reduces storage, so the loop stops far earlier in practice."""
    return 4 * cg.n + 64


def _bmr_run(
    cg: CompiledGraph,
    tree: ArrayPlanTree,
    retrieval_budget: float,
    rounds: int,
    record: list[tuple[int, float, float]] | None = None,
) -> int:
    """Run BMR local-move rounds from the current ``tree`` state.

    Mutates ``tree`` in place and returns the number of applied moves.
    When ``record`` is given, each applied move appends ``(edge id, max
    retrieval of the moved subtree after the move, total_storage
    after)`` — the first quantity is exactly the move's feasibility
    check value, which the trajectory sweep replays against tighter
    budgets.

    Selection is two lazy heaps, one per score tier, keyed ``(-reduction,
    edge id)`` for ``shift <= 0`` and ``(-(reduction / shift), edge
    id)`` otherwise: the edge-id tie-break is the reference's
    first-maximum rule.  The budget never moves, so admissibility
    (non-tree edge, no cycle, ``ds < 0``, ``submax[dst] + shift`` within
    budget) changes only where a move changed its inputs.  An edge is
    pushed only while admissible, under a per-edge stamp; moving ``v``
    from ``p`` to ``u`` re-stamps and re-pushes the in- and out-edges of
    ``subtree(v)`` and the in-edges of every ancestor of ``p`` or ``u``
    whose subtree maximum changed.  Stale pops are skipped.

    Moves go through the tree's walk path
    (:meth:`ArrayPlanTree._apply_swap_python`), whose subtree walk is
    reused for the invalidation set; list mirrors of
    ``parent``/``par_edge``/``ret`` serve scalar reads.  ``submax``
    stays bit-equal to a from-scratch pass because it only selects or
    adds the move's one shift: ``+= shift`` inside ``subtree(v)``
    (rounding is monotone), recomputed from the children up the old
    chain and max-merged up the new one, each until a value stands.
    Cycle tests walk parents.  Resumes from any tree state.
    """
    if rounds <= 0:
        return 0
    aux = cg.aux
    src, dst = cg.edge_src.tolist(), cg.edge_dst.tolist()
    es, er = cg.edge_storage.tolist(), cg.edge_retrieval.tolist()
    in_ptr, in_edges = cg.in_indptr.tolist(), cg.in_edges.tolist()
    out_ptr, out_edges = cg.out_indptr.tolist(), cg.out_edges.tolist()
    parent = tree.parent.tolist()
    par_edge = tree.par_edge.tolist()
    ret = tree.ret.tolist()
    # subtree maxima: one reverse pass over a preorder; max only
    # selects, so each is an exact ret
    order = tree.subtree(aux)
    children = tree.children
    submax = ret[:]
    for x in reversed(order[1:]):
        p = parent[x]
        if submax[x] > submax[p]:
            submax[p] = submax[x]
    # within_budget(x, b) is exactly x <= budget_cap(b)
    cap = budget_cap(retrieval_budget)
    stamp = [0] * len(src)
    heap_le0: list[tuple[float, int, int]] = []  # shift <= 0 tier
    heap_pos: list[tuple[float, int, int]] = []  # ratio tier

    def admit(e: int) -> None:
        """Push edge ``e`` under a fresh stamp if it is admissible."""
        v = dst[e]
        u = src[e]
        if parent[v] == u:
            return  # current tree edge
        ds = es[e] - es[par_edge[v]]
        if not ds < 0.0:
            return  # storage must strictly improve
        shift = ret[u] + er[e] - ret[v]
        if not submax[v] + shift <= cap:
            return  # some version in subtree(v) would bust the budget
        x = u
        while x != aux:
            if x == v:
                return  # u descends from v: the move would close a cycle
            x = parent[x]
        reduction = -ds
        if shift <= 0.0:
            heapq.heappush(heap_le0, (-reduction, e, stamp[e]))
        else:
            heapq.heappush(heap_pos, (-(reduction / shift), e, stamp[e]))

    for e in range(len(src)):
        admit(e)

    tree_ret = tree.ret
    applied = 0
    while applied < rounds:
        heap = heap_le0
        while heap and heap[0][2] != stamp[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            heap = heap_pos
            while heap and heap[0][2] != stamp[heap[0][1]]:
                heapq.heappop(heap)
            if not heap:
                break
        pick = heap[0][1]  # re-stamped below: v's in-edges include it
        v = dst[pick]
        u = src[pick]
        p = parent[v]
        shift = ret[u] + er[pick] - ret[v]
        sub = tree._apply_swap_python(pick, u, v)
        applied += 1
        parent[v] = u
        par_edge[v] = pick
        if record is not None:
            record.append((pick, submax[v] + shift, tree.total_storage))
        if sub is None:  # a zero shift: the move made no subtree walk
            sub = tree.subtree(v)
        if shift != 0.0:
            for x in sub:
                ret[x] = float(tree_ret[x])
                submax[x] += shift
        changed = []
        # old chain lost subtree(v): recompute from the children until a
        # maximum stands (AUX's is never read: no edge enters AUX)
        x = p
        while x != aux:
            m = ret[x]
            for c in children[x]:
                if submax[c] > m:
                    m = submax[c]
            if m == submax[x]:
                break
            submax[x] = m
            changed.append(x)
            x = parent[x]
        # new chain gained it: max-merge until a maximum stands
        m = submax[v]
        x = u
        while x != aux and submax[x] < m:
            submax[x] = m
            changed.append(x)
            x = parent[x]
        touched = set()
        for x in sub:
            touched.update(in_edges[in_ptr[x] : in_ptr[x + 1]])
            touched.update(out_edges[out_ptr[x] : out_ptr[x + 1]])
        for x in changed:
            touched.update(in_edges[in_ptr[x] : in_ptr[x + 1]])
        for e in touched:
            stamp[e] += 1
            admit(e)
    if applied:
        # the walk path left child sets in move order; hand them on in
        # index order, as every vectorized swap does (retirement repair
        # re-homes children in iteration order)
        tree._children_dirty = True
    return applied


def _materialized_array_tree(cg: CompiledGraph) -> ArrayPlanTree:
    """All-materialized starting configuration (max retrieval 0)."""
    return ArrayPlanTree(cg, [(v, int(cg.aux_edge[v])) for v in range(cg.n)])


def bmr_lmg_array(
    graph: VersionGraph | CompiledGraph,
    retrieval_budget: float,
    *,
    max_iterations: int | None = None,
) -> ArrayPlanTree:
    """Array kernel for BMR-LMG; plan-identical to dict :func:`~repro.
    algorithms.bmr_greedy.bmr_lmg`.

    Starts from the all-materialized plan and applies the best
    storage-reducing swap whose moved subtree stays within the
    retrieval budget, picked from :func:`_bmr_run`'s lazy heaps (about
    one move per version, each O(subtree + depth) plus the re-pushed
    edges).  Raises ``ValueError`` on negative (infeasible) retrieval
    budgets.
    """
    cg = _compiled(graph)
    if not within_budget(0.0, retrieval_budget):
        raise ValueError(
            f"retrieval budget {retrieval_budget} infeasible: even "
            f"materializing every version has max retrieval 0"
        )
    tree = _materialized_array_tree(cg)
    rounds = max_iterations if max_iterations is not None else _bmr_default_rounds(cg)
    _bmr_run(cg, tree, retrieval_budget, rounds)
    return tree


def mp_local_array(
    graph: VersionGraph | CompiledGraph,
    retrieval_budget: float,
    *,
    max_iterations: int | None = None,
) -> ArrayPlanTree:
    """Array kernel for MP + BMR local moves; plan-identical to dict
    :func:`~repro.algorithms.bmr_greedy.mp_local`.

    Runs :func:`mp_array` and refines its tree with the same lazy-heap
    swap loop as :func:`bmr_lmg_array`, resumed from MP's tree; never
    stores more than plain MP.  Raises ``ValueError`` on infeasible
    retrieval budgets, like MP itself.
    """
    cg = _compiled(graph)
    tree = mp_array(cg, retrieval_budget)
    rounds = max_iterations if max_iterations is not None else _bmr_default_rounds(cg)
    _bmr_run(cg, tree, retrieval_budget, rounds)
    return tree

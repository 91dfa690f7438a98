"""The ingest engine: one near-optimal storage plan, kept standing.

Per-arrival work is deliberately tiny — O(parents + tree depth) plus an
amortized O(V) array extension — because everything expensive is either
event-driven bookkeeping or deferred:

1. **Append** — the new version and its parent deltas go into the
   :class:`~repro.core.graph.VersionGraph`; the mutation-event stream
   extends the cached compiled arrays in place (no recompilation) and
   updates the problem's online budget lower bound.
2. **Repair** — the arriving version is attached to the live
   :class:`~repro.fastgraph.plantree.ArrayPlanTree` through its
   cheapest feasible edge (lexicographic ``(edge storage, resulting
   retrieval)``, parents in arrival order, materialization last), an
   O(depth) incremental attach.
3. **Re-solve** — a *staleness bound* (objective cost added by greedy
   attaches since the last full solve, relative to that solve's
   objective) accumulates; past :attr:`IngestEngine.staleness_threshold`
   the engine re-solves the whole instance with the registered solver
   kernel, either synchronously or on a background thread while ingest
   keeps serving arrivals.

Both paper problem families are served; everything per-problem —
attach feasibility, the staleness metric, objective extraction, the
``budget_factor`` lower bound, the default solver — routes through the
:class:`~repro.core.problemspec.ProblemSpec` selected by ``problem=``
(``"msr"``: the budget caps total storage, objective total retrieval;
``"bmr"``: the budget caps every version's retrieval, objective total
storage).  The engine itself contains no per-problem branches.

An attached :class:`~repro.store.MaterializationStore`
(:meth:`IngestEngine.attach_store`) is migrated to the live plan after
every commit ingest and integrated re-solve — only the tree-diff edges
are rewritten — so the standing plan is always backed by
byte-reconstructable storage.

The staleness quantity is an upper-bound *estimate* of relative
objective drift: a full re-solve can recover at most what the greedy
attaches added (it may also exploit new edges for old versions, which
the bound does not see — hence "bound against the last full solve",
not against the true optimum).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..algorithms.registry import get_engine_solver
from ..core.graph import GraphError, GraphMutation, Node, VersionGraph
from ..core.problemspec import get_spec
from ..core.solution import StoragePlan
from ..parallel.background import BackgroundResolver
from ..store import MaterializationStore

__all__ = ["ArrivalStats", "IngestEngine"]


@dataclass(frozen=True)
class ArrivalStats:
    """Plan statistics emitted for one ingested version."""

    index: int  # compiled node index of the arrival (== arrival order)
    version: Node
    budget: float  # budget in force (storage for MSR, retrieval for BMR)
    storage: float  # plan total storage after the arrival
    retrieval: float  # plan total retrieval after the arrival
    max_retrieval: float
    staleness: float  # staleness bound after the arrival
    resolved: bool  # True when a full re-solve landed on this arrival
    seconds: float  # wall-clock ingest cost (append + repair [+ solve])


class IngestEngine:
    """Keeps a near-optimal storage plan standing over a growing graph.

    Parameters
    ----------
    graph:
        Optional existing :class:`VersionGraph` to take ownership of
        (bootstrap re-solve happens on the first arrival); default is a
        fresh empty graph.
    problem:
        ``"msr"`` (default; the budget caps total storage) or
        ``"bmr"`` (the budget caps every version's retrieval cost) —
        any name registered in :data:`repro.core.problemspec.SPECS`.
        The resolved :class:`~repro.core.problemspec.ProblemSpec` is
        exposed as :attr:`spec` and drives repair feasibility,
        staleness accounting and budget resolution.
    solver:
        Engine-capable solver name (see
        :data:`repro.algorithms.registry.ENGINE_KERNELS`).  Defaults to
        the spec's ``default_engine_solver`` (``"lmg"`` for MSR,
        ``"mp-local"`` for BMR).
    budget:
        Fixed budget (total storage for MSR, max retrieval for BMR).
        Exactly one of ``budget`` / ``budget_factor`` must be given.
    budget_factor:
        Dynamic budget = ``budget_factor * LB`` where ``LB`` is the
        problem's online lower bound, maintained incrementally from the
        mutation-event stream (``spec.lower_bound_tracker()``):

        * **MSR** — ``LB = sum_v min_in(v) + min_v (s_v - min_in(v))``
          with ``min_in(v)`` the cheapest incoming edge storage of
          ``v`` (materialization included): a lower bound on the
          minimum-storage arborescence.  Factors well above 1 keep the
          instance comfortably feasible (the bound is not tight on
          cyclic graphs).
        * **BMR** — ``LB = max_v min{ r(e) : e a delta into v with
          s(e) < s_v }`` (0 when materializing ``v`` is already its
          cheapest storage): the smallest retrieval budget at which
          every version *could* take its cheapest-storage in-edge —
          below it at least one version is forced to pay full
          materialization storage.  Factors ≥ 1 open progressively
          deeper delta chains.

        Either bound can tighten as cheaper deltas arrive, so with
        ``budget_factor`` the standing plan is guaranteed feasible
        against the budget *at its last solve or attach*; the next
        re-solve re-establishes feasibility against the current one.
    staleness_threshold:
        Re-solve once :attr:`staleness_bound` exceeds this (default
        0.1 = re-solve when greedy attaches added 10% of the last
        solve's objective — total retrieval for MSR, total storage for
        BMR).  ``float("inf")`` disables automatic re-solves (pure
        repair mode; call :meth:`resolve` yourself).
    background:
        When True, threshold re-solves run on a
        :class:`~repro.parallel.BackgroundResolver` thread against a
        compiled-graph snapshot; arrivals during the solve are replayed
        onto the new tree at integration.  Synchronous (deterministic)
        re-solves otherwise.
    retrieval_ratio:
        Retrieval = ``ratio * storage`` for commit deltas ingested via
        :meth:`ingest_commit` (the single-weight-function regime).
    """

    def __init__(
        self,
        graph: VersionGraph | None = None,
        *,
        problem: str = "msr",
        solver: str | None = None,
        budget: float | None = None,
        budget_factor: float | None = None,
        staleness_threshold: float = 0.1,
        background: bool = False,
        retrieval_ratio: float = 1.0,
        name: str = "ingest",
    ) -> None:
        self.spec = get_spec(problem)
        self.problem = self.spec.name
        if (budget is None) == (budget_factor is None):
            raise ValueError("pass exactly one of budget / budget_factor")
        if solver is None:
            solver = self.spec.default_engine_solver
        self.graph = graph if graph is not None else VersionGraph(name=name)
        self.solver_name = solver
        self._solver = get_engine_solver(self.spec.name, solver)
        self._budget = None if budget is None else float(budget)
        self._budget_factor = None if budget_factor is None else float(budget_factor)
        self.staleness_threshold = float(staleness_threshold)
        self.retrieval_ratio = float(retrieval_ratio)

        self._tree = None  # live ArrayPlanTree (None until first solve)
        self._index: dict[Node, int] = {}
        self._nodes: list[Node] = []
        self._num_real_edges = 0
        self._lb = self.spec.lower_bound_tracker()  # online budget lower bound
        self._solve_obj = 0.0
        self._pending_obj = 0.0
        self._max_ret = 0.0
        self._resolves = 0
        self._dirty = self.graph.num_versions > 0  # bookkeeping needs rebuild
        self._bg = BackgroundResolver() if background else None
        # The engine is single-threaded by contract: only the solver
        # callable crosses to the BackgroundResolver thread, never the
        # engine itself.  The re-solve coordination state below is
        # therefore owned by the ingest thread — declared with the
        # `ingest-thread` token and checked by the lock-discipline rule
        # (every method touching these is marked `# holds: ingest-thread`).
        self._bg_gen = 0  # sync resolves obsolete bg results  # guarded-by: ingest-thread
        self._bg_sub_gen = 0  # generation of the in-flight bg solve  # guarded-by: ingest-thread
        self._log: list[tuple[int, list[tuple[int, int, float, float]]]] = []  # guarded-by: ingest-thread
        self._compact_pending = False  # dead compiled slots await compaction  # guarded-by: ingest-thread
        self._retiring = False  # inside retire_version's graph surgery  # guarded-by: ingest-thread
        self._store: MaterializationStore | None = None
        self._store_repo = None  # Repository backing snapshot fetches
        self.graph.subscribe(self._on_mutation)

    # ------------------------------------------------------------------
    # event-driven bookkeeping
    # ------------------------------------------------------------------
    def _on_mutation(self, event: GraphMutation) -> None:  # holds: ingest-thread
        if event.kind == "add_version":
            # slot = len(_nodes), not len(_index): retired versions keep
            # their (dead) slot until compaction, matching the compiled
            # graph's slot assignment exactly
            self._index[event.v] = len(self._nodes)
            self._nodes.append(event.v)
            self._lb.add_version(event.v, event.storage)
        elif event.kind == "add_delta":
            self._num_real_edges += 1
            self._lb.add_delta(
                event.v,
                event.storage,
                event.retrieval,
                self.graph.storage_cost(event.v),
            )
        elif event.kind in GraphMutation.DETACH_KINDS:
            # retirement: the lower bound undoes the detached
            # contribution incrementally and the compiled slot / edge id
            # stays allocated (dead) until the next re-solve compacts,
            # so no bookkeeping rebuild is needed.  _num_real_edges is a
            # monotone edge-id counter (mirroring the compiled graph's
            # pre-compaction `_m_real`), so removals leave it alone.
            if event.kind == "remove_delta":
                self._lb.remove_delta(
                    event.v, event.storage, event.retrieval, self.graph
                )
            else:
                self._index.pop(event.v, None)  # _nodes keeps the dead slot
                self._lb.remove_version(event.v)
            self._compact_pending = True
            if not self._retiring:
                # out-of-band removal (straight on the graph): the live
                # tree was not repaired — force a re-solve next ingest
                self._dirty = True
        else:
            # cost updates shift the compiled arrays and the lower
            # bound — rebuild from the graph before the next decision
            self._dirty = True

    def _rebuild_bookkeeping(self) -> None:  # holds: ingest-thread
        g = self.graph
        if self._compact_pending:
            # compact retired slots out of the compiled arrays first, so
            # the interning rebuilt below (live versions only) matches
            # the compiled slot space exactly
            cached = g.compiled_cache
            if cached is not None:
                cached.refresh()
            self._compact_pending = False
        self._nodes = g.versions
        self._index = {v: i for i, v in enumerate(self._nodes)}
        self._num_real_edges = g.num_deltas
        self._lb.rebuild(g)
        self._dirty = False

    # ------------------------------------------------------------------
    # budget / staleness
    # ------------------------------------------------------------------
    def current_budget(self) -> float:
        """The budget in force right now (``spec.budget_kind`` says
        whether it caps plan storage or per-version retrieval)."""
        if self._budget is not None:
            return self._budget
        if self._dirty:
            self._rebuild_bookkeeping()
        return self._budget_factor * self._lb.value()

    @property
    def staleness_bound(self) -> float:
        """Objective cost added by greedy attaches since the last full
        solve, relative to that solve's objective (total retrieval for
        MSR, total storage for BMR)."""
        return self._pending_obj / max(self._solve_obj, 1.0)

    @property
    def resolves(self) -> int:
        """Number of full re-solves performed so far."""
        return self._resolves

    @property
    def tree(self):
        """The live :class:`ArrayPlanTree` (None before the first arrival)."""
        return self._tree

    def plan(self) -> StoragePlan:
        """Export the live tree as a :class:`StoragePlan`."""
        if self._tree is None:
            raise GraphError("no plan yet: ingest at least one version")
        return self._tree.to_plan()

    # ------------------------------------------------------------------
    # attached materialization store
    # ------------------------------------------------------------------
    @property
    def store(self) -> MaterializationStore | None:
        """The attached materialization store (None when detached)."""
        return self._store

    def attach_store(
        self, store: MaterializationStore, repo=None
    ) -> None:
        """Keep ``store`` current with the live plan from now on.

        After every :meth:`ingest_commit` (and every integrated
        re-solve) the store is migrated to the live tree — new edges
        written, stale edges dropped, objects garbage-collected — so a
        background re-solve lands as a cheap storage migration instead
        of a rewrite.  Snapshot bytes for arriving versions come from
        the :class:`~repro.vcs.repo.Repository` passed to
        :meth:`ingest_commit` (or ``repo`` here); the byte-less
        :meth:`ingest_version` path cannot feed a store and raises
        :class:`~repro.store.StoreError` on sync if new versions have
        no snapshot source.  If the engine already holds a plan, the
        store is brought current immediately.
        """
        self._store = store
        if repo is not None:
            self._store_repo = repo
        if self._tree is not None:
            self._sync_store()

    def _sync_store(self) -> None:  # holds: ingest-thread
        """Migrate the attached store to the live plan tree."""
        if self._store is None or self._tree is None:
            return
        repo = self._store_repo
        fetch = None if repo is None else (lambda v: repo.commits[v].snapshot)
        self._store.sync(self._tree.to_plan(), fetch=fetch)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest_version(
        self,
        v: Node,
        storage: float,
        deltas: tuple | list = (),
    ) -> ArrivalStats:
        """Ingest one version with its incident deltas and repair the plan.

        ``deltas`` holds ``(src, dst, storage, retrieval)`` edges, each
        incident to ``v``, added in the given order (edge insertion
        order is the kernels' tie-breaking order, so a stream that
        mirrors :func:`~repro.vcs.build.build_graph_from_repo` produces
        a byte-identical compiled graph).  Incoming edges
        (``dst == v``) are the attach candidates; outgoing ones are
        kept for future re-solves — they can only help older versions.
        Raises ``ValueError`` when the budget cannot accommodate the
        new version even after a full re-solve.
        """
        t0 = time.perf_counter()
        g = self.graph
        # validate the WHOLE arrival before mutating anything: a bad
        # delta halfway through would leave graph and plan bookkeeping
        # permanently out of sync (atomic-or-raise)
        if v in g:
            raise GraphError(f"version {v!r} already ingested")
        if storage < 0:
            raise GraphError(f"storage cost must be non-negative, got {storage!r}")
        deltas = [(u, w, float(s), float(r)) for u, w, s, r in deltas]
        seen_edges = set()
        for u, w, s, r in deltas:
            if v not in (u, w):
                raise GraphError(f"delta {u!r}->{w!r} is not incident to {v!r}")
            if u == w:
                raise GraphError(f"self-delta {u!r}->{w!r} not allowed")
            other = w if u == v else u
            if other not in g:
                raise GraphError(f"unknown version {other!r}; ingest it first")
            if (u, w) in seen_edges:
                raise GraphError(f"duplicate delta {u!r}->{w!r}")
            seen_edges.add((u, w))
            if s < 0 or r < 0:
                raise GraphError(
                    f"delta costs must be non-negative, got {s!r}/{r!r}"
                )
        # out-of-band mutations (cost updates, removals) invalidate the
        # index/eid bookkeeping AND the live tree: rebuild, then re-solve
        force_resolve = self._dirty or self._tree is None
        if self._dirty:
            self._rebuild_bookkeeping()
        candidates: list[tuple[int, int, float, float]] = []
        try:
            g.add_version(v, float(storage))
            for u, w, s, r in deltas:
                g.add_delta(u, w, s, r)
                if w == v:
                    candidates.append(
                        (self._index[u], self._num_real_edges - 1, s, r)
                    )
        except Exception:
            # defense in depth: anything that still slipped through the
            # pre-validation leaves the graph half-mutated — force a
            # bookkeeping rebuild + full re-solve on the next ingest
            self._dirty = True
            self._tree = None
            raise

        resolved = False
        if force_resolve:
            self._resolve_sync()
            resolved = True
        else:
            covered = False
            if self._bg is not None:
                # a replay-infeasible integration re-solves the whole
                # graph, which already includes this arrival: attaching
                # it again would double-append
                covered = self._poll_background()
            if covered:
                resolved = True
            elif not self._attach(self._index[v], candidates):
                self._resolve_sync()  # repair infeasible under the budget
                resolved = True
            elif self.staleness_bound > self.staleness_threshold:
                resolved = self._trigger_resolve()

        tree = self._tree
        return ArrivalStats(
            index=self._index[v],
            version=v,
            budget=self.current_budget(),
            storage=tree.total_storage,
            retrieval=tree.total_retrieval,
            max_retrieval=self._max_ret,
            staleness=self.staleness_bound,
            resolved=resolved,
            seconds=time.perf_counter() - t0,
        )

    def ingest_commit(self, repo, commit) -> ArrivalStats:
        """Ingest one :class:`~repro.vcs.repo.RepoCommit` from ``repo``.

        Diffs the commit against its parents **only**, through the
        batch builder's own rule (:func:`repro.vcs.build.commit_deltas`),
        so costs and edge order match
        :func:`~repro.vcs.build.build_graph_from_repo`.
        """
        from ..vcs.build import commit_deltas

        deltas = commit_deltas(repo, commit, self.retrieval_ratio)
        self._store_repo = repo
        stats = self.ingest_version(commit.id, float(commit.total_bytes()), deltas)
        if self._store is not None:
            self._sync_store()
        return stats

    def ingest_repository(self, repo):
        """Stream every commit of ``repo`` in order; yields per-arrival stats."""
        for commit in repo.commits:
            yield self.ingest_commit(repo, commit)

    # ------------------------------------------------------------------
    # retirement
    # ------------------------------------------------------------------
    def retire_version(self, v: Node) -> None:  # holds: ingest-thread
        """Retire version ``v``: remove it from the graph, repair the plan.

        The graph removal is incremental — the compiled arrays tombstone
        the slot (compaction waits for the next full re-solve) and the
        budget lower bound undoes ``v``'s contribution event by event.
        Plan repair re-homes each tree child of ``v`` (subtree and all)
        through its cheapest feasible surviving edge — the arrival rule
        (:meth:`_cheapest`), skipping parents inside the child's own
        subtree — then detaches ``v``'s row in O(depth).  Cost: O(depth)
        per size walk plus O(|subtree| + in-degree) per re-homed child;
        independent of graph size.

        Falls back to a synchronous full re-solve when a child cannot be
        re-homed within the budget (mirroring arrival repair), and
        raises :class:`GraphError` for unknown or still-unsolved
        versions only via the graph's own validation.  An attached store
        is migrated afterwards, garbage-collecting ``v``'s objects.
        An in-flight background solve still contains ``v``, so its
        result is obsoleted; the next threshold re-solve runs
        synchronously (it also compacts the tombstoned slots).
        """
        g = self.graph
        if v not in g:
            raise GraphError(f"unknown version {v!r}")
        tree = self._tree
        if tree is None or self._dirty:
            # no coherent live plan to repair: plain graph removal — the
            # next ingest re-solves from scratch anyway
            self._retiring = True
            try:
                g.remove_version(v)
            finally:
                self._retiring = False
            self._dirty = True
            self._tree = None
            return
        vi = self._index[v]
        aux = tree.num_versions
        cg = g.compiled_cache  # eager id lookups; compile() would compact
        assert cg is not None, "live tree without a compiled cache"
        # capture everything the repair needs before the edges vanish
        par_slot = int(tree.parent[vi])
        if par_slot == aux:
            par_edge_storage = float(g.storage_cost(v))
        else:
            par_edge_storage = float(
                g.predecessors(v)[self._nodes[par_slot]].storage
            )
        tree._ensure_children()
        child_slots = list(tree.children[vi])
        old_edge_storage = {
            ci: float(g.predecessors(self._nodes[ci])[v].storage)
            for ci in child_slots
        }
        self._retiring = True
        try:
            g.remove_version(v)
        finally:
            self._retiring = False
        self._bg_gen += 1  # an in-flight background solve still contains v
        budget = self.current_budget()
        spec = self.spec
        index = self._index
        for ci in child_slots:
            node_c = self._nodes[ci]
            old_ret = float(tree.ret[ci])
            old_s = old_edge_storage[ci]
            # the moving subtree: its members (re-homing under one closes
            # a cycle) and its max retrieval (BMR feasibility: every
            # member shifts by the same delta)
            subtree = tree.subtree(ci)
            sub_max = float(tree.ret[subtree].max())
            members = set(subtree)
            options = [
                (index[u], None, d.storage, d.retrieval)
                for u, d in g.predecessors(node_c).items()
                if index[u] not in members
            ]
            options.append((aux, None, float(g.storage_cost(node_c)), 0.0))
            best = self._cheapest(tree, budget, aux, options, old_ret, old_s, sub_max)
            if best is None:
                # no surviving edge fits the budget: re-solve everything
                self._resolve_sync()
                self._sync_store()
                return
            p_idx, _, s, r = best
            eid = cg.edge_id(p_idx, ci)  # tree aux slot == cg.aux
            sz = int(tree.size[ci])
            new_ret = 0.0 if p_idx == aux else float(tree.ret[p_idx]) + r
            tree.rehome_subtree(ci, p_idx, eid, s, r, old_s)
            drift = spec.attach_cost(s - old_s, (new_ret - old_ret) * sz)
            if drift > 0.0:
                self._pending_obj += drift
        tree.detach_version(vi, par_edge_storage)
        self._max_ret = tree.max_retrieval()
        if self.staleness_bound > self.staleness_threshold:
            self._trigger_resolve()  # sync: compacts the tombstones too
        self._sync_store()

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def _cheapest(
        self,
        tree,
        budget: float,
        aux: int,
        options: list[tuple[int, int | None, float, float]],
        old_ret: float = 0.0,
        old_s: float = 0.0,
        sub_max: float = 0.0,
    ) -> tuple[int, int | None, float, float] | None:
        """The repair rule shared by arrivals and retirements.

        ``options`` are ``(parent slot, edge id, edge storage, edge
        retrieval)`` in graph order with materialization (parent
        ``aux``) last.  Returns the budget-feasible option minimizing
        ``(edge storage, resulting retrieval)``, the first one on ties,
        or None when none is feasible.  The moving version currently
        has retrieval ``old_ret`` through an edge of storage ``old_s``
        and its subtree's largest retrieval is ``sub_max``; every
        member shifts by the same delta, so feasibility is the spec's
        :meth:`~repro.core.problemspec.ProblemSpec.attach_feasible` on
        the shifted maximum and the storage change.  An arrival is a
        leaf: the zero defaults pass its own retrieval and edge storage
        unchanged.  Callers drop options that would close a cycle.
        """
        ret = tree.ret
        feasible = self.spec.attach_feasible
        best = None
        best_key = None
        for opt in options:
            p_idx, _, s, r = opt
            new_ret = 0.0 if p_idx == aux else float(ret[p_idx]) + r
            if not feasible(tree, budget, sub_max + (new_ret - old_ret), s - old_s):
                continue
            key = (s, new_ret)
            if best_key is None or key < best_key:
                best_key = key
                best = opt
        return best

    def _attach(  # holds: ingest-thread
        self,
        vi: int,
        candidates: list[tuple[int, int, float, float]],
        tree=None,
        budget: float | None = None,
    ) -> bool:
        """Greedy-attach version index ``vi`` onto the live tree.

        Picks among the incoming deltas in arrival order plus the
        materialization edge last by :meth:`_cheapest` (plan storage
        after the attach must fit for MSR, the arrival's own resulting
        retrieval for BMR) and applies the O(depth) incremental attach.
        Returns False when no candidate fits the budget (caller falls
        back to a full re-solve; for BMR materialization is always
        feasible, so this cannot happen for non-negative budgets).
        """
        tree = self._tree if tree is None else tree
        if budget is None:
            budget = self.current_budget()
        # the tree's AUX index *after* this append (background replay
        # attaches onto a tree that is still behind the graph, so the
        # graph-level AUX index would be out of range here)
        aux = tree.num_versions + 1
        node_storage = float(self.graph.storage_cost(self._nodes[vi]))
        options = list(candidates)
        options.append((aux, self._num_real_edges + vi, node_storage, 0.0))
        best = self._cheapest(tree, budget, aux, options)
        if best is None:
            return False
        p_idx, eid, s, r = best
        new_v = tree.append_version(p_idx, eid, s, r)
        assert new_v == vi, "arrival order drifted from compiled interning"
        ret_v = float(tree.ret[vi])
        self._pending_obj += self.spec.attach_cost(s, ret_v)
        if ret_v > self._max_ret:
            self._max_ret = ret_v
        if self._bg is not None and self._bg.busy:
            self._log.append((vi, candidates))
        return True

    # ------------------------------------------------------------------
    # re-solves
    # ------------------------------------------------------------------
    def _resolve_sync(self):  # holds: ingest-thread
        if self._dirty or self._compact_pending:
            self._rebuild_bookkeeping()
        self._bg_gen += 1  # any in-flight background result is now stale
        cg = self.graph.compile()
        try:
            tree = self._solver(cg, self.current_budget())
        except ValueError:
            self._tree = None  # next ingest retries with a full solve
            raise
        self._tree = tree
        self._solve_obj = self.spec.tree_objective(tree)
        self._pending_obj = 0.0
        self._max_ret = tree.max_retrieval()
        self._resolves += 1
        self._log.clear()
        return tree

    def resolve(self):
        """Force a synchronous full re-solve; returns the fresh tree.

        The result is *identical* to a from-scratch solve on the final
        graph: the solver runs on the (refreshed) incremental compiled
        graph, which equals a fresh compile elementwise.
        """
        tree = self._resolve_sync()
        self._sync_store()
        return tree

    def _trigger_resolve(self) -> bool:  # holds: ingest-thread
        """Threshold hit: re-solve now (sync) or kick off a background one."""
        if self._bg is None or self._compact_pending:
            # retirement tombstones pending: snapshotting would compact
            # the live compiled arrays while the live tree still speaks
            # the pre-compaction slot space — resolve synchronously,
            # which rebuilds tree and bookkeeping together
            self._resolve_sync()
            return True
        if not self._bg.busy:
            snapshot = self.graph.compile().snapshot()
            budget = self.current_budget()
            self._log.clear()  # the snapshot covers every current version
            self._bg_sub_gen = self._bg_gen
            self._bg.submit(self._solver, snapshot, budget)
        return False

    def _poll_background(self) -> bool:  # holds: ingest-thread
        """Collect and integrate a finished background solve, if any.

        Returns True when integration fell back to a synchronous full
        re-solve: the fresh tree then already covers *every* graph
        version — including an arrival the caller added just before
        polling — so the caller must skip its own attach.
        """
        outcome = self._bg.poll()
        if outcome is None:
            return False
        if self._bg_sub_gen != self._bg_gen:
            # a sync resolve superseded this solve while it ran: its
            # result — and in particular its *failure* against a budget
            # that no longer applies — is obsolete either way
            return False
        ok, value = outcome
        if not ok:
            # mirror _resolve_sync's failure contract: null the tree so
            # a caller that catches the error (and the arrival already
            # appended to the graph this cycle) leaves the engine in a
            # retry-with-full-solve state, not one version out of sync
            self._tree = None
            raise value  # e.g. the budget went infeasible mid-stream
        tree = value
        solve_obj = self.spec.tree_objective(tree)
        # replay arrivals that landed while the solve was running
        pending = self._log
        self._log = []
        tree.cg = self.graph.compile()  # rebind to the live compiled graph
        self._tree, old_tree = tree, self._tree
        self._pending_obj = 0.0
        self._solve_obj = solve_obj
        self._max_ret = tree.max_retrieval()
        self._resolves += 1
        for vi, candidates in pending:
            if not self._attach(vi, candidates):
                # replay cannot fit the budget: fall back to the old tree
                # state and a synchronous solve over everything
                self._tree = old_tree
                self._resolve_sync()
                return True
        return False

    def wait(self) -> None:
        """Block until any in-flight background re-solve is integrated.

        An attached store is brought current with the integrated tree.
        """
        if self._bg is not None and self._bg.busy:
            self._bg.wait()
            self._poll_background()
            self._sync_store()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = 10.0) -> None:
        """Shut down the background resolver; idempotent.

        Joins the resolver thread (bounded by ``timeout``) and discards
        any uncollected outcome — the live tree already covers every
        arrival, so nothing is lost.  A closed engine keeps working in
        synchronous-resolve mode; closing an engine that never had a
        background resolver is a no-op.
        """
        bg = self._bg
        if bg is None:
            return
        self._bg = None  # further resolves go synchronous
        bg.shutdown(timeout)

    def __enter__(self) -> "IngestEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Deterministic teardown: no resolver thread outlives the block."""
        self.close()

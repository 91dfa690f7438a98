"""Version graphs: the central data structure of the library.

A *version graph* ``G = (V, E)`` (Bhattacherjee et al., VLDB'15; Guo et al.,
IPPS 2024, Section 2.1) is a directed graph where

* each node ``v`` is a dataset *version* carrying a materialization
  (storage) cost ``s_v`` — the cost of storing the version in full, and
* each directed edge ``e = (u, v)`` is a *delta* carrying a storage cost
  ``s_e`` (cost of keeping the delta on disk) and a retrieval cost ``r_e``
  (cost of applying the delta to ``u`` to obtain ``v``).

All optimization problems in this library (MSR / MMR / BSR / BMR, see
:mod:`repro.core.problems`) operate on the *extended* graph which adds an
auxiliary root :data:`AUX` with an edge ``(AUX, v)`` per version.  Storing
that edge models materializing ``v``: its storage cost is ``s_v`` and its
retrieval cost is ``0`` (Algorithm 1 of the paper, lines 1-6).

Costs are non-negative numbers.  The paper assumes integral costs ("there
is usually a smallest unit of cost in the real world"); we accept floats
but keep everything exactly representable where possible.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..fastgraph.compiled import CompiledGraph

__all__ = [
    "AUX",
    "AuxRoot",
    "Delta",
    "GraphMutation",
    "VersionGraph",
    "GraphError",
]


class GraphError(ValueError):
    """Raised for structurally invalid version-graph operations."""


class AuxRoot:
    """Singleton sentinel for the auxiliary root of the extended graph.

    The auxiliary root is *not* a version: it has no storage cost of its
    own, and the edge ``(AUX, v)`` represents the decision to materialize
    ``v``.  A single module-level instance :data:`AUX` is used everywhere
    so that identity comparison (``node is AUX``) works.
    """

    _instance: "AuxRoot | None" = None

    def __new__(cls) -> "AuxRoot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<aux>"

    def __lt__(self, other: Any) -> bool:
        # Sort before every real node so deterministic orderings that sort
        # mixed node lists keep working.
        return True

    def __gt__(self, other: Any) -> bool:
        return False


AUX = AuxRoot()

Node = Hashable


def _finite_cost(x: float) -> bool:
    """True for a finite, non-negative cost (False for NaN and +-inf)."""
    return math.isfinite(x) and x >= 0


@dataclass(frozen=True)
class Delta:
    """An edge payload: the pair of storage and retrieval costs.

    Attributes
    ----------
    storage:
        Cost ``s_e`` of keeping this delta in the storage plan.
    retrieval:
        Cost ``r_e`` of applying this delta during version reconstruction.
    """

    storage: float
    retrieval: float

    def __post_init__(self) -> None:
        # ``nan < 0`` is False, so finiteness is checked explicitly
        if not (_finite_cost(self.storage) and _finite_cost(self.retrieval)):
            raise GraphError(
                f"delta costs must be finite and non-negative, got "
                f"{self.storage!r}/{self.retrieval!r}"
            )

    def scaled(self, storage_factor: float = 1.0, retrieval_factor: float = 1.0) -> "Delta":
        """Return a copy with both costs scaled (used by compression models)."""
        return Delta(self.storage * storage_factor, self.retrieval * retrieval_factor)


@dataclass(frozen=True)
class GraphMutation:
    """One structural change to a :class:`VersionGraph`.

    The mutation-event stream is how online consumers stay coherent with
    a graph that keeps growing: the cached
    :class:`~repro.fastgraph.compiled.CompiledGraph` extends itself in
    place on pure *append* events instead of being thrown away, and
    engine-level listeners (see :mod:`repro.engine`) track per-node
    quantities (e.g. cheapest incoming delta) without rescanning.

    Attributes
    ----------
    kind:
        ``"add_version"`` (a brand-new version), ``"update_version"``
        (storage cost of an existing version changed), ``"add_delta"``
        (a brand-new edge), ``"update_delta"`` (an existing edge's costs
        changed, e.g. ``keep_cheapest`` merges), ``"remove_delta"`` or
        ``"remove_version"`` (retirement; only emitted once every
        incident delta has already been removed).
    u:
        Edge source for delta events; ``None`` for version events.
    v:
        The version added/updated/removed, or the edge destination.
    storage / retrieval:
        The costs now in effect (``retrieval`` is 0.0 for version
        events).  Detach events carry the costs that *were* in effect so
        incremental listeners (online lower bounds, compiled tombstones)
        can undo per-node aggregates without rescanning the graph.
    """

    kind: str
    u: Node | None
    v: Node
    storage: float = 0.0
    retrieval: float = 0.0

    #: Event kinds that only ever *append* state (never touch existing
    #: nodes/edges) — the kinds an incremental compile can absorb.
    APPEND_KINDS = frozenset({"add_version", "add_delta"})

    #: Event kinds that *remove* state.  The compiled cache absorbs
    #: these too (tombstone + lazy compaction); only in-place cost
    #: updates still invalidate it wholesale.
    DETACH_KINDS = frozenset({"remove_version", "remove_delta"})


class VersionGraph:
    """A directed version graph with storage/retrieval edge weights.

    The graph is deliberately a plain adjacency-dict structure (no
    networkx dependency on the hot paths): the greedy heuristics touch
    edges millions of times and attribute-dict lookups dominate profile
    traces otherwise — per the optimization guide, the algorithmic hot
    loop works on plain dicts and NumPy arrays.

    Nodes may be any hashable value.  Parallel edges are not supported
    (the cheaper delta should be kept by the caller); self-loops are
    rejected.

    Mutation events
    ---------------
    Every mutation emits a :class:`GraphMutation` to subscribed
    listeners (:meth:`subscribe`).  The compiled-array cache is the
    built-in consumer: pure append events (new versions, new deltas) are
    applied to the cached :class:`~repro.fastgraph.compiled.
    CompiledGraph` *in place*, and detach events (retired versions,
    removed deltas) are absorbed as tombstones compacted lazily at the
    next :meth:`compile`, so online ingest keeps one compiled snapshot
    alive across thousands of arrivals and retirements; in-place cost
    updates still invalidate the cache.
    """

    __slots__ = ("_storage", "_edges", "_succ", "_pred", "_compiled", "_listeners", "name")

    def __init__(self, name: str = "") -> None:
        self._storage: dict[Node, float] = {}
        self._edges: dict[tuple[Node, Node], Delta] = {}
        self._succ: dict[Node, dict[Node, Delta]] = {}
        self._pred: dict[Node, dict[Node, Delta]] = {}
        self._compiled: CompiledGraph | None = None  # cached compiled arrays
        self._listeners: list[Callable[[GraphMutation], None]] = []
        self.name = name

    # ------------------------------------------------------------------
    # mutation events
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[GraphMutation], None]) -> None:
        """Register ``listener(event: GraphMutation)`` for every mutation.

        Listeners are *not* pickled with the graph (worker processes get
        a listener-free copy) and are invoked after the mutation has
        been applied to the adjacency structure and the compiled cache.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[GraphMutation], None]) -> None:
        """Remove a mutation listener registered by :meth:`subscribe`."""
        self._listeners.remove(listener)

    def _mutated(self, event: GraphMutation) -> None:
        compiled = self._compiled
        if compiled is not None and not compiled.apply_mutation(event):
            self._compiled = None
        for fn in tuple(self._listeners):
            fn(event)

    def __getstate__(self) -> dict[str, Any]:
        # bound-method listeners (e.g. an IngestEngine) are unpicklable
        # and meaningless in another process; everything else round-trips
        state: dict[str, Any] = {s: getattr(self, s) for s in self.__slots__}
        state["_listeners"] = []
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        for s in self.__slots__:
            object.__setattr__(self, s, state[s])

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_version(self, v: Node, storage: float) -> None:
        """Add version ``v`` with materialization cost ``storage``.

        Re-adding an existing version updates its storage cost.
        """
        if v is AUX:
            raise GraphError("AUX is reserved for the extended graph root")
        if not _finite_cost(storage):
            raise GraphError(
                f"storage cost must be finite and non-negative, got {storage!r}"
            )
        new = v not in self._storage
        if new:
            self._succ[v] = {}
            self._pred[v] = {}
        self._storage[v] = storage
        self._mutated(
            GraphMutation("add_version" if new else "update_version", None, v, storage)
        )

    def add_delta(
        self,
        u: Node,
        v: Node,
        storage: float,
        retrieval: float,
        *,
        keep_cheapest: bool = False,
    ) -> None:
        """Add the delta edge ``(u, v)``.

        Parameters
        ----------
        keep_cheapest:
            When True and the edge already exists, keep the elementwise
            minimum of the two cost pairs instead of raising.
        """
        if u == v:
            raise GraphError(f"self-delta {u!r}->{v!r} not allowed")
        for x in (u, v):
            if x not in self._storage:
                raise GraphError(f"unknown version {x!r}; add_version first")
        delta = Delta(storage, retrieval)
        key = (u, v)
        new = key not in self._edges
        if not new:
            if not keep_cheapest:
                raise GraphError(f"duplicate delta {u!r}->{v!r}")
            old = self._edges[key]
            delta = Delta(min(old.storage, storage), min(old.retrieval, retrieval))
        self._edges[key] = delta
        self._succ[u][v] = delta
        self._pred[v][u] = delta
        self._mutated(
            GraphMutation(
                "add_delta" if new else "update_delta",
                u,
                v,
                delta.storage,
                delta.retrieval,
            )
        )

    def add_bidirectional_delta(
        self,
        u: Node,
        v: Node,
        storage: float,
        retrieval: float,
        storage_back: float | None = None,
        retrieval_back: float | None = None,
    ) -> None:
        """Add ``(u, v)`` and ``(v, u)``; the reverse defaults to the same costs."""
        self.add_delta(u, v, storage, retrieval)
        self.add_delta(
            v,
            u,
            storage if storage_back is None else storage_back,
            retrieval if retrieval_back is None else retrieval_back,
        )

    def remove_delta(self, u: Node, v: Node) -> None:
        """Delete the delta ``u -> v``; raises :class:`GraphError` when absent.

        The emitted event carries the removed edge's old costs so
        incremental listeners can undo per-node aggregates.
        """
        try:
            old = self._edges.pop((u, v))
        except KeyError:
            raise GraphError(f"no delta {u!r}->{v!r}") from None
        del self._succ[u][v]
        del self._pred[v][u]
        self._mutated(GraphMutation("remove_delta", u, v, old.storage, old.retrieval))

    def remove_version(self, v: Node) -> None:
        """Retire version ``v``: drop its incident deltas, then the node.

        Incident deltas are removed first through :meth:`remove_delta`
        (each emitting its own event with the old costs), then a final
        ``"remove_version"`` event is emitted carrying the retired
        node's storage cost.  Raises :class:`GraphError` when ``v`` is
        unknown or is :data:`AUX`.
        """
        if v is AUX:
            raise GraphError("cannot remove the auxiliary root")
        if v not in self._storage:
            raise GraphError(f"unknown version {v!r}")
        for u in list(self._pred[v]):
            self.remove_delta(u, v)
        for w in list(self._succ[v]):
            self.remove_delta(v, w)
        old_storage = self._storage.pop(v)
        del self._succ[v]
        del self._pred[v]
        self._mutated(GraphMutation("remove_version", None, v, old_storage))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def versions(self) -> list[Node]:
        """All versions, in insertion order."""
        return list(self._storage)

    @property
    def num_versions(self) -> int:
        """Number of versions currently in the graph."""
        return len(self._storage)

    @property
    def num_deltas(self) -> int:
        """Number of stored deltas (directed edges)."""
        return len(self._edges)

    def __contains__(self, v: Node) -> bool:
        return v in self._storage

    def __len__(self) -> int:
        return len(self._storage)

    def has_delta(self, u: Node, v: Node) -> bool:
        """True when the delta ``u -> v`` exists."""
        return (u, v) in self._edges

    def storage_cost(self, v: Node) -> float:
        """Materialization cost ``s_v``."""
        return self._storage[v]

    def delta(self, u: Node, v: Node) -> Delta:
        """The :class:`Delta` on ``u -> v``; raises :class:`GraphError` when absent."""
        try:
            return self._edges[(u, v)]
        except KeyError:
            raise GraphError(f"no delta {u!r}->{v!r}") from None

    def deltas(self) -> Iterator[tuple[Node, Node, Delta]]:
        """Iterate ``(u, v, delta)`` triples in insertion order."""
        for (u, v), d in self._edges.items():
            yield u, v, d

    def successors(self, u: Node) -> Mapping[Node, Delta]:
        """Outgoing neighbors of ``u`` as a ``{node: delta}`` mapping."""
        return self._succ[u]

    def predecessors(self, v: Node) -> Mapping[Node, Delta]:
        """Incoming neighbors of ``v`` as a ``{node: delta}`` mapping."""
        return self._pred[v]

    def out_degree(self, u: Node) -> int:
        """Number of outgoing deltas of ``u``."""
        return len(self._succ[u])

    def in_degree(self, v: Node) -> int:
        """Number of incoming deltas of ``v``."""
        return len(self._pred[v])

    # ------------------------------------------------------------------
    # aggregate statistics (Table 4 of the paper)
    # ------------------------------------------------------------------
    def total_version_storage(self) -> float:
        """Storage cost of materializing everything (Figure 1(ii))."""
        return sum(self._storage.values())

    def average_version_storage(self) -> float:
        """Mean materialization cost over versions (Table 4 column)."""
        return self.total_version_storage() / max(1, self.num_versions)

    def average_delta_storage(self) -> float:
        """Mean delta storage cost (0.0 when there are no deltas)."""
        if not self._edges:
            return 0.0
        return sum(d.storage for d in self._edges.values()) / len(self._edges)

    def max_retrieval_cost(self) -> float:
        """``r_max`` over edges — the FPTAS discretization scale (§5.1)."""
        if not self._edges:
            return 0.0
        return max(d.retrieval for d in self._edges.values())

    def stats(self) -> dict[str, float]:
        """Summary row matching Table 4 ("#nodes #edges avg sv avg se")."""
        return {
            "nodes": self.num_versions,
            "edges": self.num_deltas,
            "avg_version_storage": self.average_version_storage(),
            "avg_delta_storage": self.average_delta_storage(),
        }

    # ------------------------------------------------------------------
    # the extended graph (auxiliary root)
    # ------------------------------------------------------------------
    def extended(self) -> "VersionGraph":
        """Return the extended graph ``G_aux`` with the auxiliary root.

        Following Algorithm 1 lines 1-6: a node :data:`AUX` is added with
        an edge ``(AUX, v)`` per version, where ``s_(AUX,v) = s_v`` and
        ``r_(AUX,v) = 0``.  The auxiliary root itself carries zero
        storage cost and cannot be materialized.  Raises
        :class:`GraphError` on a graph that already has AUX.
        """
        if self.has_aux:
            raise GraphError("graph is already extended (has AUX)")
        ext = VersionGraph(name=self.name)
        ext._storage = dict(self._storage)
        ext._edges = dict(self._edges)
        ext._succ = {u: dict(nbrs) for u, nbrs in self._succ.items()}
        ext._pred = {v: dict(nbrs) for v, nbrs in self._pred.items()}
        ext._storage[AUX] = 0.0
        ext._succ[AUX] = {}
        ext._pred[AUX] = {}
        for v in self._storage:
            d = Delta(self._storage[v], 0.0)
            ext._edges[(AUX, v)] = d
            ext._succ[AUX][v] = d
            ext._pred[v][AUX] = d
        return ext

    @property
    def has_aux(self) -> bool:
        """True when this is an extended graph (AUX present)."""
        return AUX in self._storage

    def compile(self) -> "CompiledGraph":
        """Compile into flat arrays for the fastgraph solver kernels.

        Returns a :class:`repro.fastgraph.CompiledGraph` — node→int
        interning plus CSR adjacency over the *extended* graph, whose
        AUX edges exist only in the arrays (no dict copy is built).  The
        result is cached until the next mutation, so budget sweeps and
        repeated solver calls reuse one compiled snapshot instead of
        re-extending and re-indexing per call.

        Append mutations (new versions / new deltas) do **not** discard
        the cache: the compiled graph absorbs them and this call folds
        any pending appends into the flat arrays
        (:meth:`~repro.fastgraph.compiled.CompiledGraph.refresh`) before
        returning, so online ingest pays an amortized array extension
        instead of a from-scratch recompile per arrival.
        """
        if self._compiled is None:
            # runtime-lazy bridge: core stays importable without the
            # accelerated layer; compile() is the one sanctioned hop up
            # lint-ignore: layering
            from ..fastgraph.compiled import CompiledGraph

            self._compiled = CompiledGraph(self)
        else:
            self._compiled.refresh()
        return self._compiled

    @property
    def compiled_cache(self) -> "CompiledGraph | None":
        """The cached compiled graph *without* refreshing it.

        Mid-stream consumers (the ingest engine's plan repair) read
        pending-state accessors off the live compiled object between
        re-solves; calling :meth:`compile` there would compact slot
        numbering under the live plan tree.  ``None`` when no compile
        has happened or the cache was invalidated.
        """
        return self._compiled

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def copy(self) -> "VersionGraph":
        """Independent copy (listeners and compile cache not carried over)."""
        g = VersionGraph(name=self.name)
        g._storage = dict(self._storage)
        g._edges = dict(self._edges)
        g._succ = {u: dict(nbrs) for u, nbrs in self._succ.items()}
        g._pred = {v: dict(nbrs) for v, nbrs in self._pred.items()}
        return g

    def map_deltas(self, fn: Callable[[Node, Node, Delta], Delta]) -> "VersionGraph":
        """Return a copy with every delta replaced by ``fn(u, v, delta)``."""
        g = VersionGraph(name=self.name)
        for v, s in self._storage.items():
            g.add_version(v, s)
        for (u, v), d in self._edges.items():
            nd = fn(u, v, d)
            g.add_delta(u, v, nd.storage, nd.retrieval)
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "VersionGraph":
        """Induced subgraph on ``nodes`` (same costs, same name)."""
        keep = set(nodes)
        g = VersionGraph(name=self.name)
        for v in self._storage:
            if v in keep:
                g.add_version(v, self._storage[v])
        for (u, v), d in self._edges.items():
            if u in keep and v in keep:
                g.add_delta(u, v, d.storage, d.retrieval)
        return g

    def undirected_edges(self) -> set[tuple[Node, Node]]:
        """Underlying undirected edge set (paper footnote 5), as sorted pairs."""
        seen: set[tuple[Node, Node]] = set()
        for u, v in self._edges:
            key = (u, v) if _node_key(u) <= _node_key(v) else (v, u)
            seen.add(key)
        return seen

    def is_bidirectional_tree(self) -> bool:
        """True iff the underlying undirected graph is a tree and every
        undirected edge is present in both directions (Section 2.2)."""
        n = self.num_versions
        if n == 0:
            return True  # vacuously a tree; checked before the edge count
        und = self.undirected_edges()
        if len(und) != n - 1:
            return False
        for u, v in und:
            if (u, v) not in self._edges or (v, u) not in self._edges:
                return False
        # connectivity check over the undirected structure
        adj: dict[Node, list[Node]] = {v: [] for v in self._storage}
        for u, v in und:
            adj[u].append(v)
            adj[v].append(u)
        start = next(iter(self._storage))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n

    # ------------------------------------------------------------------
    # triangle-inequality diagnostics (Section 2.2)
    # ------------------------------------------------------------------
    def check_triangle_inequality(self, tol: float = 1e-9) -> list[tuple[Node, Node, Node]]:
        """Return violations ``(u, w, v)`` where ``r_uv > r_uw + r_wv``.

        Only triples with all three edges present are considered.  An
        empty list means the retrieval costs satisfy the (edge-wise)
        triangle inequality.  O(sum of degree products); intended for
        tests and small graphs.
        """
        bad: list[tuple[Node, Node, Node]] = []
        for (u, v), d in self._edges.items():
            for w, d_uw in self._succ[u].items():
                if w == v:
                    continue
                d_wv = self._succ[w].get(v)
                if d_wv is None:
                    continue
                if d.retrieval > d_uw.retrieval + d_wv.retrieval + tol:
                    bad.append((u, w, v))
        return bad

    def check_generalized_triangle_inequality(self, tol: float = 1e-9) -> list[tuple[Node, Node]]:
        """Violations of ``s_u + s_(u,v) >= s_v`` (Section 2.2)."""
        bad: list[tuple[Node, Node]] = []
        for (u, v), d in self._edges.items():
            if self._storage[u] + d.storage + tol < self._storage[v]:
                bad.append((u, v))
        return bad

    # ------------------------------------------------------------------
    # interop / io
    # ------------------------------------------------------------------
    def to_networkx(self) -> Any:
        """Export to a ``networkx.DiGraph`` (attributes: storage/retrieval)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for v, s in self._storage.items():
            g.add_node(v, storage=s)
        for (u, v), d in self._edges.items():
            g.add_edge(u, v, storage=d.storage, retrieval=d.retrieval)
        return g

    def to_undirected_networkx(self) -> Any:
        """Underlying undirected graph (for treewidth computations)."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        g.add_nodes_from(v for v in self._storage if v is not AUX)
        for u, v in self.undirected_edges():
            if u is AUX or v is AUX:
                continue
            g.add_edge(u, v)
        return g

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (AUX artifacts are never serialized)."""
        return {
            "name": self.name,
            "versions": [[repr_node(v), s] for v, s in self._storage.items() if v is not AUX],
            "deltas": [
                [repr_node(u), repr_node(v), d.storage, d.retrieval]
                for (u, v), d in self._edges.items()
                if u is not AUX and v is not AUX
            ],
        }

    def to_json(self) -> str:
        """Serialize via :meth:`to_dict`."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "VersionGraph":
        """Rebuild a graph from a :meth:`to_dict` payload."""
        g = cls(name=payload.get("name", ""))
        for v, s in payload["versions"]:
            g.add_version(v, s)
        for u, v, s, r in payload["deltas"]:
            g.add_delta(u, v, s, r)
        return g

    @classmethod
    def from_json(cls, text: str) -> "VersionGraph":
        """Rebuild a graph from a :meth:`to_json` string."""
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<VersionGraph{label}: {self.num_versions} versions, "
            f"{self.num_deltas} deltas>"
        )


def repr_node(v: Node) -> Any:
    """JSON-safe node representation (AUX is never serialized)."""
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def _node_key(v: Node) -> tuple[str, str]:
    """Total order over heterogeneous nodes for canonical undirected pairs."""
    return (type(v).__name__, str(v))


def validate_graph(graph: VersionGraph) -> None:
    """Raise :class:`GraphError` when internal adjacency is inconsistent.

    Used in tests and after deserialization; O(V + E).
    """
    for (u, v), d in graph._edges.items():
        if graph._succ[u].get(v) is not d or graph._pred[v].get(u) is not d:
            raise GraphError(f"inconsistent adjacency at {u!r}->{v!r}")
        if not math.isfinite(d.storage) or not math.isfinite(d.retrieval):
            raise GraphError(f"non-finite delta costs at {u!r}->{v!r}")
    for u, nbrs in graph._succ.items():
        for v in nbrs:
            if (u, v) not in graph._edges:
                raise GraphError(f"stray successor {u!r}->{v!r}")
    for v, nbrs in graph._pred.items():
        for u in nbrs:
            if (u, v) not in graph._edges:
                raise GraphError(f"stray predecessor {u!r}->{v!r}")

"""The plan executor: materialize / checkout / migrate / fsck.

A :class:`MaterializationStore` turns a solver's
:class:`~repro.core.solution.StoragePlan` into actual bytes on a
content-addressed :class:`~repro.store.objects.ObjectStore`:

* versions whose plan parent is AUX become **full objects** — one blob
  per file plus a manifest, all sha256-addressed and deduplicated;
* every other plan-tree edge ``(u, v)`` becomes a **delta object**
  (run-length Myers ops per changed file, created files stored as
  shared blobs);
* ``checkout(v)`` walks from ``v``'s nearest materialized ancestor
  down the recorded chain, verifying every object hash on load and the
  reconstructed snapshot's digest before returning — it raises
  :class:`~repro.store.codec.StoreError` rather than ever handing back
  wrong bytes.  A ``path -> blob hash`` map rides down the chain next
  to the snapshot, so each returned byte is hashed once and the digest
  is one manifest hash over the map;
* ``migrate(old_plan, new_plan)`` rewrites exactly the edges in the
  symmetric difference of the two trees (pinned by the
  :class:`StoreOps` counter) and garbage-collects unreferenced
  objects, leaving the store object-for-object equal to a from-scratch
  materialization of ``new_plan``;
* ``fsck()`` re-hashes every object and walks every delta chain,
  reporting findings with the stable codes of :data:`FSCK_CODES`.

The store records, per version, its plan parent, the object realizing
the edge, and the snapshot digest — nothing else.  All dedup falls out
of content addressing; all integrity falls out of re-hashing on read.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from ..core.graph import Node
from ..core.solution import StoragePlan
from ..vcs.repo import Repository, Snapshot
from .codec import (
    StoreError,
    apply_delta,
    blob_bytes,
    blob_lines,
    decode_delta,
    decode_manifest,
    encode_delta,
    encode_manifest,
    hash_object,
    snapshot_digest,
)
from .objects import FileObjectStore, MemoryObjectStore, ObjectStore

#: A replayed version: its snapshot and ``path -> blob hash`` map.
_State = tuple[Snapshot, dict[str, str]]

__all__ = [
    "MaterializationStore",
    "StoreOps",
    "MigrationReport",
    "FsckFinding",
    "FSCK_CODES",
    "plan_parent_map",
    "materialize",
]

META_NAME = "META.json"

#: The stable fsck finding codes (tests and the CLI rely on these).
FSCK_CODES = (
    "object-missing",
    "object-corrupt",
    "digest-mismatch",
    "delta-apply-failed",
    "tree-structure",
    "object-unreferenced",
)


@dataclass
class StoreOps:
    """Cumulative operation counters (the migration-cost odometer)."""

    edges_written: int = 0
    edges_deleted: int = 0
    objects_written: int = 0
    objects_deleted: int = 0
    bytes_written: int = 0

    def snapshot(self) -> "StoreOps":
        """An independent copy of the current counters."""
        return StoreOps(
            self.edges_written,
            self.edges_deleted,
            self.objects_written,
            self.objects_deleted,
            self.bytes_written,
        )


@dataclass(frozen=True)
class MigrationReport:
    """What one ``migrate``/``sync`` actually touched."""

    edges_written: int
    edges_deleted: int
    objects_written: int
    objects_deleted: int

    @property
    def edges_rewritten(self) -> int:
        """Total edge churn — equals ``|old tree edges ^ new tree edges|``."""
        return self.edges_written + self.edges_deleted


@dataclass(frozen=True)
class FsckFinding:
    """One integrity problem: a stable ``code`` plus human detail."""

    code: str
    subject: str
    detail: str


@dataclass(frozen=True)
class _Record:
    """One version's realization: parent (None = materialized), object."""

    parent: Node | None
    kind: str  # "full" | "delta"
    obj: str

    @property
    def obj_kind(self) -> str:
        """The hash-tag kind of ``obj``: full records point at manifests."""
        return "manifest" if self.kind == "full" else "delta"

    def to_json(self, v: Node) -> list:
        """JSON row ``[v, parent, kind, obj]`` for META persistence."""
        return [v, self.parent, self.kind, self.obj]


def plan_parent_map(plan: StoragePlan) -> dict[Node, Node | None]:
    """The tree shape of ``plan``: ``v -> parent`` (None = materialized).

    Raises :class:`StoreError` unless the plan is an arborescence —
    every version has exactly one incoming realization and every delta
    source is itself in the plan.  Solver output always qualifies
    (optimal plans are w.l.o.g. trees); hand-built general plans with
    redundant stored deltas do not.
    """
    parent: dict[Node, Node | None] = {v: None for v in plan.materialized}
    for u, v in sorted(plan.stored_deltas, key=repr):
        if v in plan.materialized:
            raise StoreError(
                f"plan is not a tree: {v!r} is materialized and delta-target"
            )
        if v in parent:
            raise StoreError(f"plan is not a tree: {v!r} has two stored deltas in")
        parent[v] = u
    for u, v in plan.stored_deltas:
        if u not in parent:
            raise StoreError(f"delta source {u!r} is not in the plan")
    return parent


def _topo_order(parent: dict[Node, Node | None]) -> list[Node]:
    """Root-first order of the plan tree; raises on cycles."""
    children: dict[Node | None, list[Node]] = {}
    for v, p in parent.items():
        children.setdefault(p, []).append(v)
    order: list[Node] = []
    stack = sorted(children.get(None, ()), key=repr, reverse=True)
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(sorted(children.get(x, ()), key=repr, reverse=True))
    if len(order) != len(parent):
        unreached = sorted((set(parent) - set(order)), key=repr)
        raise StoreError(
            f"plan tree has a cycle or unreachable versions: {unreached[:5]!r}"
        )
    return order


class MaterializationStore:
    """A content-addressed store executing one storage plan.

    Parameters
    ----------
    objects:
        Backend object store; defaults to a fresh
        :class:`~repro.store.objects.MemoryObjectStore`.  Pass a
        :class:`~repro.store.objects.FileObjectStore` (or use
        :meth:`open`) for a store that persists across processes.
    """

    def __init__(
        self,
        objects: ObjectStore | None = None,
        *,
        checkout_cache: int = 64,
    ) -> None:
        self.objects: ObjectStore = (
            objects if objects is not None else MemoryObjectStore()
        )
        self.ops = StoreOps()
        self.source: dict | None = None  # CLI provenance (seed, params)
        self._records: dict[Node, _Record] = {}
        self._digests: dict[Node, str] = {}
        self._meta_path: Path | None = None
        # LRU of digest-verified replay states: repeated checkouts of
        # nearby versions replay only the chain suffix below the nearest
        # cached ancestor instead of re-decoding from the materialized
        # root.  0 disables.  Every mutating op (materialize/sync/
        # migrate) clears it — records and digests may change underneath.
        self._cache_slots = int(checkout_cache)
        self._snap_cache: OrderedDict[Node, _State] = OrderedDict()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, root: str | Path) -> "MaterializationStore":
        """A directory-backed store at ``root``, loading META if present."""
        root = Path(root)
        store = cls(FileObjectStore(root))
        store._meta_path = root / META_NAME
        if store._meta_path.exists():
            meta = json.loads(store._meta_path.read_text())
            store._records = {
                v: _Record(p, kind, obj)
                for v, p, kind, obj in meta["records"]
            }
            store._digests = {v: d for v, d in meta["digests"]}
            store.source = meta.get("source")
        return store

    def flush(self) -> None:
        """Write META (records, digests, provenance) for directory stores."""
        if self._meta_path is None:
            return
        meta = {
            "records": [r.to_json(v) for v, r in sorted(
                self._records.items(), key=lambda kv: repr(kv[0])
            )],
            "digests": [
                [v, d] for v, d in sorted(
                    self._digests.items(), key=lambda kv: repr(kv[0])
                )
            ],
            "source": self.source,
        }
        self._meta_path.write_text(json.dumps(meta, indent=1))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def versions(self) -> list[Node]:
        """Every version the store can check out."""
        return sorted(self._records, key=repr)

    def contains(self, v: Node) -> bool:
        """True when ``v`` is realized by the current plan."""
        return v in self._records

    def is_materialized(self, v: Node) -> bool:
        """True when ``v`` is stored in full (a plan-tree root)."""
        return self._records[v].parent is None

    def chain_depth(self, v: Node) -> int:
        """Number of deltas applied by ``checkout(v)`` (0 = materialized)."""
        depth = 0
        seen: set[Node] = set()
        x = v
        while True:
            rec = self._get_record(x)
            if rec.parent is None:
                return depth
            if x in seen:
                raise StoreError(f"parent chain of {v!r} contains a cycle")
            seen.add(x)
            x = rec.parent
            depth += 1

    def edge_set(self) -> set[tuple[Node | None, Node]]:
        """The realized tree edges as ``(parent or None, version)`` pairs."""
        return {(r.parent, v) for v, r in self._records.items()}

    def digest(self, v: Node) -> str:
        """The snapshot digest recorded for ``v`` at materialization."""
        self._get_record(v)
        return self._digests[v]

    def total_bytes(self) -> int:
        """Object-store footprint in bytes."""
        return self.objects.total_bytes()

    # ------------------------------------------------------------------
    # materialize
    # ------------------------------------------------------------------
    def materialize(self, repo: Repository | Callable[[Node], Snapshot],
                    plan: StoragePlan) -> None:
        """Execute ``plan``: store full objects and deltas for every version.

        ``repo`` is a :class:`~repro.vcs.repo.Repository` (versions are
        commit ids) or any ``version -> Snapshot`` callable.  The store
        must be empty — an existing store migrates instead.
        """
        if self._records:
            raise StoreError("store already holds a plan; use migrate()/sync()")
        fetch = _fetcher(repo)
        parent = plan_parent_map(plan)
        order = _topo_order(parent)
        snaps: dict[Node, Snapshot] = {}
        for v in order:
            snaps[v] = fetch(v)
        for v in order:
            rec = self._write_edge(parent[v], v, snaps)
            self._records[v] = rec
            self._digests[v] = _digest_of(rec, snaps[v])
            self.ops.edges_written += 1
        self.flush()

    def _put(self, key: str, data: bytes) -> str:
        if self.objects.put(key, data):
            self.ops.objects_written += 1
            self.ops.bytes_written += len(data)
        return key

    def _write_edge(
        self, p: Node | None, v: Node, snaps: dict[Node, Snapshot]
    ) -> _Record:
        """Store the object realizing plan edge ``(p, v)``."""
        if p is None:
            return self._write_full(snaps[v])
        return self._write_delta(p, snaps[p], snaps[v])

    def _write_full(self, snap: Snapshot) -> _Record:
        manifest: dict[str, str] = {}
        for path, lines in snap.items():
            data = blob_bytes(tuple(lines))
            manifest[path] = self._put(hash_object("blob", data), data)
        payload = encode_manifest(manifest)
        return _Record(None, "full", self._put(
            hash_object("manifest", payload), payload
        ))

    def _write_delta(self, p: Node, base: Snapshot, snap: Snapshot) -> _Record:
        def blob_hash_of(path: str) -> str:
            data = blob_bytes(tuple(snap[path]))
            return self._put(hash_object("blob", data), data)

        payload = encode_delta(base, snap, blob_hash_of=blob_hash_of)
        return _Record(p, "delta", self._put(
            hash_object("delta", payload), payload
        ))

    # ------------------------------------------------------------------
    # checkout
    # ------------------------------------------------------------------
    def _get_record(self, v: Node) -> _Record:
        try:
            return self._records[v]
        except KeyError:
            raise StoreError(f"version {v!r} is not in the store") from None

    def _load_object(self, kind: str, key: str) -> bytes:
        data = self.objects.get(key)
        if data is None:
            raise StoreError(
                f"missing {kind} object {key[:12]}…", code="object-missing"
            )
        if hash_object(kind, data) != key:
            raise StoreError(
                f"corrupt {kind} object {key[:12]}…", code="object-corrupt"
            )
        return data

    def _step(self, rec: _Record, base: _State | None) -> _State:
        """The one replay step of ``checkout`` and ``fsck``.

        A full record's map is its decoded manifest; every blob it names
        is verified against its key and checked canonical on load.  A
        delta record replays against ``base`` through
        :func:`~repro.store.codec.apply_delta`, which takes ``create``
        hashes from their verified blobs and re-hashes only patched
        files.
        """
        if rec.parent is None:
            hashes = decode_manifest(self._load_object("manifest", rec.obj))
            snap = {
                path: blob_lines(self._load_object("blob", bh))
                for path, bh in hashes.items()
            }
            return snap, hashes
        entries = decode_delta(self._load_object("delta", rec.obj))
        return apply_delta(
            *base, entries,
            load_blob=lambda bh: self._load_object("blob", bh),
        )

    def _matches(self, v: Node, hashes: dict[str, str]) -> bool:
        """True when a replayed map hashes to ``v``'s recorded digest."""
        digest = hash_object("manifest", encode_manifest(hashes))
        return digest == self._digests.get(v)

    def _cache_get(self, v: Node) -> _State | None:
        state = self._snap_cache.get(v)
        if state is not None:
            self._snap_cache.move_to_end(v)
        return state

    def _cache_put(self, v: Node, state: _State) -> None:
        if self._cache_slots <= 0:
            return
        # states are never mutated: replay copies its base, and callers
        # receive a copy of the snapshot
        self._snap_cache[v] = state
        self._snap_cache.move_to_end(v)
        while len(self._snap_cache) > self._cache_slots:
            self._snap_cache.popitem(last=False)

    def checkout(self, v: Node) -> Snapshot:
        """Reconstruct ``v``'s snapshot, verifying every byte on the way.

        Walks up to the nearest materialized — or LRU-cached — ancestor,
        loads/reuses its snapshot, replays the delta chain down to
        ``v``, and compares the result's digest against the one recorded
        at materialization.  Any missing object, hash mismatch,
        non-canonical blob, unreplayable delta or digest mismatch raises
        :class:`StoreError` — wrong bytes are never returned.

        The digest comes from the ``path -> blob hash`` map carried down
        the chain (:meth:`_step`), so each returned byte is hashed once:
        when its blob is loaded or when a patch rewrites its file.

        Only digest-verified states enter the cache (sized by the
        ``checkout_cache`` constructor argument), so a cached base is
        exactly as trustworthy as a freshly replayed one; repeated
        checkouts of nearby versions replay only the chain suffix
        instead of re-decoding from the materialized root.
        """
        cached = self._cache_get(v)
        if cached is not None:
            return dict(cached[0])
        chain: list[tuple[Node, _Record]] = []
        x = v
        seen: set[Node] = set()
        rec = self._get_record(x)
        state: _State | None = None
        while rec.parent is not None:
            if x in seen:
                raise StoreError(f"parent chain of {v!r} contains a cycle")
            seen.add(x)
            chain.append((x, rec))
            x = rec.parent
            state = self._cache_get(x)  # verified when it entered the cache
            if state is not None:
                break
            rec = self._get_record(x)
        if state is None:
            chain.append((x, rec))  # the materialized root
        caching = self._cache_slots > 0
        for y, rec in reversed(chain):
            state = self._step(rec, state)
            if y == v:
                break  # the final digest check below gates caching v
            if caching and self._matches(y, state[1]):
                self._cache_put(y, state)
        if not self._matches(v, state[1]):
            raise StoreError(
                f"checkout of {v!r} does not match its recorded digest",
                code="digest-mismatch",
            )
        self._cache_put(v, state)
        return dict(state[0])

    # ------------------------------------------------------------------
    # migrate
    # ------------------------------------------------------------------
    def sync(
        self,
        plan: StoragePlan,
        *,
        fetch: Callable[[Node], Snapshot] | None = None,
    ) -> MigrationReport:
        """Migrate the store from its current tree to ``plan``'s tree.

        Only edges in the symmetric difference of the two edge sets are
        touched: new edges are written (snapshots reconstructed from the
        *current* store state, or ``fetch``-ed for versions the store
        has never seen), stale edges are dropped, and unreferenced
        objects are garbage-collected.  The result is object-for-object
        identical to materializing ``plan`` from scratch.
        """
        new_parent = plan_parent_map(plan)
        _topo_order(new_parent)  # validates acyclicity up front
        old_edges = self.edge_set()
        new_edges = {(p, v) for v, p in new_parent.items()}
        added = new_edges - old_edges
        removed = old_edges - new_edges

        # resolve every snapshot an added edge needs BEFORE rewriting
        # records: reconstruction must run against the old tree
        need: set[Node] = set()
        for p, v in added:
            need.add(v)
            if p is not None:
                need.add(p)
        snaps: dict[Node, Snapshot] = {}
        for x in sorted(need, key=repr):
            if x in self._records:
                snaps[x] = self.checkout(x)
            elif fetch is not None:
                snaps[x] = fetch(x)
            else:
                raise StoreError(
                    f"version {x!r} is new to the store; pass fetch= to sync()"
                )

        objects_before = self.ops.objects_written
        records: dict[Node, _Record] = {}
        for v, p in new_parent.items():
            if (p, v) in added:
                records[v] = self._write_edge(p, v, snaps)
                if v not in self._digests or v not in self._records:
                    self._digests[v] = _digest_of(records[v], snaps[v])
            else:
                records[v] = self._records[v]
        self._records = records
        self._digests = {v: self._digests[v] for v in new_parent}
        # drop cached snapshots: versions may have left the plan, and a
        # cache hit must never resurrect a version the store dropped
        self._snap_cache.clear()
        self.ops.edges_written += len(added)
        self.ops.edges_deleted += len(removed)
        deleted = self._gc()
        self.flush()
        return MigrationReport(
            edges_written=len(added),
            edges_deleted=len(removed),
            objects_written=self.ops.objects_written - objects_before,
            objects_deleted=deleted,
        )

    def migrate(
        self,
        old_plan: StoragePlan,
        new_plan: StoragePlan,
        *,
        fetch: Callable[[Node], Snapshot] | None = None,
    ) -> MigrationReport:
        """Rewrite the store from ``old_plan``'s tree to ``new_plan``'s.

        ``old_plan`` must match the store's current state exactly (the
        explicit two-plan form of :meth:`sync`, mirroring a background
        re-solve handing over old and new trees).
        """
        expected = {(p, v) for v, p in plan_parent_map(old_plan).items()}
        if expected != self.edge_set():
            raise StoreError("old_plan does not match the store's current tree")
        return self.sync(new_plan, fetch=fetch)

    def _live_objects(self) -> tuple[set[str], list[FsckFinding]]:
        """Transitively referenced object keys + reference problems."""
        live: set[str] = set()
        findings: list[FsckFinding] = []
        for v, rec in sorted(self._records.items(), key=lambda kv: repr(kv[0])):
            live.add(rec.obj)
            data = self.objects.get(rec.obj)
            if data is None:
                findings.append(FsckFinding(
                    "object-missing", rec.obj,
                    f"{rec.kind} object of version {v!r} is absent",
                ))
                continue
            if hash_object(rec.obj_kind, data) != rec.obj:
                # referenced blobs are unknowable from a corrupt payload
                continue
            live.update(_blob_refs(rec, data))
        return live, findings

    def _gc(self) -> int:
        """Delete objects unreachable from the records; returns count."""
        live, _ = self._live_objects()
        dead = [k for k in self.objects.keys() if k not in live]
        for k in dead:
            self.objects.delete(k)
        self.ops.objects_deleted += len(dead)
        return len(dead)

    # ------------------------------------------------------------------
    # fsck
    # ------------------------------------------------------------------
    def fsck(self) -> list[FsckFinding]:
        """Full integrity walk; an empty list means the store is sound.

        Three passes: (1) every referenced object present and re-hashing
        to its key, plus unreferenced strays; (2) the record tree is
        acyclic with no dangling parents; (3) every delta chain replays
        from its materialized root and every version's reconstruction
        matches its recorded digest.  Finding codes are the stable
        :data:`FSCK_CODES` set.
        """
        findings: list[FsckFinding] = []

        # pass 1: object presence + hashes
        live, ref_findings = self._live_objects()
        findings.extend(ref_findings)
        for v, rec in sorted(self._records.items(), key=lambda kv: repr(kv[0])):
            data = self.objects.get(rec.obj)
            if data is None:
                continue  # already reported by _live_objects
            if hash_object(rec.obj_kind, data) != rec.obj:
                findings.append(FsckFinding(
                    "object-corrupt", rec.obj,
                    f"{rec.kind} object of version {v!r} fails its hash",
                ))
                continue
            for bh in _blob_refs(rec, data):
                blob = self.objects.get(bh)
                if blob is None:
                    findings.append(FsckFinding(
                        "object-missing", bh,
                        f"blob referenced by version {v!r} is absent",
                    ))
                elif hash_object("blob", blob) != bh:
                    findings.append(FsckFinding(
                        "object-corrupt", bh,
                        f"blob referenced by version {v!r} fails its hash",
                    ))
        for key in self.objects.keys():
            if key not in live:
                findings.append(FsckFinding(
                    "object-unreferenced", key,
                    "object is not referenced by any record",
                ))

        # pass 2: tree structure
        parent = {v: r.parent for v, r in self._records.items()}
        for v, p in parent.items():
            if p is not None and p not in parent:
                findings.append(FsckFinding(
                    "tree-structure", repr(v),
                    f"parent {p!r} of version {v!r} has no record",
                ))
        try:
            order = _topo_order(parent)
        except StoreError as err:
            findings.append(FsckFinding("tree-structure", "<tree>", str(err)))
            return findings

        # pass 3: replay every chain root-first with checkout's step,
        # verify digests
        states: dict[Node, _State | None] = {}
        for v in order:
            rec = self._records[v]
            base = None
            if rec.parent is not None:
                base = states.get(rec.parent)
                if base is None:
                    states[v] = None  # ancestor already failed
                    continue
            try:
                state = self._step(rec, base)
            except StoreError as err:
                code = err.code or "delta-apply-failed"
                findings.append(FsckFinding(code, repr(v), str(err)))
                states[v] = None
                continue
            states[v] = state
            if not self._matches(v, state[1]):
                findings.append(FsckFinding(
                    "digest-mismatch", repr(v),
                    f"reconstruction of {v!r} does not match its digest",
                ))
        return findings


def _blob_refs(rec: _Record, data: bytes) -> Iterable[str]:
    """Blob keys named by a record's verified object payload; misshapen
    delta entries name none (replay reports them)."""
    if rec.kind == "full":
        return decode_manifest(data).values()
    return [
        e["blob"] for e in decode_delta(data).values()
        if isinstance(e, dict) and e.get("op") == "create"
        and isinstance(e.get("blob"), str)
    ]


def _digest_of(rec: _Record, snap: Snapshot) -> str:
    """The digest to record for ``snap``, just written as ``rec``.

    A full record's manifest key already is the snapshot digest.  A
    delta record's digest is hashed from the source snapshot itself,
    never derived from the delta being written: that independence is
    what lets ``checkout`` catch a delta codec that drops or garbles a
    change, such as a dropped create of an empty file.
    """
    return rec.obj if rec.parent is None else snapshot_digest(snap)


def _fetcher(repo: Repository | Callable[[Node], Snapshot]):
    """Normalize a Repository or callable into ``v -> Snapshot``."""
    if isinstance(repo, Repository):
        return lambda v: repo.commits[v].snapshot
    return repo


def materialize(
    repo: Repository | Callable[[Node], Snapshot],
    plan: StoragePlan,
    *,
    objects: ObjectStore | None = None,
) -> MaterializationStore:
    """Build a fresh store executing ``plan`` over ``repo``'s bytes."""
    store = MaterializationStore(objects)
    store.materialize(repo, plan)
    return store

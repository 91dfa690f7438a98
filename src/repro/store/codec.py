"""Canonical byte encodings for the content-addressed store.

Three object kinds exist, each hashed as ``sha256(kind || NUL ||
payload)`` so payloads of different kinds can never collide:

``blob``
    One file's raw content: every line followed by ``\\n`` — the exact
    byte layout :meth:`repro.vcs.repo.RepoCommit.total_bytes` counts,
    so stored-vs-raw byte comparisons are apples to apples.  Lines must
    be newline-free for the encoding to round-trip; the store rejects
    snapshots that are not, and loaded payloads that are not canonical
    (empty, or UTF-8 ending in ``\\n``).

``manifest``
    A full snapshot: canonical JSON mapping each path to its blob
    hash.  The manifest hash doubles as the *snapshot digest* — two
    snapshots have equal digests iff they are byte-identical — which is
    what ``checkout`` verifies before ever returning bytes.

``delta``
    One plan-tree edge: canonical JSON mapping each changed path to a
    ``delete`` / ``create`` / ``patch`` entry.  ``create`` entries
    reference the new file's *blob* (stored separately, so a file
    added on one branch deduplicates against every materialized
    snapshot containing it); ``patch`` entries inline the run-length
    Myers ops of :class:`repro.vcs.delta.DeltaScript`.

Canonical JSON means ``sort_keys=True`` + compact separators: the same
logical object always serializes to the same bytes, which is what makes
"object-for-object equal to materializing from scratch" a meaningful
migration invariant.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

from ..vcs.delta import DeltaOp, DeltaScript, compute_delta
from ..vcs.repo import Snapshot

__all__ = [
    "StoreError",
    "hash_object",
    "blob_bytes",
    "blob_lines",
    "encode_manifest",
    "decode_manifest",
    "snapshot_digest",
    "encode_delta",
    "decode_delta",
    "apply_delta",
]


class StoreError(Exception):
    """Any materialization-store failure: bad plans, corrupt or missing
    objects, digest mismatches, unsatisfiable checkouts.

    ``code`` carries the stable fsck finding code when the failure maps
    to one (see :data:`repro.store.store.FSCK_CODES`); ``fsck`` uses it
    to classify chain-walk failures without parsing messages.
    """

    def __init__(self, message: str, *, code: str | None = None) -> None:
        super().__init__(message)
        self.code = code


def hash_object(kind: str, payload: bytes) -> str:
    """Type-tagged sha256 key of ``payload`` (hex)."""
    h = hashlib.sha256()
    h.update(kind.encode())
    h.update(b"\0")
    h.update(payload)
    return h.hexdigest()


def _canonical_json(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ----------------------------------------------------------------------
# blobs
# ----------------------------------------------------------------------
def blob_bytes(lines: tuple[str, ...]) -> bytes:
    """One file's canonical content bytes (newline-terminated lines)."""
    if not lines:
        return b""
    text = "\n".join(lines)
    if text.count("\n") != len(lines) - 1:
        raise StoreError("blob lines must be newline-free to round-trip")
    return (text + "\n").encode()


def blob_lines(data: bytes) -> tuple[str, ...]:
    """Inverse of :func:`blob_bytes`; rejects non-canonical payloads.

    A canonical blob is empty or UTF-8 ending in ``\\n``, exactly the
    payloads :func:`blob_bytes` can produce.  Any other payload would
    decode to lines that re-encode to different bytes, so the blob's
    key would no longer vouch for the lines returned: it raises
    :class:`StoreError` with code ``object-corrupt`` instead.
    """
    if not data:
        return ()
    if not data.endswith(b"\n"):
        raise StoreError("blob is not newline-terminated", code="object-corrupt")
    try:
        text = data.decode()
    except UnicodeDecodeError as err:
        raise StoreError(f"blob is not UTF-8: {err}", code="object-corrupt") from None
    return tuple(text[:-1].split("\n"))


# ----------------------------------------------------------------------
# manifests / digests
# ----------------------------------------------------------------------
def encode_manifest(blob_hashes: dict[str, str]) -> bytes:
    """Canonical manifest payload from a ``path -> blob hash`` map."""
    return _canonical_json({"files": blob_hashes})


def decode_manifest(payload: bytes) -> dict[str, str]:
    """``path -> blob hash`` map of a manifest payload."""
    return dict(json.loads(payload.decode())["files"])


def snapshot_digest(snapshot: Snapshot) -> str:
    """The manifest hash a snapshot *would* have — its byte identity.

    Computable without storing anything by re-hashing every line.  The
    store records it for delta records at write time, and tests use it
    as the oracle for the digest ``checkout`` derives from its carried
    ``path -> blob hash`` map.
    """
    blob_hashes = {
        path: hash_object("blob", blob_bytes(tuple(lines)))
        for path, lines in snapshot.items()
    }
    return hash_object("manifest", encode_manifest(blob_hashes))


# ----------------------------------------------------------------------
# deltas
# ----------------------------------------------------------------------
def encode_delta(
    base: Snapshot, target: Snapshot, *, blob_hash_of: Callable[[str], str]
) -> bytes:
    """Canonical delta payload transforming ``base`` into ``target``.

    ``blob_hash_of(path)`` supplies the blob hash for paths the delta
    *creates* — the caller stores those blobs alongside the delta so
    creation payloads deduplicate against materialized snapshots.
    """
    entries: dict[str, object] = {}
    for path in sorted(set(base) | set(target)):
        # Presence decides create/delete before content is compared:
        # an empty file appearing or vanishing has old == new == (), and
        # a content-first check would silently drop the change.
        if path not in target:
            entries[path] = {"op": "delete"}
        elif path not in base:
            entries[path] = {"op": "create", "blob": blob_hash_of(path)}
        else:
            old = tuple(base[path])
            new = tuple(target[path])
            if old == new:
                continue
            script = compute_delta(list(old), list(new))
            ops: list[object] = []
            for op in script.ops:
                if op.kind == "insert":
                    ops.append(["insert", list(op.lines)])
                else:
                    ops.append([op.kind, op.count])
            entries[path] = {"op": "patch", "ops": ops}
    return _canonical_json({"files": entries})


def decode_delta(payload: bytes) -> dict[str, dict]:
    """``path -> entry`` map of a delta payload."""
    return dict(json.loads(payload.decode())["files"])


def apply_delta(
    base: Snapshot,
    hashes: dict[str, str],
    entries: dict[str, dict],
    *,
    load_blob: Callable[[str], bytes],
) -> tuple[Snapshot, dict[str, str]]:
    """Replay a decoded delta against ``base`` and its blob-hash map.

    ``hashes`` maps each path of ``base`` to the blob hash of its
    content; the returned pair is the target snapshot and its map, so
    the target's digest is one manifest hash away.  A ``delete`` drops
    the path, a ``create`` takes the entry's blob hash (``load_blob``
    resolves it to payload bytes verified against that hash), and a
    ``patch`` re-hashes the one file it rewrites; every other path
    keeps its hash from the base.  Raises :class:`StoreError` on
    malformed entries or patch scripts that do not fit the base (the
    corruption surface ``fsck`` reports as ``delta-apply-failed``).
    """
    out: Snapshot = dict(base)
    out_hashes = dict(hashes)
    # one handler per record: a well-hashed entry can still be misshapen
    # or name a path its base lacks (KeyError)
    try:
        for path, entry in entries.items():
            op = entry.get("op")
            if op == "delete":
                del out[path]
                del out_hashes[path]
            elif op == "create":
                out[path] = blob_lines(load_blob(entry["blob"]))
                out_hashes[path] = entry["blob"]
            elif op == "patch":
                ops = []
                for item in entry["ops"]:
                    kind = item[0]
                    if kind == "insert":
                        ops.append(DeltaOp("insert", lines=tuple(item[1])))
                    elif kind in ("keep", "delete"):
                        ops.append(DeltaOp(kind, count=int(item[1])))
                    else:
                        raise StoreError(
                            f"unknown patch op {kind!r}", code="delta-apply-failed"
                        )
                # a script that does not fit the base raises ValueError
                lines = tuple(DeltaScript(tuple(ops)).apply(list(out[path])))
                out[path] = lines
                out_hashes[path] = hash_object("blob", blob_bytes(lines))
            else:
                raise StoreError(
                    f"unknown delta entry op {op!r}", code="delta-apply-failed"
                )
    except (TypeError, AttributeError, KeyError, IndexError, ValueError) as err:
        raise StoreError(
            f"delta entry for {path!r} does not apply to its base: {err!r}",
            code="delta-apply-failed",
        ) from err
    return out, out_hashes

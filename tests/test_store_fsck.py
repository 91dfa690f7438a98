"""Fault injection against the store's integrity checker.

Each corruption class — flipped byte, truncated object, deleted object,
stray object, tampered digest, broken tree — must be detected by
``fsck`` under its stable finding code, and ``checkout`` through the
damaged chain must raise a clean :class:`StoreError` (never return
wrong bytes).
"""

import json

import pytest

from repro.algorithms.registry import get_solver
from repro.store import FSCK_CODES, StoreError, materialize
from repro.store.codec import (
    decode_delta,
    decode_manifest,
    encode_manifest,
    hash_object,
)


@pytest.fixture()
def store_and_repo(repo_factory, graph_factory, storage_budget):
    """A freshly materialized in-memory store over a 40-commit repo."""
    repo = repo_factory(40, seed=3)
    graph = graph_factory(40, seed=3)
    plan = get_solver("msr", "lmg")(graph, storage_budget(graph))
    assert plan is not None
    return materialize(repo, plan), repo


def classify_keys(store):
    """``(manifest_keys, delta_keys, blob_keys_of_root)`` by version kind."""
    manifests, deltas = [], []
    root_blobs = []
    for v in store.versions:
        rec = store._records[v]
        if store.is_materialized(v):
            manifests.append((v, rec.obj))
            if not root_blobs:
                manifest = decode_manifest(store.objects.get(rec.obj))
                root_blobs = [(v, bh) for bh in manifest.values()]
        else:
            deltas.append((v, rec.obj))
    assert manifests and deltas and root_blobs
    return manifests, deltas, root_blobs


def delta_descendant(store, v):
    """Some version whose checkout chain passes through ``v``."""
    for w in store.versions:
        u = w
        while u is not None:
            if u == v:
                return w
            u = store._records[u].parent
    raise AssertionError(f"no chain passes through {v!r}")


def codes(findings):
    return {f.code for f in findings}


def test_clean_store_has_no_findings(store_and_repo):
    store, _ = store_and_repo
    assert store.fsck() == []


def test_all_finding_codes_are_stable(store_and_repo):
    """Every code fsck can emit is in the published FSCK_CODES set."""
    store, _ = store_and_repo
    manifests, deltas, root_blobs = classify_keys(store)
    # inflict every corruption class at once
    _, blob_key = root_blobs[0]
    data = store.objects.get(blob_key)
    store.objects.poke(blob_key, bytes([data[0] ^ 0xFF]) + data[1:])
    store.objects.delete(deltas[0][1])
    store.objects.poke("0" * 64, b"stray")
    findings = store.fsck()
    assert findings
    assert codes(findings) <= set(FSCK_CODES)


def test_flipped_byte_in_blob_detected(store_and_repo):
    store, _ = store_and_repo
    _, _, root_blobs = classify_keys(store)
    root, blob_key = root_blobs[0]
    data = store.objects.get(blob_key)
    store.objects.poke(blob_key, bytes([data[0] ^ 0xFF]) + data[1:])

    findings = store.fsck()
    assert any(
        f.code == "object-corrupt" and f.subject == blob_key for f in findings
    )
    with pytest.raises(StoreError) as exc:
        store.checkout(root)
    assert exc.value.code == "object-corrupt"


def test_truncated_delta_detected(store_and_repo):
    store, _ = store_and_repo
    _, deltas, _ = classify_keys(store)
    v, delta_key = deltas[0]
    data = store.objects.get(delta_key)
    store.objects.poke(delta_key, data[: len(data) // 2])

    findings = store.fsck()
    assert any(
        f.code == "object-corrupt" and f.subject == delta_key for f in findings
    )
    with pytest.raises(StoreError) as exc:
        store.checkout(delta_descendant(store, v))
    assert exc.value.code == "object-corrupt"


def test_truncated_manifest_detected(store_and_repo):
    store, _ = store_and_repo
    manifests, _, _ = classify_keys(store)
    v, manifest_key = manifests[0]
    data = store.objects.get(manifest_key)
    store.objects.poke(manifest_key, data[:-3])

    assert any(
        f.code == "object-corrupt" and f.subject == manifest_key
        for f in store.fsck()
    )
    with pytest.raises(StoreError) as exc:
        store.checkout(v)
    assert exc.value.code == "object-corrupt"


def test_deleted_delta_detected(store_and_repo):
    store, _ = store_and_repo
    _, deltas, _ = classify_keys(store)
    v, delta_key = deltas[0]
    store.objects.delete(delta_key)

    findings = store.fsck()
    assert any(
        f.code == "object-missing" and f.subject == delta_key for f in findings
    )
    with pytest.raises(StoreError) as exc:
        store.checkout(delta_descendant(store, v))
    assert exc.value.code == "object-missing"


def test_deleted_blob_detected(store_and_repo):
    store, _ = store_and_repo
    _, _, root_blobs = classify_keys(store)
    root, blob_key = root_blobs[0]
    store.objects.delete(blob_key)

    findings = store.fsck()
    assert any(
        f.code == "object-missing" and f.subject == blob_key for f in findings
    )
    with pytest.raises(StoreError) as exc:
        store.checkout(root)
    assert exc.value.code == "object-missing"


def test_stray_object_detected(store_and_repo):
    store, _ = store_and_repo
    store.objects.poke("f" * 64, b"not part of any record")
    findings = store.fsck()
    assert any(
        f.code == "object-unreferenced" and f.subject == "f" * 64
        for f in findings
    )


def test_tampered_digest_detected(store_and_repo):
    store, _ = store_and_repo
    v = store.versions[0]
    store._digests[v] = "0" * 64
    findings = store.fsck()
    assert any(f.code == "digest-mismatch" for f in findings)
    with pytest.raises(StoreError) as exc:
        store.checkout(v)
    assert exc.value.code == "digest-mismatch"


def test_dangling_parent_detected(store_and_repo):
    store, _ = store_and_repo
    _, deltas, _ = classify_keys(store)
    v, _ = deltas[0]
    rec = store._records[v]
    store._records[v] = type(rec)(10**9, rec.kind, rec.obj)
    assert any(f.code == "tree-structure" for f in store.fsck())


def test_corruption_never_returns_wrong_bytes(store_and_repo):
    """Every version either checks out byte-identically or raises."""
    store, repo = store_and_repo
    _, deltas, _ = classify_keys(store)
    v, delta_key = deltas[len(deltas) // 2]
    data = store.objects.get(delta_key)
    store.objects.poke(delta_key, data[: len(data) - 1])

    snapshots = {c.id: c.snapshot for c in repo.commits}
    for w in store.versions:
        try:
            snap = store.checkout(w)
        except StoreError as err:
            assert err.code in FSCK_CODES
        else:
            assert snap == snapshots[w]


def test_noncanonical_blob_under_its_true_key_detected(store_and_repo):
    """A blob without its trailing newline, stored under its true key
    and referenced by a re-keyed manifest whose digest is recorded.

    Every object hashes to its key and the recorded digest matches the
    manifest, but the blob decodes to lines that re-encode to different
    bytes; only the canonical-blob rule stands between it and checkout.
    """
    store, _ = store_and_repo
    manifests, _, _ = classify_keys(store)
    v, manifest_key = manifests[0]
    files = decode_manifest(store.objects.get(manifest_key))
    path = next(p for p, bh in files.items() if len(store.objects.get(bh)) > 1)
    bad = store.objects.get(files[path])[:-1]
    files[path] = hash_object("blob", bad)
    store.objects.poke(files[path], bad)
    payload = encode_manifest(files)
    key = hash_object("manifest", payload)
    store.objects.poke(key, payload)
    store._records[v] = type(store._records[v])(None, "full", key)
    store._digests[v] = key

    with pytest.raises(StoreError) as exc:
        store.checkout(v)
    assert exc.value.code == "object-corrupt"
    assert any(
        f.code == "object-corrupt" and f.subject == repr(v) for f in store.fsck()
    )


def test_rekeyed_wrong_patch_raises_digest_mismatch(store_and_repo):
    """A delta re-keyed after one patch was changed to still fit its
    base: every object hashes to its key, only the digest gate fails."""
    store, _ = store_and_repo
    _, deltas, _ = classify_keys(store)
    for v, delta_key in deltas:
        entries = decode_delta(store.objects.get(delta_key))
        patched = [p for p, e in entries.items() if e["op"] == "patch"]
        if patched:
            break
    else:
        raise AssertionError("no stored delta patches a file")
    entries[patched[0]]["ops"].append(["insert", ["a line nobody wrote"]])
    payload = json.dumps(
        {"files": entries}, sort_keys=True, separators=(",", ":")
    ).encode()
    key = hash_object("delta", payload)
    store.objects.poke(key, payload)
    rec = store._records[v]
    store._records[v] = type(rec)(rec.parent, rec.kind, key)

    with pytest.raises(StoreError) as exc:
        store.checkout(v)
    assert exc.value.code == "digest-mismatch"
    assert any(
        f.code == "digest-mismatch" and f.subject == repr(v) for f in store.fsck()
    )


def _malform_patch_op(entries, path):
    entries[path]["ops"].append(["insert", [7]])


def _malform_entry_type(entries, path):
    entries[path] = ["patch"]


def _malform_create_without_blob(entries, path):
    entries[path] = {"op": "create"}


def _malform_delete_absent_path(entries, path):
    entries["no/such/file"] = {"op": "delete"}


def _malform_patch_absent_path(entries, path):
    entries["no/such/file"] = entries.pop(path)


@pytest.mark.parametrize(
    "malform",
    [
        _malform_patch_op,
        _malform_entry_type,
        _malform_create_without_blob,
        _malform_delete_absent_path,
        _malform_patch_absent_path,
    ],
    ids=[
        "non-str-insert-line",
        "entry-not-a-dict",
        "create-without-blob",
        "delete-absent-path",
        "patch-absent-path",
    ],
)
def test_rekeyed_malformed_delta_is_delta_apply_failed(store_and_repo, malform):
    """A delta re-keyed after one entry was given the wrong shape or a
    path its base lacks: the object hashes to its key, but replaying it
    fails, which must surface as ``delta-apply-failed``, never as a
    crash."""
    store, _ = store_and_repo
    _, deltas, _ = classify_keys(store)
    for v, delta_key in deltas:
        entries = decode_delta(store.objects.get(delta_key))
        patched = [p for p, e in entries.items() if e["op"] == "patch"]
        if patched:
            break
    else:
        raise AssertionError("no stored delta patches a file")
    malform(entries, patched[0])
    payload = json.dumps(
        {"files": entries}, sort_keys=True, separators=(",", ":")
    ).encode()
    key = hash_object("delta", payload)
    store.objects.poke(key, payload)
    rec = store._records[v]
    store._records[v] = type(rec)(rec.parent, rec.kind, key)

    with pytest.raises(StoreError) as exc:
        store.checkout(v)
    assert exc.value.code == "delta-apply-failed"
    assert any(
        f.code == "delta-apply-failed" and f.subject == repr(v)
        for f in store.fsck()
    )

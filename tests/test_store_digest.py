"""Checkout's incremental digest against the full re-hash oracle.

``checkout`` carries a ``path -> blob hash`` map down the replay chain
and gates its return on one manifest hash over that map.  The oracle is
:func:`~repro.store.codec.snapshot_digest`, which re-encodes and
re-hashes every line of the repository's own snapshot.  Over several
seeded histories — with empty files created, deleted and truncated
between versions — every map checkout verifies must equal the oracle's
map, its manifest hash must equal the oracle digest, and every checkout
must return the repository's bytes, at every cache size and in shuffled
order.
"""

import random

import pytest

from repro.algorithms.registry import get_solver
from repro.store import MaterializationStore, snapshot_digest
from repro.store.codec import blob_bytes, encode_manifest, hash_object
from repro.vcs import build_graph_from_repo, random_repository
from repro.vcs.repo import RepoCommit, Repository

from helpers import storage_span_budget

SEEDS = (0, 5, 11, 23)
EMPTY_PATHS = ("empty_0.txt", "empty_1.txt", "empty_2.txt")


def with_empty_files(repo, seed):
    """``repo``'s history with empty files sprinkled over its commits.

    Each commit keeps its parents; its snapshot gains some of
    ``EMPTY_PATHS`` as zero-line files, and sometimes one of its files
    is truncated to zero lines, so plan edges create, delete and patch
    empty files.
    """
    rng = random.Random(seed)
    out = Repository()
    for c in repo.commits:
        snap = dict(c.snapshot)
        for path in EMPTY_PATHS:
            if rng.random() < 0.3:
                snap[path] = ()
        if rng.random() < 0.1:
            snap[rng.choice(sorted(snap))] = ()
        out.commits.append(RepoCommit(c.id, c.parents, snap, c.message))
    return out


def blob_map(snap):
    """The oracle ``path -> blob hash`` map of a snapshot."""
    return {p: hash_object("blob", blob_bytes(tuple(ls))) for p, ls in snap.items()}


@pytest.fixture(scope="module", params=SEEDS)
def history(request):
    seed = request.param
    repo = with_empty_files(random_repository(60, seed=seed), seed)
    graph = build_graph_from_repo(repo)
    plan = get_solver("msr", "lmg")(graph, storage_span_budget(graph, 2.0))
    assert plan is not None
    return seed, repo, plan


def test_history_moves_empty_files(history):
    """The plans store edges that create and delete empty files."""
    _, repo, plan = history
    snaps = {c.id: c.snapshot for c in repo.commits}
    created = deleted = 0
    for u, v in plan.stored_deltas:
        created += sum(1 for p in snaps[v] if p not in snaps[u] and not snaps[v][p])
        deleted += sum(1 for p in snaps[u] if p not in snaps[v] and not snaps[u][p])
    assert created and deleted


@pytest.mark.parametrize("slots", [0, 4, 64])
def test_carried_map_matches_full_rehash(history, slots, monkeypatch):
    seed, repo, plan = history
    snaps = {c.id: c.snapshot for c in repo.commits}
    store = MaterializationStore(checkout_cache=slots)
    store.materialize(repo, plan)
    for v in store.versions:
        assert store.digest(v) == snapshot_digest(snaps[v])

    verified = []
    matches = store._matches

    def spy(v, hashes):
        verified.append((v, dict(hashes)))
        return matches(v, hashes)

    monkeypatch.setattr(store, "_matches", spy)
    order = [c.id for c in repo.commits] * 2
    random.Random(seed + slots).shuffle(order)
    for v in order:
        assert store.checkout(v) == snaps[v], f"version {v} differs"

    # a version is served from cache only after its map was verified
    assert {v for v, _ in verified} == set(snaps)
    for v, hashes in verified:
        assert hashes == blob_map(snaps[v])
        manifest = hash_object("manifest", encode_manifest(hashes))
        assert manifest == snapshot_digest(snaps[v])
    assert store.fsck() == []

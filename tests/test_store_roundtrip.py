"""Byte-identity roundtrips through the materialization store.

The acceptance bar for the store executor: for seeded random
repositories solved under BOTH problem families (MSR storage budget,
BMR retrieval budget) and BOTH solver backends (dict reference, array
kernels), materializing the plan and checking out EVERY version must
reproduce the committed snapshot byte-for-byte, and the store must
never hold more bytes than the sum of raw snapshots (dedup engaged).
"""

import pytest

from repro.algorithms.registry import get_solver
from repro.store import (
    MaterializationStore,
    materialize,
    plan_parent_map,
    snapshot_digest,
)

SOLVER = {"msr": "lmg", "bmr": "mp-local"}

#: The fast leg: one instance per (problem, backend) cell.
FAST_CASES = [
    ("msr", "dict", 40, 3),
    ("msr", "array", 40, 3),
    ("bmr", "dict", 40, 3),
    ("bmr", "array", 40, 3),
]

#: The heavy matrix: more commits, more seeds, branchier histories.
SLOW_CASES = [
    (problem, backend, commits, seed)
    for problem in ("msr", "bmr")
    for backend in ("dict", "array")
    for commits, seed in ((60, 0), (80, 7))
]


def solve_plan(graph, problem, backend, budget_fn):
    """A feasible plan for ``graph`` under ``problem`` via ``backend``."""
    plan = get_solver(problem, SOLVER[problem], backend=backend)(
        graph, budget_fn(graph)
    )
    assert plan is not None, "budget helper produced an infeasible budget"
    return plan


def budget_for(problem, storage_budget, retrieval_budget):
    return storage_budget if problem == "msr" else retrieval_budget


def assert_roundtrip(repo, plan):
    """Materialize ``plan`` and verify every version byte-identically."""
    store = materialize(repo, plan)
    raw_bytes = sum(c.total_bytes() for c in repo.commits)
    for commit in repo.commits:
        snap = store.checkout(commit.id)
        assert snap == commit.snapshot, f"version {commit.id} differs"
        # dict equality on dict[str, tuple[str, ...]] IS byte identity:
        # the blob codec encodes exactly these lines joined by newlines
        assert snapshot_digest(snap) == store.digest(commit.id)
    assert store.total_bytes() <= raw_bytes, (
        f"store holds {store.total_bytes()} bytes > "
        f"{raw_bytes} raw snapshot bytes"
    )
    assert store.fsck() == []
    return store


@pytest.mark.parametrize("problem,backend,commits,seed", FAST_CASES)
def test_roundtrip_fast(
    problem,
    backend,
    commits,
    seed,
    repo_factory,
    graph_factory,
    storage_budget,
    retrieval_budget,
):
    repo = repo_factory(commits, seed=seed)
    graph = graph_factory(commits, seed=seed)
    budget_fn = budget_for(problem, storage_budget, retrieval_budget)
    plan = solve_plan(graph, problem, backend, budget_fn)
    assert_roundtrip(repo, plan)


@pytest.mark.slow
@pytest.mark.parametrize("problem,backend,commits,seed", SLOW_CASES)
def test_roundtrip_matrix(
    problem,
    backend,
    commits,
    seed,
    repo_factory,
    graph_factory,
    storage_budget,
    retrieval_budget,
):
    repo = repo_factory(commits, seed=seed, branch_prob=0.25, merge_prob=0.1)
    graph = graph_factory(commits, seed=seed, branch_prob=0.25, merge_prob=0.1)
    budget_fn = budget_for(problem, storage_budget, retrieval_budget)
    plan = solve_plan(graph, problem, backend, budget_fn)
    assert_roundtrip(repo, plan)


def test_dict_and_array_materialize_identically(
    repo_factory, graph_factory, storage_budget
):
    """Plan-identical backends produce object-identical stores."""
    repo = repo_factory(40, seed=3)
    graph = graph_factory(40, seed=3)
    stores = {}
    for backend in ("dict", "array"):
        plan = solve_plan(graph, "msr", backend, storage_budget)
        stores[backend] = materialize(repo, plan)
    a, b = stores["dict"], stores["array"]
    assert a.edge_set() == b.edge_set()
    assert set(a.objects.keys()) == set(b.objects.keys())


def test_plan_structure_respected(repo_factory, graph_factory, storage_budget):
    """Materialized/delta split in the store mirrors the plan exactly."""
    repo = repo_factory(40, seed=3)
    graph = graph_factory(40, seed=3)
    plan = solve_plan(graph, "msr", "dict", storage_budget)
    store = materialize(repo, plan)
    parent = plan_parent_map(plan)
    for v, p in parent.items():
        assert store.is_materialized(v) == (p is None)
    assert store.edge_set() == {(p, v) for v, p in parent.items()}


def test_file_store_survives_reopen(
    tmp_path, repo_factory, graph_factory, storage_budget
):
    """A directory-backed store reopens byte-identically from disk."""
    repo = repo_factory(30, seed=5)
    graph = graph_factory(30, seed=5)
    plan = solve_plan(graph, "msr", "dict", storage_budget)
    store = MaterializationStore.open(tmp_path)
    store.materialize(repo, plan)

    reopened = MaterializationStore.open(tmp_path)
    for commit in repo.commits:
        assert reopened.checkout(commit.id) == commit.snapshot
    assert reopened.fsck() == []


def test_empty_file_transitions_roundtrip():
    """Empty files appearing/vanishing must survive the delta codec.

    Regression: content-first change detection saw ``() == ()`` for a
    create or delete of a zero-line file and silently dropped the entry,
    leaving every descendant checkout with a digest mismatch.
    """
    from repro.core.solution import StoragePlan
    from repro.vcs.repo import Repository

    repo = Repository()
    repo.commit({"a.txt": ("hello",)})                    # 0
    repo.commit({"a.txt": ("hello",), "empty.txt": ()})   # 1: create empty
    repo.commit({"a.txt": ("hello",)})                    # 2: delete empty
    repo.commit({"a.txt": ()})                            # 3: truncate to empty
    repo.commit({})                                       # 4: delete empty a.txt
    plan = StoragePlan.of([0], [(0, 1), (1, 2), (2, 3), (3, 4)])
    # no dedup assertion: codec overhead dominates a 47-byte micro-repo
    store = materialize(repo, plan)
    for commit in repo.commits:
        snap = store.checkout(commit.id)
        assert snap == commit.snapshot, f"version {commit.id} differs"
        assert snapshot_digest(snap) == store.digest(commit.id)
    assert store.fsck() == []


def test_encode_delta_records_empty_file_presence_changes():
    """The delta codec keys create/delete on presence, not content."""
    from repro.store.codec import decode_delta, encode_delta

    base = {"gone.txt": (), "keep.txt": ("x",)}
    target = {"keep.txt": ("x",), "new.txt": ()}
    payload = encode_delta(base, target, blob_hash_of=lambda p: "B")
    assert decode_delta(payload) == {
        "gone.txt": {"op": "delete"},
        "new.txt": {"op": "create", "blob": "B"},
    }


def test_blob_codec_round_trips_only_canonical_payloads():
    """``blob_lines`` inverts ``blob_bytes`` and rejects everything else.

    A payload that is not empty and newline-terminated UTF-8 would decode
    to lines whose encoding differs from the payload, so its key would
    not vouch for them.
    """
    from repro.store import StoreError
    from repro.store.codec import blob_bytes, blob_lines

    for lines in [(), ("",), ("a",), ("a", "", "b"), ("", ""), ("\u00fc x",)]:
        data = blob_bytes(lines)
        assert data == b"".join(line.encode() + b"\n" for line in lines)
        assert blob_lines(data) == lines
    with pytest.raises(StoreError):
        blob_bytes(("a\nb",))
    for bad in (b"a", b"a\nb", b"\n\n\xff", b"\xff\n"):
        with pytest.raises(StoreError) as exc:
            blob_lines(bad)
        assert exc.value.code == "object-corrupt"


def test_file_store_put_is_atomic_and_self_healing(tmp_path, monkeypatch):
    """A crash mid-put never plants a truncated object at its key."""
    import os

    from repro.store.objects import FileObjectStore

    store = FileObjectStore(tmp_path)
    key = "ab" + "c" * 62
    real_replace = os.replace
    monkeypatch.setattr(
        os, "replace", lambda *a: (_ for _ in ()).throw(OSError("crash"))
    )
    with pytest.raises(OSError):
        store.put(key, b"payload")
    monkeypatch.setattr(os, "replace", real_replace)

    # the failed write left nothing behind: no object, no visible keys,
    # and a retry of the same content succeeds (put is not frozen out
    # by a half-written file at the final path)
    assert store.get(key) is None
    assert list(store.keys()) == []
    assert store.put(key, b"payload") is True
    assert store.get(key) == b"payload"

    # orphaned temp files (crash between write and replace) are
    # invisible to keys()/fsck rather than read back as stray objects
    (tmp_path / "objects" / "ab" / ".tmp-orphan").write_bytes(b"junk")
    assert list(store.keys()) == [key]


def test_checkout_unknown_version_raises(
    repo_factory, graph_factory, storage_budget
):
    from repro.store import StoreError

    repo = repo_factory(30, seed=5)
    graph = graph_factory(30, seed=5)
    plan = solve_plan(graph, "msr", "dict", storage_budget)
    store = materialize(repo, plan)
    with pytest.raises(StoreError):
        store.checkout(10**9)


def test_engine_attached_store_stays_current(
    repo_factory, graph_factory, storage_budget
):
    """An attached store mirrors the engine's plan after every sync."""
    from repro.engine import IngestEngine
    from repro.store import MaterializationStore

    repo = repo_factory(60, seed=3)
    graph = graph_factory(60, seed=3)
    budget = storage_budget(graph)
    engine = IngestEngine(budget=budget, staleness_threshold=0.1)
    store = MaterializationStore()
    engine.attach_store(store, repo)
    for _ in engine.ingest_repository(repo):
        pass
    engine.resolve()

    plan = engine.plan()
    assert store.edge_set() == {
        (p, v) for v, p in plan_parent_map(plan).items()
    }
    for commit in repo.commits:
        assert store.checkout(commit.id) == commit.snapshot
    assert store.fsck() == []
    scratch = materialize(repo, plan)
    assert set(store.objects.keys()) == set(scratch.objects.keys())

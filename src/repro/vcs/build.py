"""Repository -> version graph (the paper's Section-7.1 pipeline).

"Each commit corresponds to a node with its storage cost equal to its
size in bytes.  Between each pair of parent and child commits, we
construct bidirectional edges.  The storage and retrieval costs of the
edges are calculated, in bytes, based on the actions required to change
one version to the other in the direction of the edge."

Delta costs come from :mod:`repro.vcs.delta` (Myers diff): for the edge
``u -> v`` we diff every file of ``u`` against ``v`` (including file
additions/removals), sum the script byte sizes, and use that as both
storage and retrieval cost — the single-weight-function regime of
``simple diff`` (optionally scaled by ``retrieval_ratio``).

Both directions of a parent/child edge pair come from **one** Myers
trace per file (:func:`snapshot_delta_bytes_pair`): the reverse edit
script of a shortest ``a -> b`` script — inserts and deletes swapped,
insert payloads drawn from the lines the forward script deletes — is
itself a *shortest* ``b -> a`` script with the same run structure, so
its byte size is a legitimate shortest-edit-script cost at half the
diff work.  When a file pair admits several LCS alignments (duplicated
or reordered lines), an independent second Myers run may pick a
different alignment with different insert payloads, so the two-run and
single-trace byte costs can legitimately differ on such inputs; on the
edit histories this package generates (fresh random lines per edit) the
alignment is unambiguous and ``tests/test_vcs_edges.py`` pins byte-cost
equality against the two-run path, alongside a pinned divergence
example for the ambiguous case.
"""

from __future__ import annotations

from .delta import OP_HEADER_BYTES, compute_delta, insert_payload_bytes
from .repo import RepoCommit, Repository, Snapshot
from ..core.graph import VersionGraph

__all__ = [
    "snapshot_delta_bytes",
    "snapshot_delta_bytes_pair",
    "commit_deltas",
    "build_graph_from_repo",
]

_FILE_HEADER = 8  # per-file delta header (path table entry)


def snapshot_delta_bytes(a: Snapshot, b: Snapshot) -> int:
    """Byte size of the delta transforming snapshot ``a`` into ``b``."""
    total = 0
    paths = set(a) | set(b)
    for path in sorted(paths):
        la = list(a.get(path, ()))
        lb = list(b.get(path, ()))
        if la == lb:
            continue
        total += _FILE_HEADER + len(path.encode())
        if not lb:
            continue  # deletion: header only
        script = compute_delta(la, lb)
        total += script.byte_size()
    return max(total, 1)


def snapshot_delta_bytes_pair(a: Snapshot, b: Snapshot) -> tuple[int, int]:
    """Byte sizes ``(a -> b, b -> a)`` from one Myers trace per file.

    The reverse direction's size is derived from the forward script —
    keep runs keep their header, delete runs become inserts carrying
    the deleted ``a`` lines, insert runs become header-only deletes —
    which is a shortest ``b -> a`` script with the same run count.
    Matches ``(snapshot_delta_bytes(a, b), snapshot_delta_bytes(b, a))``
    whenever the LCS alignment is unambiguous; with duplicated or
    reordered lines the independent reverse Myers run may keep a
    different (byte-wise cheaper or dearer) line set, in which case the
    two contracts diverge — both are valid shortest-edit-script costs
    (see the module docstring).
    """
    fwd = bwd = 0
    paths = set(a) | set(b)
    for path in sorted(paths):
        la = list(a.get(path, ()))
        lb = list(b.get(path, ()))
        if la == lb:
            continue
        hdr = _FILE_HEADER + len(path.encode())
        fwd += hdr
        bwd += hdr
        if not lb:
            # forward deletes the file (header only); the reverse
            # re-creates it with a single insert run
            bwd += OP_HEADER_BYTES + insert_payload_bytes(la)
            continue
        if not la:
            fwd += OP_HEADER_BYTES + insert_payload_bytes(lb)
            continue  # reverse deletes the file: header only
        script = compute_delta(la, lb)
        fwd += script.byte_size()
        pos = 0  # cursor into ``la`` to recover deleted-run payloads
        for op in script.ops:
            bwd += OP_HEADER_BYTES
            if op.kind == "keep":
                pos += op.count
            elif op.kind == "delete":
                bwd += insert_payload_bytes(la[pos : pos + op.count])
                pos += op.count
    return max(fwd, 1), max(bwd, 1)


def commit_deltas(
    repo: Repository, commit: RepoCommit, retrieval_ratio: float = 1.0
) -> list[tuple[int, int, float, float]]:
    """``commit``'s ``(u, v, storage, retrieval)`` deltas to its parents.

    Per parent ``p``: ``(p, c, fwd, fwd * ratio)`` then ``(c, p, bwd,
    bwd * ratio)`` from one :func:`snapshot_delta_bytes_pair` call — the
    one edge order that batch builds and online ingest share.
    """
    c = commit.id
    out = []
    for p in commit.parents:
        fwd, bwd = snapshot_delta_bytes_pair(repo.commits[p].snapshot, commit.snapshot)
        out.append((p, c, float(fwd), float(fwd) * retrieval_ratio))
        out.append((c, p, float(bwd), float(bwd) * retrieval_ratio))
    return out


def build_graph_from_repo(
    repo: Repository, *, retrieval_ratio: float = 1.0, name: str = "repo"
) -> VersionGraph:
    """Natural version graph of ``repo`` with byte-accurate diff costs."""
    g = VersionGraph(name=name)
    for c in repo.commits:
        g.add_version(c.id, float(c.total_bytes()))
    for c in repo.commits:
        for u, v, s, r in commit_deltas(repo, c, retrieval_ratio):
            g.add_delta(u, v, s, r)
    return g

"""The four pipeline workloads.

Each workload is a class whose constructor takes its sizes as plain
arguments and a fixed number of ``instances``.  ``run.py`` drives it:

1. ``make_input(seed)`` generates one instance from a seed derived from
   ``--seed``, once per run and before any clock starts;
2. ``setup(inp)`` is timed as one set-up sample and returns the state.
   It leaves ``inp`` as it found it, because every round reuses it;
3. ``ops(state)`` yields ``(call, verify)`` pairs.  ``call()`` is timed
   as one operation; ``verify(result)``, when given, runs after the
   clock stops and returns False on wrong output.  An operation that
   raises or fails ``verify`` counts as failed;
4. ``check(state)`` runs untimed after the measured phase and returns a
   :class:`Quality`: the final plan's costs and any correctness failures.

Every workload is one client in a closed loop with no threads: the next
operation starts when the previous one has returned.  Calls go through
module attributes (``solvers.lmg_array``, not a name imported here), so
the wrappers that ``trace.py`` installs see them.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

from repro.core.graph import VersionGraph
from repro.core.tolerance import within_budget, within_budget_recomputed
from repro.engine import IngestEngine, ShardRouter
from repro.fastgraph import arborescence, solvers, trajectory
from repro.fastgraph.plantree import ArrayPlanTree
from repro.gen.presets import PRESETS
from repro.store import MaterializationStore
from repro.vcs import build as vcs_build
from repro.vcs.repo import random_repository

BUDGET_FACTOR = 4.0  # online budget = factor x the engine's lower bound
SWEEP_FACTORS = (1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0)  # x S0; 2.0 = the LMG plan
RETIRE_EVERY = 9  # router-churn: one retirement per nine arrivals


@dataclass
class Quality:
    """Costs of a workload's final plan, plus correctness failures."""

    retrieval: float  # total retrieval cost of the plan
    versions: int  # live versions the plan covers
    stored: float  # bytes in the store, or the plan's storage cost
    raw: float  # raw bytes of the live snapshots, or total version cost
    failures: list[str] = field(default_factory=list)


def _store_counters(store: MaterializationStore) -> dict[str, float]:
    ops = store.ops
    return {
        "store.bytes_written": ops.bytes_written,
        "store.objects_written": ops.objects_written,
        "store.objects_deleted": ops.objects_deleted,
    }


def _is_snapshot(repo, v, snapshot) -> bool:
    return snapshot == repo.commits[v].snapshot


def _start_storage(cg) -> float:
    """S0: storage of the minimum-storage arborescence."""
    return ArrayPlanTree(cg, arborescence.min_storage_parent_edges(cg)).total_storage


# ----------------------------------------------------------------------
# solve-996: the offline planners on a synthetic 996.ICU graph
# ----------------------------------------------------------------------
class Solve996:
    """Plan a 996.ICU-like history with every greedy planner."""

    name = "solve-996"

    def __init__(self, versions: int = 500, instances: int = 12) -> None:
        self.versions = versions
        self.instances = instances

    def make_input(self, seed: int) -> VersionGraph:
        preset = dataclasses.replace(PRESETS["996.ICU"], seed=seed)
        return preset.build(scale=self.versions / preset.n_commits)

    def setup(self, graph: VersionGraph):
        graph = graph.copy()  # compile() caches on the graph it compiles
        return SimpleNamespace(graph=graph, cg=graph.compile())

    def ops(self, st):
        yield partial(self._start, st), None
        yield partial(self._lmg, st), None
        yield partial(self._lmg_all, st), None
        yield partial(self._bmr, st), None
        yield partial(self._sweep, st), None

    @staticmethod
    def _start(st) -> None:
        st.s0 = _start_storage(st.cg)

    @staticmethod
    def _lmg(st) -> None:
        st.lmg = solvers.lmg_array(st.cg, 2 * st.s0)

    @staticmethod
    def _lmg_all(st) -> None:
        st.lmg_all = solvers.lmg_all_array(st.cg, 2 * st.s0)

    @staticmethod
    def _bmr(st) -> None:
        st.bmr_budget = 2 * float(st.cg.edge_retrieval.max())
        st.bmr = solvers.bmr_lmg_array(st.cg, st.bmr_budget)

    @staticmethod
    def _sweep(st) -> None:
        budgets = [f * st.s0 for f in SWEEP_FACTORS]
        st.sweep = trajectory.sweep_greedy(st.cg, "msr", "lmg", budgets)

    def check(self, st) -> Quality:
        budget = 2 * st.s0
        failures = []
        for label, tree in (("lmg", st.lmg), ("lmg-all", st.lmg_all)):
            if not within_budget(tree.total_storage, budget):
                failures.append(f"{label} storage {tree.total_storage} over {budget}")
        if not within_budget(st.bmr.max_retrieval(), st.bmr_budget):
            failures.append(f"bmr-lmg max retrieval over {st.bmr_budget}")
        for entry in st.sweep:
            if not entry.feasible or not within_budget_recomputed(
                entry.score.storage, entry.budget
            ):
                failures.append(f"sweep entry at {entry.budget} infeasible")
        if st.sweep[SWEEP_FACTORS.index(2.0)].plan != st.lmg.to_plan():
            failures.append("LMG plan differs from the sweep's entry at 2*S0")
        g = st.graph
        return Quality(
            retrieval=st.lmg.total_retrieval,
            versions=g.num_versions,
            stored=st.lmg.total_storage,
            raw=sum(g.storage_cost(v) for v in g.versions),
            failures=failures,
        )

    def counters(self, st) -> dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# repo-batch: diff, plan, materialize, then cold shuffled reads
# ----------------------------------------------------------------------
class RepoBatch:
    """Build, plan and materialize a repository; read it back shuffled.

    Everything up to a readable store is set-up, so that the timed
    operations are the checkouts alone.
    """

    name = "repo-batch"

    def __init__(self, commits: int = 150, instances: int = 48) -> None:
        self.commits = commits
        self.instances = instances

    def make_input(self, seed: int):
        order = list(range(self.commits))
        random.Random(seed).shuffle(order)
        return SimpleNamespace(repo=random_repository(self.commits, seed=seed),
                               order=order)

    def setup(self, inp):
        st = SimpleNamespace(repo=inp.repo, order=inp.order)
        st.graph = vcs_build.build_graph_from_repo(inp.repo)
        st.cg = st.graph.compile()
        st.s0 = _start_storage(st.cg)
        st.tree = solvers.lmg_array(st.cg, 2 * st.s0)
        st.store = MaterializationStore()
        st.store.materialize(inp.repo, st.tree.to_plan())
        return st

    def ops(self, st):
        for v in st.order:
            yield partial(st.store.checkout, v), partial(_is_snapshot, st.repo, v)

    def check(self, st) -> Quality:
        failures = []
        if not within_budget(st.tree.total_storage, 2 * st.s0):
            failures.append(f"plan storage {st.tree.total_storage} over {2 * st.s0}")
        failures += [f"fsck {f.code}: {f.detail}" for f in st.store.fsck()]
        return Quality(
            retrieval=st.tree.total_retrieval,
            versions=len(st.repo.commits),
            stored=st.store.total_bytes(),
            raw=sum(c.total_bytes() for c in st.repo.commits),
            failures=failures,
        )

    def counters(self, st) -> dict[str, float]:
        return _store_counters(st.store)


# ----------------------------------------------------------------------
# online-mixed: commits and checkouts against one engine-attached store
# ----------------------------------------------------------------------
class OnlineMixed:
    """Alternate a commit and a checkout on an engine-backed store."""

    name = "online-mixed"

    RECENT_SHARE = 0.8  # reads near the head; the rest uniform
    RECENT_MEAN_BACK = 8  # mean distance of a recent read from the head

    def __init__(self, commits: int = 80, warmup: int = 40,
                 instances: int = 28) -> None:
        self.commits = commits
        self.warmup = warmup
        self.instances = instances

    def make_input(self, seed: int):
        repo = random_repository(self.commits, seed=seed)
        while not self._warmup_feasible(repo):
            seed += 1
            repo = random_repository(self.commits, seed=seed)
        rng = random.Random(seed)
        p = 1.0 / (self.RECENT_MEAN_BACK + 1)  # geometric on {0, 1, ...}
        steps = []
        for head in range(self.warmup, self.commits):
            if rng.random() < self.RECENT_SHARE:
                back = int(math.log(1.0 - rng.random()) / math.log(1.0 - p))
                v = max(0, head - back)
            else:
                v = rng.randint(0, head)
            steps.append((head, v))
        return SimpleNamespace(repo=repo, steps=steps)

    def _warmup_feasible(self, repo) -> bool:
        """False when the budget policy has no feasible plan during warm-up.

        ``budget_factor`` x the online lower bound can fall below the
        minimum storage on a history of a few commits, for example after
        early commits delete most files; the engine then raises
        ``ValueError``.  Such a repository is replaced by the next seed's.
        """
        engine = IngestEngine(problem="msr", budget_factor=BUDGET_FACTOR)
        try:
            for commit in repo.commits[: self.warmup]:
                engine.ingest_commit(repo, commit)
        except ValueError:
            return False
        return True

    def setup(self, inp):
        repo = inp.repo
        engine = IngestEngine(problem="msr", budget_factor=BUDGET_FACTOR)
        store = MaterializationStore()
        engine.attach_store(store, repo)
        for commit in repo.commits[: self.warmup]:
            engine.ingest_commit(repo, commit)
        return SimpleNamespace(repo=repo, steps=inp.steps, engine=engine,
                               store=store)

    def ops(self, st):
        for head, v in st.steps:
            yield (partial(self._commit_then_read, st, head, v),
                   partial(_is_snapshot, st.repo, v))

    @staticmethod
    def _commit_then_read(st, head: int, v: int):
        st.engine.ingest_commit(st.repo, st.repo.commits[head])
        return st.store.checkout(v)

    def check(self, st) -> Quality:
        engine, store = st.engine, st.store
        quality = Quality(
            retrieval=engine.tree.total_retrieval,
            versions=engine.graph.num_versions,
            stored=store.total_bytes(),
            raw=sum(c.total_bytes() for c in st.repo.commits),
        )
        engine.resolve()
        fresh = solvers.lmg_array(engine.graph.copy().compile(),
                                  engine.current_budget())
        if engine.plan() != fresh.to_plan():
            quality.failures.append("re-solved plan differs from a fresh LMG solve")
        quality.failures += [f"fsck {f.code}: {f.detail}" for f in store.fsck()]
        return quality

    def counters(self, st) -> dict[str, float]:
        return {**_store_counters(st.store), "engine.resolves": st.engine.resolves}


# ----------------------------------------------------------------------
# router-churn: pure-repair arrivals and retirements through the router
# ----------------------------------------------------------------------
def tenant_stream(rng: random.Random, tenant: int, arrivals: int) -> list[tuple]:
    """One tenant's ``("add", v, storage, deltas)`` / ``("retire", v)`` ops.

    Each arrival carries up to three deltas (both directions) to earlier
    live versions of the same tenant; one live version retires per
    :data:`RETIRE_EVERY` arrivals.  Kept here rather than imported from the
    shard benchmark script so the inputs cannot change under this
    benchmark.
    """
    ops: list[tuple] = []
    live: list[str] = []
    for i in range(arrivals):
        v = f"w{tenant}.{i}"
        deltas = []
        for u in rng.sample(live, min(3, len(live))):
            s = float(rng.randint(5, 60))
            deltas.append((u, v, s, s * 1.5))
            deltas.append((v, u, s * 0.6, s * 0.9))
        ops.append(("add", v, float(rng.randint(80, 160)), deltas))
        live.append(v)
        if i % RETIRE_EVERY == RETIRE_EVERY - 1 and len(live) > 4:
            ops.append(("retire", live.pop(rng.randrange(len(live)))))
    return ops


def tenant_of(v: str) -> int:
    """``"w2.17" -> 2``: each tenant's versions route to one shard."""
    return int(v[1 : v.index(".")])


class RouterChurn:
    """Four tenants' interleaved arrivals and retirements, pure repair."""

    name = "router-churn"

    TENANTS = 4
    SETUP_SHARE = 0.1  # the first 10% of ops are set-up

    def __init__(self, arrivals: int = 1200, instances: int = 8) -> None:
        self.arrivals = arrivals  # per tenant
        self.instances = instances

    def make_input(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        streams = [tenant_stream(rng, t, self.arrivals) for t in range(self.TENANTS)]
        # round-robin, like four steady writers seen from the router
        return [s[i] for i in range(max(map(len, streams))) for s in streams
                if i < len(s)]

    def setup(self, stream):
        router = ShardRouter(self.TENANTS, budget_factor=BUDGET_FACTOR,
                             staleness_threshold=math.inf, shard_key=tenant_of)
        cut = int(len(stream) * self.SETUP_SHARE)
        for op in stream[:cut]:
            _route(router, op)
        return SimpleNamespace(router=router, rest=stream[cut:])

    def ops(self, st):
        for op in st.rest:
            yield partial(_route, st.router, op), None

    def check(self, st) -> Quality:
        shards = st.router.shards
        failures = [f"shard {i} plan infeasible"
                    for i, s in enumerate(shards) if not s.plan().is_feasible(s.graph)]
        return Quality(
            retrieval=sum(s.tree.total_retrieval for s in shards),
            versions=sum(s.graph.num_versions for s in shards),
            stored=sum(s.tree.total_storage for s in shards),
            raw=sum(s.graph.storage_cost(v) for s in shards for v in s.graph.versions),
            failures=failures,
        )

    def counters(self, st) -> dict[str, float]:
        return {"engine.resolves": sum(s.resolves for s in st.router.shards)}


def _route(router: ShardRouter, op: tuple) -> None:
    if op[0] == "add":
        router.ingest_version(op[1], op[2], op[3])
    else:
        router.retire_version(op[1])

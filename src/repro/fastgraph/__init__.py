"""fastgraph — index-compiled graphs and flat-array solver kernels.

The dict-of-dicts :class:`~repro.core.graph.VersionGraph` is the right
structure for construction and correctness work, but the greedy solver
family (LMG, LMG-All, MP) evaluates millions of candidate moves per run
and Python dict lookups keyed by arbitrary hashables dominate profiles
long before algorithmic cost does.  This subsystem compiles a graph once
into flat NumPy arrays and reruns the greedy hot loops on top of them:

:class:`CompiledGraph`
    Node→int interning plus CSR-style arrays: per-edge source /
    destination / storage / retrieval vectors in deterministic edge
    insertion order, and indptr/indices adjacency for both directions.
    Obtained via :meth:`repro.core.graph.VersionGraph.compile`, which
    caches the result (budget sweeps reuse one compiled graph across
    every budget probe).  Append mutations — new versions, new deltas —
    *extend* the cached arrays in place through the mutation-event API
    (elementwise-equal to a fresh compile; the online ingest engine
    rides on this), removals are tombstoned, and cost updates invalidate.

:class:`ArrayPlanTree`
    The flat-array counterpart of :class:`~repro.core.solution.PlanTree`
    with the same O(1) swap-evaluation contract (cached retrieval costs
    and subtree sizes), swap application by *edge id*, and exports back
    to :class:`~repro.core.solution.StoragePlan` / ``PlanTree``.

:func:`lmg_array` / :func:`lmg_all_array` / :func:`mp_array` /
:func:`bmr_lmg_array` / :func:`mp_local_array`
    Greedy kernels that vectorize the per-round candidate scan — the
    MSR family plus the BMR local-move family (storage minimization
    under a max-retrieval budget).  They are **plan-identical** to the
    dict reference implementations — same iteration order, same IEEE
    arithmetic, same tie-breaking — which is enforced by the
    equivalence suites in ``tests/test_fastgraph.py`` /
    ``tests/test_bmr_greedy.py`` across every ``repro.gen.presets``
    dataset.

:func:`sweep_greedy`
    ``sweep_greedy(graph, problem, solver, budgets)``: single-pass
    budget-grid sweeps for the greedy families of **both** problem
    specs via trajectory replay
    (:mod:`repro.fastgraph.trajectory`): one recorded solver run at the
    loosest budget emits plan-identical results for the entire grid;
    diverged grid points are grouped into bands that share the nearest
    looser neighbor's recorded live continuation instead of each
    re-running the kernel.

Backend selection is plumbed through the solver registry: the plain
names (``solver="lmg"``) resolve to the array kernels automatically,
while ``get_solver("msr", "lmg", backend="dict")`` keeps the reference
path.  See :mod:`repro.algorithms.registry`.
"""

from .compiled import CompiledGraph
from .plantree import ArrayPlanTree
from .solvers import bmr_lmg_array, lmg_all_array, lmg_array, mp_array, mp_local_array
from .trajectory import TRAJECTORY_SOLVERS, SweepEntry, sweep_greedy

__all__ = [
    "CompiledGraph",
    "ArrayPlanTree",
    "lmg_array",
    "lmg_all_array",
    "mp_array",
    "bmr_lmg_array",
    "mp_local_array",
    "SweepEntry",
    "sweep_greedy",
    "TRAJECTORY_SOLVERS",
]

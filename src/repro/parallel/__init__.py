"""Process-based scatter/gather substrate for sweeps and tree DPs,
plus the single-slot background runner the ingest engine re-solves on."""

from .background import BackgroundResolver
from .dp_parallel import dp_msr_frontier_parallel
from .pool import default_workers, parallel_map
from .sweep import SweepPoint, sweep

__all__ = [
    "parallel_map",
    "default_workers",
    "BackgroundResolver",
    "SweepPoint",
    "sweep",
    "dp_msr_frontier_parallel",
]

"""Bench-regression comparator behind ``repro-versioning bench-check``.

Compares a *candidate* benchmark payload (a fresh ``BENCH_*.json``, e.g.
a CI smoke run) against a *committed baseline* and fails when a tracked
metric regresses beyond a noise margin.  Tracked metrics are recognized
structurally, so every bench payload gets gating without a per-file
schema:

* **speedup ratios** — top-level numeric keys ending in ``_speedup``
  (plus ``min_speedup``).  These are scale-free (kernel A vs kernel B on
  the *same* machine and input), which is what makes them comparable
  across CI runners where absolute wall-clock seconds are not; absolute
  timings are deliberately *not* tracked.  Higher is better: the
  candidate must reach ``baseline * (1 - margin)``.
* **gate booleans** — top-level ``True`` baseline values (plan-identity
  flags like ``all_plans_identical``, feasibility flags, ``sweep_never_
  slower``).  A ``True → False`` transition is always a regression, no
  margin applies.  Baselines that are already ``False`` gate nothing.
* **work counters** — top-level integer keys ending in ``_rounds``
  (e.g. ``edmonds_rounds``).  Counts depend only on the input, not on
  the machine, so they get no margin: any candidate above the baseline
  is a regression.  Lower is better.

A tracked metric that is missing (or ``null``) in the candidate is a
*structural* failure — the bench stopped reporting something the gate
watches — and is reported distinctly from a regression.  So is a
``NaN`` or ``-inf`` candidate ratio (``+inf`` is a legal improvement).

Exit codes (pinned by ``tests/test_bench_check.py`` and relied on by
CI):

* ``0`` — all tracked metrics within margin (improvements included);
* ``1`` — at least one regression;
* ``2`` — bad input: unreadable/illegal JSON, no baseline for a
  candidate, a non-finite baseline ratio, or a tracked metric missing
  from the candidate.

The default margin is **0.5** (speedups only): a tracked speedup may lose up to half
its baseline value before the gate trips.  That is deliberately loose —
shared CI runners routinely halve a ratio through noisy neighbors — so
the gate catches order-of-magnitude collapses ("the sweep silently
re-solved every budget") rather than jitter.  See
``docs/benchmarks.md`` for the workflow.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "MetricDiff",
    "compare_payloads",
    "format_report",
    "main",
]

#: Default relative noise margin for speedup metrics.
DEFAULT_MARGIN = 0.5


@dataclass(frozen=True)
class MetricDiff:
    """Outcome of one tracked metric comparison."""

    key: str
    baseline: object
    candidate: object
    #: one of ``ok`` / ``improved`` / ``regression`` / ``missing``
    status: str


def _is_speedup_key(key: str) -> bool:
    return key.endswith("_speedup") or key == "min_speedup"


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def tracked_metrics(baseline: dict) -> dict[str, object]:
    """The metrics of ``baseline`` that the gate watches (see module
    docstring): non-null top-level speedup ratios, True booleans and
    integer ``*_rounds`` counters."""
    out: dict[str, object] = {}
    for key, value in baseline.items():
        if _is_speedup_key(key) and isinstance(value, (int, float)):
            if not math.isfinite(value):
                raise ValueError(f"baseline {key} is {value}: ratios must be finite")
            out[key] = float(value)
        elif key.endswith("_rounds") and _is_count(value):
            out[key] = value
        elif value is True:
            out[key] = True
    return out


def compare_payloads(
    baseline: dict, candidate: dict, *, margin: float = DEFAULT_MARGIN
) -> list[MetricDiff]:
    """Compare the tracked metrics of two bench payloads.

    Returns one :class:`MetricDiff` per tracked metric, in baseline key
    order.  ``margin`` is the relative slack for speedup ratios; gate
    booleans and work counters are exact.
    """
    diffs: list[MetricDiff] = []
    for key, base in tracked_metrics(baseline).items():
        cand = candidate.get(key)
        if base is True:
            if cand is True:
                status = "ok"
            elif cand is None:
                status = "missing"
            else:
                status = "regression"
            diffs.append(MetricDiff(key, True, cand, status))
            continue
        if _is_count(base):
            if not _is_count(cand):
                status = "missing"
            elif cand > base:
                status = "regression"
            elif cand < base:
                status = "improved"
            else:
                status = "ok"
            diffs.append(MetricDiff(key, base, cand, status))
            continue
        if not isinstance(cand, (int, float)) or isinstance(cand, bool):
            diffs.append(MetricDiff(key, base, cand, "missing"))
            continue
        cand = float(cand)
        if math.isnan(cand) or cand == -math.inf:
            diffs.append(MetricDiff(key, base, cand, "missing"))
            continue
        floor = base * (1.0 - margin)
        if cand < floor:
            status = "regression"
        elif cand > base:
            status = "improved"
        else:
            status = "ok"
        diffs.append(MetricDiff(key, base, cand, status))
    return diffs


def format_report(
    name: str, diffs: list[MetricDiff], *, margin: float = DEFAULT_MARGIN
) -> str:
    """Human-readable comparison table for one payload pair."""
    lines = [f"{name}: {len(diffs)} tracked metric(s), margin {margin:g}"]
    if not diffs:
        lines.append("  (nothing tracked in the baseline)")
    for d in diffs:
        if d.baseline is True:
            detail = f"{d.baseline} -> {d.candidate}"
        elif _is_count(d.baseline):
            detail = f"{d.baseline} -> {d.candidate!r} (ceiling {d.baseline})"
        elif isinstance(d.candidate, float):
            floor = float(d.baseline) * (1.0 - margin)  # type: ignore[arg-type]
            detail = (
                f"{d.baseline:.3g} -> {d.candidate:.3g} (floor {floor:.3g})"
            )
        else:
            detail = f"{d.baseline:.3g} -> {d.candidate!r}"
        tag = {"regression": "REGRESSION", "missing": "MISSING"}.get(
            d.status, d.status
        )
        lines.append(f"  {tag:>10}  {d.key}: {detail}")
    return "\n".join(lines)


def _load(path: Path) -> dict:
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: bench payload must be a JSON object")
    return payload


def check_pair(
    baseline_path: Path, candidate_path: Path, *, margin: float
) -> tuple[int, str]:
    """Compare one candidate against its baseline.

    Returns ``(exit code, report text)`` with the code contract of the
    module docstring.
    """
    try:
        baseline = _load(baseline_path)
        candidate = _load(candidate_path)
        diffs = compare_payloads(baseline, candidate, margin=margin)
    except (OSError, ValueError) as err:
        return 2, f"error: {err}"
    report = format_report(candidate_path.name, diffs, margin=margin)
    statuses = {d.status for d in diffs}
    if "missing" in statuses:
        return 2, report
    if "regression" in statuses:
        return 1, report
    return 0, report


def main(argv: list[str] | None = None) -> int:
    """``repro-versioning bench-check`` entry point.

    Candidates are matched to baselines by file name inside
    ``--baseline-dir`` (default ``benchmarks/baselines``), or compared
    against an explicit ``--baseline`` file when given (single
    candidate only).  The worst per-pair exit code wins: missing/bad
    input (2) over regression (1) over clean (0).
    """
    parser = argparse.ArgumentParser(
        prog="repro-versioning bench-check",
        description="Fail when a bench payload regresses against its "
        "committed baseline (see docs/benchmarks.md).",
    )
    parser.add_argument("candidates", nargs="+", help="fresh BENCH_*.json files")
    parser.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="directory of committed baselines, matched by file name "
        "(default benchmarks/baselines)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="explicit baseline file (exactly one candidate required)",
    )
    parser.add_argument(
        "--margin",
        type=float,
        default=DEFAULT_MARGIN,
        help=f"relative noise margin for speedup ratios "
        f"(default {DEFAULT_MARGIN})",
    )
    args = parser.parse_args(argv)
    if args.baseline is not None and len(args.candidates) != 1:
        print("error: --baseline takes exactly one candidate", file=sys.stderr)
        return 2

    worst = 0
    for cand in args.candidates:
        cand_path = Path(cand)
        if args.baseline is not None:
            base_path = Path(args.baseline)
        else:
            base_path = Path(args.baseline_dir) / cand_path.name
        if not base_path.exists():
            print(f"error: no baseline {base_path} for {cand_path}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        code, report = check_pair(base_path, cand_path, margin=args.margin)
        print(report)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Sample summaries, provenance, the calibration probe and ``--compare``."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A run has a handful of units: the quartiles are the highest
#: percentiles the samples support (choosing-metrics, section 1).
PERCENTILE_NOTE = "too few samples per run for any percentile above the quartiles"


def summary(
    samples: Sequence[float], unit: str, better: str, undisturbed: bool = False
) -> Dict[str, Any]:
    """Median, quartiles, range and count of one metric's samples.

    ``value`` is what the run reports for the metric: the median, or with
    ``undisturbed`` the quartile on the metric's better side.  Per-unit
    timings use the latter: on a shared, virtualised host disturbances are
    one-sided (page-fault storms, stolen CPU), so the better quartile
    repeats from run to run where the median does not (spread of ten runs:
    0.06 against 0.08 on ``haystack``, 0.11 against 0.14 on ``wide-roster``).
    """
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "unit": unit,
        "better": better,
        "value": median if not undisturbed else q1 if better == "lower" else q3,
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "samples": values,
    }


def calibrate() -> float:
    """Seconds for a fixed numpy sort plus a fixed pure-Python loop.

    Taken before and after each workload: a slow or noisy host then shows
    next to the numbers instead of being read as a regression.
    """
    data = np.random.default_rng(0).random(1_000_000)
    start = time.perf_counter()
    np.sort(data)
    total = 0
    for i in range(1_500_000):
        total += i * i
    return time.perf_counter() - start


def _git(root: os.PathLike, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_provenance(root: os.PathLike) -> Dict[str, Any]:
    """Where and on what a document was measured."""
    status = _git(root, "status", "--porcelain")
    return {
        "git_commit": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def _workload_docs(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Accept a whole-benchmark document or a single workload's."""
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def _spread(stat: Dict[str, Any]) -> float:
    return (stat["q3"] - stat["q1"]) / abs(stat["median"])


def verdict(base: Dict[str, Any], new: Dict[str, Any], better: str, bound: float) -> str:
    """One of ``better`` / ``within-bound`` / ``worse`` / ``unresolved``.

    The rule is the metric's ``bound`` from BENCHMARK.json and nothing
    else: a median worse (or better) than the base's by more than the
    bound is reported as such, unless the run-to-run spread is wider than
    the bound and the two interquartile ranges overlap — then the runs
    cannot tell, and the pairing is ``unresolved``.
    """
    change = (new["value"] - base["value"]) / abs(base["value"])
    worsening = change if better == "lower" else -change
    if abs(worsening) <= bound:
        return "within-bound"
    noisy = max(_spread(base), _spread(new)) > bound
    overlap = base["q1"] <= new["q3"] and new["q1"] <= base["q3"]
    if noisy and overlap:
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def compare(
    base_doc: Dict[str, Any], new_doc: Dict[str, Any], end_to_end: List[Dict[str, Any]]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Rows of workload x end-to-end metric, and whether any is ``worse``."""
    base_by, new_by = _workload_docs(base_doc), _workload_docs(new_doc)
    rows: List[Dict[str, Any]] = []
    for name in base_by:
        if name not in new_by:
            continue
        for metric in end_to_end:
            base = base_by[name]["end_to_end"][metric["name"]]
            new = new_by[name]["end_to_end"][metric["name"]]
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "base": base["value"],
                    "new": new["value"],
                    "ratio_new_over_base": new["value"] / base["value"],
                    "bound": metric["bound"],
                    "verdict": verdict(base, new, metric["better"], metric["bound"]),
                }
            )
        failed_base = base_by[name]["failed"]
        failed_new = new_by[name]["failed"]
        rows.append(
            {
                "workload": name,
                "metric": "failed",
                "unit": "count",
                "base": failed_base,
                "new": failed_new,
                "ratio_new_over_base": None,
                "bound": 0,
                "verdict": "worse" if failed_new > failed_base else "within-bound",
            }
        )
    return rows, any(row["verdict"] == "worse" for row in rows)


def render_compare(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<15} {'base':>12} {'new':>12} {'new/base':>9}  verdict"
    ]
    for row in rows:
        ratio = row["ratio_new_over_base"]
        ratio_text = "-" if ratio is None else f"{ratio:.3f}"
        lines.append(
            f"{row['workload']:<14} {row['metric']:<15} {row['base']:>12.4f} "
            f"{row['new']:>12.4f} {ratio_text:>9}  {row['verdict']}"
        )
    return "\n".join(lines)

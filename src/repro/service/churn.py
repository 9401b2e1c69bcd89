"""Epoch-over-epoch churn analytics over archived results documents.

Two granularities, both computed purely from the serialized results of
two committed runs (no live census objects needed, so ``history`` and
the manifest's ``churn`` block work straight off the archive):

* **target level** — /24s appearing/disappearing from the responsive
  set, anycast<->unicast flips, and replica births/deaths summed over
  per-target replica-count deltas;
* **AS level** — the deployment diff of
  :func:`repro.census.longitudinal.compare_epochs` (grown / shrunk /
  footprint-only motion / appeared / disappeared) of each document's
  per-AS section.

A third, orthogonal axis is the *measuring* side:
:func:`roster_churn` diffs the analyzed vantage-point rosters of two
runs (join / leave / survive) — the denominator of the service's
roster-churn-tolerant incremental recompute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable

from ..census.longitudinal import ASRows, LongitudinalReport, compare_epochs


@dataclass
class ChurnSummary:
    """What changed between two committed epochs."""

    epoch_before: int
    epoch_after: int
    n_targets_before: int
    n_targets_after: int
    #: /24s that (stopped) replying between the epochs.
    targets_appeared: int
    targets_disappeared: int
    #: Common targets whose anycast verdict flipped.
    flips_to_anycast: int
    flips_to_unicast: int
    #: Replica-count motion: per-target positive deltas summed (births)
    #: and negative deltas summed (deaths); replicas of targets entering
    #: or leaving the responsive set count as births resp. deaths.
    replica_births: int
    replica_deaths: int
    #: Deployment-level diff (``compare_epochs`` category -> AS count).
    ases: Dict[str, int] = field(default_factory=dict)

    def to_doc(self) -> Dict[str, Any]:
        """The manifest's ``churn`` block (canonical-JSON friendly)."""
        return {
            "epoch_before": self.epoch_before,
            "epoch_after": self.epoch_after,
            "targets": {
                "before": self.n_targets_before,
                "after": self.n_targets_after,
                "appeared": self.targets_appeared,
                "disappeared": self.targets_disappeared,
            },
            "flips": {
                "to_anycast": self.flips_to_anycast,
                "to_unicast": self.flips_to_unicast,
            },
            "replicas": {
                "births": self.replica_births,
                "deaths": self.replica_deaths,
            },
            "ases": dict(self.ases),
        }

    def summary_lines(self) -> list:
        """Human-readable rendering for the CLI's ``history`` verb."""
        return [
            f"epoch {self.epoch_before} -> {self.epoch_after}: "
            f"{self.n_targets_before} -> {self.n_targets_after} targets "
            f"(+{self.targets_appeared}/-{self.targets_disappeared})",
            f"  flips: {self.flips_to_anycast} to anycast, "
            f"{self.flips_to_unicast} to unicast",
            f"  replicas: +{self.replica_births} born, "
            f"-{self.replica_deaths} died",
            "  ASes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.ases.items())),
        ]


def roster_churn(
    before_names: Iterable[str], after_names: Iterable[str]
) -> Dict[str, Any]:
    """Diff two analyzed VP rosters (e.g. from two run manifests).

    The ``roster`` block of the manifest's churn section: which vantage
    points joined, left, or survived between the epochs.  Surviving VPs
    are what keeps the incremental recompute warm — a target measured
    only by survivors keeps its signature across the roster change.
    """
    before = set(before_names)
    after = set(after_names)
    return {
        "joined": sorted(after - before),
        "left": sorted(before - after),
        "n_before": len(before),
        "n_after": len(after),
        "n_surviving": len(before & after),
    }


def _replicas_of(entry: Dict[str, Any]) -> int:
    return len(entry.get("replicas", ()))


def _as_rows(doc: Dict[str, Any]) -> ASRows:
    """A results document's ``ases`` section as :data:`ASRows`."""
    return {
        int(asn): (entry["name"], float(entry["mean_replicas"]), int(entry["n_ip24"]))
        for asn, entry in doc.get("ases", {}).items()
    }


def churn_between(
    before_doc: Dict[str, Any],
    after_doc: Dict[str, Any],
    min_delta: float = 1.0,
    min_ip24_delta: int = 1,
) -> ChurnSummary:
    """Diff two archived results documents into a :class:`ChurnSummary`.

    ``min_delta`` / ``min_ip24_delta`` are forwarded to
    :func:`~repro.census.longitudinal.compare_epochs` for the AS-level
    classification.
    """
    before = before_doc["targets"]
    after = after_doc["targets"]
    before_keys = set(before)
    after_keys = set(after)

    appeared = after_keys - before_keys
    disappeared = before_keys - after_keys
    flips_to_anycast = 0
    flips_to_unicast = 0
    births = 0
    deaths = 0
    for key in before_keys & after_keys:
        entry_before, entry_after = before[key], after[key]
        if entry_after is entry_before:
            continue  # an entry copied forward: no flip, no replica change
        was = bool(entry_before["anycast"])
        now = bool(entry_after["anycast"])
        if now and not was:
            flips_to_anycast += 1
        elif was and not now:
            flips_to_unicast += 1
        delta = _replicas_of(entry_after) - _replicas_of(entry_before)
        if delta > 0:
            births += delta
        else:
            deaths -= delta
    for key in appeared:
        births += _replicas_of(after[key])
    for key in disappeared:
        deaths += _replicas_of(before[key])

    report: LongitudinalReport = compare_epochs(
        _as_rows(before_doc),
        _as_rows(after_doc),
        min_delta=min_delta,
        min_ip24_delta=min_ip24_delta,
    )
    return ChurnSummary(
        epoch_before=int(before_doc["epoch"]),
        epoch_after=int(after_doc["epoch"]),
        n_targets_before=len(before),
        n_targets_after=len(after),
        targets_appeared=len(appeared),
        targets_disappeared=len(disappeared),
        flips_to_anycast=flips_to_anycast,
        flips_to_unicast=flips_to_unicast,
        replica_births=births,
        replica_deaths=deaths,
        ases={
            "grown": len(report.grown),
            "shrunk": len(report.shrunk),
            "stable": len(report.stable),
            "appeared": len(report.appeared),
            "disappeared": len(report.disappeared),
            "footprint_grown": len(report.footprint_grown),
            "footprint_shrunk": len(report.footprint_shrunk),
        },
    )

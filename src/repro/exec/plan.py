"""Deterministic work partitioning: (VP × target-shard) units.

A census is embarrassingly parallel across vantage points, and — when a
single VP scan is itself too big — across slices of the target space.
The unit of work is therefore ``(vantage point, target shard)``.  Three
properties make the partition safe to execute on an unreliable pool:

* **canonical ids** — unit ids enumerate ``pairs × shards`` in census
  order, so every run of the same census builds the identical plan;
* **keyed randomness** — the scan RNG of a unit is derived from
  ``(campaign seed, census, VP, shard)``, never from which worker ran
  it or when (see ``CensusCampaign._scan_vp``);
* **canonical merge** — per-VP results concatenate their shards in
  shard-index order, and the census concatenates VPs in census order,
  regardless of completion order.

With one shard per VP (the default) a unit is exactly one whole per-VP
scan, whichever process runs it — which is what makes pool output
byte-identical to the in-process (``workers=0``) run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..measurement.prober import VpScanResult
from ..measurement.recordio import concatenate


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of a census: a VP scanning one target shard."""

    unit_id: int
    vp_name: str
    #: Index of the VP within the full platform (drives catchments/RNG).
    platform_index: int
    #: Position of the VP within this census (the records' vp_index).
    census_vp_index: int
    #: Whether this VP is degraded for this census (overloaded host).
    degraded: bool
    shard_index: int
    n_shards: int


@dataclass(frozen=True)
class ShardPlan:
    """The full unit list of one census, in canonical order."""

    units: Tuple[WorkUnit, ...]
    n_shards: int

    def __len__(self) -> int:
        return len(self.units)

    def units_of(self, vp_name: str) -> List[WorkUnit]:
        return [u for u in self.units if u.vp_name == vp_name]

    @property
    def vp_names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for unit in self.units:
            seen.setdefault(unit.vp_name, None)
        return list(seen)


def build_plan(
    vps: Sequence[Tuple[str, int, int, bool]],
    n_shards: int = 1,
) -> ShardPlan:
    """Partition a census into its canonical work units.

    ``vps`` lists ``(vp_name, platform_index, census_vp_index, degraded)``
    in census order.
    Units are ordered VP-major, shard-minor; ids are their positions.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    units: List[WorkUnit] = []
    for vp_name, platform_index, census_vp_index, degraded in vps:
        for shard_index in range(n_shards):
            units.append(
                WorkUnit(
                    unit_id=len(units),
                    vp_name=vp_name,
                    platform_index=platform_index,
                    census_vp_index=census_vp_index,
                    degraded=bool(degraded),
                    shard_index=shard_index,
                    n_shards=n_shards,
                )
            )
    return ShardPlan(units=tuple(units), n_shards=n_shards)


def shard_target_mask(n_targets: int, shard_index: int, n_shards: int) -> np.ndarray:
    """Boolean mask of the targets belonging to one shard.

    Round-robin by target position: balanced to within one target and
    independent of blacklist state, so the shard geometry of a census
    never shifts as the blacklist grows.
    """
    if not 0 <= shard_index < n_shards:
        raise ValueError("shard_index out of range")
    return (np.arange(n_targets, dtype=np.int64) % n_shards) == shard_index


def merge_vp_shards(shards: Dict[int, VpScanResult]) -> VpScanResult:
    """Combine one VP's shard results into a single scan result.

    Shards concatenate in shard-index order — the canonical order — so
    the merged bytes are independent of completion order.  The summary
    fields recombine exactly: shard durations sum to the whole-scan
    duration (each is ``probes/rate × host_load``), and the drop rate is
    recomputed from the summed raw counts rather than averaged.
    """
    if not shards:
        raise ValueError("no shard results to merge")
    ordered = [shards[index] for index in sorted(shards)]
    if len(ordered) == 1:
        return ordered[0]
    records = concatenate(tuple(r.records for r in ordered))
    expected = sum(r.replies_expected for r in ordered)
    dropped = sum(r.replies_dropped for r in ordered)
    return VpScanResult(
        records=records,
        duration_hours=sum(r.duration_hours for r in ordered),
        drop_rate=dropped / max(expected, 1),
        probes_sent=sum(r.probes_sent for r in ordered),
        replies_expected=expected,
        replies_dropped=dropped,
    )

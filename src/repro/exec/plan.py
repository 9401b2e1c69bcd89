"""Deterministic work partitioning: one unit per vantage point.

A census is a set of independent per-host scans — every VP walks the
whole permuted hitlist and ships one batch home — so the unit of work is
one whole VP scan.  Two properties make the plan safe to execute on an
unreliable pool:

* **canonical ids** — a unit's id is its position in census order, so
  every run of the same census builds the identical plan;
* **keyed randomness** — a unit's scan RNG is derived from
  ``(campaign seed, census, VP)``, never from which worker ran it or
  when (see ``CensusCampaign.scan_vp``).

The caller assembles results in census order regardless of completion
order, so pool output is byte-identical to the in-process
(``workers=0``) run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of a census: one VP scanning the hitlist."""

    unit_id: int
    vp_name: str
    #: Index of the VP within the full platform (drives catchments/RNG).
    platform_index: int
    #: Position of the VP within this census (the records' vp_index).
    census_vp_index: int
    #: Whether this VP is degraded for this census (overloaded host).
    degraded: bool


def build_plan(
    vps: Sequence[Tuple[str, int, int, bool]],
) -> Tuple[WorkUnit, ...]:
    """A census's work units, in census order (unit id = position).

    ``vps`` lists ``(vp_name, platform_index, census_vp_index, degraded)``
    in census order.
    """
    return tuple(
        WorkUnit(
            unit_id=unit_id,
            vp_name=vp_name,
            platform_index=platform_index,
            census_vp_index=census_vp_index,
            degraded=bool(degraded),
        )
        for unit_id, (vp_name, platform_index, census_vp_index, degraded) in enumerate(vps)
    )

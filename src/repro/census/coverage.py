"""Hitlist coverage and responsiveness cross-checks (paper Sec. 3.1).

Before trusting a census, the paper validates its target list two ways:

* **coverage** — splitting the announced BGP prefixes (RIS + RouteViews)
  into /24s gives 10,616,435 prefixes, of which 10,615,563 have a hitlist
  representative: >99.99% coverage;
* **responsiveness** — the census captures 4.4M responsive /24s against
  the 4.9M used /24s estimated by independent ICMP scans [48]: ~90%.

:func:`coverage_report` reproduces both checks against the synthetic
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..internet.hitlist import Hitlist
from ..internet.topology import RESP_REPLY, SyntheticInternet
from ..measurement.campaign import Census


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of the Sec. 3.1 target-list sanity checks."""

    routed_slash24: int
    hitlist_entries: int
    #: Fraction of routed /24s with a hitlist representative (paper >99.99%).
    coverage: float
    #: /24s expected responsive from the ground truth ("used" space).
    expected_responsive: int
    #: /24s that actually produced an echo reply in the census.
    observed_responsive: int

    @property
    def responsiveness_recall(self) -> float:
        """Observed/expected responsive /24s (paper: ~90% vs [48])."""
        if self.expected_responsive == 0:
            return 1.0
        return self.observed_responsive / self.expected_responsive


def coverage_report(
    internet: SyntheticInternet,
    hitlist: Hitlist,
    census: Optional[Census] = None,
) -> CoverageReport:
    """Run the coverage and responsiveness cross-checks."""
    routed = [int(p) for p in internet.prefixes]
    coverage = hitlist.coverage_of(routed)
    expected = int((internet.responsiveness == RESP_REPLY).sum())
    observed = 0
    if census is not None:
        observed = len(np.unique(census.records.replies().prefix))
    return CoverageReport(
        routed_slash24=len(routed),
        hitlist_entries=len(hitlist),
        coverage=coverage,
        expected_responsive=expected,
        observed_responsive=observed,
    )

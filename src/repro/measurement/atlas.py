"""RIPE Atlas constraint model (paper Sec. 3.2).

The paper explains why RIPE Atlas — despite better geographic coverage —
could not host the census: "it has a limited control on the rate and type
of measurements, as well as their instantiation for such a large scale
campaign (i.e., upload of the hitlist, probing budget)".

Atlas meters usage in **credits**: one ping result costs ~1 credit per
probe, daily spending is capped per user, and a single measurement cannot
target millions of destinations.  This module encodes those constraints so
the infeasibility argument is executable rather than anecdotal.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AtlasBudget:
    """A RIPE-Atlas-like usage policy.

    Values follow the public Atlas defaults of the paper's era (order of
    magnitude is what matters for the argument).
    """

    #: Credits charged per ping result (one probe, one target).
    credits_per_ping: float = 1.0
    #: Maximum credits a user may spend per day.
    daily_credit_cap: float = 1_000_000.0
    #: Maximum concurrent targets of one measurement definition.
    max_targets_per_measurement: int = 1_000
    #: Maximum probes one measurement may request.
    max_probes_per_measurement: int = 1_000

    def __post_init__(self) -> None:
        if self.credits_per_ping <= 0 or self.daily_credit_cap <= 0:
            raise ValueError("credit parameters must be positive")
        if self.max_targets_per_measurement < 1 or self.max_probes_per_measurement < 1:
            raise ValueError("measurement caps must be positive")


@dataclass(frozen=True)
class CampaignCost:
    """Feasibility summary of a census-like campaign on Atlas."""

    total_pings: int
    total_credits: float
    days_at_daily_cap: float
    measurements_needed: int


def campaign_cost(
    n_targets: int,
    n_probes: int,
    budget: AtlasBudget = AtlasBudget(),
) -> CampaignCost:
    """Cost of probing ``n_targets`` from ``n_probes`` Atlas probes.

    An anycast census needs *every* probe to measure *every* target
    (Sec. 2.2: targets cannot be split across vantage points).
    """
    if n_targets < 1 or n_probes < 1:
        raise ValueError("targets and probes must be positive")
    total_pings = n_targets * n_probes
    total_credits = total_pings * budget.credits_per_ping
    days = total_credits / budget.daily_credit_cap
    import math

    measurements = math.ceil(n_targets / budget.max_targets_per_measurement) * math.ceil(
        n_probes / budget.max_probes_per_measurement
    )
    return CampaignCost(
        total_pings=total_pings,
        total_credits=total_credits,
        days_at_daily_cap=days,
        measurements_needed=measurements,
    )


def census_feasible(
    n_targets: int,
    n_probes: int,
    deadline_days: float,
    budget: AtlasBudget = AtlasBudget(),
) -> bool:
    """Can the campaign complete within ``deadline_days`` under the budget?

    The paper's census (6.6M targets x even a modest 100 probes) busts any
    realistic deadline; a follow-up campaign on the O(10^3) *detected*
    prefixes fits comfortably — which is exactly the division of labour
    Sec. 5 proposes (detect with PlanetLab, refine with Atlas).
    """
    if deadline_days <= 0:
        raise ValueError("deadline must be positive")
    return campaign_cost(n_targets, n_probes, budget).days_at_daily_cap <= deadline_days

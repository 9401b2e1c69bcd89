"""Anycast performance metrics: proximity, affinity, availability.

The paper's related work (Sec. 2.2) characterizes deployments through a
standard metric toolkit — proximity [9,10,19,34,43], affinity [9-11,13],
availability [10,32,43] — which the census substrate supports directly.
These metrics complement the census: the census says *where* replicas
are; these say *how well* the deployment serves clients.

* **proximity** — how much farther the serving replica is than the
  geographically nearest one (0 km = perfect geographic routing; BGP
  policy detours inflate it);
* **affinity** — stability of the client→replica mapping across repeated
  measurements (anycast breaks stateful protocols when routing flaps);
* **availability** — fraction of clients with a reachable replica at all
  (regionally-scoped announcements can strand remote clients on one
  faraway primary site).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..geo.coords import pairwise_distances_km
from ..internet.deployments import AnycastDeployment
from ..measurement.platform import Platform
from ..obs import current_tracer


@dataclass(frozen=True)
class ProximityReport:
    """Distribution of the proximity penalty over a client population."""

    #: Extra km to the serving replica vs the nearest one, per client.
    penalties_km: np.ndarray

    @property
    def optimal_fraction(self) -> float:
        """Clients served by their geographically nearest replica."""
        return float((self.penalties_km < 1.0).mean())

    @property
    def median_penalty_km(self) -> float:
        return float(np.median(self.penalties_km))


def proximity(
    deployment: AnycastDeployment,
    platform: Platform,
) -> ProximityReport:
    """Proximity of a deployment for a platform's client population."""
    with current_tracer().span("proximity", clients=len(platform)):
        lats, lons = platform.lats, platform.lons
        rep_lats = [r.location.lat for r in deployment.replicas]
        rep_lons = [r.location.lon for r in deployment.replicas]
        distances = pairwise_distances_km(lats, lons, rep_lats, rep_lons)
        serving = deployment.catchment(lats, lons)
        served_distance = distances[np.arange(len(lats)), serving]
        nearest_distance = distances.min(axis=1)
        return ProximityReport(penalties_km=served_distance - nearest_distance)


@dataclass(frozen=True)
class AffinityReport:
    """Catchment stability over repeated measurement rounds."""

    #: Per-client fraction of rounds that hit the modal replica.
    stability: np.ndarray

    @property
    def mean_affinity(self) -> float:
        return float(self.stability.mean())

    @property
    def flapping_fraction(self) -> float:
        """Clients whose serving replica changed at least once."""
        return float((self.stability < 1.0).mean())


def affinity(
    deployment: AnycastDeployment,
    platform: Platform,
    rounds: int = 10,
    flap_prob: float = 0.02,
    seed: int = 5,
) -> AffinityReport:
    """Affinity under occasional BGP path changes.

    The substrate's catchments are deterministic (BGP is stable on census
    timescales); ``flap_prob`` injects per-round route changes — a client
    flips to a uniformly random replica for that round — to measure how
    the metric degrades.  ``flap_prob=0`` gives perfect affinity.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if not 0.0 <= flap_prob <= 1.0:
        raise ValueError("flap_prob must be in [0, 1]")
    with current_tracer().span("affinity", rounds=rounds):
        rng = np.random.default_rng(seed)
        base = deployment.catchment(platform.lats, platform.lons)
        n = len(base)
        observed = np.tile(base, (rounds, 1))
        flips = rng.random((rounds, n)) < flap_prob
        random_sites = rng.integers(0, deployment.site_count, size=(rounds, n))
        observed = np.where(flips, random_sites, observed)

        stability = np.empty(n, dtype=np.float64)
        for i in range(n):
            values, counts = np.unique(observed[:, i], return_counts=True)
            stability[i] = counts.max() / rounds
        return AffinityReport(stability=stability)


def availability(
    deployment: AnycastDeployment,
    platform: Platform,
    max_distance_km: float = 20_000.0,
) -> float:
    """Fraction of clients with a reachable (in-scope) replica.

    With globally-announced sites this is 1.0 by construction; regionally
    scoped deployments can leave remote clients with only the (possibly
    distant) primary, and ``max_distance_km`` can be tightened to ask
    "what share of clients has a replica within X km".
    """
    if max_distance_km <= 0:
        raise ValueError("max_distance_km must be positive")
    with current_tracer().span("availability", clients=len(platform)):
        lats, lons = platform.lats, platform.lons
        rep_lats = [r.location.lat for r in deployment.replicas]
        rep_lons = [r.location.lon for r in deployment.replicas]
        distances = pairwise_distances_km(lats, lons, rep_lats, rep_lons)
        if deployment.local_scope_km is not None:
            out_of_scope = distances[:, 1:] > deployment.local_scope_km
            distances[:, 1:] = np.where(out_of_scope, np.inf, distances[:, 1:])
        reachable = (distances <= max_distance_km).any(axis=1)
        return float(reachable.mean())

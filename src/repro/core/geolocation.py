"""Replica geolocation: population-biased classification (Fig. 3d).

Each disk selected by the MIS contains exactly one (distinct) replica.
Within the disk, the replica is classified to a city by maximum likelihood
with a prior proportional to city population — the paper found the
population prior alone discriminates correctly in ~75% of cases, so the
classifier "boils down into picking the largest city in that disk".

This deliberately introduces the paper's one documented failure mode:
OpenDNS's Ashburn, VA replica is classified as Philadelphia, because
Philadelphia is ~33x more populous and both lie in the same disk.  The
``population_exponent`` knob exposes the bias strength for the ablation
benchmark (0 = ignore population, pick the city nearest the disk center).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geo.cities import City, CityDB
from ..geo.coords import GeoPoint
from ..geo.disks import Disk
from ..obs import current_tracer


@dataclass(frozen=True)
class GeolocatedReplica:
    """A replica pinned to a city, with the disk that witnessed it."""

    city: City
    disk: Disk
    #: Classification confidence: the chosen city's share of the candidate
    #: population mass inside the disk (1.0 when it was the only option).
    confidence: float

    @property
    def location(self) -> GeoPoint:
        return self.city.location


def classify_disk(
    disk: Disk,
    city_db: CityDB,
    population_exponent: float = 1.0,
) -> Optional[GeolocatedReplica]:
    """Classify the replica inside a disk to a city.

    Returns ``None`` when no known city falls inside the disk (possible for
    tiny disks centered in unpopulated areas); callers fall back to the
    nearest city via :func:`classify_nearest`.

    ``population_exponent`` raises the population prior to a power:
    1.0 is the paper's estimator, 0.0 makes all cities equally likely
    (ties broken toward the disk center).
    """
    if population_exponent < 0:
        raise ValueError("population_exponent must be non-negative")
    with current_tracer().span("geolocation"):
        dists = city_db.distances_km(disk.center)
        inside = np.nonzero(dists <= disk.radius_km + 1e-9)[0]
        if inside.size == 0:
            return None
        if population_exponent == 0.0:
            # Uniform prior: the maximum-likelihood choice degenerates to the
            # city closest to the disk center (the lower index on ties).
            best = int(inside[np.argmin(dists[inside])])
            return GeolocatedReplica(
                city=city_db.city_at(best), disk=disk, confidence=1.0 / inside.size
            )
        # Weight vector sliced from the cached population array — no
        # per-city Python objects or scalar exponentiation in the loop.
        weights = city_db.population_array()[inside] ** population_exponent
        total = float(weights.sum())
        idx = int(np.argmax(weights))
        return GeolocatedReplica(
            city=city_db.city_at(int(inside[idx])),
            disk=disk,
            confidence=float(weights[idx]) / total,
        )


def classify_nearest(disk: Disk, city_db: CityDB) -> GeolocatedReplica:
    """Fallback: pin the replica to the city nearest the disk center."""
    with current_tracer().span("geolocation", fallback=True):
        city = city_db.nearest(disk.center)
        return GeolocatedReplica(city=city, disk=disk, confidence=0.0)


def geolocation_error_km(predicted: City, truth: City) -> float:
    """Distance between predicted and true replica city (0 when exact)."""
    return predicted.location.distance_km(truth.location)

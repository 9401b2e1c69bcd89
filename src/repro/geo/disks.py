"""Geodesic disks — the central geometric object of anycast detection.

A latency sample (vantage point *v*, round-trip time *rtt*) bounds the
position of the replica that answered: it must lie within distance
``rtt/2 * v_prop`` of the vantage point, where ``v_prop`` is the signal
propagation speed (at most the speed of light; ~2/3 c in fiber).  That
bound is a *disk* on the sphere, centered at the vantage point.

Two disks that do **not** intersect cannot contain the same replica — a
speed-of-light violation — which is the paper's anycast detection criterion
(Fig. 3b).  A set of pairwise-disjoint disks lower-bounds the number of
replicas (Fig. 3c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .coords import (
    MAX_SURFACE_DISTANCE_KM,
    GeoPoint,
    great_circle_km,
    pairwise_distances_km,
)

#: Speed of light in vacuum, km/ms.
LIGHT_SPEED_KM_PER_MS = 299.792458

#: Conventional propagation speed in optical fiber (~2/3 c), km/ms.
FIBER_SPEED_KM_PER_MS = LIGHT_SPEED_KM_PER_MS * 2.0 / 3.0


@dataclass(frozen=True)
class Disk:
    """A closed geodesic disk: all points within ``radius_km`` of ``center``."""

    center: GeoPoint
    radius_km: float

    def __post_init__(self) -> None:
        if self.radius_km < 0:
            raise ValueError(f"negative disk radius: {self.radius_km!r}")

    def contains(self, point: GeoPoint) -> bool:
        """True if ``point`` lies in the (closed) disk."""
        return self.center.distance_km(point) <= self.radius_km + 1e-9

    def overlaps(self, other: "Disk") -> bool:
        """True if the two closed disks share at least one point.

        On the sphere, two disks intersect iff the distance between their
        centers is at most the sum of their radii (radii are always < half
        the circumference for RTTs of interest, so the planar criterion
        carries over).
        """
        gap = self.center.distance_km(other.center)
        return gap <= self.radius_km + other.radius_km + 1e-9

    def contains_disk(self, other: "Disk") -> bool:
        """True if ``other`` lies entirely inside this disk."""
        gap = self.center.distance_km(other.center)
        return gap + other.radius_km <= self.radius_km + 1e-9

    def shrunk_to(self, point: GeoPoint) -> "Disk":
        """Collapse the disk to a zero-radius disk at ``point``.

        This is the paper's step (e): once a replica inside the disk has
        been geolocated to a city, the disk is replaced by that city's
        location, reducing overlap for the next iteration.
        """
        return Disk(center=point, radius_km=0.0)

    def covers_earth(self) -> bool:
        """True if the disk spans the whole sphere (vacuous constraint)."""
        return self.radius_km >= MAX_SURFACE_DISTANCE_KM


def rtt_to_radius_km(rtt_ms: float, speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS) -> float:
    """Convert a round-trip time to the maximal replica distance.

    The one-way delay is at most ``rtt/2``; the replica is therefore within
    ``rtt/2 * speed`` of the vantage point.  ``speed`` defaults to the fiber
    propagation speed (2/3 c) as in iGreedy; pass
    :data:`LIGHT_SPEED_KM_PER_MS` for a fully conservative bound.
    """
    if rtt_ms < 0:
        raise ValueError(f"negative RTT: {rtt_ms!r}")
    if speed_km_per_ms <= 0:
        raise ValueError("propagation speed must be positive")
    return rtt_ms / 2.0 * speed_km_per_ms


def disk_from_sample(
    vantage: GeoPoint, rtt_ms: float, speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS
) -> Disk:
    """Build the disk induced by an RTT sample at a vantage point."""
    return Disk(center=vantage, radius_km=rtt_to_radius_km(rtt_ms, speed_km_per_ms))


def overlap_matrix(disks: Sequence[Disk]) -> np.ndarray:
    """Boolean matrix ``M[i, j]`` = disks *i* and *j* overlap.

    Vectorized over all pairs; the diagonal is True.  This is the input to
    the Maximum Independent Set solver, where each census target contributes
    up to one disk per vantage point (a few hundred disks).
    """
    if not disks:
        return np.zeros((0, 0), dtype=bool)
    lats = [d.center.lat for d in disks]
    lons = [d.center.lon for d in disks]
    radii = np.array([d.radius_km for d in disks], dtype=np.float64)
    gaps = pairwise_distances_km(lats, lons, lats, lons)
    return gaps <= radii[:, None] + radii[None, :] + 1e-9


def any_disjoint_pair(disks: Sequence[Disk]) -> Optional[tuple]:
    """Return indices of one disjoint pair of disks, or ``None``.

    The existence of such a pair is the anycast detection criterion; the
    search is vectorized and short-circuits on the first violation row.
    """
    matrix = overlap_matrix(disks)
    disjoint = ~matrix
    if not disjoint.any():
        return None
    i, j = np.argwhere(disjoint)[0]
    return int(i), int(j)


def smallest_disk(disks: Iterable[Disk]) -> Disk:
    """The disk with the smallest radius (ties broken by center ordering).

    Geolocation always operates on the smallest disk because it carries the
    tightest position constraint.
    """
    try:
        return min(disks, key=lambda d: (d.radius_km, d.center))
    except ValueError:
        raise ValueError("smallest_disk of empty disk set") from None


def disks_containing(disks: Sequence[Disk], point: GeoPoint) -> List[int]:
    """Indices of all disks that contain ``point``."""
    return [i for i, d in enumerate(disks) if d.contains(point)]


def min_enclosing_radius_km(center: GeoPoint, points: Iterable[GeoPoint]) -> float:
    """Radius of the smallest disk at ``center`` covering all ``points``."""
    radius = 0.0
    for p in points:
        radius = max(radius, great_circle_km(center.lat, center.lon, p.lat, p.lon))
    return radius

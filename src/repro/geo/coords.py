"""Geodesic coordinate primitives.

Everything in the census pipeline reasons about positions on the surface of
the Earth: vantage points, anycast replicas, and the disks that latency
samples induce.  This module provides the small amount of spherical geometry
the rest of the package needs:

* :class:`GeoPoint` — an immutable (latitude, longitude) pair in degrees.
* :func:`great_circle_km` — haversine distance between two points.
* :func:`pairwise_distances_km` — vectorized VP-by-target distance matrix.
* :func:`destination_point` — move a point a given distance along a bearing.

The Earth is modelled as a sphere of radius :data:`EARTH_RADIUS_KM`; the
sub-0.5% error of ignoring the flattening is far below the noise floor of
RTT-derived distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

#: Mean Earth radius (km), IUGG value.
EARTH_RADIUS_KM = 6371.0088

#: Half the Earth's circumference: no two points are farther apart than this.
MAX_SURFACE_DISTANCE_KM = math.pi * EARTH_RADIUS_KM


@dataclass(frozen=True, order=True)
class GeoPoint:
    """A point on the Earth's surface.

    Latitude is in degrees north (range [-90, 90]); longitude in degrees
    east (range [-180, 180]).  Instances are immutable and hashable so they
    can be used as dictionary keys (e.g. mapping replica sites to cities).
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat!r} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon!r} outside [-180, 180]")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return great_circle_km(self.lat, self.lon, other.lat, other.lon)

    def as_radians(self) -> Tuple[float, float]:
        """Return (lat, lon) converted to radians."""
        return math.radians(self.lat), math.radians(self.lon)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ns = "N" if self.lat >= 0 else "S"
        ew = "E" if self.lon >= 0 else "W"
        return f"{abs(self.lat):.3f}{ns},{abs(self.lon):.3f}{ew}"


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine great-circle distance between two (degree) coordinates.

    The haversine formulation is numerically stable for the short distances
    that dominate disk-overlap tests, unlike the spherical law of cosines.
    """
    phi1, lam1 = math.radians(lat1), math.radians(lon1)
    phi2, lam2 = math.radians(lat2), math.radians(lon2)
    dphi = phi2 - phi1
    dlam = lam2 - lam1
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    # Clamp for floating error before the asin.
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def pairwise_distances_km(
    lats1: Sequence[float],
    lons1: Sequence[float],
    lats2: Sequence[float],
    lons2: Sequence[float],
) -> np.ndarray:
    """Vectorized haversine: distance matrix of shape (len(1), len(2)).

    Used to compute the full vantage-point x target propagation matrix in one
    shot — the hot path of a simulated census (O(10^7) pairs), which would be
    intractable with per-pair Python calls.
    """
    return pairwise_distances_from_radians(
        np.radians(np.asarray(lats1, dtype=np.float64)),
        np.radians(np.asarray(lons1, dtype=np.float64)),
        np.radians(np.asarray(lats2, dtype=np.float64)),
        np.radians(np.asarray(lons2, dtype=np.float64)),
    )


def pairwise_distances_from_radians(
    phi1: np.ndarray,
    lam1: np.ndarray,
    phi2: np.ndarray,
    lam2: np.ndarray,
) -> np.ndarray:
    """Haversine matrix over coordinates already converted to radians.

    Callers that query the same point set repeatedly (the city gazetteer,
    the fixed vantage-point grid) cache the radian arrays once and skip the
    degree conversion on every call.  The arithmetic is elementwise, so a
    distance computed here is bit-identical to the same pair computed
    through :func:`pairwise_distances_km` — submatrices of a cached matrix
    can therefore substitute for fresh per-pair computations exactly.
    """
    phi2 = np.asarray(phi2, dtype=np.float64)[None, :]
    return haversine_km(
        np.asarray(phi1, dtype=np.float64)[:, None],
        np.asarray(lam1, dtype=np.float64)[:, None],
        phi2,
        np.asarray(lam2, dtype=np.float64)[None, :],
        np.cos(phi2),
    )


def haversine_km(
    phi1: np.ndarray,
    lam1: np.ndarray,
    phi2: np.ndarray,
    lam2: np.ndarray,
    cos_phi2: np.ndarray,
) -> np.ndarray:
    """The haversine kernel: broadcasting radian arrays, ``cos φ₂`` given.

    ``cos_phi2`` is ``np.cos(phi2)``, which a caller measuring the same
    targets from many origins computes once (a census campaign: one row
    per VP over one fixed target set).  Every element goes through the
    same operations in the same order whatever the shapes, so a row
    computed here is bit-identical to that row of the pairwise matrix.
    """
    a = np.subtract(phi2, phi1)
    a /= 2.0
    np.sin(a, out=a)
    np.square(a, out=a)
    b = np.subtract(lam2, lam1)
    b /= 2.0
    np.sin(b, out=b)
    np.square(b, out=b)
    c = np.cos(phi1) * cos_phi2
    c *= b
    a += c
    np.clip(a, 0.0, 1.0, out=a)
    np.sqrt(a, out=a)
    np.arcsin(a, out=a)
    a *= 2.0 * EARTH_RADIUS_KM
    return a


def unit_vectors(lats_rad: np.ndarray, lons_rad: np.ndarray) -> np.ndarray:
    """Unit vectors on the sphere for radian coordinate arrays, shape (n, 3).

    Dot products of unit vectors give the cosine of the central angle —
    useful for aggregate queries (spherical centroids, coarse bounding
    tests) that do not need the haversine's bit-exact distances.
    """
    lats_rad = np.asarray(lats_rad, dtype=np.float64)
    lons_rad = np.asarray(lons_rad, dtype=np.float64)
    cos_lat = np.cos(lats_rad)
    return np.stack(
        [cos_lat * np.cos(lons_rad), cos_lat * np.sin(lons_rad), np.sin(lats_rad)],
        axis=1,
    )


def distances_to_point_km(
    lats: Sequence[float], lons: Sequence[float], point: GeoPoint
) -> np.ndarray:
    """Vectorized haversine distances from many coordinates to one point."""
    return pairwise_distances_km(lats, lons, [point.lat], [point.lon])[:, 0]


def initial_bearing_deg(origin: GeoPoint, target: GeoPoint) -> float:
    """Initial great-circle bearing from ``origin`` toward ``target``.

    Returned in degrees clockwise from north, in [0, 360).
    """
    phi1, lam1 = origin.as_radians()
    phi2, lam2 = target.as_radians()
    dlam = lam2 - lam1
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    theta = math.degrees(math.atan2(y, x))
    return theta % 360.0


def destination_point(origin: GeoPoint, bearing_deg: float, distance_km: float) -> GeoPoint:
    """Point reached travelling ``distance_km`` from ``origin`` along a bearing.

    Used to scatter synthetic hosts around a city center and to construct
    geometric test fixtures.
    """
    if distance_km < 0:
        raise ValueError("distance_km must be non-negative")
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_deg)
    phi1, lam1 = origin.as_radians()
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = min(1.0, max(-1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * sin_phi2
    lam2 = lam1 + math.atan2(y, x)
    lon = math.degrees(lam2)
    # Normalize longitude into [-180, 180].
    lon = (lon + 180.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(phi2), lon)


def destination_points(
    lats: np.ndarray, lons: np.ndarray, bearings_deg: np.ndarray, distances_km: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`destination_point` over arrays: the reached ``(lats, lons)``.

    Element for element bit-identical to the scalar function: the same
    operations in the same order, with ``np.sin``/``np.cos``/``np.radians``
    /``np.degrees``/``%`` (equal to their ``math`` counterparts) and
    ``math.asin``/``math.atan2`` per element, because numpy's SIMD
    ``arcsin``/``arctan2`` round differently from libm.
    """
    distances_km = np.asarray(distances_km, dtype=np.float64)
    if (distances_km < 0).any():
        raise ValueError("distance_km must be non-negative")
    n = len(distances_km)
    delta = distances_km / EARTH_RADIUS_KM
    theta = np.radians(bearings_deg)
    phi1 = np.radians(lats)
    sin_phi1, cos_phi1 = np.sin(phi1), np.cos(phi1)
    sin_delta, cos_delta = np.sin(delta), np.cos(delta)
    sin_phi2 = np.clip(sin_phi1 * cos_delta + cos_phi1 * sin_delta * np.cos(theta), -1.0, 1.0)
    phi2 = np.fromiter(map(math.asin, sin_phi2.tolist()), dtype=np.float64, count=n)
    y = np.sin(theta) * sin_delta * cos_phi1
    x = cos_delta - sin_phi1 * sin_phi2
    lam2 = np.radians(lons) + np.fromiter(
        map(math.atan2, y.tolist(), x.tolist()), dtype=np.float64, count=n
    )
    return np.degrees(phi2), (np.degrees(lam2) + 180.0) % 360.0 - 180.0


def midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint:
    """Great-circle midpoint between two points."""
    bearing = initial_bearing_deg(a, b)
    return destination_point(a, bearing, a.distance_km(b) / 2.0)


def centroid(points: Iterable[GeoPoint]) -> GeoPoint:
    """Spherical centroid (mean of unit vectors) of a set of points.

    Raises ``ValueError`` on an empty input or a degenerate configuration
    whose mean vector is the origin (e.g. two antipodal points).
    """
    xs = ys = zs = 0.0
    count = 0
    for p in points:
        phi, lam = p.as_radians()
        xs += math.cos(phi) * math.cos(lam)
        ys += math.cos(phi) * math.sin(lam)
        zs += math.sin(phi)
        count += 1
    if count == 0:
        raise ValueError("centroid of empty point set")
    norm = math.sqrt(xs * xs + ys * ys + zs * zs)
    if norm < 1e-12:
        raise ValueError("degenerate point set: centroid undefined")
    lat = math.degrees(math.asin(zs / norm))
    lon = math.degrees(math.atan2(ys, xs))
    return GeoPoint(lat, lon)

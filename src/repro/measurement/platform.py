"""Measurement platforms: vantage-point sets with realistic placement.

The paper weighs PlanetLab against RIPE Atlas, Archipelago, and MLab
(Sec. 3.2): PlanetLab offers ~300 fully-programmable nodes concentrated in
North-American and European universities; RIPE Atlas offers an order of
magnitude more probes with better geographic spread but no custom software.
Fig. 5 shows the consequence — PlanetLab's view of Microsoft's deployment
(21 replicas) is a strict subset of RIPE's (54).

We model a platform as a set of :class:`VantagePoint` objects with:

* a location (city, chosen with a platform-specific continental skew);
* a host-load factor (PlanetLab nodes are shared and slow; drives the
  completion-time CDF of Fig. 8);
* a local :class:`~repro.net.icmp.RateLimitPolicy` (some hosting networks
  police the reply aggregate — the paper's probing-rate lesson).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..geo.cities import City, CityDB, default_city_db
from ..geo.coords import GeoPoint, destination_point
from ..net.icmp import NO_RATE_LIMIT, RateLimitPolicy


@dataclass(frozen=True)
class VantagePoint:
    """One measurement node."""

    name: str
    city: City
    location: GeoPoint
    #: Multiplier ≥ 1 on nominal census duration (shared-host slowness).
    host_load: float = 1.0
    #: Policing applied to the reply aggregate near this VP.
    rate_limit: RateLimitPolicy = NO_RATE_LIMIT

    def __post_init__(self) -> None:
        if self.host_load < 1.0:
            raise ValueError(f"{self.name}: host_load must be >= 1")


def vp_column_digest(name: str, location: GeoPoint) -> bytes:
    """8-byte digest of one vantage point's identity (name + coordinates).

    Two VPs measure alike only when they carry the same name from the
    same place: the key of a campaign's base-RTT rows, and the per-cell
    prefix of every target signature
    (:func:`~repro.service.delta.target_signatures`).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(name.encode("utf-8"))
    h.update(b"\x00")
    h.update(np.float64(location.lat).tobytes())
    h.update(np.float64(location.lon).tobytes())
    return h.digest()


@dataclass
class Platform:
    """A named set of vantage points."""

    name: str
    vantage_points: List[VantagePoint]

    def __post_init__(self) -> None:
        names = [vp.name for vp in self.vantage_points]
        if len(set(names)) != len(names):
            raise ValueError("duplicate vantage-point names")

    def __len__(self) -> int:
        return len(self.vantage_points)

    def __iter__(self):
        return iter(self.vantage_points)

    @property
    def lats(self) -> np.ndarray:
        return np.array([vp.location.lat for vp in self.vantage_points])

    @property
    def lons(self) -> np.ndarray:
        return np.array([vp.location.lon for vp in self.vantage_points])

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "Platform":
        """A platform restricted to the given VP indices."""
        vps = [self.vantage_points[i] for i in indices]
        return Platform(name=name or f"{self.name}-subset", vantage_points=vps)

    def without(self, names: Iterable[str], name: Optional[str] = None) -> "Platform":
        """A platform with the named VPs removed (quarantine filtering).

        If ``names`` is empty the platform itself is returned unchanged,
        so the common no-quarantine path allocates nothing.
        """
        excluded = set(names)
        if not excluded:
            return self
        vps = [vp for vp in self.vantage_points if vp.name not in excluded]
        if not vps:
            raise ValueError("cannot remove every vantage point")
        return Platform(name=name or self.name, vantage_points=vps)

    def sample_available(
        self, rng: np.random.Generator, availability: float = 0.85
    ) -> "Platform":
        """Random subset of nodes that happen to be alive for one census.

        The paper's four censuses ran from 261, 255, 269 and 240 PlanetLab
        nodes out of ~300 registered — node availability fluctuates.
        """
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        mask = rng.random(len(self.vantage_points)) < availability
        if not mask.any():
            mask[int(rng.integers(0, len(mask)))] = True
        return self.subset(list(np.nonzero(mask)[0]))


# Continental weighting: ISO country → relative density of platform nodes.
_PLANETLAB_COUNTRY_WEIGHT: Dict[str, float] = {
    # US/EU university heavy; thin in Asia; nearly absent elsewhere.
    "US": 8.0, "CA": 2.0,
    "DE": 3.0, "FR": 3.0, "GB": 3.0, "IT": 2.0, "ES": 2.0, "NL": 2.0,
    "BE": 1.5, "CH": 1.5, "SE": 1.5, "FI": 1.0, "NO": 1.0, "PL": 1.5,
    "CZ": 1.0, "AT": 1.0, "PT": 1.0, "IE": 1.0, "GR": 1.0, "HU": 1.0,
    "JP": 1.0, "KR": 0.7, "CN": 0.4, "TW": 0.4, "SG": 0.4, "HK": 0.3,
    "AU": 0.5, "NZ": 0.2, "BR": 0.3, "AR": 0.15, "IL": 0.4, "IN": 0.2,
    "RU": 0.2, "TR": 0.1, "MX": 0.15,
}

_RIPE_COUNTRY_WEIGHT: Dict[str, float] = {
    # RIPE Atlas: EU-dominated but with a worldwide tail.
    "DE": 8.0, "FR": 6.0, "GB": 6.0, "NL": 5.0, "US": 5.0, "IT": 3.0,
    "ES": 3.0, "SE": 2.5, "CH": 2.5, "BE": 2.0, "AT": 2.0, "PL": 2.0,
    "CZ": 2.0, "FI": 1.5, "NO": 1.5, "DK": 1.5, "IE": 1.0, "PT": 1.0,
    "GR": 1.0, "HU": 1.0, "RO": 1.0, "BG": 0.8, "RU": 2.0, "UA": 1.0,
    "CA": 1.5, "BR": 1.0, "AR": 0.5, "CL": 0.4, "MX": 0.5,
    "JP": 1.0, "KR": 0.6, "CN": 0.5, "SG": 0.8, "HK": 0.5, "IN": 0.8,
    "AU": 1.0, "NZ": 0.5, "ZA": 0.8, "KE": 0.4, "NG": 0.3, "EG": 0.3,
    "IL": 0.6, "AE": 0.5, "TR": 0.6, "ID": 0.4, "TH": 0.4, "MY": 0.3,
    "CS": 0.0,
}


def _build_platform(
    name: str,
    count: int,
    weights: Dict[str, float],
    seed: int,
    city_db: Optional[CityDB],
    limited_fraction: float,
    safe_rate_pps: float,
    load_sigma: float,
) -> Platform:
    if count < 1:
        raise ValueError("platform needs at least one vantage point")
    db = city_db or default_city_db()
    rng = np.random.default_rng(seed)
    cities = list(db.cities)
    # Country weights are *country* masses: normalize within each country so
    # that a country's share does not grow with its gazetteer coverage.  A
    # mild population factor places nodes in each country's bigger cities.
    pop_factor = np.array([max(c.population, 1.0) ** 0.25 for c in cities])
    country_mass: Dict[str, float] = {}
    for city, f in zip(cities, pop_factor):
        country_mass[city.country] = country_mass.get(city.country, 0.0) + f
    w = np.array(
        [
            weights.get(c.country, 0.05) * f / country_mass[c.country]
            for c, f in zip(cities, pop_factor)
        ]
    )
    w /= w.sum()
    picks = rng.choice(len(cities), size=count, p=w)
    vps = []
    for i, ci in enumerate(picks):
        city = cities[ci]
        location = destination_point(
            city.location, float(rng.uniform(0, 360)), float(rng.uniform(0, 25))
        )
        # Host load: a fast cohort near 1x and a heavy-tailed slow cohort.
        if rng.random() < 0.45:
            load = float(rng.uniform(1.0, 1.1))
        else:
            load = float(1.1 + rng.lognormal(mean=-0.6, sigma=load_sigma))
        if rng.random() < limited_fraction:
            policy = RateLimitPolicy(
                safe_rate_pps=float(rng.uniform(0.6, 2.0) * safe_rate_pps), severity=1.0
            )
        else:
            policy = NO_RATE_LIMIT
        vps.append(
            VantagePoint(
                name=f"{name.lower()}-{i:04d}-{city.country.lower()}",
                city=city,
                location=location,
                host_load=load,
                rate_limit=policy,
            )
        )
    return Platform(name=name, vantage_points=vps)


def planetlab_platform(
    count: int = 308,
    seed: int = 41,
    city_db: Optional[CityDB] = None,
    limited_fraction: float = 0.3,
) -> Platform:
    """A PlanetLab-like platform: ~300 nodes, US/EU-academic skew.

    ``limited_fraction`` of nodes sit behind networks that police the ICMP
    reply aggregate (the source of the heterogeneous drop rates the paper
    hit at full probing speed).
    """
    return _build_platform(
        "PlanetLab", count, _PLANETLAB_COUNTRY_WEIGHT, seed, city_db,
        limited_fraction=limited_fraction, safe_rate_pps=2000.0, load_sigma=0.7,
    )


def ripe_platform(
    count: int = 1500,
    seed: int = 43,
    city_db: Optional[CityDB] = None,
) -> Platform:
    """A RIPE-Atlas-like platform: many more probes, broader coverage.

    RIPE probes are dedicated hardware (no host-load tail) and their rate
    limits never bind because Atlas cannot run high-rate custom scans
    anyway (the paper's reason for *not* using it for the census).
    """
    return _build_platform(
        "RIPE", count, _RIPE_COUNTRY_WEIGHT, seed, city_db,
        limited_fraction=0.0, safe_rate_pps=float("inf"), load_sigma=0.2,
    )

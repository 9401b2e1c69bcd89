"""curl-like HTTP ground-truth probe.

Some anycast CDNs disclose the identity of the replica that served an HTTP
request: CloudFlare appends an IATA-style site code to its custom
``CF-RAY`` header, EdgeCast encodes the PoP in the standard ``Server``
header (``ECS (pop/...)``).  The paper exploits this (Sec. 3.4) to build a
city-level ground truth for the two CDNs and validate the census
geolocation: the per-/24 true-positive rate and, for misclassified /24s,
the distance error.

We reproduce the mechanism: an HTTP probe from a vantage point is routed
through the deployment's catchment and returns headers embedding a *site
code* for the serving replica.  Site codes are assigned deterministically
from the city gazetteer (three letters, collision-disambiguated), and the
module can parse its own headers back into cities — the probe consumer
never touches the ground truth directly.
"""

from __future__ import annotations

import hashlib
import re
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..geo.cities import City, CityDB, default_city_db
from ..internet.deployments import AnycastDeployment
from ..measurement.platform import Platform, VantagePoint


class SiteCodeBook:
    """Deterministic city ↔ site-code mapping (like IATA codes)."""

    def __init__(self, city_db: Optional[CityDB] = None) -> None:
        db = city_db or default_city_db()
        self._code_of: Dict[City, str] = {}
        self._city_of: Dict[str, City] = {}
        for city in sorted(db.cities, key=lambda c: (-c.population, c.name, c.country)):
            code = self._assign(city)
            self._code_of[city] = code
            self._city_of[code] = city

    def _assign(self, city: City) -> str:
        letters = re.sub(r"[^A-Z]", "", city.name.upper())
        base = (letters + "XXX")[:3]
        if base not in self._city_of:
            return base
        for i in range(1, 100):
            candidate = base[:2] + str(i)
            if candidate not in self._city_of:
                return candidate
        raise RuntimeError(f"cannot assign site code for {city}")

    def code(self, city: City) -> str:
        try:
            return self._code_of[city]
        except KeyError:
            raise KeyError(f"city {city} not in codebook") from None

    def city(self, code: str) -> City:
        try:
            return self._city_of[code]
        except KeyError:
            raise KeyError(f"unknown site code {code!r}") from None


@dataclass(frozen=True)
class HttpResponse:
    """A minimal HTTP response: status plus headers."""

    status: int
    headers: Dict[str, str]


_CF_RAY_RE = re.compile(r"^[0-9a-f]{16}-([A-Z0-9]{3})$")
_ECS_SERVER_RE = re.compile(r"^ECS \(([a-z0-9]{3})/[0-9A-F]{4}\)$")


def http_probe(
    deployment: AnycastDeployment,
    vp: VantagePoint,
    codebook: SiteCodeBook,
) -> HttpResponse:
    """Issue an HTTP GET to the deployment from a vantage point.

    Returns a 200 with location-revealing headers when the deployment
    exposes them, a bare 200 otherwise.
    """
    replica = deployment.serving_replica(vp.location)
    headers = {"Date": "Tue, 17 Mar 2015 12:00:00 GMT"}
    header = deployment.entry.http_location_header
    if header == "CF-RAY":
        ray_id = hashlib.blake2b(
            f"{deployment.entry.asn}/{vp.name}".encode(), digest_size=8
        ).hexdigest()
        headers["CF-RAY"] = f"{ray_id}-{codebook.code(replica.city)}"
    elif header == "Server":
        pop = codebook.code(replica.city).lower()
        checksum = f"{zlib.crc32(vp.name.encode()) % (16**4):04X}"
        headers["Server"] = f"ECS ({pop}/{checksum})"
    return HttpResponse(status=200, headers=headers)


def replica_city_from_headers(response: HttpResponse, codebook: SiteCodeBook) -> Optional[City]:
    """Parse the serving replica's city out of response headers, if present."""
    ray = response.headers.get("CF-RAY")
    if ray is not None:
        match = _CF_RAY_RE.match(ray)
        if match is None:
            raise ValueError(f"malformed CF-RAY header: {ray!r}")
        return codebook.city(match.group(1))
    server = response.headers.get("Server")
    if server is not None:
        match = _ECS_SERVER_RE.match(server)
        if match is None:
            return None  # ordinary Server header, no location encoded
        return codebook.city(match.group(1).upper())
    return None


def measure_http_ground_truth(
    deployment: AnycastDeployment,
    platform: Platform,
    codebook: Optional[SiteCodeBook] = None,
) -> Set[City]:
    """Cities observable from a platform via HTTP headers.

    This is the paper's measured ground truth (GT): the set of replica
    cities at least one vantage point is routed to.  It is inherently a
    subset of the publicly-advertised information (PAI) — the full site
    list — because a platform's catchment view is partial.
    """
    book = codebook or SiteCodeBook()
    cities: Set[City] = set()
    for vp in platform:
        response = http_probe(deployment, vp, book)
        city = replica_city_from_headers(response, book)
        if city is not None:
            cities.add(city)
    return cities


def publicly_advertised_cities(deployment: AnycastDeployment) -> Set[City]:
    """The PAI: every replica city the operator lists on its website."""
    return set(deployment.site_cities)

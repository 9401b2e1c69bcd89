"""Alexa frontpage resolution.

Paper Sec. 4.1 (footnote 2): "we resolve the domain name of the frontpage
found in Alexa to an IP, and disregard content that is referenced in the
frontpage" — then intersect the resolved /24s with the census to find
which popular websites ride on IP anycast.

This module implements the resolution over the synthetic ground truth: a
deterministic resolver maps each Alexa domain through an optional CNAME
chain (CDN-hosted sites point at their CDN's edge hostname) to an A record
inside the hosting /24, whose prefix then joins the census's detected
anycast /24s.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..internet.deployments import alive_hosts
from ..internet.topology import SyntheticInternet
from ..net.addresses import format_ipv4, host_in_slash24, slash24_of
from .ranks import AlexaSite, alexa_anycast_sites


@dataclass(frozen=True)
class Resolution:
    """DNS resolution of one website frontpage."""

    domain: str
    #: CNAME chain traversed (empty for apex A records).
    cname_chain: Tuple[str, ...]
    #: Final A record.
    address: int

    @property
    def slash24(self) -> int:
        return slash24_of(self.address)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        chain = " -> ".join((self.domain,) + self.cname_chain)
        return f"{chain} -> {format_ipv4(self.address)}"


class FrontpageResolver:
    """Deterministic resolver for the synthetic Alexa population.

    CDN-hosted sites resolve through a CNAME at the CDN's domain (as real
    CDN onboarding does); sites hosted directly on the operator's anycast
    space resolve straight to an A record.  The A record is always an
    *alive* host of the hosting /24.
    """

    def __init__(self, internet: SyntheticInternet) -> None:
        self._internet = internet
        self._sites: Dict[str, AlexaSite] = {
            site.domain: site for site in alexa_anycast_sites(internet)
        }

    def __contains__(self, domain: str) -> bool:
        return domain in self._sites

    def resolve(self, domain: str) -> Resolution:
        """Resolve a frontpage domain to its hosting address."""
        site = self._sites.get(domain)
        if site is None:
            raise KeyError(f"unknown domain {domain!r}")
        deployment = self._internet.deployment_of(site.prefix)
        if deployment is None:  # pragma: no cover - catalog guarantees anycast
            raise RuntimeError(f"{domain} not hosted on anycast space")
        entry = deployment.entry
        hosts = alive_hosts(deployment, site.prefix)
        # Deterministic host choice per domain.
        rng = np.random.default_rng(zlib.crc32(domain.encode()) % (2**31))
        address = host_in_slash24(site.prefix, hosts[int(rng.integers(0, len(hosts)))])
        cname: Tuple[str, ...] = ()
        if entry.category.coarse == "CDN":
            label = entry.name.split(",")[0].lower().replace(" ", "-")
            cname = (f"{domain}.cdn.{label}.net",)
        return Resolution(domain=domain, cname_chain=cname, address=address)

    def resolve_all(self) -> List[Resolution]:
        """Resolve every Alexa frontpage hosted on anycast space."""
        return [self.resolve(domain) for domain in sorted(self._sites)]

"""Tests for the Alexa frontpage-resolution pipeline."""

from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.census.analysis import analyze_matrix
from repro.census.combine import matrix_from_census
from repro.census.webhosting import FrontpageResolver
from repro.internet.deployments import alive_hosts
from repro.net.addresses import slash24_of


@dataclass
class HostingCrossCheck:
    """The Fig. 10 Alexa row, derived by actual resolution."""

    #: Domain -> hosting AS, for frontpages landing on *detected* anycast.
    anycast_hosted: Dict[str, int]
    #: Frontpages whose hosting /24 the census did not flag.
    missed: List[str]

    @property
    def n_sites(self) -> int:
        return len(self.anycast_hosted)

    @property
    def n_ases(self) -> int:
        return len(set(self.anycast_hosted.values()))

    def sites_per_as(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for asn in self.anycast_hosted.values():
            out[asn] = out.get(asn, 0) + 1
        return out


def crosscheck_alexa_hosting(analysis, internet) -> HostingCrossCheck:
    """Resolve every Alexa frontpage and join with the census verdicts."""
    detected = set(analysis.anycast_prefixes)
    hosted: Dict[str, int] = {}
    missed: List[str] = []
    for resolution in FrontpageResolver(internet).resolve_all():
        if resolution.slash24 in detected:
            owner = internet.registry.owner_of(resolution.slash24)
            hosted[resolution.domain] = owner.asn if owner else -1
        else:
            missed.append(resolution.domain)
    return HostingCrossCheck(anycast_hosted=hosted, missed=missed)


@pytest.fixture(scope="module")
def resolver(tiny_internet) -> FrontpageResolver:
    return FrontpageResolver(tiny_internet)


@pytest.fixture(scope="module")
def analysis(tiny_census, city_db):
    return analyze_matrix(matrix_from_census(tiny_census), city_db=city_db)


class TestResolver:
    def test_unknown_domain(self, resolver):
        with pytest.raises(KeyError):
            resolver.resolve("unknown.example")

    def test_contains(self, resolver, tiny_internet):
        from repro.census.ranks import alexa_anycast_sites

        site = alexa_anycast_sites(tiny_internet)[0]
        assert site.domain in resolver

    def test_resolution_lands_in_hosting_slash24(self, resolver, tiny_internet):
        from repro.census.ranks import alexa_anycast_sites

        for site in alexa_anycast_sites(tiny_internet)[:40]:
            resolution = resolver.resolve(site.domain)
            assert resolution.slash24 == site.prefix

    def test_a_record_is_alive_host(self, resolver, tiny_internet):
        from repro.census.ranks import alexa_anycast_sites

        for site in alexa_anycast_sites(tiny_internet)[:20]:
            resolution = resolver.resolve(site.domain)
            dep = tiny_internet.deployment_of(site.prefix)
            assert (resolution.address & 0xFF) in alive_hosts(dep, site.prefix)

    def test_cdn_sites_resolve_via_cname(self, resolver, tiny_internet):
        from repro.census.ranks import alexa_anycast_sites

        cdn_seen = apex_seen = False
        for site in alexa_anycast_sites(tiny_internet):
            resolution = resolver.resolve(site.domain)
            dep = tiny_internet.deployment_of(site.prefix)
            if dep.entry.category.coarse == "CDN":
                assert len(resolution.cname_chain) == 1
                cdn_seen = True
            else:
                assert resolution.cname_chain == ()
                apex_seen = True
        assert cdn_seen and apex_seen

    def test_deterministic(self, resolver, tiny_internet):
        from repro.census.ranks import alexa_anycast_sites

        domain = alexa_anycast_sites(tiny_internet)[0].domain
        assert resolver.resolve(domain) == resolver.resolve(domain)

    def test_resolve_all_count(self, resolver, tiny_internet):
        from repro.census.ranks import alexa_anycast_sites

        assert len(resolver.resolve_all()) == len(alexa_anycast_sites(tiny_internet))


class TestCrossCheck:
    def test_crosscheck_matches_paper_shape(self, analysis, tiny_internet):
        check = crosscheck_alexa_hosting(analysis, tiny_internet)
        # Nearly every Alexa site rides on detected anycast (catalog hosts
        # them on the big, easily-detected deployments).
        total = check.n_sites + len(check.missed)
        assert check.n_sites / total > 0.9
        assert 10 <= check.n_ases <= 15

    def test_cloudflare_hosts_most_sites(self, analysis, tiny_internet):
        check = crosscheck_alexa_hosting(analysis, tiny_internet)
        per_as = check.sites_per_as()
        assert max(per_as, key=per_as.get) == 13335  # CloudFlare: 188 sites
        assert per_as[13335] > 100

    def test_missed_sites_are_on_undetected_prefixes(self, analysis, tiny_internet):
        check = crosscheck_alexa_hosting(analysis, tiny_internet)
        detected = set(analysis.anycast_prefixes)
        resolver = FrontpageResolver(tiny_internet)
        for domain in check.missed:
            assert resolver.resolve(domain).slash24 not in detected

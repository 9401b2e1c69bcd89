"""Tests for the Sec. 3.1 target-list sanity checks."""

import pytest

from repro.census.coverage import coverage_report
from repro.geo.coords import GeoPoint
from repro.internet.deployments import alive_hosts
from repro.internet.hitlist import generate_hitlist
from repro.net.addresses import host_in_slash24, slash24_of


def spot_check_equivalence(deployment, prefix, clients) -> bool:
    """The paper's EdgeCast spot check: within an anycast /24, every alive
    IP is an equivalent representative for anycast detection.

    For each probing client, the serving replica must be identical no
    matter which alive host of the /24 is addressed.  BGP routes on the
    /24, so this holds by construction in the substrate — the check guards
    the model invariant (and the address arithmetic underneath it).
    """
    hosts = alive_hosts(deployment, prefix)
    if not hosts:
        return False
    for client in clients:
        replica = deployment.serving_replica(client)
        for host in hosts:
            address = host_in_slash24(prefix, host)
            if slash24_of(address) != prefix:
                return False  # address escaped its routing unit
            if deployment.serving_replica(client) is not replica:
                return False  # per-host routing would break equivalence
    return True


@pytest.fixture(scope="module")
def hitlist(tiny_internet):
    return generate_hitlist(tiny_internet)


class TestCoverageReport:
    def test_full_hitlist_covers_everything(self, tiny_internet, hitlist):
        report = coverage_report(tiny_internet, hitlist)
        assert report.coverage == 1.0
        assert report.hitlist_entries == report.routed_slash24

    def test_pruned_hitlist_still_near_full_coverage_of_used_space(
        self, tiny_internet, hitlist
    ):
        # Pruning drops only never-alive /24s; coverage of the routed space
        # falls, but stays a documented, deliberate reduction.
        pruned = hitlist.pruned()
        report = coverage_report(tiny_internet, pruned)
        assert report.coverage < 1.0
        assert report.hitlist_entries == len(pruned)

    def test_responsiveness_recall_against_census(
        self, tiny_internet, hitlist, tiny_census
    ):
        report = coverage_report(tiny_internet, hitlist, tiny_census)
        # Paper: ~90% of the independent used-space estimate.
        assert 0.8 <= report.responsiveness_recall <= 1.0
        assert report.observed_responsive <= report.expected_responsive * 1.05

    def test_no_census_no_observed(self, tiny_internet, hitlist):
        report = coverage_report(tiny_internet, hitlist)
        assert report.observed_responsive == 0


class TestSpotCheck:
    def test_edgecast_slash24_equivalent(self, tiny_internet):
        dep = next(
            d for d in tiny_internet.deployments if d.entry.name == "EDGECAST,US"
        )
        clients = [GeoPoint(48.9, 2.3), GeoPoint(40.7, -74.0), GeoPoint(35.7, 139.7)]
        assert spot_check_equivalence(dep, dep.prefixes[0], clients)

    def test_all_prefixes_pass(self, tiny_internet):
        dep = tiny_internet.deployments[5]
        clients = [GeoPoint(51.5, -0.1)]
        for prefix in dep.prefixes:
            assert spot_check_equivalence(dep, prefix, clients)

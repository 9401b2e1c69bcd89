"""Tests for census orchestration."""

import numpy as np
import pytest

from repro.census.analysis import analyze_matrix
from repro.census.combine import combine_censuses
from repro.geo.coords import pairwise_distances_km
from repro.geo.cities import CityDB, default_city_db
from repro.internet.catalog import full_catalog
from repro.internet.topology import RESP_REPLY, InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.lfsr import lfsr_permutation
from repro.measurement.platform import planetlab_platform
from repro.measurement.prober import ScanTargets, base_rtt_row, keyed_base_rtts
from repro.net.icmp import IcmpOutcome
from repro.net.latency import LatencyModel


def replying(internet):
    """The echo-reply positions: where a campaign holds scan geometry."""
    return np.flatnonzero(internet.responsiveness == RESP_REPLY)


def fresh_row(campaign, vp_idx, site_of=None):
    """A VP's base row computed from scratch over effective coordinates.

    Anycast targets take the location of the replica ``site_of(dep_idx)``
    (default: the deployment's catchment for this VP) — the per-VP
    coordinate copy the campaign no longer makes, kept here as the oracle.
    """
    internet, platform = campaign.internet, campaign.platform
    vp = platform.vantage_points[vp_idx]
    lats, lons = internet.lats.copy(), internet.lons.copy()
    for dep_idx, dep in enumerate(internet.deployments):
        if site_of is None:
            site = int(dep.catchment(platform.lats, platform.lons)[vp_idx])
        else:
            site = site_of(dep_idx)
        positions = [internet.target_index(p) for p in dep.prefixes]
        lats[positions] = dep.replicas[site].location.lat
        lons[positions] = dep.replicas[site].location.lon
    distances = pairwise_distances_km([vp.location.lat], [vp.location.lon], lats, lons)[0]
    if campaign.noise == "keyed":
        return keyed_base_rtts(internet, [vp], distances[None, :])[0]
    return base_rtt_row(internet, vp, distances)


def campaign_row(campaign, vp_idx):
    """The base row a campaign's scans of one VP use, at the echo-reply
    positions: the cached stream row, or the keyed one each keyed scan
    draws there."""
    if campaign.noise == "keyed":
        vp = campaign.platform.vantage_points[vp_idx]
        at = replying(campaign.internet)
        return keyed_base_rtts(
            campaign.internet, [vp], campaign._distances([vp_idx], at), at
        )[0]
    return campaign.base_row(vp_idx)


def site_seen(campaign, vp_idx, dep_idx):
    """Which replica of a deployment a VP's base row resolved it to."""
    internet = campaign.internet
    dep = internet.deployments[dep_idx]
    positions = replying(internet)
    # The row's entry of the deployment's first echo-reply prefix.
    rank = int(np.flatnonzero(np.isin(positions, internet.target_indices(dep.prefixes)))[0])
    pos = positions[rank]
    row = campaign.base_row(vp_idx)
    matches = [
        site
        for site in range(len(dep.replicas))
        if fresh_row(campaign, vp_idx, site_of=lambda d: site if d == dep_idx else 0)[pos]
        == row[rank]
    ]
    assert len(matches) == 1
    return matches[0]


class TestEffectiveCoords:
    """Catchment resolution, observed through each VP's base-RTT row."""

    def test_unicast_targets_keep_host_location(self, tiny_campaign, tiny_internet):
        row = tiny_campaign.base_row(0)
        vp = tiny_campaign.platform.vantage_points[0]
        at_host = base_rtt_row(
            tiny_internet,
            vp,
            pairwise_distances_km(
                [vp.location.lat], [vp.location.lon], tiny_internet.lats, tiny_internet.lons
            )[0],
        )
        # The row holds the echo-reply positions only, in order.
        at = replying(tiny_internet)
        assert row.shape == at.shape
        unicast = ~tiny_internet.is_anycast[at]
        assert unicast.any()
        assert np.array_equal(row[unicast], at_host[at][unicast])

    def test_anycast_targets_resolve_to_a_site(self, tiny_campaign, tiny_internet):
        dep = tiny_internet.deployments[0]
        expected = int(dep.catchment(tiny_campaign.platform.lats, tiny_campaign.platform.lons)[0])
        assert site_seen(tiny_campaign, 0, 0) == expected

    def test_different_vps_may_see_different_sites(self, tiny_campaign, tiny_internet):
        seen = {site_seen(tiny_campaign, vp_idx, 0) for vp_idx in range(0, 60, 4)}
        assert len(seen) > 1  # a 45-site deployment serves VPs from many sites

    def test_coords_cached(self, tiny_campaign):
        a = tiny_campaign.base_row(0)
        b = tiny_campaign.base_row(0)
        assert a is b
        assert not a.flags.writeable

    @pytest.mark.parametrize("noise", ["stream", "keyed"])
    def test_base_row_equals_fresh_computation(self, tiny_internet, tiny_platform, noise):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=99, noise=noise)
        at = replying(tiny_internet)
        for vp_idx in (0, 7, 31, 59):
            got, want = campaign_row(campaign, vp_idx), fresh_row(campaign, vp_idx)
            assert np.array_equal(got, want[at])

    @pytest.mark.parametrize("noise", ["stream", "keyed"])
    def test_masked_reply_positions_keep_their_base_rtts(self, tiny_platform, noise):
        """A census whose probe mask drops echo-reply positions reads each
        probed one's base RTT through its rank among them: on jitter-free
        paths every recorded RTT is the full-length row's at its target."""
        latency = LatencyModel(jitter_ms_scale=0.0, spike_prob=0.0)
        internet = SyntheticInternet(
            InternetConfig(seed=7, n_unicast_slash24=300, tail_deployments=5, latency=latency)
        )
        campaign = CensusCampaign(internet, tiny_platform, seed=3, noise=noise)
        at = replying(internet)
        mask = np.ones(internet.n_targets, dtype=bool)
        mask[at[::3]] = False
        targets = ScanTargets.build(internet, lfsr_permutation(internet.n_targets, seed=1), mask)
        assert np.array_equal(at[targets.reply_rank], targets.reply_idx)
        assert 0 < len(targets.reply_idx) < len(at)
        for vp_idx in (0, 9):
            campaign._prepare_outcomes(1, campaign.rate_pps, [(vp_idx, False)])
            replies = campaign.scan_vp(vp_idx, census_id=1, targets=targets).records.replies()
            positions = internet.target_indices(replies.prefix)
            assert len(positions) and mask[positions].all()
            want = fresh_row(campaign, vp_idx)[positions].astype(np.float32)
            assert np.array_equal(replies.rtt_ms, want)

    def test_carried_rows_follow_moved_hosts(self, tiny_platform):
        """A predecessor over the same configuration but another gazetteer
        puts most unicast prefixes elsewhere: only scans of hosts at the
        very same place are carried, and every scan equals a cold one."""
        config = InternetConfig(seed=7, n_unicast_slash24=200, tail_deployments=0)
        catalog = full_catalog(seed=7)[:6]
        cities = default_city_db().cities
        before = SyntheticInternet(config, catalog=catalog, city_db=CityDB(cities[::2]))
        now = SyntheticInternet(config, catalog=catalog, city_db=CityDB(cities))
        previous = CensusCampaign(before, tiny_platform, noise="keyed")
        previous.run_census(availability=1.0)
        carried = CensusCampaign(now, tiny_platform, noise="keyed", previous=previous)
        cold = CensusCampaign(now, tiny_platform, noise="keyed")
        got, want = (c.run_census(availability=1.0) for c in (carried, cold))
        assert got.records.checksum() == want.records.checksum()
        assert got.vp_drop_rate.tobytes() == want.vp_drop_rate.tobytes()
        stayed = sum(
            a.prefix == b.prefix and a.location == b.location
            for a, b in zip(before.unicast_hosts, now.unicast_hosts)
        )
        assert stayed < len(now.unicast_hosts) // 2
        n_vps = len(tiny_platform)
        assert carried.counters["outcomes_carried"] == n_vps
        assert carried.counters["positions_scanned"] == n_vps * (now.n_targets - stayed)


class TestPrecensus:
    def test_builds_blacklist(self, tiny_internet, tiny_platform):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=1)
        added = campaign.run_precensus()
        assert added == len(campaign.blacklist)
        assert added > 0

    def test_blacklisted_prefixes_are_error_hosts(self, tiny_internet, tiny_platform):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=1)
        campaign.run_precensus()
        for prefix in campaign.blacklist.prefixes:
            assert tiny_internet.outcome_for(prefix).triggers_greylist


class TestCensus:
    def test_census_structure(self, tiny_census, tiny_platform):
        assert tiny_census.census_id == 1
        assert tiny_census.n_vps == len(tiny_platform)  # availability=1.0
        assert len(tiny_census.vp_duration_hours) == tiny_census.n_vps
        assert len(tiny_census.records) > 0

    def test_census_ids_increment(self, tiny_internet, tiny_platform):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=2)
        c1 = campaign.run_census()
        c2 = campaign.run_census()
        assert (c1.census_id, c2.census_id) == (1, 2)

    def test_availability_subsets_platform(self, tiny_internet, tiny_platform):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=3)
        census = campaign.run_census(availability=0.5)
        assert census.n_vps < len(tiny_platform)

    @pytest.mark.parametrize("availability", [0.0, -0.5, 1.5])
    def test_invalid_availability_rejected(self, tiny_internet, tiny_platform,
                                           availability):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=3)
        with pytest.raises(ValueError, match="availability"):
            campaign.run_census(availability=availability)
        # The failed call must not have consumed a census id.
        assert campaign.run_census().census_id == 1

    def test_blacklist_grows_across_censuses(self, tiny_internet, tiny_platform):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=4)
        campaign.run_census()
        size1 = len(campaign.blacklist)
        campaign.run_census()
        assert len(campaign.blacklist) >= size1

    def test_blacklisted_targets_not_probed_again(self, tiny_internet, tiny_platform):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=5)
        c1 = campaign.run_census()
        black = set(campaign.blacklist.prefixes)
        assert black  # some errors were greylisted and merged
        c2 = campaign.run_census()
        probed_again = {int(p) for p in c2.records.prefix}
        assert not black & probed_again

    def test_greylist_composition_dominated_by_code13(self, tiny_census):
        comp = tiny_census.greylist.composition()
        if comp:
            assert comp.get(IcmpOutcome.ADMIN_FILTERED, 0.0) > 0.7

    def test_run_performs_precensus_and_n_censuses(self, tiny_internet, tiny_platform):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=6)
        censuses = campaign.run(n_censuses=2)
        assert len(censuses) == 2
        assert len(campaign.blacklist) > 0

    def test_catchments_stable_across_censuses(self, tiny_internet, tiny_platform):
        """BGP routing is stable: the same VP sees the same replica."""
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=7)
        dep = tiny_internet.deployments[1]
        prefix = dep.prefixes[0]
        c1 = campaign.run_census(availability=1.0)
        c2 = campaign.run_census(availability=1.0)

        def min_rtts(census):
            replies = census.records.replies()
            mask = replies.prefix == prefix
            out = {}
            for vp_idx, rtt in zip(replies.vp_index[mask], replies.rtt_ms[mask]):
                name = census.platform.vantage_points[int(vp_idx)].name
                out[name] = min(out.get(name, np.inf), float(rtt))
            return out

        r1, r2 = min_rtts(c1), min_rtts(c2)
        common = set(r1) & set(r2)
        assert common
        # Same path baseline; per-probe jitter includes heavy spikes and
        # per-census VP degradation, so check that the *typical clean pair*
        # agrees: the lower quartile of deviations is small.
        diffs = sorted(abs(r1[name] - r2[name]) for name in common)
        assert diffs[len(diffs) // 4] < 10.0

    def test_reply_ratio(self, tiny_census, tiny_internet):
        ratio = tiny_census.reply_ratio(tiny_internet.n_targets)
        assert 0.2 < ratio < 0.9

    def test_empty_universe_is_an_empty_census(self):
        # No targets at all: the pre-census and the census still run and
        # hand downstream an empty (0, n_vps) matrix, not a ZeroDivisionError.
        internet = SyntheticInternet(
            InternetConfig(seed=1, n_unicast_slash24=0, tail_deployments=0), catalog=[]
        )
        platform = planetlab_platform(count=5, seed=1)
        first = CensusCampaign(internet, platform)
        censuses = first.run(1, 1.0)
        assert len(censuses[0].records) == 0
        assert len(censuses[0].greylist) == 0
        matrix = combine_censuses(censuses)
        assert matrix.rtt_ms.shape == (0, 5)
        assert analyze_matrix(matrix).n_anycast == 0
        # Nothing carries out of an empty world into one that has targets.
        grown = SyntheticInternet(internet.config, catalog=full_catalog(seed=1)[:2])
        carried = CensusCampaign(grown, platform, previous=first)
        cold = CensusCampaign(grown, platform)
        assert carried.base_row(0).tobytes() == cold.base_row(0).tobytes()
        assert carried.counters["catchments_carried"] == 0
        assert carried.counters["outcomes_carried"] == 0

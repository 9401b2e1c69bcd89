"""Tests for longitudinal census support."""

import numpy as np
import pytest

from repro.census.analysis import analyze_matrix
from repro.census.characterize import Characterization
from repro.census.combine import matrix_from_census
from repro.census.longitudinal import (
    EvolutionConfig,
    compare_epochs,
    evolve_catalog,
)
from repro.internet.catalog import full_catalog
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign


@pytest.fixture(scope="module")
def catalog():
    return full_catalog(tail_count=20, seed=7)


@pytest.fixture(scope="module")
def evolved(catalog):
    return evolve_catalog(catalog, seed=3)


class TestEvolveCatalog:
    def test_existing_entries_keep_identity(self, catalog, evolved):
        for old, new in zip(catalog, evolved):
            assert old.asn == new.asn
            assert old.n_slash24 == new.n_slash24
            assert old.ports == new.ports

    def test_new_adopters_appended(self, catalog, evolved):
        assert len(evolved) == len(catalog) + EvolutionConfig().new_adopters
        new = evolved[len(catalog):]
        old_asns = {e.asn for e in catalog}
        assert not old_asns & {e.asn for e in new}

    def test_some_growth_happens(self, catalog, evolved):
        grown = sum(
            1 for old, new in zip(catalog, evolved) if new.n_sites > old.n_sites
        )
        assert 0.15 * len(catalog) < grown < 0.5 * len(catalog)

    def test_sites_never_below_one(self, evolved):
        assert all(e.n_sites >= 1 for e in evolved)

    def test_deterministic(self, catalog):
        assert evolve_catalog(catalog, seed=3) == evolve_catalog(catalog, seed=3)
        assert evolve_catalog(catalog, seed=3) != evolve_catalog(catalog, seed=4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(growth_prob=1.5)
        with pytest.raises(ValueError):
            EvolutionConfig(new_adopters=-1)
        with pytest.raises(ValueError):
            EvolutionConfig(max_new_sites=0)


class TestWorldStability:
    """The properties that make epoch-over-epoch comparison meaningful."""

    @pytest.fixture(scope="class")
    def worlds(self, catalog, evolved):
        cfg = InternetConfig(seed=5, n_unicast_slash24=300, tail_deployments=0)
        return (
            SyntheticInternet(cfg, catalog=catalog),
            SyntheticInternet(cfg, catalog=evolved),
        )

    def test_prefixes_stable_for_existing_entries(self, worlds, catalog):
        t0, t1 = worlds
        for i in range(len(catalog)):
            assert t0.deployments[i].prefixes == t1.deployments[i].prefixes

    def test_unicast_hosts_identical(self, worlds):
        t0, t1 = worlds
        assert [h.prefix for h in t0.unicast_hosts] == [h.prefix for h in t1.unicast_hosts]
        assert [h.location for h in t0.unicast_hosts] == [h.location for h in t1.unicast_hosts]

    def test_unchanged_deployments_identical(self, worlds, catalog, evolved):
        t0, t1 = worlds
        for i, (old, new) in enumerate(zip(catalog, evolved)):
            if old.n_sites != new.n_sites:
                continue
            assert [r.city.key for r in t0.deployments[i].replicas] == [
                r.city.key for r in t1.deployments[i].replicas
            ]
            assert t0.deployments[i].catchment_seed == t1.deployments[i].catchment_seed

    def test_grown_deployments_keep_existing_sites(self, worlds, catalog, evolved):
        t0, t1 = worlds
        checked = 0
        for i, (old, new) in enumerate(zip(catalog, evolved)):
            if new.n_sites <= old.n_sites:
                continue
            before = [r.city.key for r in t0.deployments[i].replicas]
            after = [r.city.key for r in t1.deployments[i].replicas]
            assert after[: len(before)] == before
            checked += 1
        assert checked > 0


class TestCompareEpochs:
    @pytest.fixture(scope="class")
    def epoch_reports(self, catalog, evolved, city_db):
        cfg = InternetConfig(seed=5, n_unicast_slash24=200, tail_deployments=0)
        from repro.measurement.platform import planetlab_platform

        platform = planetlab_platform(count=80, seed=41, city_db=city_db)
        chars = []
        for cat in (catalog, evolved):
            internet = SyntheticInternet(cfg, catalog=cat, city_db=city_db)
            campaign = CensusCampaign(internet, platform, seed=77)
            matrix = matrix_from_census(campaign.run_census(availability=1.0))
            analysis = analyze_matrix(matrix, city_db=city_db)
            chars.append(Characterization(analysis, internet))
        return chars

    def test_report_partitions_ases(self, epoch_reports):
        before, after = epoch_reports
        report = compare_epochs(before.as_rows(), after.as_rows())
        assert report.n_tracked == len(
            set(before.footprints) | set(after.footprints)
        )

    def test_new_adopters_appear(self, epoch_reports):
        before, after = epoch_reports
        report = compare_epochs(before.as_rows(), after.as_rows())
        appeared_names = {c.name for c in report.appeared}
        assert any(name.startswith("NEW-ADOPTER") for name in appeared_names)

    def test_growth_observed_by_census(self, epoch_reports, catalog, evolved):
        """ASes whose ground truth grew should dominate the 'grown' list."""
        before, after = epoch_reports
        report = compare_epochs(before.as_rows(), after.as_rows())
        truly_grown = {
            new.asn for old, new in zip(catalog, evolved) if new.n_sites > old.n_sites
        }
        observed_grown = {c.asn for c in report.grown}
        # Most census-observed growth corresponds to true growth.
        if observed_grown:
            assert len(observed_grown & truly_grown) / len(observed_grown) > 0.6

    def test_no_change_no_motion(self, epoch_reports):
        before, _ = epoch_reports
        report = compare_epochs(before.as_rows(), before.as_rows())
        assert not report.grown
        assert not report.shrunk
        assert not report.appeared
        assert not report.disappeared


class TestCompareEpochsClassification:
    def test_min_delta_must_be_non_negative(self):
        empty = {}
        with pytest.raises(ValueError):
            compare_epochs(empty, empty, min_delta=-0.5)
        with pytest.raises(ValueError):
            compare_epochs(empty, empty, min_ip24_delta=-1)

    def test_ip24_only_growth_is_not_stable(self):
        before = {64500: ("CDN-A", 10.0, 4)}
        after = {64500: ("CDN-A", 10.2, 7)}
        report = compare_epochs(before, after)
        assert [c.asn for c in report.footprint_grown] == [64500]
        assert not report.stable
        assert not report.grown
        assert report.n_tracked == 1

    def test_ip24_only_shrink_is_not_stable(self):
        before = {64500: ("CDN-A", 10.0, 7)}
        after = {64500: ("CDN-A", 9.8, 4)}
        report = compare_epochs(before, after)
        assert [c.asn for c in report.footprint_shrunk] == [64500]
        assert report.footprint_shrunk[0].ip24_delta == -3
        assert not report.stable

    def test_replica_motion_wins_over_footprint_motion(self):
        before = {64500: ("CDN-A", 10.0, 4)}
        after = {64500: ("CDN-A", 13.0, 9)}
        report = compare_epochs(before, after)
        assert [c.asn for c in report.grown] == [64500]
        assert not report.footprint_grown

    def test_truly_stable_stays_stable(self):
        before = {64500: ("CDN-A", 10.0, 4)}
        report = compare_epochs(before, before)
        assert [c.asn for c in report.stable] == [64500]
        assert not report.footprint_grown
        assert not report.footprint_shrunk


class TestAdopterIdentity:
    """New adopters must never reuse an ASN, even across shrunk epochs."""

    def test_five_epoch_chain_has_unique_asns(self, catalog):
        cat = list(catalog)
        seen = [e.asn for e in cat]
        for epoch in range(5):
            cat = evolve_catalog(cat, seed=100 + epoch)
            new = cat[len(seen):]
            assert len(new) == EvolutionConfig().new_adopters
            for entry in new:
                assert entry.asn not in seen, (
                    f"epoch {epoch} reissued ASN {entry.asn}"
                )
                seen.append(entry.asn)
        assert len(seen) == len(set(seen))

    def test_shrunk_catalog_does_not_reissue_asns(self, catalog):
        """Dropping the newest entries must not recycle their ASNs."""
        evolved = evolve_catalog(catalog, seed=11)
        first_gen = {e.asn for e in evolved[len(catalog):]}
        shrunk = evolved[: len(catalog)]  # the newcomers churn out again
        regrown = evolve_catalog(shrunk, seed=12)
        second_gen = {e.asn for e in regrown[len(shrunk):]}
        assert not first_gen & second_gen

    def test_adopter_identity_is_seed_stable(self, catalog):
        a = evolve_catalog(catalog, seed=11)
        b = evolve_catalog(catalog, seed=11)
        assert [e.asn for e in a] == [e.asn for e in b]

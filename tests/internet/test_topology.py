"""Tests for the synthetic-Internet builder."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.internet.topology import (
    RESP_ADMIN_FILTERED,
    RESP_REPLY,
    RESP_SILENT,
    InternetConfig,
    SyntheticInternet,
    _routable_slash24_indices,
    responsiveness_outcome,
)
from repro.net.addresses import is_reserved, slash24_base_address
from repro.net.icmp import IcmpOutcome


@pytest.fixture(scope="module")
def net() -> SyntheticInternet:
    return SyntheticInternet(
        InternetConfig(seed=3, n_unicast_slash24=2000, tail_deployments=30)
    )


class TestConfig:
    def test_defaults_valid(self):
        InternetConfig()

    def test_negative_unicast_rejected(self):
        with pytest.raises(ValueError):
            InternetConfig(n_unicast_slash24=-1)

    def test_reply_fraction_bounds(self):
        with pytest.raises(ValueError):
            InternetConfig(reply_fraction=1.2)

    def test_error_fraction_incompatible(self):
        with pytest.raises(ValueError):
            InternetConfig(reply_fraction=0.99, error_fraction=0.05)

    def test_error_split_must_sum_to_one(self):
        with pytest.raises(ValueError):
            InternetConfig(error_split=(0.5, 0.3, 0.1))


class TestConstruction:
    def test_target_count(self, net):
        anycast = sum(len(d.prefixes) for d in net.deployments)
        assert net.n_targets == anycast + 2000
        assert net.n_anycast_slash24 == anycast

    def test_deployment_count(self, net):
        assert net.anycast_ases == 130  # top-100 + 30 tail

    def test_prefixes_unique(self, net):
        assert len(np.unique(net.prefixes)) == net.n_targets

    def test_no_reserved_prefixes(self, net):
        bases = [slash24_base_address(int(p)) for p in net.prefixes[:500]]
        assert not any(is_reserved(b) for b in bases)

    def test_deterministic_in_seed(self):
        cfg = InternetConfig(seed=9, n_unicast_slash24=100, tail_deployments=5)
        a = SyntheticInternet(cfg)
        b = SyntheticInternet(cfg)
        assert np.array_equal(a.prefixes, b.prefixes)
        assert np.array_equal(a.responsiveness, b.responsiveness)
        assert [r.city.key for d in a.deployments for r in d.replicas] == [
            r.city.key for d in b.deployments for r in d.replicas
        ]

    def test_different_seed_differs(self):
        a = SyntheticInternet(InternetConfig(seed=1, n_unicast_slash24=300, tail_deployments=5))
        b = SyntheticInternet(InternetConfig(seed=2, n_unicast_slash24=300, tail_deployments=5))
        assert not np.array_equal(a.responsiveness, b.responsiveness)

    def test_site_counts_match_catalog(self, net):
        for dep in net.deployments:
            assert len(dep.replicas) == dep.entry.n_sites
            assert len(dep.prefixes) == dep.entry.n_slash24

    def test_replica_cities_distinct_per_deployment(self, net):
        for dep in net.deployments[:20]:
            keys = [r.city.key for r in dep.replicas]
            assert len(set(keys)) == len(keys)

    def test_replicas_near_their_city(self, net):
        cfg = net.config
        for dep in net.deployments[:10]:
            for rep in dep.replicas:
                assert rep.location.distance_km(rep.city.location) <= cfg.site_scatter_km + 1e-6

    # Starts just below 169.254/16, 192.0.2/24, 198.18/15 and 198.51.100/24.
    @pytest.mark.parametrize("start_ip", [0xA9FD0000, 0xC0000100, 0xC611FF00, 0xC6336300])
    def test_allocator_skips_exactly_the_reserved_space(self, start_ip):
        candidates = range(start_ip >> 8, (start_ip >> 8) + 2048)
        want = [i for i in candidates if not is_reserved(slash24_base_address(i))]
        got = list(itertools.islice(_routable_slash24_indices(start_ip), len(want)))
        assert got == want


class TestEvolved:
    def test_rebuilds_only_what_the_catalog_touched(self, net):
        catalog = [d.entry for d in net.deployments]
        grown = [replace(catalog[0], n_sites=catalog[0].n_sites + 1)] + catalog[1:]
        child = net.evolved(grown)
        assert child.unicast_hosts is net.unicast_hosts
        assert child.deployments[0] is not net.deployments[0]
        assert all(a is b for a, b in zip(child.deployments[1:], net.deployments[1:]))
        cold = SyntheticInternet(net.config, grown, net.city_db)
        assert child.deployments == cold.deployments
        assert np.array_equal(child.lats, cold.lats)

    def test_a_deployment_shrunk_to_one_site_is_unicast(self, net):
        """Evolution can shrink a deployment to one site: its /24s stay in
        the deployment but are no longer anycast in the ground truth."""
        catalog = [d.entry for d in net.deployments]
        child = net.evolved([replace(catalog[0], n_sites=1)] + catalog[1:])
        shrunk = child.deployments[0]
        at = child.target_indices(np.array(shrunk.prefixes))
        assert len(shrunk.replicas) == 1
        assert not child.is_anycast[at].any()
        assert (child.deployment_index[at] == 0).all()
        assert child.n_anycast_slash24 == net.n_anycast_slash24 - len(shrunk.prefixes)
        assert child.anycast_ases == net.anycast_ases - 1

    def test_target_arrays_are_read_only(self, net):
        child = net.evolved([d.entry for d in net.deployments[:3]])
        for world in (net, child):
            for name in ("prefixes", "is_anycast", "deployment_index", "lats", "lons", "responsiveness"):
                assert not getattr(world, name).flags.writeable, name
        assert child.n_targets == net.n_targets - sum(
            len(d.prefixes) for d in net.deployments[3:]
        )
        assert np.array_equal(child.responsiveness[~child.is_anycast], net.responsiveness[~net.is_anycast])


class TestResponsiveness:
    def test_anycast_targets_always_reply(self, net):
        assert (net.responsiveness[net.is_anycast] == RESP_REPLY).all()

    def test_unicast_reply_fraction_close_to_config(self, net):
        uni = net.responsiveness[~net.is_anycast]
        frac = (uni == RESP_REPLY).mean()
        assert abs(frac - net.config.reply_fraction) < 0.05

    def test_error_fraction_close_to_config(self, net):
        uni = net.responsiveness[~net.is_anycast]
        errors = np.isin(uni, [2, 3, 4]).mean()
        assert abs(errors - net.config.error_fraction) < 0.02

    def test_admin_filtered_dominates_errors(self, net):
        uni = net.responsiveness[~net.is_anycast]
        errs = uni[np.isin(uni, [2, 3, 4])]
        if len(errs) >= 20:
            assert (errs == RESP_ADMIN_FILTERED).mean() > 0.9

    def test_outcome_decoding(self):
        assert responsiveness_outcome(RESP_REPLY) is IcmpOutcome.ECHO_REPLY
        assert responsiveness_outcome(RESP_SILENT) is IcmpOutcome.SILENT
        with pytest.raises(ValueError):
            responsiveness_outcome(77)


class TestQueries:
    def test_target_index_roundtrip(self, net):
        for pos in (0, 5, net.n_targets - 1):
            prefix = int(net.prefixes[pos])
            assert net.target_index(prefix) == pos

    def test_target_index_unknown(self, net):
        with pytest.raises(KeyError):
            net.target_index(1)  # 0.0.1.0/24 is never allocated

    def test_deployment_of_anycast(self, net):
        dep = net.deployments[0]
        assert net.deployment_of(dep.prefixes[0]) is dep

    def test_deployment_of_unicast(self, net):
        assert net.deployment_of(net.unicast_hosts[0].prefix) is None

    def test_true_site_cities(self, net):
        dep = net.deployments[0]
        cities = net.true_site_cities(dep.prefixes[0])
        assert len(cities) == dep.entry.n_sites

    def test_true_site_cities_unicast_rejected(self, net):
        with pytest.raises(ValueError):
            net.true_site_cities(net.unicast_hosts[0].prefix)

    def test_outcome_for(self, net):
        dep = net.deployments[0]
        assert net.outcome_for(dep.prefixes[0]) is IcmpOutcome.ECHO_REPLY

    def test_registry_ownership(self, net):
        dep = net.deployments[3]
        owner = net.registry.owner_of(dep.prefixes[0])
        assert owner is not None
        assert owner.asn == dep.entry.asn

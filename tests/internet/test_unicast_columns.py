"""The unicast half built column by column equals the host-by-host build.

:func:`scalar_unicast` is that host-by-host build, kept here as the
oracle: per host a city, a scatter bearing and distance drawn one
``uniform`` at a time through :func:`destination_point`, and a
responsiveness code drawn one ``random()`` at a time.  The world's
columns and hosts must equal it bit for bit, and the world columns at
the benchmark's world shapes must hash to digests pinned from the
host-by-host build.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.geo.coords import destination_point
from repro.internet.catalog import full_catalog
from repro.internet.deployments import UnicastHost
from repro.internet.topology import (
    RESP_ADMIN_FILTERED,
    RESP_HOST_PROHIBITED,
    RESP_NET_PROHIBITED,
    RESP_REPLY,
    RESP_SILENT,
    UNICAST_REGION_START,
    InternetConfig,
    SyntheticInternet,
    _first_routable_slash24s,
    _routable_slash24_indices,
)

COLUMNS = ("prefixes", "is_anycast", "deployment_index", "lats", "lons", "responsiveness")

#: The benchmark's world shapes at seed 2015: (unicast /24s, catalog tail,
#: catalog slice).  ``service-daily`` is its day-0 world (routed on BGP,
#: which changes no column).
SHAPES = {
    "paper": (8_000, 130, (None, None, 2)),
    "haystack": (60_000, 0, (1, None, 4)),
    "wide-roster": (2_000, 260, (None, None, 8)),
    "service-daily": (12_000, 0, (None, None, None)),
}

#: :func:`world_digest` of each shape, taken from the host-by-host build.
WORLD_DIGESTS = {
    "paper": "a08c3f699046d602d4a0a645185dd4888553d53b89a4d3c5fbe489df30a5430e",
    "haystack": "babe9c28992e9a47fc25bf0c9508b43fea965921202527e8996f51222c951273",
    "wide-roster": "2e3e48c1dfec0afd9a2e628a03a0fbd2e3ded9f2544c6d8ad9d8eef497bedd73",
    "service-daily": "4e828ffc8f76715afd58ddb6062b34ccf889f88d3bc8aa2ffd0a93bce4901a49",
}


def world_digest(net: SyntheticInternet) -> str:
    """sha256 over every per-target column: name, dtype, length, bytes."""
    sha = hashlib.sha256()
    for name in COLUMNS:
        column = getattr(net, name)
        sha.update(f"{name}:{column.dtype.str}:{len(column)}:".encode())
        sha.update(column.tobytes())
    return sha.hexdigest()


def shape_world(name: str) -> SyntheticInternet:
    n_unicast, tail, catalog = SHAPES[name]
    return SyntheticInternet(
        InternetConfig(seed=2015, n_unicast_slash24=n_unicast, tail_deployments=tail),
        catalog=full_catalog(tail_count=tail, seed=2015)[slice(*catalog)],
    )


def scalar_responsiveness(cfg: InternetConfig, rng: np.random.Generator) -> int:
    u = rng.random()
    if u < cfg.reply_fraction:
        return RESP_REPLY
    if u < cfg.reply_fraction + cfg.error_fraction:
        v = rng.random()
        s13, s10, _ = cfg.error_split
        if v < s13:
            return RESP_ADMIN_FILTERED
        if v < s13 + s10:
            return RESP_HOST_PROHIBITED
        return RESP_NET_PROHIBITED
    return RESP_SILENT


def scalar_unicast(cfg: InternetConfig, city_db):
    """The unicast hosts and their responsiveness codes, host by host."""
    rng = np.random.default_rng(cfg.seed * 1_000_003 + 777)
    allocator = _routable_slash24_indices(start_ip=UNICAST_REGION_START)
    hosts = []
    for city in city_db.sample(rng, cfg.n_unicast_slash24):
        bearing = float(rng.uniform(0.0, 360.0))
        distance = float(rng.uniform(0.0, cfg.host_scatter_km))
        hosts.append(
            UnicastHost(
                prefix=next(allocator),
                location=destination_point(city.location, bearing, distance),
                city=city,
            )
        )
    resp_rng = np.random.default_rng(cfg.seed)
    codes = [scalar_responsiveness(cfg, resp_rng) for _ in hosts]
    return tuple(hosts), codes


def bits(values) -> list:
    return [float(v).hex() for v in values]


#: The default funnel, and one where most draws err, so runs of erring
#: draws (each erring host takes two) are long and frequent.
CONFIGS = {
    "funnel": {},
    "erring": {"reply_fraction": 0.2, "error_fraction": 0.7, "error_split": (0.5, 0.3, 0.2)},
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 7, 2015, 4242])
@pytest.mark.parametrize("n_unicast", [0, 1, 200, 5000])
def test_columns_equal_the_host_by_host_build(n_unicast, seed, config):
    cfg = InternetConfig(seed=seed, n_unicast_slash24=n_unicast, **CONFIGS[config])
    net = SyntheticInternet(cfg, catalog=full_catalog(tail_count=0, seed=seed)[:3])
    hosts, codes = scalar_unicast(cfg, net.city_db)

    unicast = ~net.is_anycast
    assert net.prefixes[unicast].tolist() == [h.prefix for h in hosts]
    assert bits(net.lats[unicast]) == bits(h.location.lat for h in hosts)
    assert bits(net.lons[unicast]) == bits(h.location.lon for h in hosts)
    assert net.responsiveness[unicast].tolist() == codes
    assert net.unicast_hosts == hosts
    assert all(a.city is b.city for a, b in zip(net.unicast_hosts, hosts))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_world_columns_match_pinned_digests(shape):
    assert world_digest(shape_world(shape)) == WORLD_DIGESTS[shape]


# From the unicast region, and from just below 169.254/16 and 192.0.2/24.
@pytest.mark.parametrize("start_ip", [UNICAST_REGION_START, 0xA9FD0000, 0xC0000100])
@pytest.mark.parametrize("count", [0, 1, 70_000])
def test_prefix_block_equals_the_allocator(start_ip, count):
    want = list(itertools.islice(_routable_slash24_indices(start_ip), count))
    got = _first_routable_slash24s(start_ip, count)
    assert got.dtype == np.int64
    assert got.tolist() == want


class TestUnicastHosts:
    @pytest.fixture()
    def net(self):
        return SyntheticInternet(
            InternetConfig(seed=5, n_unicast_slash24=300),
            catalog=full_catalog(tail_count=0, seed=5)[:6],
        )

    def test_hosts_are_built_on_first_access_and_shared(self, net):
        child = net.evolved([d.entry for d in net.deployments[:4]])
        assert "hosts" not in vars(net._unicast)
        hosts = child.unicast_hosts
        assert hosts is net.unicast_hosts
        assert [h.prefix for h in hosts] == net.prefixes[~net.is_anycast].tolist()

    def test_lookups_agree_with_positions(self, net):
        positions = np.arange(net.n_targets)
        assert np.array_equal(net.target_indices(net.prefixes), positions)
        assert np.array_equal(net.target_indices(net.prefixes[::-1]), positions[::-1])
        assert [net.target_index(p) for p in net.prefixes.tolist()] == positions.tolist()
        assert net.target_indices([]).tolist() == []

    @pytest.mark.parametrize(
        "prefix", [0, 1, (UNICAST_REGION_START >> 8) - 1, None, np.iinfo(np.int64).max]
    )
    def test_unrouted_prefixes_raise(self, net, prefix):
        if prefix is None:  # just past the last routed /24
            prefix = int(net.prefixes[-1]) + 1
        assert prefix not in set(net.prefixes.tolist())
        with pytest.raises(KeyError):
            net.target_index(prefix)
        with pytest.raises(KeyError, match="not routed"):
            net.target_indices([int(net.prefixes[0]), prefix])

    def test_unascending_prefixes_are_refused(self, net):
        # An anycast catalog large enough to reach the unicast region
        # would interleave the two; the lookups need one ascending order.
        child = SyntheticInternet.__new__(SyntheticInternet)
        child.config, child.city_db, child._unicast = net.config, net.city_db, net._unicast
        child.deployments = list(reversed(net.deployments))
        with pytest.raises(ValueError, match="ascend"):
            child._freeze_arrays()

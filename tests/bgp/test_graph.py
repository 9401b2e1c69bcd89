"""Structure and determinism of the synthetic AS-relationship graph."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bgp import BgpConfig, build_as_graph
from repro.bgp.graph import TIER_STUB, TIER_T1, TIER_TRANSIT
from repro.geo.cities import default_city_db

CFG = BgpConfig(n_ases=256, n_tier1=6)

#: Graphs whose bytes are pinned: the default shape at several seeds plus
#: small, dense (stubs 2-3 homed) and sparse (no transit peering) shapes.
PINNED = {
    "default-2015": (BgpConfig(), 2015),
    "default-7777": (BgpConfig(), 7777),
    "default-1": (BgpConfig(), 1),
    "default-42": (BgpConfig(), 42),
    "default-9001": (BgpConfig(), 9001),
    "small-2015": (CFG, 2015),
    "dense-42": (
        BgpConfig(
            n_ases=600, n_tier1=8, transit_fraction=0.3, mean_providers=2.5,
            peer_degree=3.0, provider_candidates=5,
        ),
        42,
    ),
    "sparse-7": (
        BgpConfig(
            n_ases=64, n_tier1=2, transit_fraction=0.1, mean_providers=1.0,
            peer_degree=0.0, provider_candidates=1,
        ),
        7,
    ),
}

#: sha256 of :func:`graph_digest` for each pinned graph, taken from the
#: build that measured each AS's distances with its own haversine call.
GRAPH_DIGESTS = {
    "default-2015": "d9c8717d1f54b379297e7524bbef5a0d9990983c2a00b1fd7c8155da7bb253fc",
    "default-7777": "cd5672c822bcdd9d07ba0cbb327217e4b2638749f692799f36206d2e3e317927",
    "default-1": "3814695aa9560ad8b9b90040c89307e1848bef1f910994217c55b2a48b84219b",
    "default-42": "aa2381f5e8da9955b0d6fbe5a04187eb9609b371367c896a6767e5e003fd7a1c",
    "default-9001": "cf26ade2e405f68020b37a74794391bfb9884298747f853535f44268dfdeffd3",
    "small-2015": "50150e249c4e68748b29283645197a0de0e6479f8d713badb23854da159c5d1f",
    "dense-42": "e61e5a7cbff67a21fe54f6950cac2e99e80a99bd3e84424769f143bc896275d8",
    "sparse-7": "e87bb53b3b51c72f1bc1700fed8dbc3dc0a09c14ac9f927d6811641c12a26077",
}


def graph_digest(graph) -> str:
    """sha256 over tiers, provider and peer edge tuples, and AS coordinates."""
    h = hashlib.sha256()
    h.update(graph.tier.tobytes())
    for edges in (graph.provider_edges, graph.peer_edges):
        h.update(np.asarray(edges, dtype=np.int64).tobytes())
        h.update(b"|")
    h.update(graph.lats.tobytes())
    h.update(graph.lons.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def graph():
    return build_as_graph(CFG, seed=2015, city_db=default_city_db())


def test_same_seed_same_graph(graph):
    again = build_as_graph(CFG, seed=2015, city_db=default_city_db())
    assert np.array_equal(graph.tier, again.tier)
    assert graph.provider_edges == again.provider_edges
    assert graph.peer_edges == again.peer_edges
    assert np.array_equal(graph.lats, again.lats)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_graph_bytes_are_pinned(name):
    """Every draw in its order and every distance exact: same edges."""
    config, seed = PINNED[name]
    graph = build_as_graph(config, seed=seed, city_db=default_city_db())
    assert graph_digest(graph) == GRAPH_DIGESTS[name]


def test_different_seed_different_graph(graph):
    other = build_as_graph(CFG, seed=2016, city_db=default_city_db())
    assert graph.provider_edges != other.provider_edges


def test_tier_counts(graph):
    assert graph.n_ases == CFG.n_ases
    assert int((graph.tier == TIER_T1).sum()) == CFG.n_tier1
    assert int((graph.tier == TIER_TRANSIT).sum()) > 0
    # The stub fringe dominates, as in the real AS-relationship table.
    assert int((graph.tier == TIER_STUB).sum()) > CFG.n_ases // 2


def test_tier1_full_clique(graph):
    t1 = np.nonzero(graph.tier == TIER_T1)[0]
    for a in t1:
        peers = set(int(p) for p in graph.peers_of(int(a)))
        assert set(int(b) for b in t1 if b != a) <= peers
        # Tier-1s buy transit from nobody.
        assert len(graph.providers_of(int(a))) == 0


def test_everyone_below_tier1_has_a_provider(graph):
    for a in range(graph.n_ases):
        if graph.tier[a] != TIER_T1:
            assert len(graph.providers_of(a)) >= 1


def test_stubs_sell_no_transit(graph):
    for a in np.nonzero(graph.tier == TIER_STUB)[0]:
        assert len(graph.customers_of(int(a))) == 0


def test_index_partitions(graph):
    stubs = set(int(a) for a in graph.stub_indices())
    infra = set(int(a) for a in graph.infrastructure_indices())
    assert stubs.isdisjoint(infra)
    assert len(stubs) + len(infra) == graph.n_ases
    for a in graph.multihomed_stubs():
        assert int(a) in stubs
        assert len(graph.providers_of(int(a))) >= 2


def test_provider_edges_exposed_from_both_ends(graph):
    c, p = graph.provider_edges[0]
    assert p in set(int(x) for x in graph.providers_of(c))
    assert c in set(int(x) for x in graph.customers_of(p))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_ases": 4},
        {"n_tier1": 1},
        {"n_tier1": 200, "n_ases": 256},
        {"transit_fraction": 0.0},
        {"transit_fraction": 1.0},
        {"mean_providers": 0.5},
        {"mean_providers": 4.0},
        {"peer_degree": -1.0},
        {"provider_candidates": 0},
    ],
)
def test_config_validation(kwargs):
    base = {"n_ases": 256, "n_tier1": 6}
    base.update(kwargs)
    with pytest.raises(ValueError):
        BgpConfig(**base)


def test_with_seed_round_trip():
    assert BgpConfig().with_seed(7).seed == 7

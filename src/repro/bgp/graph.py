"""Synthetic CAIDA-style AS-relationship graph.

The CAIDA ``as-rel`` datasets describe the interdomain economy as two
edge kinds — provider-customer (``-1``) and peer-peer (``0``) — over a
graph with a characteristic shape: a small clique of tier-1 transit
providers peering with each other, a regional transit layer buying from
the clique (and selling downstream), and a large fringe of multihomed
stub networks that only buy.  :func:`build_as_graph` generates that
shape deterministically from a seed, with every AS homed in a gazetteer
city so that attachment (which AS serves a given coordinate) and
provider choice (networks buy transit nearby) stay geographically
plausible — the property that keeps BGP catchments correlated with, but
not equal to, great-circle proximity.

The graph is immutable once built and stored as flat CSR-style arrays
(providers / customers / peers per AS), which is what the propagation
engine's frontier sweeps consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geo.cities import CityDB, default_city_db
from ..geo.coords import pairwise_distances_km

#: Domain separator for every graph-construction draw: AS placement,
#: provider choice and peering are keyed on ``[_GRAPH_SALT, seed]`` and
#: can never collide with measurement or fault streams.
_GRAPH_SALT = 0xA5E19

#: AS tier codes (stored per AS in :attr:`AsGraph.tier`).
TIER_T1 = 0
TIER_TRANSIT = 1
TIER_STUB = 2


@dataclass(frozen=True)
class BgpConfig:
    """Shape of the synthetic AS-relationship graph.

    The defaults give a ~1k-AS miniature with CAIDA-like proportions:
    a dozen-ish tier-1s, a ~15% transit layer, and a stub fringe whose
    multihoming degree matches the broad strokes of the real table
    (most stubs single- or dual-homed).
    """

    n_ases: int = 1024
    n_tier1: int = 10
    #: Fraction of non-tier-1 ASes acting as regional transit.
    transit_fraction: float = 0.15
    #: Mean provider count of a stub (1..3, drawn per stub).
    mean_providers: float = 1.8
    #: Mean peer edges per transit AS (beyond the tier-1 clique).
    peer_degree: float = 2.0
    #: Candidate pool for distance-weighted provider choice.
    provider_candidates: int = 12
    #: Graph seed; ``None`` inherits the internet seed at build time.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_ases < 8:
            raise ValueError("n_ases must be >= 8")
        if not 2 <= self.n_tier1 <= self.n_ases // 2:
            raise ValueError("n_tier1 must be in [2, n_ases/2]")
        if not 0.0 < self.transit_fraction < 1.0:
            raise ValueError("transit_fraction must be in (0, 1)")
        if not 1.0 <= self.mean_providers <= 3.0:
            raise ValueError("mean_providers must be in [1, 3]")
        if self.peer_degree < 0.0:
            raise ValueError("peer_degree must be non-negative")
        if self.provider_candidates < 1:
            raise ValueError("provider_candidates must be >= 1")

    def with_seed(self, seed: int) -> "BgpConfig":
        from dataclasses import replace

        return replace(self, seed=seed)


class AsGraph:
    """An immutable AS-relationship graph in CSR form.

    ``providers_of(a)`` / ``customers_of(a)`` / ``peers_of(a)`` return
    index arrays; ``tier`` and ``lats``/``lons`` are parallel per-AS
    arrays.  Customer-provider edges are stored once and exposed from
    both ends.
    """

    def __init__(
        self,
        tier: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
        provider_edges: Sequence[Tuple[int, int]],
        peer_edges: Sequence[Tuple[int, int]],
    ) -> None:
        self.tier = np.asarray(tier, dtype=np.int8)
        self.lats = np.asarray(lats, dtype=np.float64)
        self.lons = np.asarray(lons, dtype=np.float64)
        n = len(self.tier)
        if len(self.lats) != n or len(self.lons) != n:
            raise ValueError("AsGraph array length mismatch")
        self._up_ptr, self._up_idx = _to_csr(
            n, [(c, p) for (c, p) in provider_edges]
        )
        self._down_ptr, self._down_idx = _to_csr(
            n, [(p, c) for (c, p) in provider_edges]
        )
        undirected = [(a, b) for (a, b) in peer_edges] + [
            (b, a) for (a, b) in peer_edges
        ]
        self._peer_ptr, self._peer_idx = _to_csr(n, undirected)
        self.provider_edges = tuple(provider_edges)
        self.peer_edges = tuple(peer_edges)

    @property
    def n_ases(self) -> int:
        return len(self.tier)

    @property
    def n_provider_edges(self) -> int:
        return len(self.provider_edges)

    @property
    def n_peer_edges(self) -> int:
        return len(self.peer_edges)

    def providers_of(self, a: int) -> np.ndarray:
        return self._up_idx[self._up_ptr[a] : self._up_ptr[a + 1]]

    def customers_of(self, a: int) -> np.ndarray:
        return self._down_idx[self._down_ptr[a] : self._down_ptr[a + 1]]

    def peers_of(self, a: int) -> np.ndarray:
        return self._peer_idx[self._peer_ptr[a] : self._peer_ptr[a + 1]]

    def stub_indices(self) -> np.ndarray:
        """ASes of the stub fringe (where eyeballs and VPs attach)."""
        return np.nonzero(self.tier == TIER_STUB)[0]

    def infrastructure_indices(self) -> np.ndarray:
        """Tier-1 + transit ASes (where anycast sites attach)."""
        return np.nonzero(self.tier != TIER_STUB)[0]

    def multihomed_stubs(self) -> np.ndarray:
        """Stubs with >= 2 providers — the route-leak candidates."""
        degree = np.diff(self._up_ptr)
        return np.nonzero((self.tier == TIER_STUB) & (degree >= 2))[0]


def _to_csr(n: int, edges: List[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted CSR adjacency from a (src, dst) edge list."""
    if not edges:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(ptr, src + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, dst


def build_as_graph(
    config: Optional[BgpConfig] = None,
    seed: int = 2015,
    city_db: Optional[CityDB] = None,
) -> AsGraph:
    """Deterministically generate a CAIDA-shaped AS graph.

    Every draw comes from one generator keyed on
    ``[_GRAPH_SALT, effective seed]``: the same (config, seed) pair
    always yields the same graph, independent of anything else the
    process has computed.  ``config.seed`` (when set) wins over the
    ``seed`` argument, so a :class:`BgpConfig` can pin its own world.
    """
    cfg = config or BgpConfig()
    effective_seed = cfg.seed if cfg.seed is not None else seed
    rng = np.random.default_rng([_GRAPH_SALT, effective_seed])
    db = city_db or default_city_db()
    cities = list(db.cities)
    pops = np.array([c.population for c in cities], dtype=np.float64)
    weights = pops / pops.sum()

    n = cfg.n_ases
    n_t1 = cfg.n_tier1
    n_transit = max(1, int(round((n - n_t1) * cfg.transit_fraction)))
    n_stub = n - n_t1 - n_transit

    tier = np.empty(n, dtype=np.int8)
    tier[:n_t1] = TIER_T1
    tier[n_t1 : n_t1 + n_transit] = TIER_TRANSIT
    tier[n_t1 + n_transit :] = TIER_STUB

    # Tier-1s sit in the biggest cities (one each, deterministic order);
    # everything else lands population-weighted, repeats allowed — real
    # metros host many ASes.
    by_pop = sorted(range(len(cities)), key=lambda i: (-cities[i].population, i))
    t1_cities = by_pop[:n_t1]
    rest = rng.choice(len(cities), size=n - n_t1, replace=True, p=weights)
    city_of = np.concatenate([np.array(t1_cities, dtype=np.int64), rest])
    lats = np.array([cities[i].location.lat for i in city_of])
    lons = np.array([cities[i].location.lon for i in city_of])

    provider_edges: List[Tuple[int, int]] = []  # (customer, provider)
    peer_edges: List[Tuple[int, int]] = []

    # Tier-1 clique: settlement-free peering all around.
    for a in range(n_t1):
        for b in range(a + 1, n_t1):
            peer_edges.append((a, b))

    # Every provider and transit peer is infrastructure (tier-1 or
    # transit, the index prefix [0, n_infra)): one distance matrix from
    # every AS to that prefix serves every choice below.  The haversine
    # is elementwise, so an entry equals the same pair computed alone.
    n_infra = n_t1 + n_transit
    dist = pairwise_distances_km(lats, lons, lats[:n_infra], lons[:n_infra])

    def pick_providers(a: int, n_pool: int, count: int) -> np.ndarray:
        """Distance-weighted provider choice among infrastructure ASes
        ``[0, n_pool)``.

        Transit is bought nearby: candidates are the
        ``provider_candidates`` geographically closest pool members,
        then ``count`` of them are drawn with inverse-distance weights.
        """
        d = dist[a, :n_pool]
        nearest = np.argsort(d, kind="stable")[: cfg.provider_candidates]
        w = 1.0 / (d[nearest] + 200.0)
        w /= w.sum()
        count = min(count, len(nearest))
        return rng.choice(nearest, size=count, replace=False, p=w)

    # Transit layer: 1-2 providers each, drawn from tier-1s plus
    # already-wired transit ASes (earlier indices), giving the layer a
    # shallow hierarchy rather than a flat star.
    for a in range(n_t1, n_infra):
        count = 1 + int(rng.random() < 0.5)
        for p in pick_providers(a, a, count):
            provider_edges.append((a, int(p)))

    # Transit peering: each transit AS peers with ~peer_degree of its
    # nearest transit siblings (deduplicated, no self-edges).
    transit = np.arange(n_t1, n_infra, dtype=np.int64)
    seen_peers = set()
    if len(transit) > 1 and cfg.peer_degree > 0:
        for a in transit:
            others = transit[transit != a]
            k = min(len(others), max(1, int(round(cfg.peer_degree))) + 2)
            near = others[np.argsort(dist[a, others], kind="stable")[:k]]
            want = min(len(near), max(1, int(rng.poisson(cfg.peer_degree))))
            chosen = rng.choice(near, size=want, replace=False)
            for b in chosen:
                edge = (min(int(a), int(b)), max(int(a), int(b)))
                if edge not in seen_peers:
                    seen_peers.add(edge)
                    peer_edges.append(edge)

    # Stub fringe: 1-3 providers each, bought from the transit layer
    # (never from other stubs; stubs sell to nobody).
    lo = cfg.mean_providers - 1.0  # P(>=2 providers)
    for a in range(n_infra, n):
        u = rng.random()
        if lo >= 1.0:
            count = 2 + int(u < (cfg.mean_providers - 2.0))
        else:
            count = 1 + int(u < lo)
        for p in pick_providers(a, n_infra, count):
            provider_edges.append((a, int(p)))

    assert n_stub == n - n_t1 - n_transit
    return AsGraph(
        tier=tier,
        lats=lats,
        lons=lons,
        provider_edges=provider_edges,
        peer_edges=peer_edges,
    )

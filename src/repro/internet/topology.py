"""Synthetic-Internet builder.

:class:`SyntheticInternet` is the ground truth every experiment measures
against: a routed /24 universe populated with anycast deployments (from the
catalog) and ordinary unicast hosts, plus per-host responsiveness behaviour
matching the census funnel of the paper's Fig. 4 (under half of the targets
reply; a small fraction returns administratively-prohibited ICMP errors).

The paper probes the real Internet's ~10.6M routed /24s to find ~1,700
anycast ones; we keep the anycast population at the paper's absolute scale
and shrink only the unicast haystack (configurable), because the unicast
mass contributes nothing to the anycast results except funnel statistics —
which we report in proportion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bgp.graph import BgpConfig
    from ..bgp.plane import BgpRoutingPlane

from ..geo.cities import City, CityDB, default_city_db
from ..geo.coords import GeoPoint, destination_point, destination_points
from ..net.addresses import RESERVED_PREFIXES
from ..net.asn import ASRegistry
from ..net.icmp import IcmpOutcome
from ..net.latency import DEFAULT_MODEL, LatencyModel
from .catalog import CatalogEntry, full_catalog
from .deployments import AnycastDeployment, Replica, UnicastHost, choose_replica_cities

# Per-target responsiveness behaviour, stored as a compact int8 code.
RESP_REPLY = 0
RESP_SILENT = 1
RESP_ADMIN_FILTERED = 2
RESP_HOST_PROHIBITED = 3
RESP_NET_PROHIBITED = 4

_RESP_TO_OUTCOME = {
    RESP_REPLY: IcmpOutcome.ECHO_REPLY,
    RESP_SILENT: IcmpOutcome.SILENT,
    RESP_ADMIN_FILTERED: IcmpOutcome.ADMIN_FILTERED,
    RESP_HOST_PROHIBITED: IcmpOutcome.HOST_PROHIBITED,
    RESP_NET_PROHIBITED: IcmpOutcome.NET_PROHIBITED,
}


def responsiveness_outcome(code: int) -> IcmpOutcome:
    """Decode a stored responsiveness code to the ICMP outcome it causes."""
    try:
        return _RESP_TO_OUTCOME[code]
    except KeyError:
        raise ValueError(f"unknown responsiveness code {code!r}") from None


@dataclass(frozen=True)
class InternetConfig:
    """Knobs of the synthetic Internet.

    ``n_unicast_slash24`` scales the unicast haystack; the anycast
    population always follows the catalog.  The responsiveness fractions
    reproduce the paper's funnel: <50% of hitlist targets reply, ~2.5%
    return greylistable errors, the rest are silent.
    """

    seed: int = 2015
    n_unicast_slash24: int = 20_000
    tail_deployments: int = 260
    reply_fraction: float = 0.45
    error_fraction: float = 0.025
    #: Split of the error mass across ICMP codes 13/10/9 (paper Sec. 3.3).
    error_split: Sequence[float] = (0.985, 0.013, 0.002)
    #: BGP-policy noise for catchments (0 = purely geographic routing).
    policy_sigma: float = 0.25
    #: Max scatter of a server from its city center, km.
    site_scatter_km: float = 15.0
    host_scatter_km: float = 40.0
    latency: LatencyModel = DEFAULT_MODEL
    #: Catchment substrate: ``"geo"`` (default) keeps the lognormal
    #: policy-penalty heuristic and is byte-identical to historic output;
    #: ``"bgp"`` routes every deployment over a synthetic AS-relationship
    #: graph with Gao-Rexford propagation (see :mod:`repro.bgp`).
    routing: str = "geo"
    #: Shape of the AS graph in BGP mode; ``None`` uses defaults keyed on
    #: :attr:`seed`.  Ignored (and rejected) in geo mode.
    bgp: Optional["BgpConfig"] = None

    def __post_init__(self) -> None:
        if self.n_unicast_slash24 < 0:
            raise ValueError("n_unicast_slash24 must be non-negative")
        if not 0.0 <= self.reply_fraction <= 1.0:
            raise ValueError("reply_fraction must be in [0, 1]")
        if not 0.0 <= self.error_fraction <= 1.0 - self.reply_fraction:
            raise ValueError("error_fraction incompatible with reply_fraction")
        if abs(sum(self.error_split) - 1.0) > 1e-9:
            raise ValueError("error_split must sum to 1")
        if self.routing not in ("geo", "bgp"):
            raise ValueError(f"routing must be 'geo' or 'bgp', got {self.routing!r}")
        if self.bgp is not None and self.routing != "bgp":
            raise ValueError("bgp config requires routing='bgp'")


#: Anycast prefixes are allocated from 1.0.0.0 upward; unicast hosts from
#: 24.0.0.0 upward.  Separate regions keep unicast prefixes stable when the
#: anycast catalog evolves between census epochs.
ANYCAST_REGION_START = 0x01000000
UNICAST_REGION_START = 0x18000000


def _routable_runs(start_ip: int) -> Iterator[range]:
    """The runs of routable /24 prefix indices from ``start_ip`` up.

    Every reserved block is a /24 or shorter, so each covers one run of
    /24 indices; the walk jumps over the runs instead of testing every
    index against every block.
    """
    index = start_ip >> 8
    for block in sorted(RESERVED_PREFIXES, key=lambda p: p.base):
        first = block.base >> 8
        yield range(index, first)
        index = max(index, first + (1 << (24 - block.length)))
    yield range(index, 1 << 24)


def _routable_slash24_indices(start_ip: int = ANYCAST_REGION_START) -> Iterator[int]:
    """Yield /24 prefix indices skipping reserved address space."""
    return itertools.chain.from_iterable(_routable_runs(start_ip))


def _first_routable_slash24s(start_ip: int, count: int) -> np.ndarray:
    """The first ``count`` indices :func:`_routable_slash24_indices`
    yields, as an int64 array."""
    taken = [np.empty(0, dtype=np.int64)]
    for run in _routable_runs(start_ip):
        take = min(count, len(run))
        taken.append(np.arange(run.start, run.start + take, dtype=np.int64))
        count -= take
    return np.concatenate(taken)


@dataclass(frozen=True, eq=False)
class _UnicastHalf:
    """The unicast half of a world: parallel read-only columns, one row
    per host in allocation order.

    :attr:`hosts` builds the :class:`UnicastHost` objects from the columns
    on first access; worlds derived by :meth:`SyntheticInternet.evolved`
    share one half, hence one tuple of hosts.
    """

    prefixes: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    responsiveness: np.ndarray
    #: Gazetteer index of each host's city.
    cities: np.ndarray
    city_db: CityDB

    def __post_init__(self) -> None:
        for column in (self.prefixes, self.lats, self.lons, self.responsiveness, self.cities):
            column.setflags(write=False)

    @cached_property
    def hosts(self) -> Tuple[UnicastHost, ...]:
        city_at = self.city_db.city_at
        return tuple(
            UnicastHost(prefix=prefix, location=GeoPoint(lat, lon), city=city_at(city))
            for prefix, lat, lon, city in zip(
                self.prefixes.tolist(), self.lats.tolist(), self.lons.tolist(), self.cities.tolist()
            )
        )


class SyntheticInternet:
    """The complete ground truth: deployments, hosts, and prefix ownership.

    Construction is deterministic in ``config.seed``.  All per-target state
    is held in parallel numpy arrays indexed by *target index* (the position
    of the /24 in :attr:`prefixes`), which is what the vectorized
    measurement simulator iterates over: the anycast /24s first, in catalog
    order, then the unicast hosts.

    The world has two independent halves.  The *unicast half* (hosts,
    their prefixes, coordinates and responsiveness) draws from its own
    generators in its own address region and never depends on the
    catalog; the *anycast half* (registry, deployments, their target
    slice) is a function of the catalog alone.  :meth:`evolved` uses the
    split to derive a world for another catalog without rebuilding what
    the catalog cannot touch.
    """

    def __init__(
        self,
        config: Optional[InternetConfig] = None,
        catalog: Optional[Sequence[CatalogEntry]] = None,
        city_db: Optional[CityDB] = None,
    ) -> None:
        self.config = config or InternetConfig()
        self.city_db = city_db or default_city_db()
        if catalog is None:
            catalog = full_catalog(tail_count=self.config.tail_deployments, seed=self.config.seed)
        self._unicast = self._build_unicast()
        self._build_anycast(catalog, reusable=())

        # The BGP routing plane exists only in bgp mode and draws from its
        # own keyed generator — geo-mode construction consumes exactly the
        # streams it always has, keeping historic output byte-identical.
        self.bgp_plane: Optional["BgpRoutingPlane"] = None
        if self.config.routing == "bgp":
            from ..bgp.plane import BgpRoutingPlane

            self.bgp_plane = BgpRoutingPlane.for_internet(self)

    def evolved(self, catalog: Sequence[CatalogEntry]) -> "SyntheticInternet":
        """The world this one becomes under another deployment catalog.

        Equal, array for array and deployment for deployment, to
        ``SyntheticInternet(self.config, catalog, self.city_db)`` — but
        only what the catalog can change is rebuilt:

        * the unicast half is taken from this world: its columns (all
          read-only) copied behind the new anycast slice of every
          per-target array, and its hosts, shared;
        * the BGP routing plane is shared too — its graph depends on the
          seed alone, and its routes are cached on the exact announcement
          set, so a deployment whose announcements did not move finds its
          routes already propagated;
        * an :class:`AnycastDeployment` is reused whenever its catalog
          entry and its allocated prefix block are both unchanged (every
          deployment is a pure function of the two, through its keyed
          generator); the others, and the registry and the anycast target
          slice, are rebuilt.

        The shared plane's route cache is pruned to the new world's
        announcement sets, so a long chain of evolutions holds one day's
        routes, not every day's.
        """
        child = SyntheticInternet.__new__(SyntheticInternet)
        child.config = self.config
        child.city_db = self.city_db
        child._unicast = self._unicast
        child._build_anycast(catalog, reusable=self.deployments)
        child.bgp_plane = self.bgp_plane
        if child.bgp_plane is not None:
            child.bgp_plane.retain(child.deployments)
        return child

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _entry_rng(self, entry: CatalogEntry) -> np.random.Generator:
        """Per-deployment generator, keyed by (config seed, ASN).

        Decoupling deployments from each other (and from the unicast
        population) keeps the world stable under *evolution*: growing one
        AS's footprint for a later census epoch leaves every other entity —
        sites, scatter, catchments, prefixes — bit-identical, which is what
        makes longitudinal comparisons meaningful.
        """
        return np.random.default_rng(
            (self.config.seed * 1_000_003 + entry.asn * 2_654_435_761) % (2**63)
        )

    def _build_deployment(
        self, entry: CatalogEntry, prefixes: List[int]
    ) -> AnycastDeployment:
        rng = self._entry_rng(entry)
        site_cities = choose_replica_cities(entry, self.city_db.cities, rng)
        replicas = [
            Replica(
                city=c,
                location=self._scatter(c.location, self.config.site_scatter_km, rng),
            )
            for c in site_cities
        ]
        return AnycastDeployment(
            entry=entry,
            replicas=replicas,
            prefixes=prefixes,
            alexa_prefixes=prefixes[: entry.alexa_ip24],
            policy_sigma=self.config.policy_sigma,
            catchment_seed=int(rng.integers(0, 2**31)),
            local_scope_km=entry.local_scope_km,
        )

    def _build_anycast(
        self,
        catalog: Sequence[CatalogEntry],
        reusable: Sequence[AnycastDeployment],
    ) -> None:
        """Registry, deployments and the target arrays for ``catalog``.

        A deployment of ``reusable`` with the same entry and the same
        allocated prefix block is taken as is instead of being rebuilt.
        """
        by_block = {dep.prefixes[0]: dep for dep in reusable}
        allocator = _routable_slash24_indices(start_ip=ANYCAST_REGION_START)
        self.registry = ASRegistry()
        self.deployments: List[AnycastDeployment] = []
        for entry in catalog:
            self.registry.add(entry.autonomous_system)
            prefixes = [next(allocator) for _ in range(entry.n_slash24)]
            deployment = by_block.get(prefixes[0])
            if (
                deployment is None
                or deployment.entry != entry
                or deployment.prefixes != prefixes
            ):
                deployment = self._build_deployment(entry, prefixes)
            self.deployments.append(deployment)
            for p in prefixes:
                self.registry.assign_prefix(p, entry.asn)
        self._freeze_arrays()

    def _build_unicast(self) -> _UnicastHalf:
        """The unicast half, column by column.

        Unicast hosts draw from their own generators and their own address
        region, independent of the anycast catalog.  The draws are those
        of a host-by-host build, in its order: the hosts' cities, then per
        host a scatter bearing and distance (``Generator.uniform(lo, hi)``
        is ``lo + (hi - lo) * random()``, so one ``random(2n)`` block holds
        them interleaved), and the responsiveness from a generator of its
        own.
        """
        cfg, n = self.config, self.config.n_unicast_slash24
        rng = np.random.default_rng(cfg.seed * 1_000_003 + 777)
        cities = self.city_db.sample_indices(rng, n)
        scatter = rng.random(2 * n)
        city_lats, city_lons = self.city_db.coordinates()
        lats, lons = destination_points(
            city_lats[cities],
            city_lons[cities],
            0.0 + 360.0 * scatter[0::2],
            0.0 + cfg.host_scatter_km * scatter[1::2],
        )
        return _UnicastHalf(
            prefixes=_first_routable_slash24s(UNICAST_REGION_START, n),
            lats=lats,
            lons=lons,
            responsiveness=self._draw_responsiveness(np.random.default_rng(cfg.seed), n),
            cities=cities,
            city_db=self.city_db,
        )

    @staticmethod
    def _scatter(center: GeoPoint, max_km: float, rng: np.random.Generator) -> GeoPoint:
        bearing = float(rng.uniform(0.0, 360.0))
        distance = float(rng.uniform(0.0, max_km))
        return destination_point(center, bearing, distance)

    def _freeze_arrays(self) -> None:
        """The per-target arrays (read-only): the anycast slice, then the
        unicast half.  The anycast region lies below the unicast one, so
        :attr:`prefixes` ascends strictly, which the prefix lookups use."""
        deployments, unicast = self.deployments, self._unicast
        counts = np.array([len(d.prefixes) for d in deployments], dtype=np.int64)
        n_anycast = int(counts.sum())
        n_total = n_anycast + len(unicast.prefixes)

        anycast_prefixes = [p for d in deployments for p in d.prefixes]
        # Placeholder coordinates: anycast targets sit at their primary
        # replica; they are resolved per vantage point through the
        # deployment's catchment.
        anchors = [d.replicas[0].location for d in deployments]
        anchor_lats = np.array([a.lat for a in anchors], dtype=np.float64)
        anchor_lons = np.array([a.lon for a in anchors], dtype=np.float64)

        self.prefixes = np.concatenate(
            [np.array(anycast_prefixes, dtype=np.int64), unicast.prefixes]
        )
        if (np.diff(self.prefixes) <= 0).any():
            raise ValueError("target prefixes must ascend strictly")
        # Ground truth: a /24 is anycast when its deployment answers from
        # two or more sites.  One that evolution shrank to a single site
        # is unicast, though it keeps its deployment (``deployment_index``).
        multi_site = np.array([len(d.replicas) >= 2 for d in deployments], dtype=bool)
        self.is_anycast = np.zeros(n_total, dtype=bool)
        self.is_anycast[:n_anycast] = np.repeat(multi_site, counts)
        self.deployment_index = np.full(n_total, -1, dtype=np.int32)
        self.deployment_index[:n_anycast] = np.repeat(
            np.arange(len(deployments), dtype=np.int32), counts
        )
        self.lats = np.concatenate([np.repeat(anchor_lats, counts), unicast.lats])
        self.lons = np.concatenate([np.repeat(anchor_lons, counts), unicast.lons])
        self.responsiveness = np.concatenate(
            [np.full(n_anycast, RESP_REPLY, dtype=np.int8), unicast.responsiveness]
        )
        for array in (
            self.prefixes, self.is_anycast, self.deployment_index,
            self.lats, self.lons, self.responsiveness,
        ):
            array.setflags(write=False)

    def _draw_responsiveness(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Responsiveness codes of ``n`` hosts: one ``random()`` per host,
        and a second, which error, for a host that errs.

        The draws come as one block of ``2n`` (enough for every host to
        err).  Within a run of erring draws, a host's first draw sits at
        each even offset from the run's start, and the draw after it is
        that host's second; every other draw is some host's first.
        """
        cfg = self.config
        reply, error = cfg.reply_fraction, cfg.reply_fraction + cfg.error_fraction
        s13, s10, _ = cfg.error_split
        draws = rng.random(2 * n)
        erring = (draws >= reply) & (draws < error)
        starts = erring.copy()
        starts[1:] &= ~erring[:-1]
        at = np.arange(2 * n)
        offset = at - np.maximum.accumulate(np.where(starts, at, 0))
        second = np.zeros(2 * n, dtype=bool)
        second[1:] = (erring & (offset % 2 == 0))[:-1]
        first = np.flatnonzero(~second)[:n]
        u, v = draws[first], draws[first + 1]
        return np.select(
            [u < reply, u >= error, v < s13, v < s13 + s10],
            [RESP_REPLY, RESP_SILENT, RESP_ADMIN_FILTERED, RESP_HOST_PROHIBITED],
            RESP_NET_PROHIBITED,
        ).astype(np.int8)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def unicast_hosts(self) -> Tuple[UnicastHost, ...]:
        """The unicast hosts in target order, built from the unicast
        half's columns on first access and shared with every world
        :meth:`evolved` derives."""
        return self._unicast.hosts

    @property
    def n_targets(self) -> int:
        return len(self.prefixes)

    @property
    def n_anycast_slash24(self) -> int:
        return int(self.is_anycast.sum())

    @property
    def anycast_ases(self) -> int:
        return sum(len(d.replicas) >= 2 for d in self.deployments)

    def target_index(self, prefix: int) -> int:
        """Target-array position of a /24 prefix index."""
        pos = int(np.searchsorted(self.prefixes, prefix))
        if pos == len(self.prefixes) or self.prefixes[pos] != prefix:
            raise KeyError(f"prefix index {prefix} not routed")
        return pos

    def target_indices(self, prefixes) -> np.ndarray:
        """Target-array positions of many /24 prefix indices at once.

        One ``searchsorted`` over :attr:`prefixes` (ascending).  Raises
        :class:`KeyError` naming the first unrouted prefixes.
        """
        query = np.asarray(
            prefixes if isinstance(prefixes, np.ndarray) else list(prefixes), dtype=np.int64
        )
        pos = np.searchsorted(self.prefixes, query).astype(np.int64)
        routed = pos < len(self.prefixes)
        routed[routed] = self.prefixes[pos[routed]] == query[routed]
        if not routed.all():
            missing = query[~routed][:5].tolist()
            raise KeyError(f"prefix indices not routed: {missing}")
        return pos

    @cached_property
    def prefix_owners(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every registered /24, ascending, and its owner's ASN (int64).

        A sentinel past every prefix (owner -1) closes the table, so a
        ``searchsorted`` lookup always lands on a slot, and an unregistered
        /24 on one that is not its own.  Worlds are read-only, so the table
        is built once per world.
        """
        registry = self.registry
        owned = sorted(
            (prefix, owner.asn)
            for owner in registry
            for prefix in registry.prefixes_of(owner.asn)
        ) + [(np.iinfo(np.int64).max, -1)]
        return (
            np.array([p for p, _ in owned], dtype=np.int64),
            np.array([a for _, a in owned], dtype=np.int64),
        )

    def deployment_of(self, prefix: int) -> Optional[AnycastDeployment]:
        """The deployment announcing a /24, or ``None`` for unicast."""
        pos = self.target_index(prefix)
        dep_idx = int(self.deployment_index[pos])
        return self.deployments[dep_idx] if dep_idx >= 0 else None

    def true_site_cities(self, prefix: int) -> List[City]:
        """Ground-truth replica cities of an anycast /24."""
        dep = self.deployment_of(prefix)
        if dep is None:
            raise ValueError(f"prefix index {prefix} is unicast")
        return dep.site_cities

    def outcome_for(self, prefix: int) -> IcmpOutcome:
        """Probe outcome class for a /24 (reply / silent / error family)."""
        return responsiveness_outcome(int(self.responsiveness[self.target_index(prefix)]))

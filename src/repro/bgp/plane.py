"""Binding the BGP routing plane to the synthetic Internet.

:class:`BgpRoutingPlane` owns one AS-relationship graph and answers the
question the census actually cares about: *which replica site serves a
given client location?*  The pieces:

* **client attachment** — every coordinate (vantage point, unicast host)
  belongs to the geographically nearest *stub* AS: eyeballs live in
  access networks, and which access network is a deterministic function
  of where you are;
* **site attachment** — every anycast replica announces from the nearest
  *infrastructure* AS (tier-1 or transit): anycast sites sit in carrier
  PoPs, not in access networks;
* **per-deployment propagation** — the deployment's sites become one
  announcement set (in site order), Gao-Rexford propagation yields each
  AS's serving site, and the client attachment maps that to a
  per-client catchment.

Baseline routes are cached on the deployment's exact announcement set —
:func:`~repro.bgp.propagation.propagate_batch` is a pure function of
(graph, announcements) per set, so the key is exact by construction, and
a plane can be shared by every epoch of an evolving world (see
:meth:`~repro.internet.topology.SyntheticInternet.evolved`): a deployment
whose sites did not move finds its routes already propagated, one that
grew or shrank misses and propagates.
:meth:`BgpRoutingPlane.pristine_routes` propagates every miss of a list
of deployments in one batch.  Routing *events* (prepend, regional
announce, withdrawal, hijack) perturb the announcement set via the
keyword arguments of :meth:`BgpRoutingPlane.deployment_routes` and
bypass the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..geo.coords import pairwise_distances_km
from .graph import AsGraph, BgpConfig, build_as_graph
from .propagation import (
    SCOPE_CUSTOMER_CONE,
    SCOPE_GLOBAL,
    Announcement,
    RoutingOutcome,
    propagate,
    propagate_batch,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..internet.deployments import AnycastDeployment
    from ..internet.topology import SyntheticInternet

#: Chunk size for client-attachment distance computations, bounding the
#: temporary distance matrix regardless of client count.
_ATTACH_CHUNK = 4096


@dataclass
class DeploymentRoutes:
    """Propagated routes of one deployment's announcement set."""

    announcements: Tuple[Announcement, ...]
    outcome: RoutingOutcome


class BgpRoutingPlane:
    """The routing plane: one AS graph plus attachment and catchments."""

    def __init__(self, graph: AsGraph) -> None:
        self.graph = graph
        self._stubs = graph.stub_indices()
        self._infra = graph.infrastructure_indices()
        if len(self._stubs) == 0 or len(self._infra) == 0:
            raise ValueError("BGP graph needs both stub and infrastructure ASes")
        self._attach_cache: Dict[bytes, np.ndarray] = {}
        #: Replica-coordinate bytes -> origin AS per site (see
        #: :meth:`site_attachments`).
        self._site_cache: Dict[bytes, np.ndarray] = {}
        self._routes_cache: Dict[Tuple[Announcement, ...], DeploymentRoutes] = {}
        #: Announcement sets propagated so far (distinct cache misses and
        #: engineered sets) — what a traced epoch reports as its routing
        #: cost.
        self.routes_propagated = 0

    @classmethod
    def for_internet(cls, internet: "SyntheticInternet") -> "BgpRoutingPlane":
        """Build the plane for a synthetic Internet's configuration.

        The graph is keyed on the internet seed (unless the
        :class:`~repro.bgp.graph.BgpConfig` pins its own) and shares the
        internet's gazetteer, so AS homes and replica cities live in the
        same coordinate universe.
        """
        cfg = internet.config.bgp or BgpConfig()
        graph = build_as_graph(cfg, seed=internet.config.seed, city_db=internet.city_db)
        return cls(graph)

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach_clients(
        self, lats: Sequence[float], lons: Sequence[float]
    ) -> np.ndarray:
        """Nearest stub AS per client coordinate (deterministic, no RNG)."""
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        key = lats.tobytes() + lons.tobytes()
        cached = self._attach_cache.get(key)
        if cached is not None:
            return cached
        stub_lats = self.graph.lats[self._stubs]
        stub_lons = self.graph.lons[self._stubs]
        out = np.empty(len(lats), dtype=np.int64)
        for start in range(0, len(lats), _ATTACH_CHUNK):
            sl = slice(start, start + _ATTACH_CHUNK)
            d = pairwise_distances_km(lats[sl], lons[sl], stub_lats, stub_lons)
            out[sl] = self._stubs[np.argmin(d, axis=1)]
        out.setflags(write=False)
        self._attach_cache[key] = out
        return out

    def attach_infrastructure(
        self, lats: Sequence[float], lons: Sequence[float]
    ) -> np.ndarray:
        """Nearest infrastructure (tier-1/transit) AS per coordinate."""
        d = pairwise_distances_km(
            lats, lons, self.graph.lats[self._infra], self.graph.lons[self._infra]
        )
        return self._infra[np.argmin(d, axis=1)]

    @staticmethod
    def _site_key(deployment: "AnycastDeployment") -> bytes:
        """The exact replica coordinates of a deployment, as bytes."""
        coords = np.array(
            [(r.location.lat, r.location.lon) for r in deployment.replicas],
            dtype=np.float64,
        )
        return coords.tobytes()

    def site_attachments(self, deployment: "AnycastDeployment") -> np.ndarray:
        """Origin AS per replica site (nearest infrastructure AS; read-only).

        Memoised on the exact replica coordinates, like
        :meth:`attach_clients`: a deployment carried into another epoch
        finds its origins already attached.
        """
        key = self._site_key(deployment)
        cached = self._site_cache.get(key)
        if cached is None:
            rep_lats = [r.location.lat for r in deployment.replicas]
            rep_lons = [r.location.lon for r in deployment.replicas]
            cached = self.attach_infrastructure(rep_lats, rep_lons)
            cached.setflags(write=False)
            self._site_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def announcements_for(
        self,
        deployment: "AnycastDeployment",
        *,
        prepend: Optional[Mapping[int, int]] = None,
        regional: Optional[Set[int]] = None,
        withdrawn: Optional[Set[int]] = None,
    ) -> Tuple[Announcement, ...]:
        """The deployment's announcement set, optionally engineered.

        ``prepend`` maps site index → prepended hops; ``regional``
        restricts those sites to their customer cone; ``withdrawn``
        removes sites outright.  A deployment configured with
        ``local_scope_km`` announces its secondary sites regionally —
        the BGP-mode reading of the geo-mode scope radius.
        """
        origins = self.site_attachments(deployment)
        anns = []
        for s, origin in enumerate(origins):
            if withdrawn and s in withdrawn:
                continue
            scope = SCOPE_GLOBAL
            if deployment.local_scope_km is not None and s > 0:
                scope = SCOPE_CUSTOMER_CONE
            if regional and s in regional:
                scope = SCOPE_CUSTOMER_CONE
            hops = int(prepend.get(s, 0)) if prepend else 0
            anns.append(
                Announcement(origin_as=int(origin), site=s, prepend=hops, scope=scope)
            )
        return tuple(anns)

    def deployment_routes(
        self,
        deployment: "AnycastDeployment",
        *,
        prepend: Optional[Mapping[int, int]] = None,
        regional: Optional[Set[int]] = None,
        withdrawn: Optional[Set[int]] = None,
        extra: Sequence[Announcement] = (),
    ) -> DeploymentRoutes:
        """Propagate one deployment's announcements (cached when pristine).

        Pristine routes are those of :meth:`pristine_routes`.

        ``extra`` announcements (hijackers, leaks) are appended *after*
        the deployment's own; the per-AS tiebreak keys of the baseline
        announcements are unchanged by the append, so the uncaptured part
        of the catchment stays exactly where it was.
        """
        if not prepend and not regional and not withdrawn and not extra:
            return self.pristine_routes([deployment])[0]
        anns = self.announcements_for(
            deployment, prepend=prepend, regional=regional, withdrawn=withdrawn
        ) + tuple(extra)
        if not anns:
            raise ValueError(
                f"{deployment.entry.name}: no announcements left to propagate"
            )
        self.routes_propagated += 1
        return DeploymentRoutes(announcements=anns, outcome=propagate(self.graph, anns))

    def pristine_routes(
        self, deployments: Sequence["AnycastDeployment"]
    ) -> List[DeploymentRoutes]:
        """Each deployment's unengineered routes, in order.

        Routes are cached on the announcement tuple itself, and their
        outcome arrays are read-only: every caller shares them.  The
        distinct tuples not yet cached are propagated in one
        :func:`~repro.bgp.propagation.propagate_batch` call, in first-seen
        order.
        """
        keys = [self.announcements_for(dep) for dep in deployments]
        for dep, anns in zip(deployments, keys):
            if not anns:
                raise ValueError(
                    f"{dep.entry.name}: no announcements left to propagate"
                )
        missing = list(dict.fromkeys(k for k in keys if k not in self._routes_cache))
        for anns, outcome in zip(missing, propagate_batch(self.graph, missing)):
            outcome.freeze()
            self._routes_cache[anns] = DeploymentRoutes(announcements=anns, outcome=outcome)
        self.routes_propagated += len(missing)
        return [self._routes_cache[anns] for anns in keys]

    def retain(self, deployments: Sequence["AnycastDeployment"]) -> None:
        """Drop every cached route but ``deployments``' pristine ones.

        Called when the plane moves on to another epoch's world: the
        caches then hold one world's announcement sets and site origins,
        however many epochs the plane has served.  Client attachments are
        dropped too (they are keyed on rosters, which move between
        epochs).
        """
        keep = {self.announcements_for(dep) for dep in deployments}
        self._routes_cache = {
            anns: routes for anns, routes in self._routes_cache.items() if anns in keep
        }
        sites = {self._site_key(dep) for dep in deployments}
        self._site_cache = {
            key: origins for key, origins in self._site_cache.items() if key in sites
        }
        self._attach_cache = {}

    # ------------------------------------------------------------------
    # Catchments
    # ------------------------------------------------------------------

    def catchment(
        self,
        deployment: "AnycastDeployment",
        client_lats: Sequence[float],
        client_lons: Sequence[float],
        *,
        routes: Optional[DeploymentRoutes] = None,
    ) -> np.ndarray:
        """Serving-site index per client — the BGP replacement for
        :meth:`repro.internet.deployments.AnycastDeployment.catchment`.

        Clients whose AS holds no route (possible only for cone-scoped
        announcement sets) fall back to the geographically nearest
        *globally announced* replica: their traffic still goes somewhere,
        just not via the engineered path.
        """
        routes = routes or self.deployment_routes(deployment)
        attach = self.attach_clients(client_lats, client_lons)
        site = routes.outcome.site[attach].astype(np.int64)
        unreachable = site < 0
        if unreachable.any():
            lats = np.asarray(client_lats, dtype=np.float64)[unreachable]
            lons = np.asarray(client_lons, dtype=np.float64)[unreachable]
            announced = {
                a.site for a in routes.announcements if a.site < deployment.site_count
            }
            candidates = sorted(
                {
                    a.site
                    for a in routes.announcements
                    if a.scope == SCOPE_GLOBAL and a.site < deployment.site_count
                }
                or announced
            ) or list(range(deployment.site_count))
            rep_lats = [deployment.replicas[s].location.lat for s in candidates]
            rep_lons = [deployment.replicas[s].location.lon for s in candidates]
            d = pairwise_distances_km(lats, lons, rep_lats, rep_lons)
            site[unreachable] = np.asarray(candidates, dtype=np.int64)[
                np.argmin(d, axis=1)
            ]
        return site

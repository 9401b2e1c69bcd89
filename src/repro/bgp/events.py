"""Routing chaos: keyed route-event injection against the census.

The hijack/leak detector is only as good as the adversities it has been
exercised against, so this module injects *routing-plane* events — BGP
facts, not measurement faults — and makes them visible to the census the
only way real ones are: through the RTT matrix they perturb.

* **MOAS hijack** — a second origin announces the victim /24; VPs whose
  best route prefers the attacker measure RTTs toward the attacker's
  location instead of their true catchment site.
* **Subprefix hijack** — the attacker announces a more-specific; longest
  prefix match wins everywhere, so every VP is captured at once.
* **Route leak** — a multihomed stub re-exports a learned route to its
  other provider (the Gao-Rexford violation); captured VPs keep their
  geolocation but their RTT inflates by the detour through the leaker.
* **Flap** — unstable announcements; a keyed subset of the victim's
  cells simply fails to measure this epoch.
* **Withdrawal** — the victim prefix vanishes from the routed table and
  therefore from the matrix.
* **Prepend / regional announce** — legitimate catchment engineering:
  the deployment re-announces with AS-path prepending or customer-cone
  scope at one site, moving VPs between sites with *plausible* RTTs.
  These must NOT alarm — they are what operators do on purpose.

Every draw is keyed on ``[_ROUTE_SALT, plan seed, event index, event
epoch]``: the same plan replayed against the same world perturbs the
same cells with the same values, no matter what ran before — the same
contract :mod:`repro.measurement.faults` established for measurement
chaos.  An empty plan is inert and leaves the matrix object untouched
(not copied), preserving byte-identical output for chaos-free runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..geo.coords import GeoPoint, pairwise_distances_km
from .propagation import Announcement, propagate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..census.combine import RttMatrix
    from ..internet.deployments import AnycastDeployment
    from ..internet.topology import SyntheticInternet

#: Domain separator for route-event draws; see module docstring.
_ROUTE_SALT = 0x40073


class RouteEventKind(str, enum.Enum):
    """The injectable routing-plane event types."""

    MOAS_HIJACK = "moas-hijack"
    SUBPREFIX_HIJACK = "subprefix-hijack"
    ROUTE_LEAK = "route-leak"
    FLAP = "flap"
    WITHDRAWAL = "withdrawal"
    PREPEND = "prepend"
    REGIONAL_ANNOUNCE = "regional-announce"


@dataclass(frozen=True)
class RouteEvent:
    """One routing-plane event, active for ``duration`` epochs.

    ``victim_prefix`` / ``attacker_city`` / ``leaker_as`` may be left
    unset, in which case the injector resolves them with a keyed draw —
    chaos suites get varied-but-reproducible targets without hand-picking
    them.
    """

    kind: RouteEventKind
    #: First epoch the event is active.
    epoch: int
    #: Number of consecutive epochs the event stays active.
    duration: int = 1
    #: /24 prefix index under attack/engineering; keyed draw when None.
    victim_prefix: Optional[int] = None
    #: Gazetteer city name the attacker announces from; keyed draw when None.
    attacker_city: Optional[str] = None
    #: Site index targeted by prepend/regional-announce/withdrawal.
    site_index: int = 0
    #: Hops prepended by a PREPEND event.
    prepend: int = 3
    #: Leaking AS index; keyed draw among multihomed stubs when None.
    leaker_as: Optional[int] = None
    #: Per-cell loss probability of a FLAP event.
    flap_loss: float = 0.5

    def __post_init__(self) -> None:
        self.__dict__["kind"] = RouteEventKind(self.kind)
        if self.epoch < 0:
            raise ValueError("event epoch must be non-negative")
        if self.duration < 1:
            raise ValueError("event duration must be >= 1")
        if self.site_index < 0:
            raise ValueError("site_index must be non-negative")
        if self.prepend < 1:
            raise ValueError("prepend must be >= 1")
        if not 0.0 < self.flap_loss <= 1.0:
            raise ValueError("flap_loss must be in (0, 1]")

    def active_at(self, epoch: int) -> bool:
        return self.epoch <= epoch < self.epoch + self.duration


@dataclass(frozen=True)
class RouteEventPlan:
    """A reproducible schedule of routing-plane events.

    The default plan is empty and *inert*: the injector returns the
    matrix object unchanged, so configurations that never mention chaos
    cannot be perturbed by it.
    """

    events: Tuple[RouteEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        self.__dict__["events"] = tuple(self.events)

    @property
    def enabled(self) -> bool:
        return bool(self.events)

    @classmethod
    def single(cls, event: RouteEvent, seed: int = 0) -> "RouteEventPlan":
        return cls(events=(event,), seed=seed)

    def with_seed(self, seed: int) -> "RouteEventPlan":
        return replace(self, seed=seed)

    def events_at(self, epoch: int) -> List[Tuple[int, RouteEvent]]:
        """(plan index, event) pairs active at an epoch, in plan order."""
        return [(i, e) for i, e in enumerate(self.events) if e.active_at(epoch)]


class RouteEventInjector:
    """Applies a plan's active events to one epoch's RTT matrix.

    Requires a BGP-mode internet (``internet.bgp_plane`` must exist):
    route events are routing-plane facts, and capture sets come from real
    propagation over the AS graph, not from coin flips.
    """

    def __init__(self, plan: RouteEventPlan, internet: "SyntheticInternet") -> None:
        if getattr(internet, "bgp_plane", None) is None:
            raise ValueError(
                "route events require routing='bgp' (internet has no BGP plane)"
            )
        self.plan = plan
        self.internet = internet
        self.plane = internet.bgp_plane

    # ------------------------------------------------------------------
    # Keyed draws
    # ------------------------------------------------------------------

    def _rng(self, event_index: int, event: RouteEvent, *extra: int) -> np.random.Generator:
        return np.random.default_rng(
            [_ROUTE_SALT, self.plan.seed, event_index, event.epoch, *extra]
        )

    def _resolve_victim(
        self, event_index: int, event: RouteEvent, matrix: "RttMatrix"
    ) -> Optional[int]:
        """The /24 under attack; keyed draw from the kind's victim pool.

        Origin hijacks and route leaks default to *registered-unicast*
        victims — the canonical detectable incident (the paper's Sec. 5
        proposal scopes data-plane hijack detection to knowingly-unicast
        prefixes; attacks that merely add apparent sites to an existing
        anycast deployment sit below the detectability floor).  The
        anycast-native events (subprefix capture, flaps, withdrawals,
        traffic engineering) default to anycast victims.
        """
        if event.victim_prefix is not None:
            return int(event.victim_prefix)
        registered = self.internet.deployment_index >= 0
        if event.kind in (RouteEventKind.MOAS_HIJACK, RouteEventKind.ROUTE_LEAK):
            pool = self.internet.prefixes[~registered]
        else:
            pool = np.asarray(self.internet.prefixes[registered])
        present = pool[np.isin(pool, matrix.prefixes)]
        if len(present) == 0:
            return None
        rng = self._rng(event_index, event, 1)
        return int(present[int(rng.integers(0, len(present)))])

    def _resolve_attacker_city(self, event_index: int, event: RouteEvent, victim_sites):
        """Attacker's city — far from every victim site when keyed.

        An attacker inside a victim's own metro is below the census's
        detectability floor *by construction* (capture there looks
        exactly like traffic consolidating onto that site), so keyed
        draws prefer cities at least 1500 km from every victim site and
        only degrade when the gazetteer offers nothing farther.  An
        explicit ``attacker_city`` is honored verbatim — co-located
        attackers are a legitimate edge case to exercise.
        """
        cities = list(self.internet.city_db.cities)
        if event.attacker_city is not None:
            for c in cities:
                if c.name == event.attacker_city:
                    return c
            raise ValueError(f"unknown attacker city {event.attacker_city!r}")
        rng = self._rng(event_index, event, 2)
        order = rng.permutation(len(cities))
        site_lats = [p.lat for p in victim_sites]
        site_lons = [p.lon for p in victim_sites]
        for min_km in (1500.0, 0.0):
            for i in order:
                c = cities[int(i)]
                if site_lats:
                    d = pairwise_distances_km(
                        [c.location.lat], [c.location.lon], site_lats, site_lons
                    )[0]
                    if (d < min_km).any():
                        continue
                return c
        return cities[int(order[0])]

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def perturb(
        self, matrix: "RttMatrix", epoch: int
    ) -> Tuple["RttMatrix", List[Dict]]:
        """Apply all events active at ``epoch``; returns (matrix, records).

        With no active events the input matrix is returned *as is*.
        Otherwise a copy is perturbed and a JSON-ready record per event
        describes what was done (for the archive manifest).
        """
        active = self.plan.events_at(epoch)
        if not active:
            return matrix, []

        from ..census.combine import RttMatrix

        work = RttMatrix(
            prefixes=matrix.prefixes.copy(),
            vp_names=list(matrix.vp_names),
            vp_locations=list(matrix.vp_locations),
            rtt_ms=matrix.rtt_ms.copy(),
            sample_count=matrix.sample_count.copy(),
        )
        records: List[Dict] = []
        for event_index, event in active:
            record = {
                "kind": event.kind.value,
                "event_index": event_index,
                "epoch": epoch,
                "applied": False,
            }
            victim = self._resolve_victim(event_index, event, work)
            if victim is None or victim not in set(int(p) for p in work.prefixes):
                record["reason"] = "victim prefix absent from matrix"
                records.append(record)
                continue
            record["prefix"] = int(victim)
            handler = {
                RouteEventKind.MOAS_HIJACK: self._apply_moas,
                RouteEventKind.SUBPREFIX_HIJACK: self._apply_subprefix,
                RouteEventKind.ROUTE_LEAK: self._apply_leak,
                RouteEventKind.FLAP: self._apply_flap,
                RouteEventKind.WITHDRAWAL: self._apply_withdrawal,
                RouteEventKind.PREPEND: self._apply_engineering,
                RouteEventKind.REGIONAL_ANNOUNCE: self._apply_engineering,
            }[event.kind]
            work = handler(work, epoch, event_index, event, victim, record)
            records.append(record)
        return work, records

    # -- helpers --------------------------------------------------------

    def _vp_coords(self, matrix: "RttMatrix") -> Tuple[np.ndarray, np.ndarray]:
        lats = np.array([p.lat for p in matrix.vp_locations], dtype=np.float64)
        lons = np.array([p.lon for p in matrix.vp_locations], dtype=np.float64)
        return lats, lons

    def _deployment_for(self, victim: int) -> Optional["AnycastDeployment"]:
        try:
            return self.internet.deployment_of(victim)
        except KeyError:
            return None

    def _rewrite_cells(
        self,
        matrix: "RttMatrix",
        row: int,
        captured: np.ndarray,
        distances_km: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Re-measure captured cells as paths to a new location."""
        latency = self.internet.config.latency
        base = latency.path_rtt_ms(distances_km[captured], rng)
        matrix.rtt_ms[row, captured] = latency.probe_rtt_ms(base, rng).astype(np.float32)
        matrix.sample_count[row, captured] = np.maximum(
            matrix.sample_count[row, captured], 1
        )

    # -- event handlers -------------------------------------------------

    def _apply_moas(self, matrix, epoch, event_index, event, victim, record):
        # MOAS works against anycast deployments *and* unicast prefixes —
        # the detectable (and canonical) incident is an attacker
        # originating a registered-unicast prefix, which turns it
        # apparently anycast in the next census.
        dep = self._deployment_for(victim)
        host_at = None if dep is not None else self._unicast_location_for(victim)
        if dep is None and host_at is None:
            record["reason"] = "victim prefix unknown to the substrate"
            return matrix
        victim_sites = (
            [r.location for r in dep.replicas]
            if dep is not None
            else [host_at]
        )
        attacker = self._resolve_attacker_city(event_index, event, victim_sites)
        attacker_as = int(
            self.plane.attach_infrastructure(
                [attacker.location.lat], [attacker.location.lon]
            )[0]
        )
        vp_lats, vp_lons = self._vp_coords(matrix)
        vp_as = self.plane.attach_clients(vp_lats, vp_lons)
        if dep is not None:
            extra = Announcement(origin_as=attacker_as, site=dep.site_count)
            routes = self.plane.deployment_routes(dep, extra=[extra])
            attacker_idx = len(routes.announcements) - 1
            captured = routes.outcome.announcement[vp_as] == attacker_idx
        else:
            origin = int(
                self.plane.attach_clients(
                    [host_at.lat], [host_at.lon]
                )[0]
            )
            anns = (
                Announcement(origin_as=origin, site=0),
                Announcement(origin_as=attacker_as, site=1),
            )
            outcome = propagate(self.plane.graph, anns)
            captured = outcome.announcement[vp_as] == 1
        record.update(
            attacker_city=attacker.name,
            attacker_as=attacker_as,
            captured_vps=int(captured.sum()),
            vp_fraction=float(captured.mean()) if len(captured) else 0.0,
        )
        if not captured.any():
            record["reason"] = "attacker captured no vantage points"
            return matrix
        row = matrix.row_of(victim)
        d = pairwise_distances_km(
            vp_lats, vp_lons, [attacker.location.lat], [attacker.location.lon]
        )[:, 0]
        self._rewrite_cells(matrix, row, captured, d, self._rng(event_index, event, 3))
        record["applied"] = True
        return matrix

    def _apply_subprefix(self, matrix, epoch, event_index, event, victim, record):
        dep = self._deployment_for(victim)
        if dep is None:
            record["reason"] = "victim is unicast"
            return matrix
        attacker = self._resolve_attacker_city(
            event_index, event, [r.location for r in dep.replicas]
        )
        # Longest-prefix match beats policy: the more-specific wins at
        # every AS, so every VP measures the attacker.
        vp_lats, vp_lons = self._vp_coords(matrix)
        captured = np.ones(len(vp_lats), dtype=bool)
        record.update(
            attacker_city=attacker.name,
            captured_vps=int(captured.sum()),
            vp_fraction=1.0,
        )
        row = matrix.row_of(victim)
        d = pairwise_distances_km(
            vp_lats, vp_lons, [attacker.location.lat], [attacker.location.lon]
        )[:, 0]
        self._rewrite_cells(matrix, row, captured, d, self._rng(event_index, event, 3))
        record["applied"] = True
        return matrix

    def _unicast_location_for(self, victim: int) -> Optional[GeoPoint]:
        """Where a unicast victim's host sits, or ``None`` if unrouted."""
        try:
            pos = self.internet.target_index(victim)
        except KeyError:
            return None
        return GeoPoint(float(self.internet.lats[pos]), float(self.internet.lons[pos]))

    def _apply_leak(self, matrix, epoch, event_index, event, victim, record):
        # Leaks work against anycast deployments *and* unicast prefixes —
        # the canonical real-world incident is a multihomed stub leaking
        # someone's unicast route to its other provider.
        dep = self._deployment_for(victim)
        host_at = None if dep is not None else self._unicast_location_for(victim)
        if dep is None and host_at is None:
            record["reason"] = "victim prefix unknown to the substrate"
            return matrix
        vp_lats, vp_lons = self._vp_coords(matrix)
        vp_as = self.plane.attach_clients(vp_lats, vp_lons)
        if event.leaker_as is not None:
            candidates = [int(event.leaker_as)]
        else:
            pool = self.plane.graph.multihomed_stubs()
            if len(pool) == 0:
                record["reason"] = "no multihomed stub to leak through"
                return matrix
            rng = self._rng(event_index, event, 4)
            # A random stub often leaks into a corner of the topology no
            # vantage point routes through; try a bounded keyed sample
            # and keep the first leaker that actually captures traffic.
            order = rng.permutation(len(pool))[:16]
            candidates = [int(pool[int(i)]) for i in order]

        base = base_anns = base_outcome = None
        if dep is not None:
            base = self.plane.deployment_routes(dep)
            old_site = self.plane.catchment(dep, vp_lats, vp_lons, routes=base)
            old_lats = np.array([dep.replicas[int(s)].location.lat for s in old_site])
            old_lons = np.array([dep.replicas[int(s)].location.lon for s in old_site])
        else:
            origin = int(
                self.plane.attach_clients([host_at.lat], [host_at.lon])[0]
            )
            base_anns = (Announcement(origin_as=origin, site=0),)
            base_outcome = propagate(self.plane.graph, base_anns)
            old_lats = np.full(len(vp_lats), host_at.lat)
            old_lons = np.full(len(vp_lats), host_at.lon)
        # Element-wise VP -> old-endpoint distances (the pairwise helper
        # is all-pairs; these are matched pairs).
        d_old = np.array(
            [
                pairwise_distances_km(
                    [vp_lats[j]], [vp_lons[j]], [old_lats[j]], [old_lons[j]]
                )[0, 0]
                for j in range(len(vp_lats))
            ]
        )

        def detour_ms(leaker: int, site_loc, captured: np.ndarray) -> np.ndarray:
            """RTT inflation per VP: VP -> leaker -> leaked endpoint,
            versus the direct path to the VP's old endpoint.  Same
            endpoints as far as geolocation is concerned (RTT grows,
            position does not move) — the signature the leak verdict
            keys on."""
            leaker_lat = self.plane.graph.lats[leaker]
            leaker_lon = self.plane.graph.lons[leaker]
            d_vp_leaker = pairwise_distances_km(
                vp_lats, vp_lons, [leaker_lat], [leaker_lon]
            )[:, 0]
            d_leaker_site = pairwise_distances_km(
                [leaker_lat], [leaker_lon], [site_loc.lat], [site_loc.lon]
            )[0, 0]
            detour_km = np.maximum(d_vp_leaker + d_leaker_site - d_old, 0.0)
            return self.internet.config.latency.propagation_rtt_ms(
                detour_km
            ).astype(np.float32)

        chosen = None
        best_score = 0.0
        reason = "leaker holds no route to victim"
        for leaker in candidates:
            if dep is not None:
                leak_site = int(base.outcome.site[leaker])
                if leak_site < 0:
                    continue
                leak_ann = Announcement(
                    origin_as=leaker, site=leak_site,
                    prepend=int(base.outcome.path_len[leaker]), leak=True,
                )
                outcome = self.plane.deployment_routes(dep, extra=[leak_ann]).outcome
                loc = dep.replicas[leak_site].location
            else:
                leak_site = 0
                if int(base_outcome.site[leaker]) < 0:
                    continue
                leak_ann = Announcement(
                    origin_as=leaker, site=0,
                    prepend=int(base_outcome.path_len[leaker]), leak=True,
                )
                outcome = propagate(self.plane.graph, base_anns + (leak_ann,))
                loc = host_at
            captured = outcome.via_leak[vp_as]
            if not captured.any():
                reason = "leak captured no vantage points"
                continue
            # Prefer the leaker whose detour is both wide and *slow*: a
            # stub on the victim's own path detours nothing and leaves
            # no census-visible symptom.
            inflation = detour_ms(leaker, loc, captured)
            score = float(captured.sum()) * (
                1.0 + float(np.median(inflation[captured]))
            )
            if score > best_score:
                best_score = score
                chosen = (leaker, leak_site, captured, loc, inflation)
        if chosen is None:
            record["reason"] = reason
            return matrix
        leaker, leak_site, captured, site_loc, inflation = chosen
        record.update(
            leaker_as=leaker,
            leak_site=leak_site,
            captured_vps=int(captured.sum()),
            vp_fraction=float(captured.mean()) if len(captured) else 0.0,
        )
        row = matrix.row_of(victim)
        cells = captured & ~np.isnan(matrix.rtt_ms[row])
        matrix.rtt_ms[row, cells] += inflation[cells]
        record["applied"] = bool(cells.any())
        if not record["applied"]:
            record["reason"] = "no measured cells to inflate"
        record["median_inflation_ms"] = (
            float(np.median(inflation[cells])) if cells.any() else 0.0
        )
        return matrix

    def _apply_flap(self, matrix, epoch, event_index, event, victim, record):
        rng = self._rng(event_index, event, epoch, 5)
        row = matrix.row_of(victim)
        lost = rng.random(matrix.n_vps) < event.flap_loss
        measured = ~np.isnan(matrix.rtt_ms[row])
        lost &= measured
        matrix.rtt_ms[row, lost] = np.nan
        matrix.sample_count[row, lost] = 0
        record.update(
            lost_vps=int(lost.sum()),
            vp_fraction=float(lost.mean()) if len(lost) else 0.0,
            applied=bool(lost.any()),
        )
        return matrix

    def _apply_withdrawal(self, matrix, epoch, event_index, event, victim, record):
        from ..census.combine import RttMatrix

        row = matrix.row_of(victim)
        keep = np.ones(matrix.n_targets, dtype=bool)
        keep[row] = False
        record.update(applied=True)
        return RttMatrix(
            prefixes=matrix.prefixes[keep],
            vp_names=matrix.vp_names,
            vp_locations=matrix.vp_locations,
            rtt_ms=matrix.rtt_ms[keep],
            sample_count=matrix.sample_count[keep],
        )

    def _apply_engineering(self, matrix, epoch, event_index, event, victim, record):
        """Prepend / regional announce: legitimate catchment movement."""
        dep = self._deployment_for(victim)
        if dep is None:
            record["reason"] = "victim is unicast"
            return matrix
        site = min(event.site_index, dep.site_count - 1)
        if event.kind is RouteEventKind.PREPEND:
            routes = self.plane.deployment_routes(dep, prepend={site: event.prepend})
        else:
            routes = self.plane.deployment_routes(dep, regional={site})
        base = self.plane.deployment_routes(dep)
        vp_lats, vp_lons = self._vp_coords(matrix)
        old_site = self.plane.catchment(dep, vp_lats, vp_lons, routes=base)
        new_site = self.plane.catchment(dep, vp_lats, vp_lons, routes=routes)
        moved = old_site != new_site
        record.update(
            site_index=site,
            moved_vps=int(moved.sum()),
            vp_fraction=float(moved.mean()) if len(moved) else 0.0,
        )
        if not moved.any():
            record["reason"] = "engineering moved no vantage points"
            return matrix
        new_lats = np.array([dep.replicas[int(s)].location.lat for s in new_site])
        new_lons = np.array([dep.replicas[int(s)].location.lon for s in new_site])
        d_new = np.array(
            [
                pairwise_distances_km(
                    [vp_lats[j]], [vp_lons[j]], [new_lats[j]], [new_lons[j]]
                )[0, 0]
                for j in range(len(vp_lats))
            ]
        )
        rng = self._rng(event_index, event, 6)
        # Every prefix of the deployment moves together: the engineering
        # is per announcement, and all the deployment's /24s share it.
        wanted = np.fromiter((int(p) for p in dep.prefixes), dtype=np.int64)
        present_mask = np.isin(wanted, matrix.prefixes.astype(np.int64))
        rows = matrix.rows_of(wanted[present_mask])
        # Rows rewrite in deployment-prefix order: _rewrite_cells draws
        # from a sequential RNG stream, so the order is part of the bytes.
        for row in rows:
            self._rewrite_cells(matrix, int(row), moved, d_new, rng)
        record["applied"] = True
        record["prefixes_moved"] = int(present_mask.sum())
        return matrix

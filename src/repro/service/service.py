"""The longitudinal census service: dated runs over an evolving internet.

One :class:`CensusService` owns an archive and a deterministic recipe
for epoch *k*'s world: the base deployment catalog chain-evolved *k*
times (:func:`~repro.census.longitudinal.evolve_catalog`, one fixed
seed per step), the same synthetic-internet seed, the same platform.
Running epoch *k* is therefore a pure function — which is what makes
every robustness property testable as byte equality:

* **crash tolerance**: a killed run leaves nothing behind but its
  uncommitted day, which a re-run measures again from the start to the
  same bytes (keyed per-VP RNG and fault draws); the archive commit
  itself is atomic, so re-running after a crash at *any* point converges
  to the same archive bytes as an uninterrupted timeline;
* **catch-up**: :meth:`CensusService.catch_up` first fscks the archive
  (quarantining anything rotten), then runs every missing epoch up to
  the requested day — missed days and quarantined days are the same
  case;
* **incremental recompute**: with keyed campaign noise, a target's raw
  records depend only on itself, so unchanged targets produce
  byte-identical RTT rows across epochs.  The analysis stage copies
  their archived result entries verbatim and re-runs the iGreedy engine
  only for rows whose signature moved — provably equal to a cold
  census (see :mod:`~repro.service.delta`), and cheap when churn is low.
"""

from __future__ import annotations

import zlib
from collections import ChainMap, Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..bgp import RouteEventInjector, RouteEventPlan
from ..census.analysis import detect_targets
from ..census.combine import RttMatrix, matrix_from_census, matrix_from_records
from ..census.fastpath import FastAnalysisEngine
from ..census.hijack import (
    DocAnalysisView,
    RoutingAlarm,
    classify_routing_changes,
)
from ..census.longitudinal import EvolutionConfig, evolve_catalog
from ..geo.coords import GeoPoint
from ..core.igreedy import IGreedyConfig
from ..geo.cities import CityDB, default_city_db
from ..internet.catalog import CatalogEntry, full_catalog
from ..internet.topology import InternetConfig, SyntheticInternet
from ..measurement.campaign import (
    CensusAborted,
    CensusCampaign,
    CensusInterrupted,
)
from ..measurement.faults import FaultPlan, VpDistortionPlan
from ..measurement.platform import Platform, planetlab_platform
from ..measurement.prober import SAFE_RATE_PPS
from ..measurement.recordio import CorruptPayloadError
from ..obs import (
    EventLog,
    MetricsRegistry,
    Tracer,
    activate,
    current_events,
    current_metrics,
    current_tracer,
)
from ..obs.slo import (
    SloSpec,
    default_service_slo,
    evaluate_slo,
    stage_seconds_from_trace,
)
from ..obs.timeline import (
    Regression,
    Timeline,
    collect_timeline,
    detect_regressions,
)
from ..resilience import (
    CONFIDENCE_DEGRADED,
    CONFIDENCE_INSUFFICIENT,
    PeelCarry,
    ResiliencePolicy,
    StageFailed,
    StageSupervisor,
    VpTrustReport,
    run_stage,
    trust_gate,
)
from .archive import Baseline, CensusArchive
from .churn import churn_between, roster_churn
from .delta import DeltaPlan, RowSignatures, plan_delta, sign_rows, vp_context_digest
from .fsck import FsckReport, fsck_archive

RESULTS_KIND = "census-results"

#: Domain separation for the roster-churn coin flips.
_ROSTER_SALT = 0x4057E4


def _routes_propagated(world: Optional[SyntheticInternet]) -> int:
    """Propagations its BGP plane has run so far (0 without a plane)."""
    plane = world.bgp_plane if world is not None else None
    return plane.routes_propagated if plane is not None else 0


@dataclass
class ServiceConfig:
    """The deterministic recipe of one longitudinal service."""

    #: Archive root directory (created on first run).
    archive_root: str
    #: Seed of the synthetic internet (unicast world + per-AS builders).
    internet_seed: int = 2015
    n_unicast: int = 400
    #: Tail deployments of the *default* base catalog (ignored when
    #: ``base_catalog`` is given).
    tail_deployments: int = 0
    #: Epoch-0 deployment catalog; defaults to
    #: ``full_catalog(tail_count=tail_deployments, seed=internet_seed)``.
    base_catalog: Optional[Sequence[CatalogEntry]] = None
    #: Landscape drift applied once per epoch.
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    evolution_seed: int = 7
    n_vps: int = 20
    vp_seed: int = 41
    #: Constant campaign seed: every epoch runs a *fresh* campaign with
    #: the same seed, so census-level draws (availability, degraded
    #: flags) repeat identically and only the world differs.
    campaign_seed: int = 500
    availability: float = 1.0
    degraded_fraction: float = 0.0
    rate_pps: Optional[float] = None
    #: Campaign noise mode.  ``"keyed"`` (the service default) is what
    #: makes incremental recompute *useful*; ``"stream"`` stays safe but
    #: every epoch's signatures differ, so every run goes cold.
    noise: str = "keyed"
    #: Incremental recompute on/off (off = every epoch is a cold census).
    incremental: bool = True
    #: Churn fraction above which incremental mode falls back to cold.
    churn_threshold: float = 0.25
    min_samples: int = 3
    igreedy: IGreedyConfig = field(default_factory=IGreedyConfig)
    #: AS-churn thresholds forwarded to ``compare_epochs``.
    min_delta: float = 1.0
    min_ip24_delta: int = 1
    #: Stage supervision; ``None`` runs stages bare.
    resilience: Optional[ResiliencePolicy] = None
    #: Durable per-epoch telemetry: when on, each committed run carries a
    #: ``telemetry.json`` + ``events.jsonl`` sidecar (trace, metrics, SLO
    #: report, event log).  Census/archive bytes are identical either way.
    telemetry: bool = False
    #: SLO budgets evaluated per epoch (telemetry mode only); ``None``
    #: uses :func:`~repro.obs.slo.default_service_slo`.
    slo: Optional[SloSpec] = None
    #: Node-fault injection forwarded to each epoch's campaign (chaos /
    #: seeded-regression testing); ``None`` injects nothing.
    fault_plan: Optional[FaultPlan] = None
    #: Per-epoch, per-VP probability that a vantage point sits this
    #: epoch out (probe disconnects — the dominant churn mode of a real
    #: platform).  Keyed on ``(roster_seed, epoch, VP name)``, so a VP's
    #: absences are a pure function of the config and a returning VP
    #: reproduces its pre-disconnect rows exactly.
    roster_churn_prob: float = 0.0
    roster_seed: int = 23
    #: Score every epoch's roster with the VP trust engine and excise
    #: untrusted columns before signatures/analysis.  Output-neutral on
    #: clean data (byte-identical archive).
    trust: bool = False
    #: Keyed VP measurement distortion forwarded to each epoch's
    #: campaign (chaos testing of the trust layer); ``None`` distorts
    #: nothing.
    vp_distortion: Optional[VpDistortionPlan] = None
    #: How many committed epochs *before* the primary baseline are
    #: consulted when matching changed signatures (the roster-rejoin
    #: recovery path of :func:`~repro.service.delta.plan_delta`).
    baseline_depth: int = 3
    #: Routing plane of each epoch's internet: ``"geo"`` (the default —
    #: nearest-site catchments, byte-identical to historic archives) or
    #: ``"bgp"`` (Gao-Rexford propagation over a synthetic AS graph).
    routing: str = "geo"
    #: Routing-chaos schedule applied to each epoch's matrix (hijacks,
    #: leaks, flaps...); requires ``routing="bgp"``.  ``None`` (and the
    #: empty plan) are inert.
    route_events: Optional[RouteEventPlan] = None
    #: Classify census-over-routing diffs against the previous committed
    #: epoch and record typed verdicts in the manifest's ``routing``
    #: block.
    alarms: bool = False

    def __post_init__(self) -> None:
        if self.noise not in ("stream", "keyed"):
            raise ValueError(f"unknown noise mode {self.noise!r}")
        if not 0.0 <= self.churn_threshold <= 1.0:
            raise ValueError("churn_threshold must be in [0, 1]")
        if not 0.0 <= self.roster_churn_prob < 1.0:
            raise ValueError("roster_churn_prob must be in [0, 1)")
        if self.baseline_depth < 0:
            raise ValueError("baseline_depth must be >= 0")
        if self.routing not in ("geo", "bgp"):
            raise ValueError(f"routing must be 'geo' or 'bgp', got {self.routing!r}")
        if (
            self.route_events is not None
            and self.route_events.enabled
            and self.routing != "bgp"
        ):
            raise ValueError("route_events require routing='bgp'")


@dataclass
class EpochOutcome:
    """What one :meth:`CensusService.run_epoch` call did."""

    epoch: int
    #: ``"committed"`` (ran and archived) or ``"already-present"``.
    status: str
    mode: str
    reason: str
    baseline_epoch: Optional[int]
    churn_fraction: float
    n_recomputed: int
    n_copied: int
    n_targets: int
    n_anycast: int
    total_replicas: int
    #: Changed/appeared targets copied from an *older* epoch instead of
    #: recomputed (the roster-rejoin recovery path).
    n_recovered: int = 0
    #: Vantage points the trust engine excised this epoch.
    untrusted_vps: List[str] = field(default_factory=list)
    #: Typed routing verdicts of the alarm pass (all of them, benign
    #: included); empty when alarms are off or no baseline exists.
    alarms: List[RoutingAlarm] = field(default_factory=list)
    #: Route-event records the injector applied this epoch.
    route_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def alarming(self) -> List[RoutingAlarm]:
        return [a for a in self.alarms if a.is_alarm]

    def summary_lines(self) -> List[str]:
        lines = [
            f"epoch {self.epoch}: {self.status} "
            f"[{self.mode}: {self.reason}]",
            f"  targets: {self.n_targets} "
            f"({self.n_anycast} anycast, {self.total_replicas} replicas)",
            f"  recomputed/copied: {self.n_recomputed}/{self.n_copied} "
            f"(churn {self.churn_fraction:.3f}, "
            f"baseline {self.baseline_epoch})",
        ]
        if self.n_recovered:
            lines.append(
                f"  recovered from history: {self.n_recovered} target(s)"
            )
        if self.untrusted_vps:
            lines.append(
                "  untrusted VPs excised: " + ", ".join(self.untrusted_vps)
            )
        for event in self.route_events:
            if event.get("applied"):
                lines.append(
                    f"  route event: {event.get('kind')} on prefix "
                    f"{event.get('prefix')}"
                )
        for alarm in self.alarming:
            lines.append(
                f"  ALARM {alarm.verdict.value} prefix {alarm.prefix} "
                f"(confidence {alarm.confidence:.2f}): {alarm.detail}"
            )
        if self.alarms and not self.alarming:
            lines.append(
                f"  routing verdicts: {len(self.alarms)} classified, none alarming"
            )
        return lines


@dataclass(frozen=True)
class _Carry:
    """What a later day reads of the last committed one.

    Each field is built by one stage and read by the same stage the next
    day; a ``None`` field runs its stage cold, so the empty record is a
    fresh process's.  :meth:`CensusService.run_epoch` replaces the record
    whole, and only once the day's run is committed: an interrupted day
    leaves yesterday's in place.
    """

    #: The committed epoch and its world (``world``; see
    #: :meth:`CensusService.internet_for`).
    epoch: Optional[int] = None
    world: Optional[SyntheticInternet] = None
    #: Its campaign, whose catchment rows and keyed scan outcomes today's
    #: campaign takes (``world``; ``CensusCampaign(previous=)``).
    campaign: Optional[CensusCampaign] = None
    #: Its signed matrix (``signatures``; ``sign_rows(previous=)``).
    signed: Optional[RowSignatures] = None
    #: Its trust peel's first round (``trust``; ``score_vps(previous=)``).
    trust: Optional[PeelCarry] = None
    #: Geolocation's disk tables by exponent, with the roster digest they
    #: hold for: they depend on VP locations and the gazetteer only
    #: (``analysis``).
    disk_tables: Optional[Tuple[str, Dict[float, Any]]] = None


@dataclass
class _Day:
    """One epoch's inputs, and what its stages have produced so far."""

    epoch: int
    abort_after_vps: Optional[int]
    #: Tomorrow's :class:`_Carry` fields, as the stages return them.
    carry: Dict[str, Any] = field(default_factory=dict)
    world: Optional[SyntheticInternet] = None
    campaign: Optional[CensusCampaign] = None
    census: Any = None
    matrix: Optional[RttMatrix] = None
    route_records: List[Dict[str, Any]] = field(default_factory=list)
    excised: Optional[np.ndarray] = None
    trust_report: Optional[VpTrustReport] = None
    signatures: Dict[int, str] = field(default_factory=dict)
    baseline: Baseline = field(default_factory=Baseline)
    plan: Optional[DeltaPlan] = None
    results: Dict[str, Any] = field(default_factory=dict)
    #: Targets recomputed, copied and (of the copied) recovered.
    counts: Tuple[int, int, int] = (0, 0, 0)
    churn: Optional[Dict[str, Any]] = None
    alarms: List[RoutingAlarm] = field(default_factory=list)
    manifest: Dict[str, Any] = field(default_factory=dict)
    #: The telemetry sidecars (document, event lines) in telemetry mode.
    telemetry: Tuple[Optional[Dict[str, Any]], Optional[List[str]]] = (None, None)


def _publish(spans: Sequence[Tuple[Any, Mapping[str, Any]]]) -> None:
    """Set each stage's counters as attrs on its span."""
    for span, counters in spans:
        for key, value in counters.items():
            span.set(key, value)


class CensusService:
    """Crash-tolerant scheduler of dated census runs into one archive."""

    def __init__(self, config: ServiceConfig, city_db: Optional[CityDB] = None) -> None:
        self.config = config
        self.archive = CensusArchive(config.archive_root)
        self.city_db = city_db or default_city_db()
        self.platform = planetlab_platform(
            count=config.n_vps, seed=config.vp_seed, city_db=self.city_db
        )
        self.supervisor: Optional[StageSupervisor] = (
            StageSupervisor(config.resilience)
            if config.resilience is not None
            else None
        )
        self._catalogs: Dict[int, List[CatalogEntry]] = {}
        #: What the next day reads of the last committed one.
        self._carry = _Carry()

    # ------------------------------------------------------------------
    # The evolving world
    # ------------------------------------------------------------------

    def catalog_for(self, epoch: int) -> List[CatalogEntry]:
        """Epoch *k*'s deployment catalog: the base chain-evolved k times."""
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        if 0 not in self._catalogs:
            base = (
                list(self.config.base_catalog)
                if self.config.base_catalog is not None
                else full_catalog(
                    tail_count=self.config.tail_deployments,
                    seed=self.config.internet_seed,
                )
            )
            self._catalogs[0] = base
        known = max(self._catalogs)
        for k in range(known + 1, epoch + 1):
            self._catalogs[k] = evolve_catalog(
                self._catalogs[k - 1],
                seed=self.config.evolution_seed * 1_000_003 + k,
                config=self.config.evolution,
            )
        return self._catalogs[epoch]

    def internet_for(self, epoch: int) -> SyntheticInternet:
        """Epoch *k*'s world, derived from the carried one.

        The last committed day's world is carried (:class:`_Carry`); any
        other epoch's is derived from it (:meth:`SyntheticInternet.evolved`:
        a quiet day rebuilds only the deployments its catalog touched and
        propagates only their routes) and not kept, so only a commit moves
        what later days derive from.  With nothing carried the world is
        built cold.  Every result equals a cold build of the same epoch.
        Worlds are read-only.
        """
        carried = self._carry
        if carried.world is None:
            return SyntheticInternet(
                InternetConfig(
                    seed=self.config.internet_seed,
                    n_unicast_slash24=self.config.n_unicast,
                    tail_deployments=self.config.tail_deployments,
                    routing=self.config.routing,
                ),
                catalog=self.catalog_for(epoch),
                city_db=self.city_db,
            )
        if carried.epoch == epoch:
            return carried.world
        return carried.world.evolved(self.catalog_for(epoch))

    def platform_for(self, epoch: int) -> Platform:
        """Epoch *k*'s active roster: the full platform minus the VPs
        sitting this epoch out.

        Each VP's absence is an independent keyed coin flip on
        ``(roster_seed, epoch, VP name)`` — deterministic, so re-running
        an interrupted epoch sees the identical roster, and a VP that
        returns after an absence measures exactly as it did before
        (keyed campaign noise), which is what lets ``plan_delta``
        recover its targets from an older baseline instead of going
        cold.  At least two VPs always survive (the minimum roster that
        can measure anything cross-VP).
        """
        full = self.platform.vantage_points
        if self.config.roster_churn_prob <= 0.0:
            return self.platform
        scores = {
            vp.name: float(
                np.random.default_rng(
                    [
                        _ROSTER_SALT,
                        self.config.roster_seed,
                        epoch,
                        zlib.crc32(vp.name.encode()),
                    ]
                ).random()
            )
            for vp in full
        }
        keep = [
            vp for vp in full if scores[vp.name] >= self.config.roster_churn_prob
        ]
        if len(keep) < 2:
            survivors = set(
                sorted(scores, key=lambda name: scores[name], reverse=True)[:2]
            )
            keep = [vp for vp in full if vp.name in survivors]
        return Platform(self.platform.name, keep)

    # ------------------------------------------------------------------
    # One epoch: ordered stages over one carry record
    # ------------------------------------------------------------------

    def run_epoch(
        self, epoch: int, abort_after_vps: Optional[int] = None
    ) -> EpochOutcome:
        """Measure, analyze and commit one epoch (idempotent).

        A committed epoch returns immediately (``"already-present"``).
        ``abort_after_vps`` is the chaos knob of the underlying census:
        the run dies with :class:`CensusInterrupted` after that many VP
        scans, leaving the epoch uncommitted for a re-run.
        """
        if self.archive.has(epoch):
            return self._outcome(
                epoch, "already-present", self.archive.read_manifest(epoch)
            )

        day = _Day(epoch, abort_after_vps)
        if not self.config.telemetry:
            return self._run_day(day)

        # Telemetry mode: fresh per-epoch collectors, scoped — the trace,
        # metrics and event log land in the run's archive sidecars.
        # Everything the census computes is untouched (no RNG, no wall
        # time in results), so the committed census bytes are identical
        # to a telemetry-off run.
        tracer, metrics, events = Tracer(), MetricsRegistry(), EventLog()
        with activate(tracer=tracer, metrics=metrics, events=events):
            return self._run_day(day, collectors=(tracer, metrics, events))

    def _stages(self, day: _Day):
        """The day's stages in run order, as (span name, method,
        supervised); the ones its config or its baseline leave out are not
        listed.  Read lazily: ``churn`` and ``alarms`` run only when the
        ``baseline`` stage found a baseline document."""
        cfg = self.config
        yield "world", self._world, False
        yield "measurement", self._measure, True
        if cfg.route_events is not None and cfg.route_events.enabled:
            yield "routing", self._route, True
        if cfg.trust:
            yield "trust", self._trust, True
        yield "signatures", self._sign, False
        yield "baseline", self._baseline, False
        yield "plan", self._plan, False
        yield "analysis", self._analysis, True
        if day.baseline.doc is not None:
            yield "churn", self._churn, False
            if cfg.alarms:
                yield "alarms", self._alarms, True

    def _stage(self, name, stage, day: _Day, yesterday: _Carry, supervised=False):
        """The one stage runner.

        ``stage(day, yesterday)`` returns its output (fields of ``day``),
        its carry for tomorrow (fields of :class:`_Carry`) and its
        counters; it runs under :func:`~repro.resilience.run_stage`, in a
        span called ``name``.  A ``supervised`` stage runs under the
        resilience policy with the epoch on its span and events.  Returns
        the span and the counters: they become span attrs once the day's
        stages are done (:func:`_publish`), so a stage may count work its
        output does later (the campaign's scans).

        Interruption and quorum aborts are *control flow*, not stage
        failures: the supervisor's classifier sees them as fatal and
        wraps them, so unwrap and re-raise the original — callers (and
        the CLI's exit-code ladder) dispatch on the real exception.
        """

        def call():
            return (current_tracer().current, *stage(day, yesterday))

        try:
            if supervised:
                done = run_stage(name, call, self.supervisor, epoch=day.epoch)
            else:
                done = run_stage(name, call)
        except StageFailed as exc:
            if isinstance(exc.__cause__, (CensusInterrupted, CensusAborted)):
                raise exc.__cause__
            raise
        span, output, carry, counters = done
        vars(day).update(output)
        day.carry.update(carry)
        return span, counters

    def _run_day(
        self,
        day: _Day,
        collectors: Optional[Tuple[Tracer, MetricsRegistry, EventLog]] = None,
    ) -> EpochOutcome:
        yesterday = self._carry
        events = current_events()
        spans: List[Tuple[Any, Mapping[str, Any]]] = []
        with current_tracer().span("service_epoch", epoch=day.epoch):
            events.emit("service", "epoch_start", epoch=day.epoch)
            self.archive.ensure_layout()
            try:
                for name, stage, supervised in self._stages(day):
                    spans.append(self._stage(name, stage, day, yesterday, supervised))
            finally:
                _publish(spans)
            day.manifest = self._manifest(day)
            n_recomputed, n_copied, _ = day.counts
            metrics = current_metrics()
            if metrics.enabled:
                metrics.counter("service_epochs_committed").inc()
                metrics.counter("service_targets_recomputed").inc(n_recomputed)
                metrics.counter("service_targets_copied").inc(n_copied)
            events.emit("service", "epoch_end", epoch=day.epoch, mode=day.plan.mode)

        # The epoch span is closed: stage durations are final, so the
        # telemetry sidecars can be assembled and committed atomically
        # alongside the census payloads.
        if collectors is not None:
            day.telemetry = self._build_telemetry(day, *collectors)
        _publish([self._stage("commit", self._commit, day, yesterday)])
        self._carry = _Carry(epoch=day.epoch, **day.carry)
        return self._outcome(
            day.epoch,
            "committed",
            day.manifest,
            alarms=day.alarms,
            route_events=day.route_records,
        )

    # -- the stages ------------------------------------------------------

    def _world(self, day: _Day, yesterday: _Carry):
        """Today's world, derived from the carried one, and today's campaign
        on the carried campaign's scan geometry."""
        propagated = _routes_propagated(yesterday.world)
        world = self.internet_for(day.epoch)
        campaign = CensusCampaign(
            world,
            self.platform_for(day.epoch),
            seed=self.config.campaign_seed,
            degraded_fraction=self.config.degraded_fraction,
            noise=self.config.noise,
            fault_plan=self.config.fault_plan,
            distortion=self.config.vp_distortion,
            previous=yesterday.campaign,
            rate_pps=(
                SAFE_RATE_PPS if self.config.rate_pps is None else self.config.rate_pps
            ),
        )
        kept = {id(dep) for dep in getattr(yesterday.world, "deployments", ())}
        built = dict(world=world, campaign=campaign)
        counters = ChainMap(
            {
                "carried": yesterday.world is not None,
                "deployments_rebuilt": sum(
                    id(dep) not in kept for dep in world.deployments
                ),
                "routes_propagated": _routes_propagated(world) - propagated,
            },
            # The campaign counts carried catchments now, and carried
            # outcomes and scanned positions as the census scans.
            campaign.counters,
        )
        return built, built, counters

    def _measure(self, day: _Day, yesterday: _Carry):
        """The pre-census and the census, folded to a matrix."""
        day.campaign.run_precensus()
        census = day.campaign.run_census(
            availability=self.config.availability,
            abort_after_vps=day.abort_after_vps,
        )
        if census.health is not None:
            events = current_events()
            for vp_name in census.health.quarantined_vps:
                events.emit("quarantine", "vp_quarantined", vp=vp_name, epoch=day.epoch)
            for vp_name in census.health.salvaged_vps:
                events.emit("lifecycle", "vp_salvaged", vp=vp_name, epoch=day.epoch)
        return dict(census=census, matrix=matrix_from_census(census)), {}, {}

    def _route(self, day: _Day, yesterday: _Carry):
        """Routing chaos: the plan's active events perturb the day's matrix
        exactly the way real routing incidents are visible to a census —
        through the measurements."""
        injector = RouteEventInjector(self.config.route_events, day.world)
        matrix, records = injector.perturb(day.matrix, day.epoch)
        return dict(matrix=matrix, route_records=records), {}, {}

    def _trust(self, day: _Day, yesterday: _Carry):
        """Trust gate: score the roster, excise what cannot be physically
        consistent with it.  On a clean roster the matrix object comes back
        unchanged with an all-zero excision count, so signatures — and the
        whole committed archive — are byte-identical to a trust-off run.
        The peel's first round is carried for the rows that did not move."""
        matrix, excised, report = trust_gate(
            day.matrix, [day.census.health], previous=yesterday.trust
        )
        output = dict(matrix=matrix, excised=excised, trust_report=report)
        return output, dict(trust=report.carry), {}

    def _sign(self, day: _Day, yesterday: _Carry):
        """Row signatures, re-hashing only rows that moved since the
        carried signed matrix."""
        signed = sign_rows(day.matrix, day.excised, previous=yesterday.signed)
        counters = {"carried": signed.carried, "hashed": signed.hashed}
        return dict(signatures=signed.signatures), dict(signed=signed), counters

    def _baseline(self, day: _Day, yesterday: _Carry):
        """The committed documents the day plans against (the archive
        carries them, and their signature maps, across days)."""
        baseline = self.archive.read_baseline(day.epoch, self.config.baseline_depth)
        return dict(baseline=baseline), {}, baseline.counters

    def _plan(self, day: _Day, yesterday: _Carry):
        baseline = day.baseline
        plan = plan_delta(
            day.signatures,
            baseline.signatures,
            baseline_epoch=baseline.epoch,
            churn_threshold=self.config.churn_threshold,
            enabled=self.config.incremental,
            baseline_problem=baseline.problem,
            history=baseline.history_signatures,
        )
        return dict(plan=plan), {}, {}

    def _analysis(self, day: _Day, yesterday: _Carry):
        """The results document (:meth:`_analyze`), on the carried disk
        tables while the roster is the same."""
        matrix = day.matrix
        roster = vp_context_digest(matrix.vp_names, matrix.vp_locations)
        carried = yesterday.disk_tables
        tables = carried[1] if carried is not None and carried[0] == roster else {}
        results, *counts = self._analyze(
            matrix,
            day.world,
            day.signatures,
            day.plan,
            day.baseline.doc,
            day.epoch,
            excised=day.excised,
            history_docs=day.baseline.history,
            disk_tables=tables,
        )
        output = dict(results=results, counts=tuple(counts))
        return output, dict(disk_tables=(roster, tables)), {}

    def _churn(self, day: _Day, yesterday: _Carry):
        baseline = day.baseline
        churn = churn_between(
            baseline.doc,
            day.results,
            min_delta=self.config.min_delta,
            min_ip24_delta=self.config.min_ip24_delta,
        ).to_doc()
        roster = self._roster_doc(baseline.epoch, day.matrix)
        if roster is not None:
            churn["roster"] = roster
        return dict(churn=churn), {}, {}

    def _alarms(self, day: _Day, yesterday: _Carry):
        """Typed routing verdicts for this epoch vs the committed baseline.

        Runs after the analysis so the verdicts see exactly what was
        archived.  The baseline matrix is rebuilt from the archived raw
        records, with the baseline epoch's route events re-applied (the
        injector is keyed on epoch, so the replay is exact) — leak
        calibration diffs then compare what the baseline analysis actually
        saw.  A rotten baseline merely downgrades the classifier to
        analysis-level evidence; it never fails the epoch.

        The catalog's deployment prefixes act as the operator registry
        the paper proposes: a registered-anycast prefix flipping from
        apparently-unicast to anycast is landscape evolution (or a
        borderline signature stabilising), never a hijack.  Registered-
        unicast prefixes — the unicast hosts — carry the hijack and leak
        checks at full strength.  Subprefix collapse stays alarming for
        registered prefixes too: the registry vouches for *who may
        announce*, not for every site vanishing at once.
        """
        baseline = day.baseline
        baseline_matrix: Optional[RttMatrix] = None
        baseline_names: Optional[List[str]] = None
        try:
            manifest = self.archive.read_manifest(baseline.epoch)
            records = self.archive.read_records(baseline.epoch)
            vps = manifest.get("vantage_points", [])
            names = [vp["name"] for vp in vps]
            locations = [GeoPoint(vp["lat"], vp["lon"]) for vp in vps]
            baseline_matrix = matrix_from_records(records, names, locations)
            baseline_names = names
            if (
                self.config.route_events is not None
                and self.config.route_events.enabled
            ):
                injector = RouteEventInjector(
                    self.config.route_events, self.internet_for(baseline.epoch)
                )
                baseline_matrix, _ = injector.perturb(baseline_matrix, baseline.epoch)
        except (CorruptPayloadError, ValueError, KeyError):
            baseline_matrix = None
        alarms = classify_routing_changes(
            DocAnalysisView(baseline.doc),
            DocAnalysisView(day.results),
            baseline_matrix=baseline_matrix,
            current_matrix=day.matrix,
            known_anycast={int(p) for dep in day.world.deployments for p in dep.prefixes},
            baseline_vp_names=baseline_names,
        )
        metrics = current_metrics()
        if metrics.enabled:
            metrics.counter("routing_alarms").inc(sum(1 for a in alarms if a.is_alarm))
        return dict(alarms=alarms), {}, {}

    def _commit(self, day: _Day, yesterday: _Carry):
        """The atomic archive commit."""
        telemetry_doc, events_lines = day.telemetry
        trust = day.trust_report
        self.archive.commit_run(
            day.epoch,
            day.manifest,
            day.census.records,
            day.results,
            telemetry_doc=telemetry_doc,
            events_lines=events_lines,
            trust_doc=trust.to_doc() if trust is not None else None,
        )
        return {}, {}, self.archive.commit_counters

    def _routing_doc(self, day: _Day) -> Optional[Dict[str, Any]]:
        """The manifest's ``routing`` block, or ``None`` for plain geo
        runs (keeping geo-default manifests byte-identical to builds
        that predate the routing plane)."""
        cfg = self.config
        if cfg.routing == "geo" and not day.route_records and not cfg.alarms:
            return None
        verdicts = Counter(alarm.verdict.value for alarm in day.alarms)
        return {
            "mode": cfg.routing,
            "events": day.route_records,
            "alarms_enabled": bool(cfg.alarms),
            "verdicts": dict(sorted(verdicts.items())),
            "alarms": [a.to_doc() for a in day.alarms if a.is_alarm],
        }

    def _roster_doc(
        self, baseline_epoch: Optional[int], matrix: RttMatrix
    ) -> Optional[Dict[str, Any]]:
        """The churn block's ``roster`` section, or ``None`` when the
        analyzed roster matches the baseline's (keeping static-roster
        manifests byte-identical to pre-roster-churn builds)."""
        if baseline_epoch is None:
            return None
        try:
            baseline_manifest = self.archive.read_manifest(baseline_epoch)
        except (CorruptPayloadError, ValueError):
            return None
        before = [vp["name"] for vp in baseline_manifest.get("vantage_points", [])]
        after = list(matrix.vp_names)
        if self.config.roster_churn_prob <= 0.0 and set(before) == set(after):
            return None
        return roster_churn(before, after)

    def _build_telemetry(
        self, day: _Day, tracer: Tracer, metrics: MetricsRegistry, events: EventLog
    ) -> Tuple[Dict[str, Any], List[str]]:
        """Assemble the epoch's telemetry sidecar + sealed event lines.

        Wall-clock durations live *only* here — the sidecars are the one
        sanctioned nondeterministic output, excluded from byte-identity
        comparisons of the census payloads.
        """
        stage_seconds = stage_seconds_from_trace(tracer)
        snapshot = metrics.snapshot()
        spec = self.config.slo if self.config.slo is not None else default_service_slo()
        entries = day.results["targets"].values()
        anycast = [e for e in entries if e.get("anycast")]
        degraded_fraction = (
            sum(1 for e in anycast if e.get("confidence") == "degraded") / len(anycast)
            if anycast
            else None
        )
        observations: Dict[str, Optional[float]] = {
            "n_vps": self.config.n_vps,
            "degraded_target_fraction": degraded_fraction,
        }
        if day.trust_report is not None:
            observations["untrusted_vp_fraction"] = day.trust_report.untrusted_fraction
        if self.config.alarms:
            alarms = day.alarms
            observations["false_alarm_rate"] = (
                sum(1 for a in alarms if a.is_alarm) / len(alarms)
                if alarms
                else 0.0
            )
        report = evaluate_slo(
            spec,
            stage_seconds=stage_seconds,
            metrics_snapshot=snapshot,
            observations=observations,
        )
        doc = {
            "stages": {
                name: round(seconds, 6) for name, seconds in sorted(stage_seconds.items())
            },
            "metrics": snapshot,
            "slo": report.to_doc(),
            "trace": tracer.to_dicts(),
            "event_summary": events.snapshot(),
        }
        return doc, events.to_lines()

    # ------------------------------------------------------------------
    # Analysis: incremental provably equal to cold
    # ------------------------------------------------------------------

    def _analyze(
        self,
        matrix: RttMatrix,
        internet: SyntheticInternet,
        signatures: Dict[int, str],
        plan: DeltaPlan,
        baseline_doc: Optional[Dict[str, Any]],
        epoch: int,
        excised: Optional[np.ndarray] = None,
        history_docs: Optional[Dict[int, Dict[str, Any]]] = None,
        disk_tables: Optional[Dict[float, Any]] = None,
    ) -> Tuple[Dict[str, Any], int, int, int]:
        """Build the epoch's results document.

        Cold and incremental modes share one per-row code path; the only
        incremental shortcut is copying an unchanged target's *parsed
        baseline entry* verbatim.  Both the detection verdict and the
        iGreedy output are functions of the target's row plus row-
        independent context, and an unchanged signature certifies an
        identical row — so the copied entry is exactly what recomputing
        would produce, and the serialized documents are byte-equal.

        ``plan.recovered`` entries are the same copy, sourced from an
        older epoch in ``history_docs`` instead of the primary baseline
        (the roster-rejoin case: a VP left and came back, so the row
        matches the pre-disconnect epoch, not yesterday's).

        ``excised`` (per-target count of samples the trust gate removed)
        drives the confidence downgrade: a target judged on a thinner
        row than was measured is labelled ``degraded`` — or
        ``insufficient`` when what is left falls below ``min_samples``.
        The key is absent on untouched targets, so clean-roster runs
        serialize byte-identically to trust-off runs.

        ``disk_tables`` are geolocation's tables for this roster, filled
        in place (a fresh set when ``None``).
        """
        cfg = self.config.igreedy
        incremental = plan.mode == "incremental"
        copy_from = (
            baseline_doc["targets"]
            if (incremental and baseline_doc is not None)
            else {}
        )
        skip = set(plan.unchanged) if copy_from else set()
        recovered_from = plan.recovered if incremental else {}
        history_docs = history_docs or {}

        # Detection and iGreedy see only the rows the delta plan could
        # not copy forward (on a quiet day, about one in a hundred).
        prefixes = matrix.prefixes.tolist()
        rows = np.array(
            [
                row
                for row, prefix in enumerate(prefixes)
                if prefix not in skip and prefix not in recovered_from
            ],
            dtype=np.int64,
        )
        mask = detect_targets(matrix, cfg, self.config.min_samples, rows=rows)
        engine = FastAnalysisEngine(
            matrix,
            city_db=self.city_db,
            config=cfg,
            disk_tables=disk_tables if disk_tables is not None else {},
        )
        analysed = iter(engine.analyze_rows(rows[mask]))
        verdicts = iter(mask.tolist())

        targets: Dict[str, Any] = {}
        n_copied = 0
        n_recovered = 0
        for row, prefix in enumerate(prefixes):
            key = str(prefix)
            if prefix in skip:
                targets[key] = copy_from[key]
                n_copied += 1
                continue
            if prefix in recovered_from:
                targets[key] = history_docs[recovered_from[prefix]]["targets"][key]
                n_copied += 1
                n_recovered += 1
                continue
            anycast = next(verdicts)
            entry: Dict[str, Any] = {
                "signature": signatures[prefix],
                "anycast": anycast,
            }
            if excised is not None and excised[row] > 0:
                n_filled = int((~np.isnan(matrix.rtt_ms[row])).sum())
                entry["confidence"] = (
                    CONFIDENCE_INSUFFICIENT
                    if n_filled < self.config.min_samples
                    else CONFIDENCE_DEGRADED
                )
            if anycast:
                result = next(analysed)
                entry["replicas"] = [
                    {
                        "city": replica.city.name,
                        "country": replica.city.country,
                        "lat": replica.city.location.lat,
                        "lon": replica.city.location.lon,
                        "radius_km": replica.disk.radius_km,
                        "confidence": replica.confidence,
                    }
                    for replica in result.replicas
                ]
                entry["iterations"] = result.iterations
                entry["witness"] = (
                    list(result.detection.witness)
                    if result.detection.witness is not None
                    else None
                )
                entry["sample_count"] = result.detection.sample_count
            targets[key] = entry
        n_recomputed = len(rows)

        ases, summary = self._aggregate(matrix.prefixes, targets, internet)
        doc = {
            "kind": RESULTS_KIND,
            "epoch": epoch,
            "signature_context": vp_context_digest(matrix.vp_names, matrix.vp_locations),
            "targets": targets,
            "ases": ases,
            "summary": summary,
        }
        return doc, n_recomputed, n_copied, n_recovered

    def _aggregate(
        self,
        prefixes: np.ndarray,
        targets: Dict[str, Any],
        internet: SyntheticInternet,
    ) -> Tuple[Dict[str, Any], Dict[str, int]]:
        """The per-AS footprint and summary sections, in one array pass
        over the target entries (``targets`` keyed by ``prefixes``).

        Mirrors :class:`~repro.census.characterize.Characterization`'s
        aggregation (``mean_replicas`` is the mean of integer replica
        counts, exact as sum / count) but reads the serialized entries,
        so incremental and cold documents agree byte-for-byte whenever
        their target sections do.  ASes are listed in order of their
        first anycast /24.
        """
        entries = targets.values()
        anycast = np.fromiter((e["anycast"] for e in entries), bool, len(targets))
        replicas = np.fromiter(
            (len(e.get("replicas", ())) for e in entries), np.int64, len(targets)
        )
        registered, asn_of = internet.prefix_owners
        at = np.searchsorted(registered, prefixes)
        counted = anycast & (registered[at] == prefixes)
        asns, first, inverse = np.unique(
            asn_of[at[counted]], return_index=True, return_inverse=True
        )
        n_ip24 = np.bincount(inverse, minlength=len(asns)).tolist()
        totals = np.bincount(
            inverse, weights=replicas[counted], minlength=len(asns)
        ).tolist()
        ases: Dict[str, Any] = {}
        for i in np.argsort(first).tolist():
            asn = int(asns[i])
            ases[str(asn)] = {
                "name": internet.registry[asn].name,
                "mean_replicas": int(totals[i]) / n_ip24[i],
                "n_ip24": n_ip24[i],
            }
        summary = {
            "n_targets": len(targets),
            "n_anycast": int(anycast.sum()),
            "total_replicas": int(replicas.sum()),
        }
        return ases, summary

    # ------------------------------------------------------------------
    # Manifest assembly
    # ------------------------------------------------------------------

    def _manifest(self, day: _Day) -> Dict[str, Any]:
        """The run manifest's core (the archive adds kind, epoch and the
        payload seals)."""
        census, matrix, plan = day.census, day.matrix, day.plan
        n_recomputed, n_copied, n_recovered = day.counts
        core = {
            "census": {
                "census_id": census.census_id,
                "campaign_seed": self.config.campaign_seed,
                "internet_seed": self.config.internet_seed,
                "availability": self.config.availability,
                "rate_pps": census.rate_pps,
                "noise": self.config.noise,
                "n_records": len(census.records),
                "n_vps": census.n_vps,
                "degraded": bool(census.health and census.health.degraded),
            },
            "vantage_points": [
                {"name": name, "lat": location.lat, "lon": location.lon}
                for name, location in zip(matrix.vp_names, matrix.vp_locations)
            ],
            "counts": dict(day.results["summary"]),
            "analysis": {
                "mode": plan.mode,
                "reason": plan.reason,
                "baseline_epoch": plan.baseline_epoch,
                "churn_fraction": plan.churn_fraction,
                "n_recomputed": n_recomputed,
                "n_copied": n_copied,
                "n_recovered": n_recovered,
            },
            "churn": day.churn,
        }
        # Only when the gate actually fired: a clean-roster trust-on
        # manifest stays byte-identical to a trust-off one (the full
        # verdict set, clean or not, lives in the trust sidecar).
        trust_report = day.trust_report
        if trust_report is not None and trust_report.untrusted_names:
            core["trust"] = {
                "enabled": True,
                "n_untrusted": len(trust_report.untrusted_names),
                "untrusted": list(trust_report.untrusted_names),
                "reasons": trust_report.reasons_by_vp(),
            }
        # Only in BGP/chaos/alarm configurations: plain geo manifests
        # stay byte-identical to builds that predate the routing plane.
        routing_doc = self._routing_doc(day)
        if routing_doc is not None:
            core["routing"] = routing_doc
        return core

    @staticmethod
    def _outcome(
        epoch: int, status: str, manifest: Dict[str, Any], **extra: Any
    ) -> EpochOutcome:
        """What a run did, off its manifest (``extra``: the alarms and route
        events of a run this process committed)."""
        analysis = manifest["analysis"]
        counts = manifest["counts"]
        return EpochOutcome(
            epoch=epoch,
            status=status,
            mode=analysis["mode"],
            reason=analysis["reason"],
            baseline_epoch=analysis["baseline_epoch"],
            churn_fraction=analysis["churn_fraction"],
            n_recomputed=analysis["n_recomputed"],
            n_copied=analysis["n_copied"],
            n_recovered=analysis.get("n_recovered", 0),
            n_targets=counts["n_targets"],
            n_anycast=counts["n_anycast"],
            total_replicas=counts["total_replicas"],
            untrusted_vps=list(manifest.get("trust", {}).get("untrusted", [])),
            **extra,
        )

    # ------------------------------------------------------------------
    # Service operations
    # ------------------------------------------------------------------

    def fsck(self, repair: bool = True) -> FsckReport:
        """Verify/repair the archive (see :func:`fsck_archive`)."""
        return fsck_archive(self.archive, repair=repair)

    def catch_up(
        self, through_epoch: int, abort_after_vps: Optional[int] = None
    ) -> Tuple[FsckReport, List[EpochOutcome]]:
        """Fsck, then run every missing epoch up to ``through_epoch``.

        Missed days, interrupted days (re-run from their start), and
        quarantined days all land in the same place: "not committed",
        and this loop commits them in order.  The result is the archive
        an uninterrupted daily service would have produced.
        """
        report = self.fsck(repair=True)
        outcomes = [
            self.run_epoch(epoch, abort_after_vps=abort_after_vps)
            for epoch in range(through_epoch + 1)
        ]
        return report, outcomes

    def timeline(
        self, k: float = 4.0
    ) -> Tuple[Timeline, List[Regression]]:
        """Longitudinal health: per-metric series + flagged regressions.

        Folds every committed manifest (and, where present, telemetry
        sidecar) into :class:`~repro.obs.timeline.Timeline` series and
        flags points sitting more than ``k`` robust deviations above the
        rolling median (see :func:`~repro.obs.timeline.detect_regressions`).
        """
        timeline = collect_timeline(self.archive)
        return timeline, detect_regressions(timeline, k=k)

    def alarm_history(self) -> List[Dict[str, Any]]:
        """Every alarming routing verdict across the archive, in epoch
        order — one row per alarm, straight off the manifests' ``routing``
        blocks."""
        rows: List[Dict[str, Any]] = []
        for epoch in self.archive.epochs():
            manifest = self.archive.read_manifest(epoch)
            routing = manifest.get("routing") or {}
            for doc in routing.get("alarms", []):
                rows.append({"epoch": epoch, **doc})
        return rows

    def history(self) -> List[Dict[str, Any]]:
        """One summary row per committed epoch, straight off the manifests."""
        rows = []
        for epoch in self.archive.epochs():
            manifest = self.archive.read_manifest(epoch)
            rows.append(
                {
                    "epoch": epoch,
                    "mode": manifest["analysis"]["mode"],
                    "reason": manifest["analysis"]["reason"],
                    "churn_fraction": manifest["analysis"]["churn_fraction"],
                    "n_targets": manifest["counts"]["n_targets"],
                    "n_anycast": manifest["counts"]["n_anycast"],
                    "total_replicas": manifest["counts"]["total_replicas"],
                    "churn": manifest.get("churn"),
                }
            )
        return rows

"""The longitudinal census service: dated runs over an evolving internet.

One :class:`CensusService` owns an archive and a deterministic recipe
for epoch *k*'s world: the base deployment catalog chain-evolved *k*
times (:func:`~repro.census.longitudinal.evolve_catalog`, one fixed
seed per step), the same synthetic-internet seed, the same platform.
Running epoch *k* is therefore a pure function — which is what makes
every robustness property testable as byte equality:

* **crash tolerance**: each epoch's census journals per-VP batches to
  ``journal/epoch-NNNNNN.journal``; a killed run resumes from the
  journal bit-for-bit (keyed per-VP RNG), and the archive commit itself
  is atomic, so re-running after a crash at *any* point converges to
  the same archive bytes as an uninterrupted timeline;
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

import pathlib
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    ResiliencePolicy,
    StageFailed,
    StageSupervisor,
    VpTrustReport,
    run_stage,
    trust_gate,
)
from .archive import CensusArchive
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
        #: The last world :meth:`internet_for` built, with its epoch.
        self._world: Optional[Tuple[int, SyntheticInternet]] = None
        #: The last epoch's campaign and signed matrix: the next epoch
        #: carries their scan geometry and signatures (see
        #: :class:`~repro.measurement.campaign.CensusCampaign`'s
        #: ``previous`` and :func:`~repro.service.delta.sign_rows`).
        self._campaign: Optional[CensusCampaign] = None
        self._signed: Optional[RowSignatures] = None
        #: id(results doc) -> (doc, its signature map), for the documents
        #: the last epoch planned against.
        self._signature_maps: Dict[int, Tuple[Dict[str, Any], Dict[int, str]]] = {}
        #: The last analysed world with its registered /24s (sorted) and
        #: their owner ASNs (see :meth:`_aggregate`).
        self._owners: Optional[Tuple[SyntheticInternet, np.ndarray, np.ndarray]] = None
        #: Geolocation's disk tables by exponent, for the last analysed
        #: roster digest (they depend on VP locations and the gazetteer only).
        self._disk_tables: Tuple[str, Dict[float, Any]] = ("", {})

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
        """Epoch *k*'s world, carried over from the last one built.

        The first call builds cold; every later call derives the world
        from the previous one (:meth:`SyntheticInternet.evolved`), in any
        epoch order, so a quiet day rebuilds only the deployments its
        catalog touched and propagates only their routes.  The result
        equals a cold build of the same epoch.  Worlds are read-only.
        """
        catalog = self.catalog_for(epoch)
        if self._world is None:
            world = SyntheticInternet(
                InternetConfig(
                    seed=self.config.internet_seed,
                    n_unicast_slash24=self.config.n_unicast,
                    tail_deployments=self.config.tail_deployments,
                    routing=self.config.routing,
                ),
                catalog=catalog,
                city_db=self.city_db,
            )
        elif self._world[0] == epoch:
            return self._world[1]
        else:
            world = self._world[1].evolved(catalog)
        self._world = (epoch, world)
        return world

    def platform_for(self, epoch: int) -> Platform:
        """Epoch *k*'s active roster: the full platform minus the VPs
        sitting this epoch out.

        Each VP's absence is an independent keyed coin flip on
        ``(roster_seed, epoch, VP name)`` — deterministic, so re-running
        (or resuming) an epoch sees the identical roster, and a VP that
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
    # Supervision plumbing
    # ------------------------------------------------------------------

    def _stage(self, name, fn, epoch):
        """Run one stage of an epoch (:func:`~repro.resilience.run_stage`).

        Interruption and quorum aborts are *control flow*, not stage
        failures: the supervisor's classifier sees them as fatal and
        wraps them, so unwrap and re-raise the original — callers (and
        the CLI's exit-code ladder) dispatch on the real exception.
        """
        try:
            return run_stage(name, fn, self.supervisor, epoch=epoch)
        except StageFailed as exc:
            if isinstance(exc.__cause__, (CensusInterrupted, CensusAborted)):
                raise exc.__cause__
            raise

    # ------------------------------------------------------------------
    # One epoch
    # ------------------------------------------------------------------

    def run_epoch(
        self, epoch: int, abort_after_vps: Optional[int] = None
    ) -> EpochOutcome:
        """Measure, analyze and commit one epoch (idempotent).

        A committed epoch returns immediately (``"already-present"``).
        ``abort_after_vps`` is the chaos knob of the underlying census:
        the run dies with :class:`CensusInterrupted` after that many
        fresh VP scans, leaving a resumable journal behind.
        """
        if self.archive.has(epoch):
            # Re-running a committed epoch also clears any stale journal
            # (a crash window between rename and journal cleanup).
            journal = self.archive.journal_path(epoch)
            if journal.exists():
                journal.unlink()
            return self._outcome_from_manifest(epoch, "already-present")

        if not self.config.telemetry:
            return self._run_epoch_inner(epoch, abort_after_vps)

        # Telemetry mode: fresh per-epoch collectors, scoped — the trace,
        # metrics and event log land in the run's archive sidecars.
        # Everything the census computes is untouched (no RNG, no wall
        # time in results), so the committed census bytes are identical
        # to a telemetry-off run.
        tracer = Tracer()
        metrics = MetricsRegistry()
        events = EventLog()
        with activate(tracer=tracer, metrics=metrics, events=events):
            return self._run_epoch_inner(
                epoch, abort_after_vps, collectors=(tracer, metrics, events)
            )

    def _run_epoch_inner(
        self,
        epoch: int,
        abort_after_vps: Optional[int],
        collectors: Optional[Tuple[Tracer, MetricsRegistry, EventLog]] = None,
    ) -> EpochOutcome:
        events = current_events()
        tracer = current_tracer()
        with tracer.span("service_epoch", epoch=epoch):
            events.emit("service", "epoch_start", epoch=epoch)
            self.archive.ensure_layout()
            with tracer.span("world") as world_span:
                previous = self._world[1] if self._world is not None else None
                propagated = _routes_propagated(previous)
                internet = self.internet_for(epoch)
                campaign = CensusCampaign(
                    internet,
                    self.platform_for(epoch),
                    seed=self.config.campaign_seed,
                    degraded_fraction=self.config.degraded_fraction,
                    noise=self.config.noise,
                    fault_plan=self.config.fault_plan,
                    distortion=self.config.vp_distortion,
                    previous=self._campaign,
                    **(
                        {"rate_pps": self.config.rate_pps}
                        if self.config.rate_pps is not None
                        else {}
                    ),
                )
                self._campaign = campaign
                kept = (
                    {id(dep) for dep in previous.deployments}
                    if previous is not None
                    else set()
                )
                world_span.set("carried", previous is not None)
                world_span.set(
                    "deployments_rebuilt",
                    sum(id(dep) not in kept for dep in internet.deployments),
                )
                world_span.set(
                    "routes_propagated", _routes_propagated(internet) - propagated
                )
                world_span.set("catchments_carried", campaign.catchments_carried)
            journal = self.archive.journal_path(epoch)

            def measure():
                campaign.run_precensus()
                return campaign.run_census(
                    availability=self.config.availability,
                    checkpoint=str(journal),
                    abort_after_vps=abort_after_vps,
                )

            census = self._stage("measurement", measure, epoch)
            # Outcomes are carried as the census scans each VP: the world
            # span reports them once the measurement is done.
            world_span.set("outcomes_carried", campaign.outcomes_carried)
            world_span.set("positions_scanned", campaign.positions_scanned)
            if census.health is not None:
                for vp_name in census.health.quarantined_vps:
                    events.emit(
                        "quarantine", "vp_quarantined", vp=vp_name, epoch=epoch
                    )
                for vp_name in census.health.salvaged_vps:
                    events.emit("lifecycle", "vp_salvaged", vp=vp_name, epoch=epoch)
            matrix = matrix_from_census(census)

            # Routing chaos: the plan's active events perturb this
            # epoch's matrix exactly the way real routing incidents are
            # visible to a census — through the measurements.  An inert
            # plan returns the same matrix object, so chaos-free configs
            # stay byte-identical.
            route_records: List[Dict[str, Any]] = []
            if (
                self.config.route_events is not None
                and self.config.route_events.enabled
            ):
                injector = RouteEventInjector(self.config.route_events, internet)
                matrix, route_records = self._stage(
                    "routing", lambda: injector.perturb(matrix, epoch), epoch
                )

            # Trust gate: score the roster, excise what cannot be
            # physically consistent with it.  On a clean roster the
            # matrix object comes back unchanged with an all-zero
            # excision count, so signatures — and the whole committed
            # archive — are byte-identical to a trust-off run.
            trust_report: Optional[VpTrustReport] = None
            excised: Optional[np.ndarray] = None
            if self.config.trust:
                matrix, excised, trust_report = self._stage(
                    "trust", lambda: trust_gate(matrix, [census.health]), epoch
                )
            with tracer.span("signatures") as signatures_span:
                signed = sign_rows(matrix, excised, previous=self._signed)
                self._signed = signed
                signatures = signed.signatures
                signatures_span.set("carried", signed.carried)
                signatures_span.set("hashed", signed.hashed)

            with tracer.span("baseline") as baseline_span:
                before = Counter(self.archive.counters)
                baseline_epoch = self.archive.latest_epoch_before(epoch)
                baseline_doc: Optional[Dict[str, Any]] = None
                baseline_problem: Optional[str] = None
                if baseline_epoch is not None:
                    try:
                        baseline_doc = self.archive.read_results(baseline_epoch)
                    except CorruptPayloadError as exc:
                        baseline_problem = str(exc)

                # Older epochs back the roster-rejoin recovery: a target
                # whose signature misses the primary baseline but matches
                # a pre-disconnect epoch is copied from there.
                history_docs: Dict[int, Dict[str, Any]] = {}
                if baseline_epoch is not None and self.config.baseline_depth > 0:
                    older = [e for e in self.archive.epochs() if e < baseline_epoch]
                    for old_epoch in older[-self.config.baseline_depth :]:
                        try:
                            history_docs[old_epoch] = self.archive.read_results(
                                old_epoch
                            )
                        except CorruptPayloadError:
                            continue  # rotten history is merely unavailable
                baseline_signatures, history = self._carry_signatures(
                    baseline_doc, history_docs
                )
                read = self.archive.counters - before
                baseline_span.set("carried", read["results_carried"])
                baseline_span.set("parsed", read["results_parsed"])

            with tracer.span("plan"):
                plan = plan_delta(
                    signatures,
                    baseline_signatures,
                    baseline_epoch=baseline_epoch,
                    churn_threshold=self.config.churn_threshold,
                    enabled=self.config.incremental,
                    baseline_problem=baseline_problem,
                    history=history,
                )

            results_doc, n_recomputed, n_copied, n_recovered = self._stage(
                "analysis",
                lambda: self._analyze(
                    matrix,
                    internet,
                    signatures,
                    plan,
                    baseline_doc,
                    epoch,
                    excised=excised,
                    history_docs=history_docs,
                ),
                epoch,
            )

            churn_doc = None
            if baseline_doc is not None:
                with tracer.span("churn"):
                    churn_doc = churn_between(
                        baseline_doc,
                        results_doc,
                        min_delta=self.config.min_delta,
                        min_ip24_delta=self.config.min_ip24_delta,
                    ).to_doc()
                    roster_doc = self._roster_doc(baseline_epoch, matrix)
                    if roster_doc is not None:
                        churn_doc["roster"] = roster_doc

            # Alarm pass: classify this epoch's routing story against the
            # previous committed epoch.  Runs after the analysis so the
            # verdicts see exactly what was archived.
            alarm_list: List[RoutingAlarm] = []
            if self.config.alarms and baseline_doc is not None:
                alarm_list = self._stage(
                    "alarms",
                    lambda: self._classify_alarms(
                        baseline_epoch, baseline_doc, results_doc, matrix,
                        internet,
                    ),
                    epoch,
                )
                metrics_reg = current_metrics()
                if metrics_reg.enabled:
                    metrics_reg.counter("routing_alarms").inc(
                        sum(1 for a in alarm_list if a.is_alarm)
                    )

            routing_doc = self._routing_doc(route_records, alarm_list)

            manifest_core = self._manifest_core(
                census,
                matrix,
                results_doc,
                plan,
                n_recomputed,
                n_copied,
                n_recovered,
                churn_doc,
                trust_report,
                routing_doc,
            )

            metrics = current_metrics()
            if metrics.enabled:
                metrics.counter("service_epochs_committed").inc()
                metrics.counter("service_targets_recomputed").inc(n_recomputed)
                metrics.counter("service_targets_copied").inc(n_copied)
            events.emit("service", "epoch_end", epoch=epoch, mode=plan.mode)

        # The epoch span is closed: stage durations are final, so the
        # telemetry sidecars can be assembled and committed atomically
        # alongside the census payloads.
        telemetry_doc = None
        events_lines = None
        if collectors is not None:
            telemetry_doc, events_lines = self._build_telemetry(
                epoch,
                census,
                results_doc,
                *collectors,
                trust_report=trust_report,
                alarms=alarm_list if self.config.alarms else None,
            )
        with tracer.span("commit") as commit_span:
            before = Counter(self.archive.counters)
            self.archive.commit_run(
                epoch,
                manifest_core,
                census.records,
                results_doc,
                telemetry_doc=telemetry_doc,
                events_lines=events_lines,
                trust_doc=trust_report.to_doc() if trust_report is not None else None,
            )
            done = self.archive.counters - before
            for name in ("fragments_reused", "fragments_encoded", "index_entries_read"):
                commit_span.set(name, done[name])
            if journal.exists():
                journal.unlink()

        summary = results_doc["summary"]
        return EpochOutcome(
            epoch=epoch,
            status="committed",
            mode=plan.mode,
            reason=plan.reason,
            baseline_epoch=plan.baseline_epoch,
            churn_fraction=plan.churn_fraction,
            n_recomputed=n_recomputed,
            n_copied=n_copied,
            n_recovered=n_recovered,
            n_targets=summary["n_targets"],
            n_anycast=summary["n_anycast"],
            total_replicas=summary["total_replicas"],
            untrusted_vps=(
                list(trust_report.untrusted_names)
                if trust_report is not None
                else []
            ),
            alarms=alarm_list,
            route_events=route_records,
        )

    def _classify_alarms(
        self,
        baseline_epoch: Optional[int],
        baseline_doc: Dict[str, Any],
        results_doc: Dict[str, Any],
        matrix: RttMatrix,
        internet: SyntheticInternet,
    ) -> List[RoutingAlarm]:
        """Typed routing verdicts for this epoch vs the committed baseline.

        The baseline matrix is rebuilt from the archived raw records,
        with the baseline epoch's route events re-applied (the injector
        is keyed on epoch, so the replay is exact) — leak calibration
        diffs then compare what the baseline analysis actually saw.  A
        rotten baseline merely downgrades the classifier to analysis-
        level evidence; it never fails the epoch.

        The catalog's deployment prefixes act as the operator registry
        the paper proposes: a registered-anycast prefix flipping from
        apparently-unicast to anycast is landscape evolution (or a
        borderline signature stabilising), never a hijack.  Registered-
        unicast prefixes — the unicast hosts — carry the hijack and leak
        checks at full strength.  Subprefix collapse stays alarming for
        registered prefixes too: the registry vouches for *who may
        announce*, not for every site vanishing at once.
        """
        baseline_matrix: Optional[RttMatrix] = None
        baseline_names: Optional[List[str]] = None
        if baseline_epoch is not None:
            try:
                manifest = self.archive.read_manifest(baseline_epoch)
                records = self.archive.read_records(baseline_epoch)
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
                        self.config.route_events,
                        self.internet_for(baseline_epoch),
                    )
                    baseline_matrix, _ = injector.perturb(
                        baseline_matrix, baseline_epoch
                    )
            except (CorruptPayloadError, ValueError, KeyError):
                baseline_matrix = None
        registered_anycast = {
            int(p) for dep in internet.deployments for p in dep.prefixes
        }
        return classify_routing_changes(
            DocAnalysisView(baseline_doc),
            DocAnalysisView(results_doc),
            baseline_matrix=baseline_matrix,
            current_matrix=matrix,
            known_anycast=registered_anycast,
            baseline_vp_names=baseline_names,
        )

    def _routing_doc(
        self,
        route_records: List[Dict[str, Any]],
        alarm_list: List[RoutingAlarm],
    ) -> Optional[Dict[str, Any]]:
        """The manifest's ``routing`` block, or ``None`` for plain geo
        runs (keeping geo-default manifests byte-identical to builds
        that predate the routing plane)."""
        if (
            self.config.routing == "geo"
            and not route_records
            and not self.config.alarms
        ):
            return None
        verdict_counts: Dict[str, int] = {}
        for alarm in alarm_list:
            verdict_counts[alarm.verdict.value] = (
                verdict_counts.get(alarm.verdict.value, 0) + 1
            )
        return {
            "mode": self.config.routing,
            "events": route_records,
            "alarms_enabled": bool(self.config.alarms),
            "verdicts": dict(sorted(verdict_counts.items())),
            "alarms": [a.to_doc() for a in alarm_list if a.is_alarm],
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
        self,
        epoch: int,
        census,
        results_doc: Dict[str, Any],
        tracer: Tracer,
        metrics: MetricsRegistry,
        events: EventLog,
        trust_report: Optional[VpTrustReport] = None,
        alarms: Optional[List[RoutingAlarm]] = None,
    ) -> Tuple[Dict[str, Any], List[str]]:
        """Assemble the epoch's telemetry sidecar + sealed event lines.

        Wall-clock durations live *only* here — the sidecars are the one
        sanctioned nondeterministic output, excluded from byte-identity
        comparisons of the census payloads.
        """
        stage_seconds = stage_seconds_from_trace(tracer)
        snapshot = metrics.snapshot()
        spec = self.config.slo if self.config.slo is not None else default_service_slo()
        entries = results_doc["targets"].values()
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
        if trust_report is not None:
            observations["untrusted_vp_fraction"] = trust_report.untrusted_fraction
        if alarms is not None:
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

    def _carry_signatures(
        self,
        baseline_doc: Optional[Dict[str, Any]],
        history_docs: Dict[int, Dict[str, Any]],
    ) -> Tuple[Optional[Dict[int, str]], List[Tuple[int, Dict[int, str]]]]:
        """The baseline's and the history's signature maps for
        :func:`plan_delta`, built once per document: the archive hands
        back the same (read-only) document while its bytes are unchanged,
        so the maps of the documents this epoch used are kept for the
        next one."""
        maps: Dict[int, Tuple[Dict[str, Any], Dict[int, str]]] = {}

        def signature_map(doc: Dict[str, Any]) -> Dict[int, str]:
            kept = self._signature_maps.get(id(doc))
            if kept is None:
                kept = (doc, self._baseline_signatures(doc))
            maps[id(doc)] = kept
            return kept[1]

        baseline = signature_map(baseline_doc) if baseline_doc is not None else None
        history = [(e, signature_map(doc)) for e, doc in history_docs.items()]
        self._signature_maps = maps
        return baseline, history

    @staticmethod
    def _baseline_signatures(
        baseline_doc: Optional[Dict[str, Any]],
    ) -> Optional[Dict[int, str]]:
        if baseline_doc is None:
            return None
        return {
            int(prefix): entry["signature"]
            for prefix, entry in baseline_doc["targets"].items()
        }

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
        roster = vp_context_digest(matrix.vp_names, matrix.vp_locations)
        if self._disk_tables[0] != roster:
            self._disk_tables = (roster, {})
        engine = FastAnalysisEngine(
            matrix, city_db=self.city_db, config=cfg, disk_tables=self._disk_tables[1]
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
            "signature_context": roster,
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
        if self._owners is None or self._owners[0] is not internet:
            registry = internet.registry
            # Sorted, then a sentinel past every prefix: each lookup lands
            # on a slot, and an unregistered /24 on one that is not its own.
            owned = sorted(
                (prefix, owner.asn)
                for owner in registry
                for prefix in registry.prefixes_of(owner.asn)
            ) + [(np.iinfo(np.int64).max, -1)]
            self._owners = (
                internet,
                np.array([p for p, _ in owned], dtype=np.int64),
                np.array([a for _, a in owned], dtype=np.int64),
            )
        _, registered, asn_of = self._owners
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

    def _manifest_core(
        self,
        census,
        matrix: RttMatrix,
        results_doc: Dict[str, Any],
        plan: DeltaPlan,
        n_recomputed: int,
        n_copied: int,
        n_recovered: int,
        churn_doc: Optional[Dict[str, Any]],
        trust_report: Optional[VpTrustReport] = None,
        routing_doc: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        summary = results_doc["summary"]
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
            "counts": dict(summary),
            "analysis": {
                "mode": plan.mode,
                "reason": plan.reason,
                "baseline_epoch": plan.baseline_epoch,
                "churn_fraction": plan.churn_fraction,
                "n_recomputed": n_recomputed,
                "n_copied": n_copied,
                "n_recovered": n_recovered,
            },
            "churn": churn_doc,
        }
        # Only when the gate actually fired: a clean-roster trust-on
        # manifest stays byte-identical to a trust-off one (the full
        # verdict set, clean or not, lives in the trust sidecar).
        if trust_report is not None and trust_report.untrusted_names:
            core["trust"] = {
                "enabled": True,
                "n_untrusted": len(trust_report.untrusted_names),
                "untrusted": list(trust_report.untrusted_names),
                "reasons": trust_report.reasons_by_vp(),
            }
        # Only in BGP/chaos/alarm configurations: plain geo manifests
        # stay byte-identical to builds that predate the routing plane.
        if routing_doc is not None:
            core["routing"] = routing_doc
        return core

    def _outcome_from_manifest(self, epoch: int, status: str) -> EpochOutcome:
        manifest = self.archive.read_manifest(epoch)
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

        Missed days, interrupted days (their journals resume), and
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

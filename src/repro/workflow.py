"""High-level workflow facade: from nothing to a characterized census.

Wires the full pipeline of the paper's Fig. 1 together:

    hitlist -> PlanetLab measurement -> detection/enumeration/geolocation
            -> characterization (+ validation, + portscan)

:class:`CensusStudy` is the one-stop entry point used by the examples and
the benchmark harness; each stage is also available individually through
the subpackage APIs for custom studies.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Union

from .census.analysis import AnalysisResult, CensusFunnel, analyze_matrix, census_funnel
from .census.characterize import Characterization
from .census.combine import RttMatrix, combine_censuses
from .census.ranks import alexa_hosted_prefixes, caida_top_asns
from .census.validation import ValidationReport, validate_deployment
from .core.igreedy import IGreedyConfig
from .geo.cities import CityDB, default_city_db
from .internet.hitlist import Hitlist, generate_hitlist
from .internet.topology import InternetConfig, SyntheticInternet
from .measurement.campaign import CampaignHealthReport, Census, CensusCampaign
from .measurement.faults import (
    FaultPlan,
    PoisonPlan,
    RetryPolicy,
    VpDistortionPlan,
)
from .measurement.httpprobe import SiteCodeBook
from .measurement.platform import Platform, planetlab_platform
from .measurement.portscan import PortscanReport, run_portscan
from .obs import (
    NULL_EVENTS,
    NULL_METRICS,
    NULL_TRACER,
    EventLog,
    MetricsRegistry,
    NullEventLog,
    NullMetricsRegistry,
    NullTracer,
    RunManifest,
    SloSpec,
    Tracer,
    activate,
    evaluate_slo,
    stage_seconds_from_trace,
)
from .resilience import (
    DegradationReport,
    FatalStageError,
    QuarantineLog,
    ResiliencePolicy,
    StageSupervisor,
    VpTrustReport,
    confidence_counts,
    confidence_verdicts,
    empty_analysis,
    run_stage,
    sanitize_hitlist,
    sanitize_matrix,
    sanitize_records,
    trust_gate,
)


@dataclass
class StudyConfig:
    """Scale and seeds of a complete census study."""

    internet: InternetConfig = field(default_factory=InternetConfig)
    n_vantage_points: int = 308
    n_censuses: int = 4
    availability: float = 0.85
    rate_pps: float = 1000.0
    platform_seed: int = 41
    campaign_seed: int = 500
    igreedy: IGreedyConfig = field(default_factory=IGreedyConfig)
    #: Node-fault model for the measurement platform; the default plan
    #: injects nothing and leaves campaign output byte-identical.
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    #: Supervision policy for per-VP scans (attempts, backoff in
    #: simulated hours, jitter).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Deadline of one VP scan attempt in simulated hours; a hang past
    #: it is retried.  ``None`` waits every hung scan out.
    scan_timeout_hours: Optional[float] = None
    #: Minimum usable VPs per census before it aborts (CensusAborted).
    min_vp_quorum: int = 1
    #: Scan threads of every census, all on the one scan driver: ``0``
    #: (default) scans inline, serially — the reference every worker
    #: count is tested against; ``N >= 1`` runs the scans on N threads.
    #: Output bytes are identical for every value.
    workers: int = 0
    #: Wall-clock budget (seconds) for each census's scan phase; on
    #: expiry unfinished VPs are failed into the quorum machinery
    #: instead of hanging the run.
    deadline: Optional[float] = None
    #: Record a hierarchical span tree of every pipeline stage.  Purely
    #: observational: results are byte-identical with tracing on or off.
    trace: bool = False
    #: Record pipeline metrics (probe counters, iGreedy histograms, ...).
    metrics: bool = False
    #: Record structured lifecycle events (quarantines, stage
    #: boundaries) into an in-memory :class:`~repro.obs.EventLog`.
    events: bool = False
    #: SLO budgets evaluated into the run manifest's ``slo`` section;
    #: ``None`` leaves the manifest without one (the classic shape).
    slo: Optional[SloSpec] = None
    #: Stage supervision + data quarantine.  ``None`` turns the resilience
    #: layer off entirely: stages run bare, exactly as before.  With a
    #: policy set and clean inputs, outputs stay byte-identical — every
    #: sanitizer returns its argument unchanged when nothing is wrong.
    resilience: Optional[ResiliencePolicy] = None
    #: Chaos harness: poison data *between* stages (NaN RTTs, impossible
    #: VP coordinates, malformed hitlist rows, ...).  Test-only knob.
    poison: Optional[PoisonPlan] = None
    #: Chaos harness for the *measurement* side: a keyed fraction of
    #: vantage points is miscalibrated (clock skew, bufferbloat, stale
    #: geolocation, stuck RTTs) for the whole campaign.  The default
    #: plan distorts nothing and leaves output byte-identical.
    vp_distortion: Optional[VpDistortionPlan] = None
    #: Cross-VP trust scoring on the combined matrix: convicted columns
    #: are excised before analysis and their targets marked with
    #: degraded confidence.  On clean data no VP is convicted and the
    #: results stay byte-identical to a run without the trust layer.
    trust: bool = False


class CensusStudy:
    """Lazily-evaluated end-to-end census study.

    Stages are computed on first access and cached, so a single study can
    back many experiments without recomputation::

        study = CensusStudy(StudyConfig())
        study.characterization.glance_table(...)
        study.validate("CLOUDFLARENET,US")
    """

    def __init__(self, config: Optional[StudyConfig] = None) -> None:
        self.config = config or StudyConfig()
        #: Span collector; a shared no-op unless ``config.trace`` is set.
        self.tracer: Union[Tracer, NullTracer] = (
            Tracer() if self.config.trace else NULL_TRACER
        )
        #: Metric store; a shared no-op unless ``config.metrics`` is set.
        self.metrics: Union[MetricsRegistry, NullMetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else NULL_METRICS
        )
        #: Event log; a shared no-op unless ``config.events`` is set.
        self.events: Union[EventLog, NullEventLog] = (
            EventLog() if self.config.events else NULL_EVENTS
        )
        #: Reason-coded record of everything the sanitizers removed or
        #: repaired.  Always present (and empty) so callers can inspect it
        #: without caring whether resilience is on.
        self.quarantine = QuarantineLog()
        #: Stage supervisor; ``None`` when ``config.resilience`` is unset.
        self.supervisor: Optional[StageSupervisor] = (
            StageSupervisor(self.config.resilience, quarantine=self.quarantine)
            if self.config.resilience is not None
            else None
        )
        #: The chaos harness's poison plan (a default plan poisons nothing).
        self._poison: PoisonPlan = self.config.poison or PoisonPlan()
        self._removed_per_target = None
        #: VP trust verdicts of the combined matrix; ``None`` until the
        #: matrix stage runs (or when ``config.trust`` is off).
        self.trust_report: Optional[VpTrustReport] = None
        self._trust_excised = None
        self._internet: Optional[SyntheticInternet] = None
        self._platform: Optional[Platform] = None
        self._campaign: Optional[CensusCampaign] = None
        self._censuses: Optional[List[Census]] = None
        self._matrix: Optional[RttMatrix] = None
        self._analysis: Optional[AnalysisResult] = None
        self._characterization: Optional[Characterization] = None
        self._hitlist: Optional[Hitlist] = None
        self._portscan: Optional[PortscanReport] = None
        self._codebook: Optional[SiteCodeBook] = None
        self.city_db: CityDB = default_city_db()

    # -- observability / supervision -------------------------------------

    def _run_stage(
        self,
        name: str,
        fn: Callable[[], Any],
        fallback: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Run one pipeline stage under tracing, metrics and supervision.

        Installs the study's tracer/registry as the process-wide defaults
        (so deep instrumentation in campaign/iGreedy reports here) around
        :func:`~repro.resilience.run_stage`, which the service shares.
        """
        with activate(self.tracer, self.metrics, self.events):
            return run_stage(name, fn, self.supervisor, fallback)

    # -- substrate -----------------------------------------------------

    @property
    def internet(self) -> SyntheticInternet:
        if self._internet is None:
            self._internet = self._run_stage(
                "internet", lambda: SyntheticInternet(self.config.internet)
            )
        return self._internet

    @property
    def platform(self) -> Platform:
        if self._platform is None:
            self._platform = self._run_stage(
                "platform",
                lambda: planetlab_platform(
                    count=self.config.n_vantage_points,
                    seed=self.config.platform_seed,
                    city_db=self.city_db,
                ),
            )
        return self._platform

    def _build_hitlist(self, internet: SyntheticInternet) -> Hitlist:
        hitlist = generate_hitlist(internet)
        if not self._poison.enabled:
            return hitlist
        entries = self._poison.poison_hitlist(list(hitlist))
        if self.supervisor is not None:
            entries = sanitize_hitlist(entries, self.quarantine)
        return Hitlist(entries=entries)

    @property
    def hitlist(self) -> Hitlist:
        if self._hitlist is None:
            internet = self.internet
            self._hitlist = self._run_stage(
                "hitlist", lambda: self._build_hitlist(internet)
            )
        return self._hitlist

    # -- measurement ----------------------------------------------------

    @property
    def campaign(self) -> CensusCampaign:
        if self._campaign is None:
            self._campaign = CensusCampaign(
                self.internet,
                self.platform,
                rate_pps=self.config.rate_pps,
                seed=self.config.campaign_seed,
                fault_plan=self.config.fault_plan,
                retry=self.config.retry,
                scan_timeout_hours=self.config.scan_timeout_hours,
                min_vp_quorum=self.config.min_vp_quorum,
                workers=self.config.workers,
                deadline_s=self.config.deadline,
                distortion=self.config.vp_distortion,
            )
        return self._campaign

    @property
    def censuses(self) -> List[Census]:
        if self._censuses is None:
            campaign = self.campaign
            self._censuses = self._run_stage(
                "measurement",
                lambda: campaign.run(
                    n_censuses=self.config.n_censuses,
                    availability=self.config.availability,
                ),
            )
        return self._censuses

    @property
    def health_reports(self) -> List[CampaignHealthReport]:
        """Per-census supervision reports (faults, retries, salvage).

        Lazy in the read-only sense: this reflects only censuses that have
        already been materialized and returns ``[]`` otherwise, rather
        than forcing a full campaign run just to look at health.  Access
        :attr:`censuses` first when you want the campaign to run.
        """
        if self._censuses is None:
            return []
        return [census.health for census in self._censuses]

    # -- analysis --------------------------------------------------------

    def _combine_censuses(self, censuses: List[Census]) -> RttMatrix:
        """combine stage body: poison -> sanitize -> min-RTT combine."""
        inputs = list(censuses)
        if self._poison.enabled:
            inputs = [
                replace(c, records=self._poison.poison_records(c.records, key=i))
                for i, c in enumerate(inputs)
            ]
        if self.supervisor is not None:
            sanitized = []
            for census in inputs:
                clean = sanitize_records(census.records, self.quarantine)
                sanitized.append(
                    census if clean is census.records else replace(census, records=clean)
                )
            inputs = sanitized
        matrix = combine_censuses(inputs, store="auto")
        matrix = self._poison.poison_matrix(matrix)
        if self.supervisor is not None:
            matrix, self._removed_per_target = sanitize_matrix(matrix, self.quarantine)
        return matrix

    def _combine_salvage(self, censuses: List[Census]) -> RttMatrix:
        """combine degrade path: drop censuses that are individually broken."""
        usable = []
        for census in censuses:
            try:
                combine_censuses([census])
            except Exception:  # noqa: BLE001 — any breakage disqualifies it
                self.quarantine.add(
                    "combine", "census_dropped", example=census.census_id
                )
            else:
                usable.append(census)
        if not usable:
            raise FatalStageError("no census survived salvage")
        return self._combine_censuses(usable)

    @property
    def matrix(self) -> RttMatrix:
        """Minimum-RTT combination of all censuses (trust-filtered when
        ``config.trust`` is on)."""
        if self._matrix is None:
            censuses = self.censuses
            matrix = self._run_stage(
                "combine",
                lambda: self._combine_censuses(censuses),
                fallback=lambda: self._combine_salvage(censuses),
            )
            if self.config.trust:
                matrix, self._trust_excised, self.trust_report = self._run_stage(
                    "trust",
                    lambda: trust_gate(matrix, [c.health for c in censuses]),
                )
            self._matrix = matrix
        return self._matrix

    @property
    def analysis(self) -> AnalysisResult:
        if self._analysis is None:
            matrix = self.matrix

            def build() -> AnalysisResult:
                result = analyze_matrix(
                    matrix,
                    city_db=self.city_db,
                    config=self.config.igreedy,
                )
                removed = self._removed_per_target
                trust_hit = (
                    self._trust_excised is not None and self._trust_excised.any()
                )
                if trust_hit:
                    removed = (
                        self._trust_excised
                        if removed is None
                        else removed + self._trust_excised
                    )
                if self.supervisor is not None or trust_hit:
                    result.confidence = confidence_verdicts(matrix, removed)
                return result

            self._analysis = self._run_stage(
                "analysis", build, fallback=lambda: empty_analysis(matrix)
            )
        return self._analysis

    @property
    def characterization(self) -> Characterization:
        if self._characterization is None:
            analysis, internet = self.analysis, self.internet
            self._characterization = self._run_stage(
                "characterization", lambda: Characterization(analysis, internet)
            )
        return self._characterization

    # -- cross-checks ------------------------------------------------------

    def glance_table(self):
        """The Fig. 10 summary table with CAIDA and Alexa intersections."""
        return self.characterization.glance_table(
            caida_asns=caida_top_asns(self.internet),
            alexa_prefixes=alexa_hosted_prefixes(self.internet),
        )

    def funnels(self) -> List[CensusFunnel]:
        """Per-census magnitude funnels (Fig. 4)."""
        return [census_funnel(c, self.internet, self.analysis) for c in self.censuses]

    @property
    def portscan(self) -> PortscanReport:
        if self._portscan is None:
            internet = self.internet
            self._portscan = self._run_stage("portscan", lambda: run_portscan(internet))
        return self._portscan

    # -- degradation -----------------------------------------------------

    @property
    def degradation_report(self) -> Optional[DegradationReport]:
        """Honest labelling of what (if anything) ran on partial input.

        ``None`` when the resilience layer is off.  Like
        :attr:`health_reports`, this is read-only lazy: it reflects only
        the stages that have already run.
        """
        if self.supervisor is None:
            return None
        confidence = None
        if self._analysis is not None and self._analysis.confidence:
            confidence = confidence_counts(self._analysis.confidence)
        return self.supervisor.report(confidence=confidence)

    # -- run manifest ----------------------------------------------------

    @property
    def manifest(self) -> RunManifest:
        """A run manifest of everything this study has computed so far.

        Covers the config, the recorded span forest (when tracing), the
        metric snapshot (when metering), the health reports of every
        materialized census, and — when resilience is on — the quarantine
        log and degradation report.  Never forces a stage to run.
        """
        slo_report = None
        if self.config.slo is not None:
            slo_report = evaluate_slo(
                self.config.slo,
                stage_seconds=stage_seconds_from_trace(
                    self.tracer.to_dicts() if self.config.trace else None
                ),
                metrics_snapshot=(
                    self.metrics.snapshot() if self.config.metrics else None
                ),
            )
        return RunManifest.collect(
            config=self.config,
            tracer=self.tracer,
            metrics=self.metrics,
            health=self.health_reports,
            quarantine=self.quarantine if self.supervisor is not None else None,
            degradation=self.degradation_report,
            slo=slo_report,
        )

    def write_manifest(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Atomically write the run manifest JSON to ``path``."""
        return self.manifest.write(path)

    @property
    def codebook(self) -> SiteCodeBook:
        if self._codebook is None:
            self._codebook = SiteCodeBook(self.city_db)
        return self._codebook

    def deployment(self, name: str):
        """Look up a ground-truth deployment by catalog name."""
        for dep in self.internet.deployments:
            if dep.entry.name == name:
                return dep
        raise KeyError(f"no deployment named {name!r}")

    def validate(self, as_name: str) -> ValidationReport:
        """Fig. 7 validation of one HTTP-instrumented deployment."""
        return validate_deployment(
            self.analysis, self.deployment(as_name), self.platform, self.codebook
        )


def small_study(
    seed: int = 2015,
    trace: bool = False,
    metrics: bool = False,
    events: bool = False,
    resilience: Optional[ResiliencePolicy] = None,
    poison: Optional[PoisonPlan] = None,
) -> CensusStudy:
    """A laptop-scale study (seconds, not minutes) for examples and tests."""
    return CensusStudy(
        StudyConfig(
            internet=InternetConfig(
                seed=seed, n_unicast_slash24=2_000, tail_deployments=80
            ),
            n_vantage_points=120,
            n_censuses=2,
            trace=trace,
            metrics=metrics,
            events=events,
            resilience=resilience,
            poison=poison,
        )
    )


def small_service(
    archive_root: Union[str, pathlib.Path],
    seed: int = 2015,
    incremental: bool = True,
    churn_threshold: float = 0.25,
    resilience: Optional[ResiliencePolicy] = None,
    telemetry: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    **overrides,
):
    """A laptop-scale longitudinal service for examples and tests.

    A dozen catalog deployments over a small unicast haystack, gentle
    day-over-day drift (about 1-2% of targets move per day), 20 vantage
    points — each epoch takes a fraction of a second, and consecutive
    days mostly reuse the previous day's archived analysis.  Extra
    keyword arguments override any other ``ServiceConfig`` field
    (``roster_churn_prob=0.05``, ``trust=True``, ...).
    """
    from .census.longitudinal import EvolutionConfig
    from .internet.catalog import full_catalog
    from .service import CensusService, ServiceConfig

    return CensusService(
        ServiceConfig(
            archive_root=str(archive_root),
            internet_seed=seed,
            n_unicast=120,
            tail_deployments=0,
            base_catalog=full_catalog(tail_count=0, seed=seed)[:12],
            evolution=EvolutionConfig(
                growth_prob=0.02, max_new_sites=1, shrink_prob=0.01,
                new_adopters=1,
            ),
            n_vps=20,
            incremental=incremental,
            churn_threshold=churn_threshold,
            resilience=resilience,
            telemetry=telemetry,
            fault_plan=fault_plan,
            **overrides,
        )
    )

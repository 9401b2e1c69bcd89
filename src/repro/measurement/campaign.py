"""Census orchestration: platform x internet -> CensusRecords.

A :class:`CensusCampaign` binds a synthetic Internet to a measurement
platform and runs censuses the way the paper does (Sec. 2.1, 3.3):

1. a **pre-census** from a single VP builds the initial blacklist of
   administratively-prohibited targets;
2. each census samples the currently-available platform nodes (the paper's
   four censuses used 261/255/269/240 of ~308 PlanetLab hosts), probes
   every non-blacklisted target from every node, and collects newly seen
   error senders into a per-census greylist;
3. greylists are merged into the blacklist between censuses.

Catchments are resolved once per campaign: routing is stable across
censuses, only per-probe noise is redrawn.

A census accounts for every host it planned, as an operator of ~300
shared testbed hosts has to.  It runs in three steps over one plan, a
:class:`_PlannedVp` per VP in census order (platform index, census
position, degraded flag, the VP as reported, and its outcome):

* **plan** draws the available nodes and their degraded flags, drops the
  VPs quarantined for failing ``quarantine_threshold`` censuses in a row,
  applies the distortion roster and opens the census's
  :class:`CampaignHealthReport`; a plan below ``min_vp_quorum`` raises
  :class:`CensusAborted`;
* **execute** resumes VPs from the ``checkpoint`` journal, decides flaps,
  spends the abort budget and runs every other VP on the scan driver
  (:mod:`repro.exec.engine`): one work unit per VP, inline at
  ``workers=0`` (the default) or on that many threads, the same bytes at
  any worker count.  Each
  finished scan passes the fault policy (:mod:`repro.measurement.faults`):
  a scan that hangs past ``scan_timeout_hours`` or hands back a corrupt
  batch is retried with backoff, a crashed one leaves a salvageable
  partial batch;
* **settle** accounts every VP in census order (health report,
  quarantine streaks, metrics), raises :class:`CensusAborted` when fewer
  than ``min_vp_quorum`` VPs contributed usable data, merges the
  greylist and returns the :class:`Census`.

A journalled census that is interrupted resumes bit-for-bit (every per-VP
RNG is keyed, not streamed).  With the default (disabled) fault plan the
fault path is skipped entirely.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..exec.engine import ShardedExecutor
from ..geo.coords import haversine_km
from ..internet.topology import RESP_REPLY, SyntheticInternet
from ..obs import current_metrics, current_tracer
from .faults import (
    DistortionKind,
    FaultKind,
    FaultPlan,
    RetryPolicy,
    StrikeCounter,
    VpDistortionPlan,
)
from .greylist import Blacklist, Greylist
from .lfsr import lfsr_permutation
from .platform import Platform, VantagePoint, vp_column_digest
from .prober import (
    SAFE_RATE_PPS,
    ScanOutcomes,
    ScanTargets,
    VpScanResult,
    base_rtt_row,
    keyed_base_rtts,
    keyed_outcomes,
    scan_from_outcomes,
    simulate_vp_scan,
)
from .recordio import (
    CensusJournal,
    CensusRecords,
    concatenate,
    outcome_for,
)

#: Cells (scans x positions) one keyed outcome-kernel call evaluates at
#: most: a cold census's scans share calls without the kernel's
#: temporaries outgrowing a few MB.
_KERNEL_CELLS = 1 << 17

#: Domain separator for retry-backoff jitter draws (see
#: :meth:`~repro.measurement.faults.RetryPolicy.backoff`).
_BACKOFF_SALT = 0xBAC0FF


class CensusAborted(RuntimeError):
    """A census fell below the minimum-VP quorum and was aborted.

    Raised instead of returning silently-wrong data when too few vantage
    points contributed usable records.  Carries the health report so the
    caller can see *why* the quorum was missed.
    """

    def __init__(
        self, census_id: int, usable_vps: int, quorum: int, report: "CampaignHealthReport"
    ) -> None:
        self.census_id = census_id
        self.usable_vps = usable_vps
        self.quorum = quorum
        self.report = report
        super().__init__(
            f"census {census_id} aborted: {usable_vps} usable VP(s) "
            f"below quorum {quorum}"
        )


class CensusInterrupted(RuntimeError):
    """A census was interrupted mid-flight (operator kill, host reboot).

    Completed per-VP batches are safe in the checkpoint journal (if one
    was given); re-running the census with the same journal resumes where
    it stopped.
    """

    def __init__(self, census_id: int, completed_vps: int, checkpoint) -> None:
        self.census_id = census_id
        self.completed_vps = completed_vps
        self.checkpoint = checkpoint
        super().__init__(
            f"census {census_id} interrupted after {completed_vps} VP scan(s)"
        )


@dataclass
class CampaignHealthReport:
    """What the supervisor saw while running one census.

    ``degraded`` means the census completed but with less than the full
    planned platform behind it (failures, salvaged partials, or
    quarantined nodes) — downstream consumers can decide whether a
    degraded census is good enough for their analysis.
    """

    census_id: int
    n_vps_available: int = 0
    n_vps_planned: int = 0
    n_vps_ok: int = 0
    n_vps_salvaged: int = 0
    n_vps_failed: int = 0
    #: VPs whose batches were loaded from the checkpoint journal.
    n_vps_resumed: int = 0
    retries: int = 0
    backoff_hours: float = 0.0
    faults_seen: Dict[str, int] = field(default_factory=dict)
    records_salvaged: int = 0
    records_dropped_corrupt: int = 0
    batches_dropped_corrupt: int = 0
    quarantined_vps: List[str] = field(default_factory=list)
    failed_vps: List[str] = field(default_factory=list)
    salvaged_vps: List[str] = field(default_factory=list)
    #: VPs under measurement distortion this census (name -> kind), from
    #: the campaign's :class:`VpDistortionPlan` — chaos ground truth, for
    #: operators comparing what was injected against what trust caught.
    distorted_vps: Dict[str, str] = field(default_factory=dict)
    #: VPs the trust engine excised from analysis input (downstream fills
    #: this via :meth:`absorb_trust`; empty when trust is off or clean).
    untrusted_vps: List[str] = field(default_factory=list)
    #: Per-VP exclusion reasons — quarantine ("quarantined (N consecutive
    #: failures)") and trust verdict reason codes, keyed by VP name.
    vp_reasons: Dict[str, List[str]] = field(default_factory=dict)
    degraded: bool = False
    #: Scan-driver dump (``ExecutionReport.to_dict``) of the scan
    #: phase; empty only when the census aborted before scanning.
    execution: Dict = field(default_factory=dict)

    @property
    def n_faults(self) -> int:
        return sum(self.faults_seen.values())

    def summary_lines(self) -> List[str]:
        """A human-readable rendering for CLIs and logs."""
        faults = (
            ", ".join(f"{k}={v}" for k, v in sorted(self.faults_seen.items()))
            or "none"
        )
        lines = [
            f"census {self.census_id}: "
            f"{self.n_vps_ok}/{self.n_vps_planned} VPs clean"
            + (" [DEGRADED]" if self.degraded else ""),
            f"  available/planned:  {self.n_vps_available}/{self.n_vps_planned}"
            f" (quarantined: {len(self.quarantined_vps)})",
            f"  salvaged/failed:    {self.n_vps_salvaged}/{self.n_vps_failed}"
            f" (resumed from checkpoint: {self.n_vps_resumed})",
            f"  faults seen:        {faults}",
            f"  retries/backoff:    {self.retries} / {self.backoff_hours:.2f} h",
            f"  records salvaged:   {self.records_salvaged}",
            f"  records dropped:    {self.records_dropped_corrupt}"
            f" in {self.batches_dropped_corrupt} corrupt batch(es)",
        ]
        if self.execution:
            ex = self.execution
            lines.append(
                f"  pool:               {ex.get('workers', 0)} worker(s), "
                f"{ex.get('n_units', 0)} unit(s), "
                f"{ex.get('units_failed', 0)} failed"
            )
        if self.distorted_vps:
            kinds = ", ".join(
                f"{name}={kind}" for name, kind in sorted(self.distorted_vps.items())
            )
            lines.append(f"  distorted (chaos):  {kinds}")
        if self.untrusted_vps:
            lines.append(f"  untrusted:          {len(self.untrusted_vps)} VP(s)")
        for name in sorted(self.vp_reasons):
            lines.append(f"    {name}: {', '.join(self.vp_reasons[name])}")
        return lines

    def absorb_trust(self, untrusted_names, reasons_by_vp) -> None:
        """Fold a trust report's verdicts into this census's health view.

        Called by downstream consumers (service epochs, the study
        workflow) after scoring the combined matrix — the campaign itself
        cannot judge trust, only a cross-VP view can.
        """
        for name in untrusted_names:
            if name not in self.untrusted_vps:
                self.untrusted_vps.append(name)
        for name, reasons in reasons_by_vp.items():
            merged = self.vp_reasons.setdefault(name, [])
            for reason in reasons:
                if reason not in merged:
                    merged.append(reason)


@dataclass
class _VpOutcome:
    """Internal result of one supervised VP scan."""

    status: str  # "ok" | "salvaged" | "failed"
    records: Optional[CensusRecords]
    checksum: Optional[int]
    duration_hours: float
    drop_rate: float
    retries: int = 0
    backoff_hours: float = 0.0
    faults: List[str] = field(default_factory=list)
    records_salvaged: int = 0
    records_dropped: int = 0
    batches_dropped: int = 0

    @classmethod
    def failed(cls, faults: List[str]) -> "_VpOutcome":
        """A VP that contributed nothing: flapped, or lost to the engine."""
        nan = float("nan")
        return cls("failed", None, None, nan, nan, faults=faults)

    def with_scan(self, status: str, scan: VpScanResult) -> "_VpOutcome":
        """This outcome's accounting, ``status`` with ``scan``'s batch."""
        return replace(
            self,
            status=status,
            records=scan.records,
            checksum=scan.records.checksum(),
            duration_hours=scan.duration_hours,
            drop_rate=scan.drop_rate,
        )

    @property
    def usable(self) -> bool:
        return self.status in ("ok", "salvaged")

    @property
    def clean(self) -> bool:
        return self.status == "ok"

    def journal_payload(self, vp_name: str) -> Dict:
        """Every field but the records (journalled beside it), after the VP."""
        payload = {"vp": vp_name, **vars(self)}
        del payload["records"]
        return payload

    @classmethod
    def from_journal(cls, payload: Dict, records: Optional[CensusRecords]) -> "_VpOutcome":
        fields = {key: value for key, value in payload.items() if key != "vp"}
        return cls(records=records, **{**fields, "faults": list(fields["faults"])})


@dataclass
class _PlannedVp:
    """One VP of a census's plan, the record every step of
    :meth:`CensusCampaign.run_census` reads the VP's place and fate from:
    its index in the campaign's platform, its census position (its
    records' ``vp_index``), its degraded flag, the VP as the census
    reports it (a geo-error VP at displaced coordinates; it measures from
    its own) and, once executed, its outcome (``None``: never reached)."""

    platform_index: int
    position: int
    degraded: bool
    vp: VantagePoint
    outcome: Optional[_VpOutcome] = None


class _CensusPlan(NamedTuple):
    """What :meth:`CensusCampaign._plan_census` fixes before any scan:
    the planned VPs in census order, the probing plan and its blacklist
    mask, the opened health report; ``roster`` names the census platform."""

    census_id: int
    rate: float
    roster: str
    vps: List[_PlannedVp]
    targets: ScanTargets
    probe_mask: np.ndarray
    report: CampaignHealthReport


@dataclass
class Census:
    """One completed census."""

    census_id: int
    platform: Platform
    records: CensusRecords
    #: Per-VP scan duration in hours (Fig. 8's CDF); NaN for VPs that
    #: failed the census entirely.
    vp_duration_hours: np.ndarray
    #: Per-VP reply drop rate caused by VP-side policing; NaN on failure.
    vp_drop_rate: np.ndarray
    greylist: Greylist
    rate_pps: float
    #: Supervision outcome (faults, retries, salvage, quarantine).
    health: Optional[CampaignHealthReport] = None

    @property
    def n_vps(self) -> int:
        return len(self.platform)

    def reply_ratio(self, probes_per_vp: int) -> float:
        """Fraction of probed targets that produced an echo reply."""
        total_probes = probes_per_vp * self.n_vps
        return int(self.records.reply_mask.sum()) / max(total_probes, 1)


class _GeometryCarry:
    """What a campaign may take from its predecessor's scan geometry.

    Built by :meth:`between` for a campaign over a world derived from the
    predecessor's (:meth:`SyntheticInternet.evolved`), usually the
    service's previous epoch:

    * a **deployment** is carried when it is the very object the
      predecessor resolved (reused deployments are pure functions of
      their catalog entry and prefix block) on the same routing plane;
    * a **VP column** is carried when the predecessor's platform holds a
      VP of the same identity (:func:`vp_column_digest`) — at the same
      platform index in geo mode, whose catchment penalties are drawn
      per row of the (VP x site) matrix;
    * a **target position** is carried when the predecessor's world holds
      its prefix at the same place and in the same responsiveness class:
      a unicast host at bit-equal coordinates, or an anycast /24 of a
      carried deployment.

    A carried deployment's catchment row is the predecessor's whenever
    every VP column is carried.  A carried VP column keeps its base RTT
    at every carried position, so under keyed noise (stream noise is
    positional) a scan's :class:`~repro.measurement.prober.ScanOutcomes`
    there are the predecessor's for the same census, VP and scan
    conditions: only the other positions are evaluated afresh.  Outcomes
    are taken out of the predecessor's store, so the two days' arrays are
    never held at once.

    Cold is the empty carry: with no predecessor, or one whose world
    shares nothing with this one, there is no outcome and no catchment
    row to take and every position is fresh.
    """

    def __init__(
        self,
        outcomes: Dict[Tuple[int, bytes], ScanOutcomes],
        deployment_source: np.ndarray,
        local_catchment: Optional[np.ndarray],
        column_source: np.ndarray,
        position_source: np.ndarray,
    ) -> None:
        self._outcomes = outcomes
        self._deployment_source = deployment_source
        self._local_catchment = local_catchment
        self._column_source = column_source
        self._all_columns = bool((column_source >= 0).all())
        #: Each position's place in the predecessor's outcomes (0 where
        #: it has none), and the positions the kernel evaluates afresh.
        self.source = np.maximum(position_source, 0)
        self.fresh = np.flatnonzero(position_source < 0)

    @classmethod
    def between(
        cls, previous: Optional["CensusCampaign"], campaign: "CensusCampaign"
    ) -> "_GeometryCarry":
        """The carry from ``previous`` to ``campaign``: empty without a
        predecessor, or when their worlds share nothing (another
        configuration or routing plane, or no target at all)."""
        now = campaign.internet
        before = previous.internet if previous is not None else None
        plane = getattr(now, "bgp_plane", None)
        if (
            before is None
            or before.config != now.config
            or getattr(before, "bgp_plane", None) is not plane
            or before.n_targets == 0
        ):
            return cls(
                {},
                np.full(len(now.deployments), -1),
                None,
                np.full(len(campaign.platform), -1),
                np.full(now.n_targets, -1),
            )
        geo = plane is None
        columns = {
            vp_column_digest(vp.name, vp.location): j
            for j, vp in enumerate(previous.platform.vantage_points)
        }
        column_source = np.array(
            [
                columns.get(vp_column_digest(vp.name, vp.location), -1)
                for vp in campaign.platform.vantage_points
            ],
            dtype=np.int64,
        )
        if geo:
            column_source[column_source != np.arange(len(column_source))] = -1
        index_before = {id(dep): d for d, dep in enumerate(before.deployments)}
        deployment_source = np.array(
            [index_before.get(id(dep), -1) for dep in now.deployments], dtype=np.int64
        )

        # Each position's prefix in the predecessor's world.
        order = np.argsort(before.prefixes, kind="stable")
        ranked = before.prefixes[order]
        at = np.minimum(np.searchsorted(ranked, now.prefixes), len(ranked) - 1)
        source = order[at]
        found = (ranked[at] == now.prefixes) & (
            before.responsiveness[source] == now.responsiveness
        )
        unicast = (
            found
            & ~now.is_anycast
            & ~before.is_anycast[source]
            & (now.lats.view(np.int64) == before.lats[source].view(np.int64))
            & (now.lons.view(np.int64) == before.lons[source].view(np.int64))
        )
        dep_now = now.deployment_index.astype(np.int64)
        carried_dep = np.where(dep_now >= 0, deployment_source[dep_now], -1)
        anycast = (
            found
            & now.is_anycast
            & (carried_dep >= 0)
            & (before.deployment_index[source] == carried_dep)
        )
        position_source = np.where(unicast | anycast, source, -1)

        return cls(
            outcomes=previous._outcomes,
            deployment_source=deployment_source,
            local_catchment=previous._catchment - previous._site_start[:, None],
            column_source=column_source,
            position_source=position_source,
        )

    def catchment(self, deployment: int) -> Optional[np.ndarray]:
        """The predecessor's catchment row of one deployment (local site
        per VP), or ``None`` when it has to be resolved."""
        source = self._deployment_source[deployment]
        if source < 0 or not self._all_columns:
            return None
        return self._local_catchment[source, self._column_source]

    def take_outcomes(
        self, census_id: int, key: bytes, platform_index: int
    ) -> Optional[ScanOutcomes]:
        """Remove and return the predecessor's outcomes of one census's
        scan by the VP at ``platform_index`` (identity ``key``), or
        ``None`` when it has none to give."""
        outcomes = self._outcomes.pop((census_id, key), None)
        if self._column_source[platform_index] < 0:
            return None
        return outcomes

    def release(self, census_id: int) -> None:
        """Drop what no scan of this census took (VPs absent today,
        resumed from a journal, or flapped)."""
        for key in [key for key in self._outcomes if key[0] == census_id]:
            del self._outcomes[key]


class CensusCampaign:
    """Reusable census runner for one (internet, platform) pair.

    Every census's VP scans run on the scan driver
    (:class:`~repro.exec.engine.ShardedExecutor`) with ``workers``
    threads (``0``: inline) and an optional per-census ``deadline_s``.
    """

    def __init__(
        self,
        internet: SyntheticInternet,
        platform: Platform,
        rate_pps: float = SAFE_RATE_PPS,
        seed: int = 500,
        degraded_fraction: float = 0.25,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        scan_timeout_hours: Optional[float] = None,
        min_vp_quorum: int = 1,
        quarantine_threshold: int = 2,
        workers: int = 0,
        deadline_s: Optional[float] = None,
        noise: str = "stream",
        distortion: Optional[VpDistortionPlan] = None,
        previous: Optional["CensusCampaign"] = None,
    ) -> None:
        if not 0.0 <= degraded_fraction <= 1.0:
            raise ValueError("degraded_fraction must be in [0, 1]")
        if min_vp_quorum < 1:
            raise ValueError("min_vp_quorum must be >= 1")
        if scan_timeout_hours is not None and scan_timeout_hours <= 0:
            raise ValueError("scan_timeout_hours must be positive (or None)")
        if noise not in ("stream", "keyed"):
            raise ValueError(f"unknown noise mode {noise!r}")
        self.internet = internet
        self.platform = platform
        self.rate_pps = rate_pps
        self.seed = seed
        #: Share of nodes having a bad census (overloaded PlanetLab host:
        #: heavy reply loss + inflated timestamps).  Redrawn per census —
        #: this is a major reason combining censuses improves recall.
        self.degraded_fraction = degraded_fraction
        self.fault_plan = fault_plan or FaultPlan()
        #: Per-scan retries; backoff is simulated hours, accounted in
        #: the health report.
        self.retry = retry or RetryPolicy()
        #: Deadline of one scan attempt: a hang past it is a failed
        #: attempt.  ``None`` waits a hung scan out (it still finishes,
        #: very late).
        self.scan_timeout_hours = scan_timeout_hours
        #: The scan driver of every census: ``workers`` threads (``0``,
        #: the default, scans inline, serially; any count is
        #: byte-identical) and the wall-clock budget (seconds) of each
        #: census's scans, past which unfinished VPs fail into the quorum
        #: check.
        self.executor = ShardedExecutor(workers, deadline_s)
        #: Per-probe noise source.  ``"stream"`` (default) consumes one
        #: positional RNG stream per scan — byte-stable, but any change to
        #: the target universe shifts every draw.  ``"keyed"`` hashes each
        #: draw from (seed, census, VP, prefix): a target's records then
        #: depend only on itself, so censuses over *evolved* universes
        #: keep unchanged targets' records identical — the property the
        #: longitudinal service's incremental recompute is built on.
        self.noise = noise
        self.min_vp_quorum = min_vp_quorum
        #: Censuses failed in a row per VP; a tripped VP is quarantined.
        self.health = StrikeCounter(quarantine_threshold)
        #: Measurement distortion (miscalibrated nodes).  Applied to each
        #: scan result at the top of the fault policy — in census order and
        #: pre-journal, so serial, threaded, and resumed censuses all see
        #: the same distorted bytes.
        self.distortion = distortion or VpDistortionPlan()
        self.blacklist = Blacklist()
        self._rng = np.random.default_rng(seed)
        self._census_counter = 0
        #: Stream scans' base-RTT row per VP identity,
        #: :func:`vp_column_digest` of its name and coordinates, over the
        #: echo-reply positions only (see :meth:`base_row`).
        self._base_rows: Dict[bytes, np.ndarray] = {}
        #: Keyed scans' outcomes by (census, VP identity): the pre-census's
        #: and the latest census's, for a successor campaign to carry.
        self._outcomes: Dict[Tuple[int, bytes], ScanOutcomes] = {}
        #: (census, platform index, conditions) -> a planned keyed scan's
        #: outcomes (:meth:`_prepare_outcomes`).
        self._prepared: Dict[Tuple[int, int, Tuple[int, float, bool]], ScanOutcomes] = {}
        #: Scan-geometry accounting: deployment catchment rows taken from
        #: ``previous``, keyed scans built on ``previous``'s outcomes, and
        #: target positions the outcome kernel evaluated.
        self.counters: Dict[str, int] = dict.fromkeys(
            ("catchments_carried", "outcomes_carried", "positions_scanned"), 0
        )
        self._carry = _GeometryCarry.between(previous, self)
        self._precompute_catchments()

    # ------------------------------------------------------------------
    # Catchment resolution
    # ------------------------------------------------------------------

    def _precompute_catchments(self) -> None:
        """Resolve every deployment's serving site for every platform VP.

        In geo mode (the default) the deployment's own lognormal-penalty
        catchment decides; in BGP mode the internet's routing plane does —
        each VP attaches to its nearest stub AS and the deployment's
        propagated best routes name the serving site.  A deployment the
        ``previous`` campaign resolved for the same VPs keeps its row
        (:class:`_GeometryCarry`).

        Also fixes the campaign's scan geometry: target radians and
        ``cos φ`` once, every replica site in radians — a VP's distances
        then need no per-target trigonometry beyond its own row
        (:meth:`base_row`) — and the echo-reply positions, the only ones
        whose distances and base RTTs a scan ever reads.
        """
        internet = self.internet
        lats, lons = self.platform.lats, self.platform.lons
        bgp_plane = getattr(internet, "bgp_plane", None)
        deployments = internet.deployments
        catchments = [self._carry.catchment(d) for d in range(len(deployments))]
        self.counters["catchments_carried"] += sum(c is not None for c in catchments)
        fresh = [d for d, carried in enumerate(catchments) if carried is None]
        if bgp_plane is not None:
            # Every uncarried deployment's routes in one batched propagation.
            routes = bgp_plane.pristine_routes([deployments[d] for d in fresh])
            for d, dep_routes in zip(fresh, routes):
                catchments[d] = bgp_plane.catchment(
                    deployments[d], lats, lons, routes=dep_routes
                )
        else:
            for d in fresh:
                catchments[d] = deployments[d].catchment(lats, lons)
        site_lats = [r.location.lat for dep in deployments for r in dep.replicas]
        site_lons = [r.location.lon for dep in deployments for r in dep.replicas]
        n_sites = np.array([len(dep.replicas) for dep in deployments], dtype=np.int64)

        #: Target positions that answer echo requests, ascending.
        self._replying = np.flatnonzero(internet.responsiveness == RESP_REPLY)
        self._target_phi = np.radians(np.asarray(internet.lats, dtype=np.float64))
        self._target_lam = np.radians(np.asarray(internet.lons, dtype=np.float64))
        self._target_cos_phi = np.cos(self._target_phi)
        self._site_phi = np.radians(np.asarray(site_lats, dtype=np.float64))
        self._site_lam = np.radians(np.asarray(site_lons, dtype=np.float64))
        self._site_cos_phi = np.cos(self._site_phi)
        #: First flat site index of each deployment.
        self._site_start = np.cumsum(n_sites) - n_sites
        #: (deployment, platform VP) -> serving site, indexing the flat
        #: site arrays above.
        self._catchment = self._site_start[:, None] + np.array(
            catchments, dtype=np.int64
        ).reshape(len(deployments), len(self.platform))

    def _distances(
        self, platform_indices: Sequence[int], positions: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Great-circle km from platform VPs (one row each) to the targets
        at ``positions`` (every target when ``None``), anycast targets at
        the site of each VP's catchment."""
        vps = [self.platform.vantage_points[i] for i in platform_indices]
        phi1 = np.radians(np.array([[vp.location.lat] for vp in vps], dtype=np.float64))
        lam1 = np.radians(np.array([[vp.location.lon] for vp in vps], dtype=np.float64))
        at = slice(None) if positions is None else positions
        distances = haversine_km(
            phi1, lam1, self._target_phi[at], self._target_lam[at], self._target_cos_phi[at]
        )
        deployment = self.internet.deployment_index[at]
        anycast = np.flatnonzero(deployment >= 0)
        sites = self._catchment[
            deployment[anycast][None, :], np.asarray(platform_indices)[:, None]
        ]
        distances[:, anycast] = haversine_km(
            phi1,
            lam1,
            self._site_phi[sites],
            self._site_lam[sites],
            self._site_cos_phi[sites],
        )
        return distances

    def base_row(self, platform_index: int) -> np.ndarray:
        """Base RTT from one platform VP under stream noise at each
        echo-reply position of the world, ascending (read-only; keyed
        scans draw theirs per target and scan,
        :func:`~repro.measurement.prober.keyed_base_rtts`).  No scan reads
        another position's: the row is
        :func:`~repro.measurement.prober.base_rtt_row` there, its
        positional streams still drawn over every target.

        Distances put unicast targets at their host location and anycast
        targets at the replica whose catchment the VP falls into —
        bit-identical to :func:`~repro.geo.coords.pairwise_distances_km`
        over those effective coordinates.  Cached on the VP's identity
        (name and coordinates) for the campaign's lifetime: catchments and
        paths persist across censuses, only per-probe noise is redrawn.
        """
        vp = self.platform.vantage_points[platform_index]
        key = vp_column_digest(vp.name, vp.location)
        row = self._base_rows.get(key)
        if row is None:
            at = self._replying
            row = base_rtt_row(
                self.internet, vp, self._distances([platform_index], at)[0], at
            )
            row.setflags(write=False)
            self._base_rows[key] = row
        return row

    def _conditions(
        self, platform_index: int, census_id: int, rate_pps: float, degraded: bool
    ) -> Tuple[int, float, bool]:
        """A keyed scan's conditions: its noise key (campaign seed, census,
        VP name), the VP's keep probability at the rate, the degraded flag."""
        vp = self.platform.vantage_points[platform_index]
        noise_key = (
            self.seed * 1_000_003 + census_id * 1009 + zlib.crc32(vp.name.encode())
        ) & 0xFFFFFFFFFFFFFFFF
        return noise_key, vp.rate_limit.keep_probability(rate_pps), degraded

    def _prepare_outcomes(
        self, census_id: int, rate_pps: float, scans: Sequence[Tuple[int, bool]]
    ) -> None:
        """Every planned keyed scan's outcomes (platform index, degraded
        flag), before any scan runs; each scan takes its own.

        Where the predecessor holds the scan's outcomes under the same
        conditions they are taken at the carried positions and the kernel
        (:func:`~repro.measurement.prober.keyed_outcomes`) evaluates the
        moved ones; elsewhere, and always in a cold campaign, it evaluates
        every position.  Distances and base RTTs are evaluated only at the
        echo-reply positions among them, the only ones the kernel reads.
        Scans evaluated at the same positions share kernel calls of at most
        :data:`_KERNEL_CELLS` cells.
        """
        if self.noise != "keyed":
            return
        carry, vps = self._carry, self.platform.vantage_points
        carried: list = []
        cold: list = []
        for index, degraded in scans:
            conditions = self._conditions(index, census_id, rate_pps, degraded)
            vp = vps[index]
            before = carry.take_outcomes(
                census_id, vp_column_digest(vp.name, vp.location), index
            )
            if before is None or before.conditions != conditions:
                cold.append((index, conditions, None))
            else:
                carried.append((index, conditions, before))
        every = np.arange(self.internet.n_targets)
        for fresh, group in ((carry.fresh, carried), (every, cold)):
            if not group:
                continue
            replying = fresh[self.internet.responsiveness[fresh] == RESP_REPLY]
            step = max(1, _KERNEL_CELLS // max(len(fresh), 1))
            for start in range(0, len(group), step):
                batch = group[start : start + step]
                indices = [index for index, _, _ in batch]
                codes, rtts = keyed_outcomes(
                    self.internet,
                    [conditions for _, conditions, _ in batch],
                    keyed_base_rtts(
                        self.internet,
                        [vps[i] for i in indices],
                        self._distances(indices, replying),
                        replying,
                    ),
                    fresh,
                )
                for row, (index, conditions, before) in enumerate(batch):
                    code, rtt = codes[row], rtts[row]
                    if before is not None:
                        code = before.code.take(carry.source)
                        rtt = before.rtt_ms.take(carry.source)
                        code[fresh], rtt[fresh] = codes[row], rtts[row]
                    self._prepared[(census_id, index, conditions)] = ScanOutcomes(
                        conditions, code, rtt, len(fresh), carried=before is not None
                    )

    def _keep_outcomes(
        self, census_id: int, platform_index: int, result: VpScanResult
    ) -> None:
        """Account a finished keyed scan's outcomes and keep them for a
        successor campaign."""
        outcomes = result.outcomes
        if outcomes is None:
            return
        vp = self.platform.vantage_points[platform_index]
        self.counters["outcomes_carried"] += outcomes.carried
        self.counters["positions_scanned"] += outcomes.scanned
        self._outcomes[(census_id, vp_column_digest(vp.name, vp.location))] = outcomes

    def _release_carry(self, census_id: int) -> None:
        """Drop what no scan of this census took: outcomes of VPs absent
        today, resumed from a journal, flapped, or never reached."""
        for key in [key for key in self._prepared if key[0] == census_id]:
            del self._prepared[key]
        self._carry.release(census_id)

    # ------------------------------------------------------------------
    # Census phases
    # ------------------------------------------------------------------

    def run_precensus(self, vp_platform_index: int = 0) -> int:
        """Single-VP pre-census building the initial blacklist.

        Returns the number of /24s blacklisted.
        """
        with current_tracer().span("precensus") as span:
            targets = ScanTargets.build(
                self.internet, lfsr_permutation(self.internet.n_targets, seed=1)
            )
            self._prepare_outcomes(0, self.rate_pps, [(vp_platform_index, False)])
            result = self.scan_vp(vp_platform_index, census_id=0, targets=targets)
            self._keep_outcomes(0, vp_platform_index, result)
            self._release_carry(0)
            greylist = self._collect_greylist([result.records])
            blacklisted = greylist.merge_into(self.blacklist)
            span.set("blacklisted", blacklisted)
        current_metrics().counter("prefixes_blacklisted").inc(blacklisted)
        return blacklisted

    def run_census(
        self,
        availability: float = 0.85,
        rate_pps: Optional[float] = None,
        target_prefixes: Optional[Sequence[int]] = None,
        checkpoint: Optional[Union[str, "CensusJournal"]] = None,
        abort_after_vps: Optional[int] = None,
    ) -> Census:
        """Run one full census from the currently-available nodes.

        ``target_prefixes`` restricts the scan to the given /24s — used for
        follow-up campaigns (e.g. refining detected anycast deployments
        from a second platform) where re-probing the whole hitlist would be
        wasteful.

        ``checkpoint`` names a journal file (or passes a
        :class:`~repro.measurement.recordio.CensusJournal`): completed
        per-VP batches are persisted as the census runs, and a matching
        journal lets an interrupted census resume without re-scanning
        finished VPs — bit-for-bit identical to an uninterrupted run.

        ``abort_after_vps`` interrupts the census (raising
        :class:`CensusInterrupted`) after that many *fresh* VP scans —
        the simulator's stand-in for an operator kill or host reboot.
        """
        if not 0.0 < availability <= 1.0:
            raise ValueError("availability must be in (0, 1]")
        if abort_after_vps is not None and abort_after_vps < 0:
            raise ValueError("abort_after_vps must be non-negative")
        self._census_counter += 1
        census_id = self._census_counter
        rate = rate_pps if rate_pps is not None else self.rate_pps
        # Outcomes kept for a successor: the pre-census's and this census's.
        for key in [key for key in self._outcomes if key[0] != 0]:
            del self._outcomes[key]
        with current_tracer().span("census", census_id=census_id) as span:
            try:
                plan = self._plan_census(census_id, availability, rate, target_prefixes)
                interrupted = self._execute_census(plan, checkpoint, abort_after_vps, span)
                return self._settle_census(plan, interrupted, checkpoint)
            finally:
                self._release_carry(census_id)

    def _plan_census(
        self,
        census_id: int,
        availability: float,
        rate: float,
        target_prefixes: Optional[Sequence[int]],
    ) -> _CensusPlan:
        """Fix a census before any scan: the census-level RNG draws, the
        quarantine filter, the distortion roster and the health report.
        A plan already below quorum aborts here."""
        available = self.platform.sample_available(self._rng, availability)
        probe_mask = np.ones(self.internet.n_targets, dtype=bool)
        blocked = self.blacklist.prefixes
        if blocked:
            probe_mask[self.internet.target_indices(sorted(blocked))] = False
        if target_prefixes is not None:
            restricted = np.zeros(self.internet.n_targets, dtype=bool)
            if len(target_prefixes):
                restricted[self.internet.target_indices(target_prefixes)] = True
            probe_mask &= restricted
        targets = ScanTargets.build(
            self.internet,
            lfsr_permutation(self.internet.n_targets, seed=census_id),
            probe_mask,
        )
        degraded = self._rng.random(len(available)) < self.degraded_fraction

        # Quarantine filtering happens *after* all census-level RNG draws,
        # so the random stream (and hence fault-free output) is unchanged.
        quarantined = self.health.tripped
        drawn = dict(zip((vp.name for vp in available), degraded.tolist()))
        kept = [
            (index, vp, drawn[vp.name])
            for index, vp in enumerate(self.platform.vantage_points)
            if vp.name in drawn and vp.name not in quarantined
        ]
        # Distorted metadata: a mis-geolocated VP *measures* from its true
        # position (catchments and base RTTs use ``self.platform``) but
        # *reports* displaced coordinates — the census platform, and hence
        # every downstream matrix, carries the lie.
        afflicted = self.distortion.distorted_names(vp.name for _, vp, _ in kept)
        distort = self.distortion.distort_location
        vps = [
            _PlannedVp(
                index,
                position,
                flag,
                replace(vp, location=distort(vp.name, vp.location))
                if afflicted.get(vp.name) is DistortionKind.GEO_ERROR
                else vp,
            )
            for position, (index, vp, flag) in enumerate(kept)
        ]
        report = CampaignHealthReport(
            census_id=census_id,
            n_vps_available=len(available),
            n_vps_planned=len(vps),
            quarantined_vps=quarantined,
            distorted_vps={name: kind.value for name, kind in sorted(afflicted.items())},
            vp_reasons={
                name: [f"quarantined ({self.health.count(name)} consecutive failures)"]
                for name in quarantined
            },
        )
        if len(vps) < self.min_vp_quorum:
            raise CensusAborted(census_id, len(vps), self.min_vp_quorum, report)
        return _CensusPlan(
            census_id, rate, available.name, vps, targets, probe_mask, report
        )

    def _execute_census(
        self,
        plan: _CensusPlan,
        checkpoint: Optional[Union[str, "CensusJournal"]],
        abort_after_vps: Optional[int],
        span,
    ) -> bool:
        """Give each planned VP its outcome: resumes and flaps here, the rest
        on the engine.  True when cut short (abort budget or drain)."""
        from ..exec.signals import graceful_shutdown

        tracer = current_tracer()
        census_id, rate, report = plan.census_id, plan.rate, plan.report
        journal = self._open_journal(checkpoint, plan)
        span.set("vps_planned", len(plan.vps))
        to_scan: List[_PlannedVp] = []
        fresh = 0
        cut_short = False

        with graceful_shutdown() as stop_flag:
            # Resumes and flaps (VP-level faults: nothing to compute) are
            # decided in census order.  Every VP not resumed counts one
            # against the abort budget, so an interrupted census journals
            # exactly ``abort_after_vps`` fresh entries at any worker count.
            for planned in plan.vps:
                name = planned.vp.name
                entry = journal.valid_batch(name) if journal is not None else None
                if entry is not None:
                    with tracer.span("vp_scan", vp=name, resumed=True) as vp_span:
                        outcome = _VpOutcome.from_journal(entry.payload, entry.records)
                        vp_span.set("status", outcome.status)
                    planned.outcome = outcome
                    report.n_vps_resumed += 1
                    current_metrics().counter("vps_resumed").inc()
                    continue
                if fresh == abort_after_vps:
                    cut_short = True
                    break
                fresh += 1
                if not self.fault_plan.flaps(census_id, planned.platform_index):
                    to_scan.append(planned)
                    continue
                planned.outcome = _VpOutcome.failed([FaultKind.FLAP.value])
                with tracer.span("vp_scan", vp=name, status=planned.outcome.status):
                    if journal is not None:
                        journal.write_batch(planned.outcome.journal_payload(name), None)

            def execute(i: int) -> VpScanResult:
                """Unit ``i``'s scan; at ``workers>=1`` on a scan thread."""
                planned = to_scan[i]
                return self.scan_vp(
                    planned.platform_index,
                    census_id=census_id,
                    targets=plan.targets,
                    census_vp_index=planned.position,
                    rate_pps=rate,
                    degraded=planned.degraded,
                )

            def on_complete(i: int, result: VpScanResult) -> None:
                """A scanned VP, in census order inside its ``vp_scan`` span:
                outcomes kept, fault policy, then journal."""
                planned = to_scan[i]
                index = planned.platform_index
                self._keep_outcomes(census_id, index, result)
                planned.outcome = self._apply_fault_policy(index, census_id, result, rate)
                tracer.annotate(status=planned.outcome.status)
                if journal is not None:
                    journal.write_batch(
                        planned.outcome.journal_payload(planned.vp.name),
                        planned.outcome.records,
                    )

            self._prepare_outcomes(
                census_id, rate, [(p.platform_index, p.degraded) for p in to_scan]
            )
            # Operator drain: the journal already holds every finished batch,
            # fsynced; the engine starts no more work, leaving a checkpoint.
            execution, gave_up = self.executor.run(
                [planned.vp.name for planned in to_scan],
                execute,
                on_complete,
                should_stop=lambda: bool(stop_flag),
            )
        report.execution = execution.to_dict()
        if cut_short or execution.interrupted:
            return True
        # Engine-level failures (a raising scan or the deadline) fail the VP —
        # feeding quarantine and the quorum check — but are deliberately NOT
        # journaled: a resumed census rescans rather than trust a gave-up marker.
        for i in sorted(gave_up):
            name = to_scan[i].vp.name
            to_scan[i].outcome = _VpOutcome.failed([gave_up[i]])
            if name in execution.scan_errors:
                report.vp_reasons[name] = ["scan raised " + execution.scan_errors[name]]
        return False

    def _settle_census(
        self,
        plan: _CensusPlan,
        interrupted: bool,
        checkpoint: Optional[Union[str, "CensusJournal"]],
    ) -> Census:
        """Account a census in census order, whatever order its scans
        finished in — so health and quarantine state, metrics and batch
        order (hence the output bytes) evolve identically for every
        worker count — then check the quorum again and build the census."""
        report = plan.report
        settled = [planned for planned in plan.vps if planned.outcome is not None]
        for planned in settled:
            self._absorb_outcome(report, planned.outcome, planned.vp.name)
            self.health.record(planned.vp.name, ok=planned.outcome.clean)
        outcomes = [planned.outcome for planned in settled]
        metrics = current_metrics()
        if metrics.enabled and outcomes:
            # Read off the report: a counter no outcome moved stays absent,
            # and resumed VPs sent their probes in an earlier run.
            probes = plan.targets.probes_sent
            fresh = len(outcomes) - report.n_vps_resumed
            if fresh:
                metrics.counter("probes_sent").inc(fresh * probes)
            for status in ("ok", "salvaged", "failed"):
                count = getattr(report, "n_vps_" + status)
                if count:
                    metrics.counter("vps_" + status).inc(count)
            if report.retries:
                metrics.counter("scan_retries").inc(report.retries)
                metrics.counter("probes_retried").inc(report.retries * probes)
            metrics.counter("records_salvaged").inc(report.records_salvaged)
            metrics.counter("records_dropped_corrupt").inc(report.records_dropped_corrupt)
            durations = metrics.histogram(
                "vp_scan_duration_hours", buckets=(6, 12, 24, 48, 96, 192)
            )
            for outcome in outcomes:
                durations.observe(outcome.duration_hours)
        if interrupted:
            raise CensusInterrupted(
                plan.census_id, len(outcomes) - report.n_vps_resumed, checkpoint
            )

        usable = [o for o in outcomes if o.usable and o.records is not None]
        if len(usable) < self.min_vp_quorum:
            aborted = CensusAborted(
                plan.census_id, len(usable), self.min_vp_quorum, report
            )
            execution = report.execution
            if len(execution["scan_errors"]) == len(plan.vps):
                # Every planned scan raised: a bug, not bad luck — the
                # abort carries what was raised, not just a thin count.
                name = plan.vps[0].vp.name
                raise aborted from RuntimeError(
                    f"every VP scan raised; {name}: {execution['scan_errors'][name]}"
                )
            raise aborted
        report.degraded = (
            report.n_vps_failed > 0
            or report.n_vps_salvaged > 0
            or bool(report.quarantined_vps)
        )

        greylist = self._collect_greylist([outcome.records for outcome in usable])
        greylist.merge_into(self.blacklist)
        if metrics.enabled:
            metrics.counter("censuses_completed").inc()
            metrics.counter("prefixes_greylisted").inc(len(greylist))
            metrics.gauge("vps_quarantined").set(len(report.quarantined_vps))
            metrics.gauge("blacklist_size").set(len(self.blacklist))
        return Census(
            census_id=plan.census_id,
            platform=Platform(plan.roster, [planned.vp for planned in plan.vps]),
            records=concatenate(
                tuple(outcome.records for outcome in usable),
                checksums=tuple(outcome.checksum for outcome in usable),
            ),
            vp_duration_hours=np.array([outcome.duration_hours for outcome in outcomes]),
            vp_drop_rate=np.array([outcome.drop_rate for outcome in outcomes]),
            greylist=greylist,
            rate_pps=plan.rate,
            health=report,
        )

    def run(
        self,
        n_censuses: int = 4,
        availability: float = 0.85,
        checkpoint_dir: Optional[str] = None,
    ) -> List[Census]:
        """Pre-census plus ``n_censuses`` full censuses.

        With ``checkpoint_dir``, each census journals its per-VP batches
        to ``census-<id>.journal`` inside the directory; re-running the
        same campaign after an interruption replays finished censuses
        from their journals and resumes the interrupted one.
        """
        import pathlib

        self.run_precensus()
        censuses = []
        for i in range(n_censuses):
            checkpoint = None
            if checkpoint_dir:  # an empty string is "no checkpointing", not cwd
                directory = pathlib.Path(checkpoint_dir)
                directory.mkdir(parents=True, exist_ok=True)
                checkpoint = str(directory / f"census-{self._census_counter + 1:03d}.journal")
            censuses.append(
                self.run_census(availability=availability, checkpoint=checkpoint)
            )
        return censuses

    # ------------------------------------------------------------------
    # Supervision internals
    # ------------------------------------------------------------------

    def _open_journal(
        self, checkpoint: Optional[Union[str, "CensusJournal"]], plan: _CensusPlan
    ) -> Optional[CensusJournal]:
        if checkpoint is None:
            return None
        journal = (
            checkpoint
            if isinstance(checkpoint, CensusJournal)
            else CensusJournal(checkpoint)
        )
        meta = {
            "census_id": plan.census_id,
            "campaign_seed": self.seed,
            "rate_pps": plan.rate,
            "vp_names": [planned.vp.name for planned in plan.vps],
            "degraded": [planned.degraded for planned in plan.vps],
            "probe_mask_crc": zlib.crc32(np.packbits(plan.probe_mask).tobytes())
            & 0xFFFFFFFF,
        }
        if journal.meta is None:
            if len(journal):
                # Batches without a meta entry: a stale or foreign file.
                journal.reset()
            journal.write_meta(meta)
        elif not journal.meta_matches(meta):
            raise ValueError(
                "checkpoint journal does not match this census "
                f"(journal census {journal.meta.get('census_id')!r}, "
                f"running census {plan.census_id}); use a fresh journal path"
            )
        return journal

    def _backoff_u(self, census_id: int, platform_index: int, attempt: int) -> float:
        """Keyed jitter draw for one retry's backoff (0 when disabled).

        Keyed by (seed, census, VP, attempt) rather than drawn from a
        shared stream: every retry schedule is reproducible no matter
        which VPs retried before it, at any worker count.
        """
        if self.retry.jitter <= 0.0:
            return 0.0
        rng = np.random.default_rng(
            [_BACKOFF_SALT, self.seed, census_id, platform_index, attempt]
        )
        return float(rng.random())

    def _apply_fault_policy(
        self,
        platform_index: int,
        census_id: int,
        result: VpScanResult,
        rate_pps: float,
    ) -> _VpOutcome:
        """Replay the fault/retry policy over one finished scan result.

        Called in census order on each per-VP scan result: what the
        supervisor "observed" depends only on the keyed fault plan, never
        on which thread computed the scan.

        Measurement distortion applies first — before checksums, before
        any fault verdict — so every consumer (journal, salvage, corrupt
        check) sees the distorted record batch, exactly as a real
        miscalibrated node would have handed it over.
        """
        result = self.distortion.distort_result(
            self.platform.vantage_points[platform_index].name, result
        )
        plan = self.fault_plan
        # Accounting accrues on a failed outcome; a delivering attempt
        # settles it with that attempt's batch.
        outcome = _VpOutcome.failed([])
        if not plan.enabled:
            return outcome.with_scan("ok", result)
        salvage: Optional[VpScanResult] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                outcome.retries += 1
                outcome.backoff_hours += self.retry.backoff(
                    attempt, self._backoff_u(census_id, platform_index, attempt)
                )
            kind = plan.fault_for(census_id, platform_index, attempt)
            if kind is None:
                return outcome.with_scan("ok", result)
            outcome.faults.append(kind.value)
            if kind is FaultKind.HANG:
                hung_hours = result.duration_hours * plan.hang_factor
                deadline = self.scan_timeout_hours
                if deadline is None or hung_hours <= deadline:
                    # No deadline (or a generous one): the scan eventually
                    # returns, just very late — Fig. 8's far straggler.
                    return outcome.with_scan(
                        "ok", replace(result, duration_hours=hung_hours)
                    )
                continue  # timed out -> retry
            if kind is FaultKind.CORRUPT:
                expected = result.records.checksum()
                corrupted = plan.corrupt(
                    result.records, census_id, platform_index, attempt
                )
                if corrupted.checksum() == expected:
                    # Empty batch: nothing was mangled (and nothing was
                    # dropped on an earlier attempt), accept it.
                    return outcome.with_scan("ok", result)
                outcome.batches_dropped += 1
                outcome.records_dropped += len(corrupted)
                continue  # checksum mismatch: drop the batch, retry
            if kind is FaultKind.CRASH:
                salvage = plan.crash(result, rate_pps, census_id, platform_index, attempt)
                continue  # try for a full scan; keep the partial batch

        if salvage is None:
            return outcome
        outcome.records_salvaged = len(salvage.records)
        return outcome.with_scan("salvaged", salvage)

    @staticmethod
    def _absorb_outcome(
        report: CampaignHealthReport, outcome: _VpOutcome, vp_name: str
    ) -> None:
        if outcome.status == "ok":
            report.n_vps_ok += 1
        elif outcome.status == "salvaged":
            report.n_vps_salvaged += 1
            report.salvaged_vps.append(vp_name)
        else:
            report.n_vps_failed += 1
            report.failed_vps.append(vp_name)
        report.retries += outcome.retries
        report.backoff_hours += outcome.backoff_hours
        for fault in outcome.faults:
            report.faults_seen[fault] = report.faults_seen.get(fault, 0) + 1
        report.records_salvaged += outcome.records_salvaged
        report.records_dropped_corrupt += outcome.records_dropped
        report.batches_dropped_corrupt += outcome.batches_dropped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _collect_greylist(self, batches: Sequence[CensusRecords]) -> Greylist:
        """The greylist of a census: its batches' administratively-
        prohibited errors, skipping prefixes already on the blacklist.

        Shared by the pre-census and every census.  A prefix enters at its
        first error — batches in census order, ascending prefix within a
        batch — carrying that record's outcome, so contents and insertion
        order (which the blacklist merge preserves) do not depend on how
        the batches are laid out in memory.
        """
        greylist = Greylist()
        errors = [batch.flag < 0 for batch in batches]
        prefix = np.concatenate(
            [np.empty(0, np.uint32)] + [b.prefix[m] for b, m in zip(batches, errors)]
        )
        if len(prefix) == 0:
            return greylist
        flag = np.concatenate([b.flag[m] for b, m in zip(batches, errors)])
        batch = np.repeat(np.arange(len(batches)), [int(m.sum()) for m in errors])
        # Records in census order (stable), then each prefix's first one.
        order = np.lexsort((prefix, batch))
        _, first = np.unique(prefix[order], return_index=True)
        first = order[np.sort(first)]
        if len(self.blacklist):
            blocked = np.fromiter(self.blacklist.prefixes, dtype=np.int64)
            first = first[~np.isin(prefix[first], blocked)]
        outcomes = {f: outcome_for(f) for f in np.unique(flag[first]).tolist()}
        for p, f in zip(prefix[first].tolist(), flag[first].tolist()):
            greylist.observe(p, outcomes[f])
        return greylist

    def scan_vp(
        self,
        platform_index: int,
        census_id: int,
        targets: ScanTargets,
        census_vp_index: int = 0,
        rate_pps: Optional[float] = None,
        degraded: bool = False,
    ) -> VpScanResult:
        """One VP's whole scan — what a work unit of the engine executes.

        The pure compute kernel of a census: its output is a function of
        (campaign seed, census, VP) alone, so it produces the same bytes on
        any scan thread.  ``targets`` is the census's shared probing plan
        (:class:`~repro.measurement.prober.ScanTargets`).  A keyed scan
        takes the outcomes :meth:`_prepare_outcomes` planned for it under
        the same conditions.
        """
        vp = self.platform.vantage_points[platform_index]
        n = targets.n
        rate = rate_pps if rate_pps is not None else self.rate_pps
        # Per-VP rotation of the shared LFSR order: desynchronizes VPs
        # without recomputing a full permutation per node.
        shift = (platform_index * 7919 + census_id * 104729) % n if n else 0
        if self.noise == "keyed":
            conditions = self._conditions(platform_index, census_id, rate, degraded)
            return scan_from_outcomes(
                self.internet,
                vp,
                census_vp_index,
                census_id,
                self._prepared.pop((census_id, platform_index, conditions)),
                targets,
                rate,
                shift,
            )
        rng = np.random.default_rng(
            self.seed * 1_000_003 + census_id * 1009 + platform_index
        )
        return simulate_vp_scan(
            internet=self.internet,
            vp=vp,
            vp_index=census_vp_index,
            census_id=census_id,
            base_rtts=self.base_row(platform_index),
            targets=targets,
            rate_pps=rate,
            rng=rng,
            shift=shift,
            degraded=degraded,
        )

"""Set-up, timed unit, output checks and layer replay of each workload kind.

A runner drives the program only through its public functions.  The
timed unit wraps each call into a layer in a span of the tracer it is
handed — the shared no-op tracer on untraced units, so the timed code is
the same either way; spans the program itself emits (``census``,
``vp_scan``, ``detection``, ``igreedy``, ``service_epoch`` ...) nest
underneath because the caller installs the same tracer process-wide.

``check_unit`` and ``replay`` run outside the timed region.  ``replay``
(traced units only) re-runs, on the unit's own data, the layers the unit
does not expose as separate calls, so that they can be timed one by one.
"""

from __future__ import annotations

import hashlib
import pathlib
import shutil
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

import numpy as np

from repro.bgp.plane import BgpRoutingPlane
from repro.census.analysis import analyze_matrix
from repro.census.characterize import Characterization
from repro.census.combine import combine_censuses, matrix_from_records
from repro.census.longitudinal import EvolutionConfig
from repro.census.matstore import resolve_store
from repro.census.ranks import alexa_hosted_prefixes, caida_top_asns
from repro.core.detection import detection_mask, radius_matrix
from repro.core.igreedy import IGreedyConfig
from repro.geo.cities import default_city_db
from repro.geo.coords import GeoPoint
from repro.internet.catalog import full_catalog
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.platform import planetlab_platform
from repro.resilience import apply_trust, score_vps
from repro.service import CensusService, ServiceConfig
from repro.service.archive import CensusArchive
from repro.service.churn import churn_between
from repro.service.delta import plan_delta, target_signatures
from repro.service.fsck import fsck_archive

from workloads import DEFAULT_SEED, EVOLUTION, RATE_PPS, Workload, derive_seeds

#: The warm-up census of a study set-up: big enough to fill every lazy
#: cache (city geometry, catchments, numpy kernels), small enough not to
#: matter next to the world build.
WARMUP = dict(n_unicast=200, n_catalog=12, n_vps=20)


@dataclass
class UnitResult:
    """What the untimed checks made of one unit's output."""

    #: Responsive targets classified by the unit.
    targets: int
    #: Probe records produced and folded by the unit.
    probes: int
    digest: str
    #: Output check -> passed.  Each is one operation in ``failed_frac``.
    checks: Dict[str, bool]
    #: Layer counts read off the output (no timing involved).
    counts: Dict[str, float] = field(default_factory=dict)


def _sliced_catalog(workload: Workload, seed: int):
    return full_catalog(tail_count=workload.tail, seed=seed)[slice(*workload.catalog)]


def _ground_truth(internet: SyntheticInternet, prefixes, detected) -> Dict[str, float]:
    """False positives and recall of a detection mask against the world."""
    truth = internet.is_anycast[internet.target_indices(np.asarray(prefixes, dtype=np.int64))]
    detected = np.asarray(detected, dtype=bool)
    return {
        "analysis.false_positives": float((detected & ~truth).sum()),
        "analysis.recall": float((detected & truth).sum() / max(int(truth.sum()), 1)),
    }


def _doc_ground_truth(internet: SyntheticInternet, results: Dict[str, Any]) -> Dict[str, float]:
    targets = results["targets"]
    return _ground_truth(
        internet, [int(p) for p in targets], [entry["anycast"] for entry in targets.values()]
    )


class _Runner:
    def __init__(self, workload: Workload, seed: int, workdir: pathlib.Path) -> None:
        self.workload = workload
        self.seeds = derive_seeds(seed)
        self.workdir = workdir
        #: Pinned digests apply to the published scale at the default seed only.
        self.pinned = workload.pinned if seed == DEFAULT_SEED else ()
        self.city_db = default_city_db()

    def _truth_checks(self, truth: Dict[str, float]) -> Dict[str, bool]:
        return {
            "no_false_positives": truth["analysis.false_positives"] == 0,
            "recall_floor": truth["analysis.recall"] >= self.workload.recall_floor,
        }


# ----------------------------------------------------------------------
# Study workloads: one unit = one full census from a ready world
# ----------------------------------------------------------------------


@dataclass
class _StudyOutput:
    censuses: list
    matrix: Any
    analysis: Any
    glance: Any


class StudyRunner(_Runner):
    def __init__(self, workload: Workload, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(workload, seed, workdir)
        self._first_digest: Optional[str] = None
        self._truth: Dict[str, float] = {}
        self._peak_alloc_mb: Optional[float] = None

    def setup(self, tracer) -> None:
        w, seeds = self.workload, self.seeds
        with tracer.span("internet"):
            self.internet = SyntheticInternet(
                InternetConfig(
                    seed=seeds.internet, n_unicast_slash24=w.n_unicast, tail_deployments=w.tail
                ),
                catalog=_sliced_catalog(w, seeds.internet),
                city_db=self.city_db,
            )
        with tracer.span("platform"):
            self.platform = planetlab_platform(
                count=w.n_vps, seed=seeds.platform, city_db=self.city_db
            )
        with tracer.span("warmup"):
            tiny = SyntheticInternet(
                InternetConfig(
                    seed=seeds.internet, n_unicast_slash24=WARMUP["n_unicast"], tail_deployments=0
                ),
                catalog=full_catalog(tail_count=0, seed=seeds.internet)[: WARMUP["n_catalog"]],
                city_db=self.city_db,
            )
            roster = planetlab_platform(
                count=WARMUP["n_vps"], seed=seeds.platform, city_db=self.city_db
            )
            self._census(tiny, roster, 1, 1.0, tracer)

    def _census(self, internet, platform, n_censuses, availability, tracer) -> _StudyOutput:
        with tracer.span("measurement"):
            with tracer.span("campaign_init"):
                campaign = CensusCampaign(
                    internet, platform, rate_pps=RATE_PPS, seed=self.seeds.campaign
                )
            censuses = campaign.run(n_censuses, availability)
        with tracer.span("combine"):
            matrix = combine_censuses(censuses, store="auto")
        with tracer.span("analysis"):
            analysis = analyze_matrix(matrix, city_db=self.city_db)
        with tracer.span("characterize"):
            glance = Characterization(analysis, internet).glance_table(
                caida_asns=caida_top_asns(internet),
                alexa_prefixes=alexa_hosted_prefixes(internet),
            )
        return _StudyOutput(censuses, matrix, analysis, glance)

    def run_unit(self, index: int, tracer) -> _StudyOutput:
        w = self.workload
        return self._census(self.internet, self.platform, w.n_censuses, w.availability, tracer)

    def check_unit(self, index: int, out: _StudyOutput) -> UnitResult:
        matrix, analysis = out.matrix, out.analysis
        mask = np.ascontiguousarray(analysis.anycast_mask)
        replica_counts = analysis.replica_counts()
        sha = hashlib.sha256(mask.tobytes())
        for prefix, count in sorted(replica_counts.items()):
            sha.update(f"{prefix}:{count};".encode())
        digest = (
            f"{matrix.n_targets}/{analysis.n_anycast}/{analysis.total_replicas}/"
            f"{sha.hexdigest()[:16]}"
        )
        if self._first_digest is None:
            self._first_digest = digest
        truth = self._truth = _ground_truth(self.internet, matrix.prefixes, mask)
        checks = {"deterministic": digest == self._first_digest, **self._truth_checks(truth)}
        if self.pinned:
            checks["pinned_digest"] = digest == self.pinned[0]
        probes = sum(len(c.records) for c in out.censuses)
        record_bytes = sum(
            column.nbytes
            for c in out.censuses
            for column in (
                c.records.vp_index, c.records.prefix, c.records.timestamp_ms,
                c.records.rtt_ms, c.records.flag,
            )
        )
        iterations = [r.iterations for r in analysis.results.values()]
        n_vps = matrix.n_vps
        counts = {
            **truth,
            "internet.targets": float(self.internet.n_targets),
            "measurement.probes": float(probes),
            "measurement.records_mb": record_bytes / 2**20,
            "combine.matrix_cells": float(matrix.rtt_ms.size),
            "combine.fill_ratio": float((~np.isnan(matrix.rtt_ms)).mean()),
            "detection.pair_tests": matrix.n_targets * n_vps * (n_vps - 1) / 2.0,
            "detection.flagged": float(analysis.n_anycast),
            "detection.flag_ratio": analysis.n_anycast / max(matrix.n_targets, 1),
            "igreedy.replicas": float(analysis.total_replicas),
            "igreedy.iterations_mean": float(np.mean(iterations)) if iterations else 0.0,
        }
        return UnitResult(matrix.n_targets, probes, digest, checks, counts)

    def replay(self, index: int, out: _StudyOutput, tracer) -> Dict[str, float]:
        """Trust is off the study path; replayed here for sizing.  The
        detection kernel's allocation peak is measured once per run (it
        is a function of the matrix shape alone)."""
        matrix = out.matrix
        with tracer.span("trust"):
            report = score_vps(matrix)
            apply_trust(matrix, report)
        if self._peak_alloc_mb is None:
            speed = IGreedyConfig().speed_km_per_ms
            tracemalloc.start()
            try:
                detection_mask(matrix.vp_distance_matrix(), radius_matrix(matrix.rtt_ms, speed))
                self._peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return {
            "trust.vps_convicted": float(len(report.untrusted_names)),
            "detection.peak_alloc_mb": self._peak_alloc_mb,
        }

    def finish(self, tracer) -> UnitResult:
        """No end-of-run checks; hands back the last unit's ground truth."""
        return UnitResult(0, 0, "", {}, self._truth)

    def provenance(self, out: _StudyOutput) -> Dict[str, str]:
        store = out.matrix.store
        return {
            "matrix_store": store.backend if store is not None else "inline",
            "analysis_engine": IGreedyConfig().resolved_engine(),
        }


# ----------------------------------------------------------------------
# service-daily: one unit = one quiet day of the longitudinal service
# ----------------------------------------------------------------------


def _signature_map(doc: Dict[str, Any]) -> Dict[int, str]:
    return {int(prefix): entry["signature"] for prefix, entry in doc["targets"].items()}


def _tree_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class ServiceRunner(_Runner):
    def __init__(self, workload: Workload, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(workload, seed, workdir)
        self._n_setups = 0
        self._last_epoch = 0
        self.service: Optional[CensusService] = None
        #: Receives the replayed commits, so the real archive is untouched.
        self._mirror = CensusArchive(workdir / "mirror")

    def _config(self, root: pathlib.Path) -> ServiceConfig:
        w, seeds = self.workload, self.seeds
        return ServiceConfig(
            archive_root=str(root),
            internet_seed=seeds.internet,
            n_unicast=w.n_unicast,
            tail_deployments=0,
            base_catalog=_sliced_catalog(w, seeds.internet),
            evolution=EvolutionConfig(**EVOLUTION),
            evolution_seed=seeds.evolution,
            n_vps=w.n_vps,
            vp_seed=seeds.platform,
            campaign_seed=seeds.campaign,
            availability=w.availability,
            incremental=True,
            trust=True,
            routing="bgp",
        )

    def setup(self, tracer) -> None:
        """A fresh archive, the service, and the cold day 0."""
        if self.service is not None:
            shutil.rmtree(self.service.archive.root)
        self._n_setups += 1
        root = self.workdir / f"archive-{self._n_setups}"
        with tracer.span("service_init"):
            self.service = CensusService(self._config(root), city_db=self.city_db)
        with tracer.span("cold_day"):
            self.service.run_epoch(0)

    def run_unit(self, index: int, tracer):
        with tracer.span("day"):
            return self.service.run_epoch(index + 1)

    def check_unit(self, index: int, outcome) -> UnitResult:
        epoch = index + 1
        self._last_epoch = epoch
        archive = self.service.archive
        manifest = archive.read_manifest(epoch)
        digest = (
            f"{outcome.n_targets}/{outcome.n_anycast}/{outcome.total_replicas}/"
            f"{manifest['payloads']['results.json']['crc32']:08x}"
        )
        checks = {
            "committed": outcome.status == "committed",
            "incremental": outcome.mode == "incremental" and outcome.reason == "delta",
            "no_vp_convicted": not outcome.untrusted_vps,
        }
        if index < len(self.pinned):
            checks["pinned_digest"] = digest == self.pinned[index]
        probes = int(manifest["census"]["n_records"])
        n_vps = len(manifest["vantage_points"])
        handled = outcome.n_recomputed + outcome.n_copied
        counts = {
            "measurement.probes": float(probes),
            "measurement.records_mb": manifest["payloads"]["records.bin"]["bytes"] / 2**20,
            "combine.matrix_cells": float(outcome.n_targets * n_vps),
            "detection.pair_tests": outcome.n_targets * n_vps * (n_vps - 1) / 2.0,
            "detection.flagged": float(outcome.n_anycast),
            "detection.flag_ratio": outcome.n_anycast / max(outcome.n_targets, 1),
            "igreedy.replicas": float(outcome.total_replicas),
            "trust.vps_convicted": float(len(outcome.untrusted_vps)),
            "delta.recomputed": float(outcome.n_recomputed),
            "delta.copied_ratio": outcome.n_copied / max(handled, 1),
            "archive.mb_per_day": _tree_bytes(archive.run_dir(epoch)) / 2**20,
        }
        return UnitResult(outcome.n_targets, probes, digest, checks, counts)

    def replay(self, index: int, outcome, tracer) -> Dict[str, float]:
        """Re-run, on the committed day's own data, the layers that
        ``run_epoch`` calls between its spans."""
        epoch = index + 1
        service, archive, cfg = self.service, self.service.archive, self.service.config
        with tracer.span("world"):
            internet = service.internet_for(epoch)
        with tracer.span("bgp_plane"):
            BgpRoutingPlane.for_internet(internet)
        with tracer.span("campaign_init"):
            CensusCampaign(
                internet,
                service.platform_for(epoch),
                seed=cfg.campaign_seed,
                degraded_fraction=cfg.degraded_fraction,
                noise=cfg.noise,
            )
        manifest = archive.read_manifest(epoch)
        records = archive.read_records(epoch)
        vps = manifest["vantage_points"]
        with tracer.span("fold"):
            matrix = matrix_from_records(
                records,
                [vp["name"] for vp in vps],
                [GeoPoint(vp["lat"], vp["lon"]) for vp in vps],
            )
        with tracer.span("signatures"):
            signatures = target_signatures(matrix)
        baseline_epoch = epoch - 1
        older = [e for e in archive.epochs() if e < baseline_epoch][-cfg.baseline_depth:]
        with tracer.span("read_results"):
            baseline = archive.read_results(baseline_epoch)
            history_docs = [(e, archive.read_results(e)) for e in older]
        with tracer.span("plan"):
            plan_delta(
                signatures,
                _signature_map(baseline),
                baseline_epoch=baseline_epoch,
                churn_threshold=cfg.churn_threshold,
                history=[(e, _signature_map(doc)) for e, doc in history_docs],
            )
        results = archive.read_results(epoch)
        with tracer.span("churn"):
            churn_between(
                baseline, results, min_delta=cfg.min_delta, min_ip24_delta=cfg.min_ip24_delta
            )
        core = {
            key: value
            for key, value in manifest.items()
            if key not in ("kind", "schema_version", "epoch", "payloads")
        }
        with tracer.span("commit"):
            self._mirror.commit_run(
                epoch, core, records, results, trust_doc=archive.read_trust(epoch)
            )
        iterations = [e["iterations"] for e in results["targets"].values() if e["anycast"]]
        return {
            **_doc_ground_truth(internet, results),
            "internet.targets": float(internet.n_targets),
            "combine.fill_ratio": float((~np.isnan(matrix.rtt_ms)).mean()),
            "igreedy.iterations_mean": float(np.mean(iterations)) if iterations else 0.0,
        }

    def finish(self, tracer) -> UnitResult:
        """The end-of-run checks: a clean fsck, ground truth on the last
        day, and that day re-analysed cold equal to the incremental one."""
        epoch = self._last_epoch
        archive = self.service.archive
        with tracer.span("fsck"):
            report = fsck_archive(archive, repair=False)
        incremental = archive.read_results(epoch)
        truth = _doc_ground_truth(self.service.internet_for(epoch), incremental)
        cold = CensusService(
            replace(self._config(self.workdir / "cold"), incremental=False),
            city_db=self.city_db,
        )
        cold.run_epoch(epoch)
        checks = {
            "fsck_clean": report.clean and len(report.ok_epochs) == epoch + 1,
            "cold_equals_incremental": cold.archive.read_results(epoch) == incremental,
            **self._truth_checks(truth),
        }
        return UnitResult(0, 0, "", checks, truth)

    def provenance(self, outcome) -> Dict[str, str]:
        # The service folds each day's census with the default store.
        return {
            "matrix_store": resolve_store(None, outcome.n_targets * self.workload.n_vps),
            "analysis_engine": IGreedyConfig().resolved_engine(),
        }


def make_runner(workload: Workload, seed: int, workdir: pathlib.Path):
    cls = ServiceRunner if workload.kind == "service" else StudyRunner
    return cls(workload, seed, workdir)

"""Census-wide anycast analysis.

Drives the paper's pipeline over a full RTT matrix: vectorized detection
first (cheap necessary test over every routed /24 that replied), then the
full iGreedy enumeration/geolocation on the detected needles — the same
two-tier structure that lets the paper analyze a census "in under three
hours ... about the same timescale of the census duration".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.detection import detection_mask_rtt
from ..core.igreedy import IGreedyConfig, IGreedyResult
from ..geo.cities import CityDB
from ..internet.topology import SyntheticInternet
from ..measurement.campaign import Census
from ..obs import current_metrics, current_tracer
from .combine import RttMatrix
from .fastpath import FastAnalysisEngine


@dataclass
class AnalysisResult:
    """Outcome of analyzing one RTT matrix."""

    #: All prefixes that replied, in matrix order.
    prefixes: np.ndarray
    #: Detection verdict per prefix (matrix order).
    anycast_mask: np.ndarray
    #: Full iGreedy output for each detected prefix.
    results: Dict[int, IGreedyResult] = field(default_factory=dict)
    #: Per-target confidence verdict ("full" / "degraded" /
    #: "insufficient"), attached by the resilience layer when the input
    #: matrix was sanitized.  Empty means no verdicts were computed —
    #: consumers should treat every target as full confidence then.
    confidence: Dict[int, str] = field(default_factory=dict)

    @property
    def anycast_prefixes(self) -> List[int]:
        return [int(p) for p in self.prefixes[self.anycast_mask]]

    def confidence_of(self, prefix: int) -> str:
        """The confidence verdict for one target (default ``"full"``)."""
        return self.confidence.get(int(prefix), "full")

    @property
    def n_anycast(self) -> int:
        return int(self.anycast_mask.sum())

    def replica_count(self, prefix: int) -> int:
        result = self.results.get(prefix)
        return result.replica_count if result else 0

    def replica_counts(self) -> Dict[int, int]:
        """Prefix -> enumerated replica count, for every detected prefix."""
        return {p: r.replica_count for p, r in self.results.items()}

    @property
    def total_replicas(self) -> int:
        """Sum of per-/24 replica counts (the Fig. 10 'Replicas' column)."""
        return sum(r.replica_count for r in self.results.values())


def detect_targets(
    matrix: RttMatrix,
    config: IGreedyConfig,
    min_samples: int,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The census-wide detection tier: one verdict per matrix row.

    The speed-of-light filter over every row (or only ``rows``, the
    service's not-copied-forward subset) that replied to at least
    ``min_samples`` vantage points, read block by block off the (possibly
    memory-mapped) float32 plane.

    A negative RTT is a negative disk radius: no geometry downstream is
    defined on it, so the tier refuses the input with a typed
    :class:`~repro.resilience.errors.CorruptInputError` (unfiltered VP
    distortion is the known source) instead of letting it surface as a
    bare ``ValueError`` deep inside geolocation.
    """
    tracer = current_tracer()
    rtt = matrix.rtt_ms if rows is None else matrix.rtt_ms[rows]
    with tracer.span("coverage"):
        vp_dist = matrix.vp_distance_matrix()
        filled = (~np.isnan(rtt)).sum(axis=1)
        negative = rtt < 0
        if negative.any():
            # Imported here: the resilience package imports this module.
            from ..resilience.errors import CorruptInputError

            raise CorruptInputError(
                f"{int(negative.sum())} negative-RTT cell(s) in "
                f"{int(negative.any(axis=1).sum())} of {len(rtt)} target row(s): "
                "a disk radius cannot be negative"
            )
    mask = detection_mask_rtt(vp_dist, rtt, config.speed_km_per_ms)
    mask &= filled >= min_samples

    metrics = current_metrics()
    if metrics.enabled:
        metrics.gauge("rtt_matrix_cells").set(int(rtt.size))
        metrics.gauge("rtt_matrix_filled_cells").set(int(filled.sum()))
        metrics.gauge("rtt_matrix_targets").set(len(rtt))
        if matrix.store is not None:
            metrics.gauge("matrix_store_bytes").set(int(matrix.store.nbytes))
        metrics.counter("targets_analyzed").inc(len(rtt))
        metrics.counter("targets_classified_anycast").inc(int(mask.sum()))
    return mask


def analyze_matrix(
    matrix: RttMatrix,
    city_db: Optional[CityDB] = None,
    config: Optional[IGreedyConfig] = None,
    min_samples: int = 3,
) -> AnalysisResult:
    """Detect, enumerate and geolocate every anycast /24 in the matrix.

    ``min_samples`` guards against spurious detections from targets that
    answered almost nobody (too few disks to reason about).  The detected
    rows go through :meth:`FastAnalysisEngine.analyze_rows` in-process;
    :func:`repro.core.igreedy.igreedy` is the per-target oracle the
    equivalence suite holds this path to.
    """
    cfg = config or IGreedyConfig()
    mask = detect_targets(matrix, cfg, min_samples)
    rows = np.nonzero(mask)[0]
    engine = FastAnalysisEngine(matrix, city_db=city_db, config=cfg)
    return AnalysisResult(
        prefixes=matrix.prefixes,
        anycast_mask=mask,
        results=dict(zip(matrix.prefixes[rows].tolist(), engine.analyze_rows(rows))),
    )


@dataclass(frozen=True)
class CensusFunnel:
    """The Fig. 4 magnitude funnel for one census."""

    targets: int
    echo_replies: int
    icmp_errors: int
    greylisted: int
    valid_targets: int
    anycast_found: int

    @property
    def reply_ratio(self) -> float:
        return self.echo_replies / max(self.targets, 1)

    def rows(self) -> List[tuple]:
        """(stage, count) rows for the funnel table."""
        return [
            ("hitlist targets", self.targets),
            ("targets with echo reply", self.valid_targets),
            ("echo replies (all VPs)", self.echo_replies),
            ("ICMP errors (all VPs)", self.icmp_errors),
            ("greylisted /24s", self.greylisted),
            ("anycast /24s detected", self.anycast_found),
        ]


def census_funnel(
    census: Census,
    internet: SyntheticInternet,
    analysis: Optional[AnalysisResult] = None,
) -> CensusFunnel:
    """Compute the census magnitude funnel (paper Fig. 4)."""
    records = census.records
    replies = records.replies()
    valid_targets = len(np.unique(replies.prefix))
    return CensusFunnel(
        targets=internet.n_targets,
        echo_replies=len(replies),
        icmp_errors=int((records.flag != 0).sum()),
        greylisted=len(census.greylist),
        valid_targets=valid_targets,
        anycast_found=analysis.n_anycast if analysis is not None else 0,
    )

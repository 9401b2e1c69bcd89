"""iGreedy: the full detect / enumerate / geolocate pipeline.

This is the paper's analysis technique [17] end to end (Fig. 3):

(a) map each (VP, RTT) sample to a disk;
(b) **detect**: any disjoint disk pair proves anycast;
(c) **enumerate**: greedy MIS over the disks lower-bounds replica count;
(d) **geolocate**: classify the replica in each selected disk to the most
    populous city it contains;
(e) **iterate**: collapse classified disks onto their city (radius 0) and
    re-run the MIS — collapsed disks overlap less, so more independent
    disks surface each round, until convergence.

Two enumeration modes are provided:

* **strict** (default): replicas are the MIS over the *original* disks.
  Pairwise-disjoint original disks provably contain distinct replicas, so
  the count is a true lower bound — the guarantee the paper leans on
  ("the analysis technique provides a lower bound on the number of
  replicas", Sec. 4.1).
* **iterative** (``strict_enumeration=False``): the paper's step (e).
  Collapsing a classified disk to its city shrinks it, letting additional
  disks join the independent set in later rounds.  This raises recall but
  is only sound when classification is accurate — a disk collapsed onto
  the *wrong* city no longer covers its true replica, and a second disk
  holding that same replica can then be double-counted.  The ablation
  benchmark quantifies exactly this trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..geo.cities import City, CityDB, default_city_db
from ..geo.disks import FIBER_SPEED_KM_PER_MS, Disk
from ..obs import current_metrics, current_tracer
from .detection import DetectionResult, detect
from .enumeration import greedy_mis
from .geolocation import GeolocatedReplica, classify_disk, classify_nearest
from .samples import LatencySample, min_rtt_samples, samples_to_disks


@dataclass
class IGreedyResult:
    """Full analysis output for one target."""

    detection: DetectionResult
    replicas: List[GeolocatedReplica] = field(default_factory=list)
    iterations: int = 0

    @property
    def is_anycast(self) -> bool:
        return self.detection.is_anycast

    @property
    def replica_count(self) -> int:
        """Number of enumerated replicas (a lower bound in strict mode)."""
        return len(self.replicas)

    @property
    def cities(self) -> List[City]:
        return [r.city for r in self.replicas]

    @property
    def city_names(self) -> List[str]:
        return sorted(f"{c.name},{c.country}" for c in self.cities)


@dataclass(frozen=True)
class IGreedyConfig:
    """Tunables of the analysis (defaults follow the paper's guarantees)."""

    speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS
    population_exponent: float = 1.0
    #: Strict = provably-conservative enumeration (MIS on original disks);
    #: non-strict = the paper's collapse-and-iterate recall boost.
    strict_enumeration: bool = True
    max_iterations: int = 10
    #: Drop samples whose disks span more than this RTT (uninformative).
    max_rtt_ms: Optional[float] = 300.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.speed_km_per_ms <= 0:
            raise ValueError("speed must be positive")

    def resolved_engine(self) -> str:
        """The census analysis engine's provenance label, always ``"fast"``.

        There is one engine (:mod:`repro.census.fastpath`) and nothing to
        resolve; the method survives only because the benchmark harness
        records its value in every document's provenance.  Nothing in
        ``src/`` may call it.
        """
        return "fast"


def _classify(disk: Disk, db: CityDB, cfg: IGreedyConfig) -> GeolocatedReplica:
    replica = classify_disk(disk, db, population_exponent=cfg.population_exponent)
    if replica is None:
        replica = classify_nearest(disk, db)
    return replica


def _dedup_by_city(replicas: Sequence[GeolocatedReplica]) -> List[GeolocatedReplica]:
    seen = set()
    out = []
    for replica in replicas:
        if replica.city.key in seen:
            continue
        seen.add(replica.city.key)
        out.append(replica)
    return out


def igreedy(
    samples: Sequence[LatencySample],
    city_db: Optional[CityDB] = None,
    config: Optional[IGreedyConfig] = None,
) -> IGreedyResult:
    """Run the complete iGreedy analysis on one target's samples.

    For unicast targets (no speed-of-light violation) the result carries no
    replicas; enumeration and geolocation run only on detected targets.
    """
    cfg = config or IGreedyConfig()
    db = city_db or default_city_db()
    metrics = current_metrics()

    with current_tracer().span("igreedy", samples=len(samples)) as span:
        deduped = min_rtt_samples(samples)
        detection = detect(deduped, cfg.speed_km_per_ms)
        result = IGreedyResult(detection=detection)
        if not detection.is_anycast:
            return result

        disks = samples_to_disks(
            deduped, cfg.speed_km_per_ms, max_rtt_ms=cfg.max_rtt_ms
        )
        if len(disks) < 2:
            # All informative samples were filtered; fall back to unfiltered.
            disks = samples_to_disks(deduped, cfg.speed_km_per_ms)
        metrics.histogram("disks_per_target").observe(len(disks))

        if cfg.strict_enumeration:
            selected = greedy_mis(disks)
            replicas = [_classify(disks[i], db, cfg) for i in selected]
            result.replicas = _dedup_by_city(replicas)
            result.iterations = 1
        else:
            # Paper-style iteration: collapse classified disks, re-run MIS.
            current: List[Disk] = list(disks)
            classified: List[Optional[GeolocatedReplica]] = [None] * len(disks)
            for iteration in range(1, cfg.max_iterations + 1):
                selected = greedy_mis(current)
                progressed = False
                for idx in selected:
                    if classified[idx] is not None:
                        continue
                    replica = _classify(current[idx], db, cfg)
                    classified[idx] = replica
                    current[idx] = current[idx].shrunk_to(replica.city.location)
                    progressed = True
                result.iterations = iteration
                if not progressed:
                    break

            final = greedy_mis(current)
            result.replicas = _dedup_by_city(
                [classified[i] for i in final if classified[i] is not None]
            )
        metrics.histogram("igreedy_iterations").observe(result.iterations)
        metrics.counter("replicas_enumerated").inc(result.replica_count)
        span.set("replicas", result.replica_count)
        return result

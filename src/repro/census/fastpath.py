"""Array-native batched analysis engine — how the census runs iGreedy.

The per-target API (:func:`repro.core.igreedy.igreedy`) re-derives
identical geometry for every target: each of ~1,500 anycast /24s rebuilds
a pairwise haversine matrix over disks that are all centered on the same
~300 vantage points, materializes a ``LatencySample``/``Disk`` object per
matrix cell, and classifies each selected disk with per-city Python
arithmetic.  This module exploits the structural fact the paper's own
optimization leans on (Sec. 3.5): **the disk centers are fixed**.

* :class:`SharedGeometry` computes the VP-to-VP great-circle matrix once
  per :class:`~repro.census.combine.RttMatrix` (cached on the matrix
  object); any row of any target's disk-overlap matrix is a gather from
  that cache plus a radii sum — zero per-target trigonometry.
* :meth:`FastAnalysisEngine.analyze_rows` analyses a *block of rows at
  once* — the single entry point of the study
  (:func:`repro.census.analysis.analyze_matrix`) and the service.  One
  2-D lexsort orders every target's samples, the witness pair comes from
  a batched first-disjoint-pair search (:func:`first_disjoint_pairs`),
  and greedy MIS runs as rounds across all targets simultaneously
  (:func:`greedy_mis_rounds`: argmin radius among still-available disks,
  lowest slot on ties, then strike its overlap row) — O(k·V) per target
  instead of a V×V overlap matrix, and the same kernel serves the
  iterative collapse rounds over the VP+city matrix.
* Classification has no per-disk loop.  Every disk is centered on a VP,
  so :meth:`SharedGeometry.disk_tables` sorts each VP's cities by
  distance once (:class:`~repro.geo.cities.DiskTables`): a disk's inside
  set is a prefix of that order, its replica the prefix's running
  population winner (lowest city index on ties, as ``np.argmax``), its
  total weight the prefix's running sum — exact, hence bit-equal to the
  per-disk sum in any order, because the population weights are
  integers far below 2**53 (non-integral weights are summed per disk in
  index order instead).  One comparison count over the disks' sorted
  distance rows classifies a whole batch; a per-``(vp_index, radius)``
  replica cache spares repeats across iterative rounds and targets.

The engine runs in-process: at 0.1–0.2 ms per analysed target the needle
tier of a whole-Internet census costs well under a second, so there is
nothing for a worker pool to win (scans, the hours-long part, keep the
one pool driver in :mod:`repro.exec`).

The hard invariant: for every configuration (strict/iterative
enumeration, any ``population_exponent``, ``max_rtt_ms`` on or off) and
any block size, each row's :class:`IGreedyResult` equals what
``igreedy()`` returns for that row's samples — same witness, replica
cities, confidences and iteration counts.  Equality is bitwise because
every distance consumed here is produced by the same elementwise
haversine the per-target API calls, just computed once instead of per
target, and every radius sum is associated as it associates it
(see ``tests/test_fastpath_equivalence.py``, where the per-target loop
lives as the oracle).
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.detection import DetectionResult, radius_matrix
from ..core.geolocation import GeolocatedReplica
from ..core.igreedy import IGreedyConfig, IGreedyResult
from ..geo.cities import CityDB, DiskTables, default_city_db
from ..geo.coords import pairwise_distances_from_radians
from ..geo.disks import Disk
from ..obs import current_metrics, current_tracer
from .combine import RttMatrix


#: Cells per (rows, V) plane of one analysis block: 2 MB of float64.
_BLOCK_CELLS = 1 << 18


def _observe_all(histogram, values: np.ndarray) -> None:
    for value in values.tolist():
        histogram.observe(value)


def overlap_rows(
    gap: np.ndarray, point_ids: np.ndarray, radii_km: np.ndarray, slot: np.ndarray
) -> np.ndarray:
    """Row ``slot[t]`` of every target's disk-overlap matrix, (T, V) bool.

    Equivalent to the same row of :func:`repro.geo.disks.overlap_matrix`
    on target *t*'s disks — a gather from the cached ``gap`` matrix plus a
    radii sum instead of fresh haversine.  NaN radii (padding slots past
    a target's samples) overlap nothing.
    """
    each = np.arange(len(slot))
    gaps = gap[point_ids[each, slot][:, None], point_ids]
    return gaps <= radii_km[each, slot][:, None] + radii_km + 1e-9


def first_disjoint_pairs(
    gap: np.ndarray, point_ids: np.ndarray, radii_km: np.ndarray, n_samples: np.ndarray
) -> np.ndarray:
    """First disjoint disk pair of every target in row-major order, (T, 2).

    The batched ``np.argwhere(~overlap_matrix)[0]``: overlap row 0 of
    every target at once, then row 1 of those still without a pair, and
    so on — a detected target almost always settles on its first
    (minimum-radius) row.  ``(-1, -1)`` where every pair overlaps.
    """
    witness = np.full((len(point_ids), 2), -1, dtype=np.int64)
    slots = np.arange(point_ids.shape[1])
    row = 0
    open_ = np.nonzero(n_samples >= 2)[0]
    while len(open_):
        disjoint = ~overlap_rows(
            gap, point_ids[open_], radii_km[open_], np.full(len(open_), row)
        )
        disjoint &= slots < n_samples[open_, None]
        hit = disjoint.any(axis=1)
        witness[open_[hit], 0] = row
        witness[open_[hit], 1] = disjoint[hit].argmax(axis=1)
        row += 1
        open_ = open_[~hit]
        open_ = open_[n_samples[open_] > row]
    return witness


def greedy_mis_rounds(
    gap: np.ndarray, point_ids: np.ndarray, radii_km: np.ndarray, candidates: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy MIS (smallest radius first) of every target simultaneously.

    Round *k* picks each live target's *k*-th disk — the minimum radius
    among its still-available candidates, lowest slot on ties, which is
    the scan order ``sorted(key=(radius, slot))`` of
    :func:`repro.core.enumeration.greedy_mis` — and strikes that disk's
    overlap row from the available set: O(k·V) per target where the
    per-target solver builds the V×V overlap matrix first.

    Returns ``(target, slot, sizes)``: the picks grouped by target in
    selection order, and each target's MIS size (also observed into the
    ``mis_size`` histogram, once per target as the per-target solver
    does).
    """
    with current_tracer().span("enumeration", targets=len(candidates)) as span:
        live = np.nonzero(candidates.any(axis=1))[0]
        pids, radii, open_ = point_ids[live], radii_km[live], candidates[live]
        picks_target = [live[:0]]
        picks_slot = [live[:0]]
        while len(live):
            # An available disk always beats the +inf stand-ins: detected
            # targets keep at least their two smallest (finite) disks, and
            # an infinite disk overlaps — is struck by — any earlier pick.
            slot = np.where(open_, radii, np.inf).argmin(axis=1)
            open_ &= ~overlap_rows(gap, pids, radii, slot)
            open_[np.arange(len(live)), slot] = False
            picks_target.append(live)
            picks_slot.append(slot)
            more = open_.any(axis=1)
            if not more.all():
                live, pids, radii, open_ = live[more], pids[more], radii[more], open_[more]
        span.set("rounds", len(picks_slot) - 1)
        target = np.concatenate(picks_target)
        slot = np.concatenate(picks_slot)
        by_target = np.argsort(target, kind="stable")
        sizes = np.bincount(target, minlength=len(candidates))
    metrics = current_metrics()
    if metrics.enabled:
        _observe_all(metrics.histogram("mis_size"), sizes)
    return target[by_target], slot[by_target], sizes


class SharedGeometry:
    """Geometry shared by every target of one (matrix, gazetteer) pair.

    Every disk of every target is centered on a vantage point, and
    iterative enumeration only ever moves a center onto a city — so three
    cached matrices (VP-VP, city-VP, city-city) cover every distance the
    whole analysis can ask for.
    """

    def __init__(self, matrix: RttMatrix, city_db: CityDB) -> None:
        self.matrix = matrix
        self.city_db = city_db
        #: (V, V) great-circle gaps, cached on the matrix instance.
        self.vp_gap = matrix.vp_distance_matrix()
        self.vp_points = matrix.vp_locations
        self.n_vps = matrix.n_vps
        # Lexicographic rank of each VP name: min_rtt_samples orders
        # ties by name, and ranks let an integer lexsort reproduce that.
        order = np.argsort(np.array(matrix.vp_names))
        self.name_rank = np.empty(len(order), dtype=np.int64)
        self.name_rank[order] = np.arange(len(order))
        self._vp_lat_rad = np.radians(
            np.array([p.lat for p in self.vp_points], dtype=np.float64)
        )
        self._vp_lon_rad = np.radians(
            np.array([p.lon for p in self.vp_points], dtype=np.float64)
        )
        self._city_vp: Optional[np.ndarray] = None
        self._combined: Optional[np.ndarray] = None
        self._disk_tables: Dict[float, DiskTables] = {}

    @property
    def city_vp(self) -> np.ndarray:
        """(n_cities, n_vps) city-to-VP distances — the classification input.

        Column *j* is bit-identical to what ``classify_disk`` computes
        fresh for a disk centered on VP *j*.
        """
        if self._city_vp is None:
            lat_rad, lon_rad = self.city_db.coordinates_radians()
            matrix = pairwise_distances_from_radians(
                lat_rad, lon_rad, self._vp_lat_rad, self._vp_lon_rad
            )
            matrix.setflags(write=False)
            self._city_vp = matrix
        return self._city_vp

    def disk_tables(self, population_exponent: float) -> DiskTables:
        """Per-VP sorted city tables over :attr:`city_vp` (the classifier's input).

        Four ``(n_vps, n_cities)`` arrays, built once per exponent: row *v*
        classifies every disk centered on VP *v*.
        """
        tables = self._disk_tables.get(population_exponent)
        if tables is None:
            tables = self.city_db.disk_tables(self.city_vp, population_exponent)
            self._disk_tables[population_exponent] = tables
        return tables

    @property
    def combined(self) -> np.ndarray:
        """(V+C, V+C) gap matrix over VPs then cities (iterative mode).

        Point id *p* is VP *p* for ``p < n_vps`` and city ``p - n_vps``
        otherwise; any mix of original and collapsed disk centers can be
        compared by fancy-indexing this one matrix.
        """
        if self._combined is None:
            city_lat, city_lon = self.city_db.coordinates_radians()
            lat = np.concatenate([self._vp_lat_rad, city_lat])
            lon = np.concatenate([self._vp_lon_rad, city_lon])
            # One call over the concatenated coordinates: every entry is
            # computed in exactly the orientation ``overlap_matrix`` would
            # use for the same pair, with no symmetry assumption.
            combined = pairwise_distances_from_radians(lat, lon, lat, lon)
            combined.setflags(write=False)
            self._combined = combined
        return self._combined


class FastAnalysisEngine:
    """Per-run state of the fast path: geometry plus classification cache."""

    def __init__(
        self,
        matrix: RttMatrix,
        city_db: Optional[CityDB] = None,
        config: Optional[IGreedyConfig] = None,
    ) -> None:
        self.config = config or IGreedyConfig()
        self.city_db = city_db or default_city_db()
        self.geometry = SharedGeometry(matrix, self.city_db)
        #: (vp_index, radius_km) -> (GeolocatedReplica, city index).  The
        #: same disk recurs across iterative rounds and across targets
        #: (quantized RTTs from the same VP); classification depends only
        #: on the key once the gazetteer and exponent are fixed.
        self._replica_cache: Dict[Tuple[int, float], Tuple[GeolocatedReplica, int]] = {}

    # -- classification ------------------------------------------------

    def classify_vp_disks(
        self, vp_indices: Sequence[int], radii_km: Sequence[float]
    ) -> Tuple[List[GeolocatedReplica], np.ndarray]:
        """Batched geolocation of VP-centered disks, through the cache.

        Returns the replicas and their gazetteer city indices, in input
        order.  Uncached disks are classified by one
        :meth:`~repro.geo.cities.DiskTables.classify` call over the
        geometry's per-VP sorted city tables (:meth:`SharedGeometry.disk_tables`);
        results are memoized per ``(vp_index, radius)``.
        """
        keys = list(zip(np.asarray(vp_indices).tolist(), np.asarray(radii_km).tolist()))
        cache = self._replica_cache
        with current_tracer().span("geolocation", batched=len(keys)):
            # Deduplicate while preserving order (dict keys are ordered).
            missing = list(dict.fromkeys(k for k in keys if k not in cache))
            if missing:
                vps, radii = zip(*missing)
                tables = self.geometry.disk_tables(self.config.population_exponent)
                cities, confidence = tables.classify(vps, radii)
                points = self.geometry.vp_points
                gazetteer = self.city_db.cities
                for key, city, share in zip(missing, cities.tolist(), confidence.tolist()):
                    disk = Disk(center=points[key[0]], radius_km=key[1])
                    replica = GeolocatedReplica(city=gazetteer[city], disk=disk, confidence=share)
                    cache[key] = (replica, city)
            found = [cache[k] for k in keys]
        return [replica for replica, _ in found], np.array(
            [city for _, city in found], dtype=np.int64
        )

    # -- block pipeline ------------------------------------------------

    def analyze_rows(self, rows: Sequence[int]) -> List[IGreedyResult]:
        """The full iGreedy pipeline on matrix rows, one result per row.

        Mirrors :func:`repro.core.igreedy.igreedy` stage for stage —
        sample order, detection witness, MIS enumeration, classification,
        optional iterative collapse — but on whole blocks of rows: every
        stage is array arithmetic over (rows, V) planes and every
        distance a cached-matrix lookup.
        """
        rows = np.asarray(rows, dtype=np.int64)
        step = max(1, _BLOCK_CELLS // max(self.geometry.n_vps, 1))
        results: List[IGreedyResult] = []
        for start in range(0, len(rows), step):
            results.extend(self._analyze_block(rows[start : start + step]))
        return results

    def analyze_row(self, row: int) -> IGreedyResult:
        """Analyze one matrix row end to end."""
        return self.analyze_rows([row])[0]

    def sorted_samples(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vp_indices, rtt_ms, n_samples)`` planes in reference sample order.

        Reproduces ``min_rtt_samples`` per row: ascending RTT, ties
        broken by VP name — as one 2-D lexsort, no objects built.  NaN
        (missing) cells sort last, so row *t*'s samples are its first
        ``n_samples[t]`` slots.
        """
        geo = self.geometry
        rtt = geo.matrix.rtt_ms[rows].astype(np.float64)
        order = np.lexsort((np.broadcast_to(geo.name_rank, rtt.shape), rtt), axis=1)
        rtt = np.take_along_axis(rtt, order, axis=1)
        return order, rtt, (~np.isnan(rtt)).sum(axis=1)

    def _analyze_block(self, rows: np.ndarray) -> List[IGreedyResult]:
        cfg = self.config
        geo = self.geometry
        tracer = current_tracer()
        metrics = current_metrics()

        with tracer.span("sort", targets=len(rows)):
            vps, rtt, n_samples = self.sorted_samples(rows)
            radii = radius_matrix(rtt, cfg.speed_km_per_ms)
        with tracer.span("witness"):
            witness = first_disjoint_pairs(geo.vp_gap, vps, radii, n_samples)

        # Enumeration and geolocation run on the detected targets only.
        detected = np.nonzero(witness[:, 0] >= 0)[0]
        vps, rtt, radii = vps[detected], rtt[detected], radii[detected]
        # Uninformative-sample filter (with the reference's fallback to
        # the unfiltered set when it leaves fewer than two disks); rows
        # are RTT-sorted, so the kept disks are a prefix of the slots.
        n_disks = n_samples[detected]
        if cfg.max_rtt_ms is not None:
            kept = (rtt <= cfg.max_rtt_ms).sum(axis=1)
            n_disks = np.where(kept < 2, n_disks, kept)
        candidates = np.arange(geo.n_vps) < n_disks[:, None]
        if cfg.strict_enumeration:
            target, slot, sizes = greedy_mis_rounds(geo.vp_gap, vps, radii, candidates)
            picked, cities = self.classify_vp_disks(vps[target, slot], radii[target, slot])
            iterations = np.ones(len(detected), dtype=np.int64)
        else:
            picked, cities, sizes, iterations = self._iterate(vps, radii, candidates)

        with tracer.span("assembly"):
            # Each target keeps its first replica per city, in selection
            # order: the first occurrence of each (target, city) pair.
            owner = np.repeat(np.arange(len(sizes)), sizes)
            keep = np.zeros(len(cities), dtype=bool)
            keep[np.unique(owner * len(self.city_db) + cities, return_index=True)[1]] = True
            picked = list(compress(picked, keep.tolist()))
            kept = np.bincount(owner[keep], minlength=len(sizes))
            results: List[IGreedyResult] = []
            enumerated = zip(np.cumsum(kept).tolist(), iterations.tolist())
            start = 0
            for n, (first, second) in zip(n_samples.tolist(), witness.tolist()):
                # One span per analysed target, as the per-target engine.
                with tracer.span("igreedy", samples=n) as span:
                    if first < 0:
                        detection = DetectionResult(is_anycast=False, sample_count=n)
                        results.append(IGreedyResult(detection=detection))
                        continue
                    stop, rounds = next(enumerated)
                    result = IGreedyResult(
                        detection=DetectionResult(
                            is_anycast=True, witness=(first, second), sample_count=n
                        ),
                        replicas=picked[start:stop],
                        iterations=rounds,
                    )
                    start = stop
                    span.set("replicas", result.replica_count)
                    results.append(result)
            if metrics.enabled:
                _observe_all(metrics.histogram("disks_per_target"), n_disks)
                _observe_all(metrics.histogram("igreedy_iterations"), iterations)
                metrics.counter("replicas_enumerated").inc(
                    sum(result.replica_count for result in results)
                )
        return results

    def _iterate(
        self, vps: np.ndarray, radii: np.ndarray, candidates: np.ndarray
    ) -> Tuple[list, np.ndarray, np.ndarray, np.ndarray]:
        """Paper-style iteration: collapse classified disks, re-run MIS.

        All targets advance one iteration together; a target drops out
        once an iteration classifies nothing new for it.  Returns the
        classified replicas of every target's final MIS (flat, grouped by
        target in selection order) with their city indices, their
        per-target counts, and the per-target iteration counts.
        """
        geo = self.geometry
        # Point ids into the combined gap matrix: VP index while original,
        # n_vps + city index once collapsed onto a classified city.
        point_ids = vps.astype(np.int64)
        cur_radii = radii.copy()
        classified = np.full(vps.shape, None, dtype=object)
        iterations = np.zeros(len(vps), dtype=np.int64)
        active = np.arange(len(vps))
        for iteration in range(1, self.config.max_iterations + 1):
            target, slot, _ = greedy_mis_rounds(
                geo.combined, point_ids[active], cur_radii[active], candidates[active]
            )
            iterations[active] = iteration
            target = active[target]
            fresh = point_ids[target, slot] < geo.n_vps
            target, slot = target[fresh], slot[fresh]
            replicas, cities = self.classify_vp_disks(vps[target, slot], radii[target, slot])
            classified[target, slot] = np.array(replicas, dtype=object)
            point_ids[target, slot] = geo.n_vps + cities
            cur_radii[target, slot] = 0.0
            active = np.unique(target)
            if not len(active):
                break
        target, slot, _ = greedy_mis_rounds(geo.combined, point_ids, cur_radii, candidates)
        done = point_ids[target, slot] >= geo.n_vps
        target, slot = target[done], slot[done]
        return (
            classified[target, slot].tolist(),
            point_ids[target, slot] - geo.n_vps,
            np.bincount(target, minlength=len(vps)),
            iterations,
        )

"""Hijack and route-leak inference from census-over-routing diffs.

The paper closes with a forward-looking application (Sec. 5): "detecting
geo-inconsistencies for knowingly unicast prefixes is symptomatic of BGP
hijacking attacks".  The naive reading — alarm on every prefix that
turns anycast — drowns in false positives the moment the census itself
evolves: rosters churn, deployments legitimately grow replicas, prefixes
appear and disappear.  This module therefore classifies every
census-to-census routing change into a *typed verdict*:

* ``hijack`` — a new origin captured real traffic: a previously-unicast
  prefix shows a speed-of-light violation that survives roster
  restriction, or an anycast prefix collapsed onto a single location
  excluding every baseline site (the subprefix-capture signature);
* ``leak`` — geolocation unchanged but RTTs inflated on a cluster of
  vantage points beyond what the per-epoch noise floor explains: traffic
  detours through a leaking AS without moving the endpoints;
* ``legitimate-anycast-growth`` — new replicas that are explained by a
  whitelist, by roster additions (new vantage points seeing what was
  always there), or by modest, incoherent growth;
* ``site-drain`` — replicas disappeared or the prefix collapsed onto a
  subset of its known sites (maintenance, withdrawal, flap damage);
* ``new-prefix`` — the prefix was never seen before; there is no
  baseline claim to contradict, so nothing is alarmed.

Only ``hijack`` and ``leak`` are *alarming* verdicts; the rest document
benign evolution.  :func:`inject_hijack` stages the geography-driven
attack the classifier is demonstrated on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.detection import detection_mask_rtt
from ..geo.cities import City
from ..geo.coords import GeoPoint, pairwise_distances_km
from ..geo.disks import FIBER_SPEED_KM_PER_MS
from ..net.latency import DEFAULT_MODEL, LatencyModel
from .analysis import AnalysisResult
from .combine import RttMatrix


class RoutingVerdict(str, enum.Enum):
    """Typed classification of one prefix's census-over-routing diff."""

    HIJACK = "hijack"
    LEAK = "leak"
    GROWTH = "legitimate-anycast-growth"
    SITE_DRAIN = "site-drain"
    NEW_PREFIX = "new-prefix"


#: Verdicts that page an operator; the rest are benign bookkeeping.
ALARMING_VERDICTS = frozenset({RoutingVerdict.HIJACK, RoutingVerdict.LEAK})


@dataclass(frozen=True)
class RoutingAlarm:
    """One typed verdict for one prefix, with its supporting evidence."""

    prefix: int
    verdict: RoutingVerdict
    #: Detector confidence in [0, 1] — driven by the capture fraction
    #: (hijack), inflated-VP excess over the noise floor (leak), or fixed
    #: for the benign verdicts.
    confidence: float
    #: ``"City,CC"`` strings observed after the change (sorted).
    observed_cities: List[str]
    replica_count: int
    baseline_replica_count: int
    #: One-line human-readable evidence summary.
    detail: str = ""

    @property
    def is_alarm(self) -> bool:
        return self.verdict in ALARMING_VERDICTS

    def to_doc(self) -> Dict:
        """JSON-ready form for the archive manifest."""
        return {
            "prefix": int(self.prefix),
            "verdict": self.verdict.value,
            "confidence": round(float(self.confidence), 4),
            "observed_cities": list(self.observed_cities),
            "replica_count": int(self.replica_count),
            "baseline_replica_count": int(self.baseline_replica_count),
            "detail": self.detail,
            "alarm": self.is_alarm,
        }


@dataclass(frozen=True)
class AlarmPolicy:
    """Thresholds separating attacks from benign routing evolution.

    ``min_capture_fraction`` is the hijack detectability floor for
    unicast→anycast flips: the new origin must coherently capture at
    least this fraction of the measured vantage points to be called a
    hijack — below it, the evidence is indistinguishable from growth
    and is classified as such.  (New cities on an *already anycast*
    prefix never alarm by themselves: an RTT disk cannot distinguish a
    new origin from an always-present site outside the baseline's
    sampled catchment.)
    ``leak_min_inflation_ms`` / ``leak_min_fraction`` are the leak
    floor; ``leak_sigma`` scales the self-calibrated noise allowance
    (per-cell RTT spikes make naive diff thresholds false-alarm, so the
    detector measures the background exceedance rate on every *other*
    row and requires the victim row to exceed it by ``leak_sigma``
    standard deviations).
    """

    min_capture_fraction: float = 0.08
    leak_min_inflation_ms: float = 30.0
    leak_min_fraction: float = 0.10
    leak_sigma: float = 4.0
    #: Slack added to disk containment checks (city gazetteer coarseness).
    containment_slack_km: float = 100.0
    #: Fraction of common-roster cells that must have moved materially
    #: for an anycast→unicast collapse to count as a subprefix capture
    #: (a more-specific hijack re-measures *every* vantage point; benign
    #: signature flicker re-routes only a few).
    collapse_rewrite_fraction: float = 0.5
    #: Background-excess rewrite fraction above which a collapse is a
    #: subprefix capture even when RTT geometry cannot exclude the
    #: baseline sites (a longest-prefix match wins at *every* AS, so
    #: essentially the whole row re-measures; a drained site moves only
    #: its own catchment).
    collapse_total_rewrite_fraction: float = 0.9
    #: Suppress unicast→anycast flips whose detection confidence was
    #: degraded by sanitization (quarantined VPs, low sample counts).
    suppress_low_confidence: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.min_capture_fraction <= 1.0:
            raise ValueError("min_capture_fraction must be in (0, 1]")
        if self.leak_min_inflation_ms <= 0:
            raise ValueError("leak_min_inflation_ms must be positive")
        if not 0.0 < self.leak_min_fraction <= 1.0:
            raise ValueError("leak_min_fraction must be in (0, 1]")
        if self.leak_sigma <= 0:
            raise ValueError("leak_sigma must be positive")
        if not 0.0 < self.collapse_rewrite_fraction <= 1.0:
            raise ValueError("collapse_rewrite_fraction must be in (0, 1]")
        if not 0.0 < self.collapse_total_rewrite_fraction <= 1.0:
            raise ValueError(
                "collapse_total_rewrite_fraction must be in (0, 1]"
            )


# ----------------------------------------------------------------------
# Injection
# ----------------------------------------------------------------------


def inject_hijack(
    matrix: RttMatrix,
    victim_prefix: int,
    attacker_location: GeoPoint,
    captured_fraction: float = 0.4,
    latency: LatencyModel = DEFAULT_MODEL,
    seed: int = 1,
) -> RttMatrix:
    """Return a copy of the matrix with a hijack of ``victim_prefix``.

    ``captured_fraction`` of the vantage points (chosen at random — BGP
    propagation is topology-, not geography-, driven) now reach the
    attacker's announcement; their RTTs are regenerated toward
    ``attacker_location`` with the same latency model the substrate uses,
    so the injected rows are physically consistent.  For capture sets
    derived from actual route propagation, use
    :class:`repro.bgp.RouteEventInjector` instead.
    """
    if not 0.0 < captured_fraction <= 1.0:
        raise ValueError("captured_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    row = matrix.row_of(victim_prefix)
    rtt = matrix.rtt_ms.copy()

    captured = rng.random(matrix.n_vps) < captured_fraction
    if not captured.any():
        captured[int(rng.integers(0, matrix.n_vps))] = True
    vp_lats = np.array([p.lat for p in matrix.vp_locations])
    vp_lons = np.array([p.lon for p in matrix.vp_locations])
    distances = pairwise_distances_km(
        vp_lats[captured], vp_lons[captured],
        [attacker_location.lat], [attacker_location.lon],
    )[:, 0]
    base = latency.path_rtt_ms(distances, rng)
    new_rtts = latency.probe_rtt_ms(base, rng).astype(np.float32)
    # Captured VPs that previously had no reply now do (the attacker's
    # announcement answers), and vice-versa measurements are replaced.
    row_values = rtt[row].copy()
    row_values[captured] = new_rtts
    rtt[row] = row_values
    return RttMatrix(
        prefixes=matrix.prefixes,
        vp_names=matrix.vp_names,
        vp_locations=matrix.vp_locations,
        rtt_ms=rtt,
        sample_count=matrix.sample_count,
    )


# ----------------------------------------------------------------------
# Typed classification
# ----------------------------------------------------------------------


class _ViewResult:
    """Replica summary for one prefix, reconstructed from a document."""

    def __init__(self, replicas: List) -> None:
        self.replicas = replicas
        self.replica_count = len(replicas)
        self.city_names = sorted(
            {f"{r.city.name},{r.city.country}" for r in replicas}
        )


class _ViewReplica:
    """A replica with a city but no witnessing disk (archived form)."""

    def __init__(self, city: City) -> None:
        self.city = city
        self.disk = None


class DocAnalysisView:
    """:class:`AnalysisResult`-compatible facade over an archived
    results document.

    The longitudinal service archives per-epoch analyses as JSON; the
    routing classifier needs only prefix sets, replica cities with
    locations, and detection confidences — all of which the document
    carries.  (Witness disks are not archived, so the roster-witness
    suppression path degrades gracefully to the default growth verdict.)
    """

    def __init__(self, doc: Dict) -> None:
        targets = doc.get("targets", {})
        self._entries = {int(k): v for k, v in targets.items()}
        self.prefixes = np.array(sorted(self._entries), dtype=np.int64)
        self.anycast_prefixes = [
            p for p in sorted(self._entries) if self._entries[p].get("anycast")
        ]
        self.results: Dict[int, _ViewResult] = {}
        for p in self.anycast_prefixes:
            replicas = [
                _ViewReplica(
                    City(
                        name=rep["city"],
                        country=rep["country"],
                        location=GeoPoint(rep["lat"], rep["lon"]),
                        population=0.0,
                    )
                )
                for rep in self._entries[p].get("replicas", ())
            ]
            self.results[p] = _ViewResult(replicas)

    def confidence_of(self, prefix: int) -> str:
        return str(self._entries.get(int(prefix), {}).get("confidence", "full"))


def _radii_km(row: np.ndarray, speed_km_per_ms: float) -> np.ndarray:
    """Disk radius per VP for one RTT row (NaN-safe; NaN stays NaN)."""
    return np.asarray(row, dtype=np.float64) * speed_km_per_ms / 2.0


def _row_violates(
    matrix: RttMatrix, row_values: np.ndarray, keep: np.ndarray,
    speed_km_per_ms: float,
) -> bool:
    """Does one RTT row prove anycast using only the ``keep`` VPs?

    The census detection step on one row, with the VPs outside ``keep``
    treated as not having answered.
    """
    row = np.where(keep, row_values, np.nan)[None, :]
    return bool(
        detection_mask_rtt(matrix.vp_distance_matrix(), row, speed_km_per_ms)[0]
    )


def _capture_fraction(
    matrix: RttMatrix,
    row: int,
    baseline_points: Sequence[GeoPoint],
    new_points: Sequence[GeoPoint],
    speed_km_per_ms: float,
    slack_km: float,
) -> float:
    """Fraction of measured VPs coherently captured by a new origin.

    A VP is captured when its disk (an upper bound on its distance to
    whatever answered) *excludes every baseline position* — it cannot be
    talking to any site the baseline knew about — and, when candidate
    new positions are given, contains at least one of them.
    """
    values = matrix.rtt_ms[row]
    measured = ~np.isnan(values)
    idx = np.nonzero(measured)[0]
    if len(idx) == 0:
        return 0.0
    radii = _radii_km(values[idx], speed_km_per_ms)
    vp_lats = np.array([matrix.vp_locations[j].lat for j in idx])
    vp_lons = np.array([matrix.vp_locations[j].lon for j in idx])
    captured = np.ones(len(idx), dtype=bool)
    if baseline_points:
        d_base = pairwise_distances_km(
            vp_lats, vp_lons,
            [p.lat for p in baseline_points], [p.lon for p in baseline_points],
        )
        captured &= (d_base > radii[:, None] + slack_km).all(axis=1)
    if new_points:
        d_new = pairwise_distances_km(
            vp_lats, vp_lons,
            [p.lat for p in new_points], [p.lon for p in new_points],
        )
        captured &= (d_new <= radii[:, None] + slack_km).any(axis=1)
    return float(captured.mean())


def _replica_vp_names(
    result, matrix: RttMatrix, cities: Set[str]
) -> Set[str]:
    """Names of the VPs whose disks witnessed replicas in ``cities``.

    Disk centers are VP locations; matching them back to the matrix
    roster identifies which vantage points support each replica.
    """
    by_coord = {
        (round(p.lat, 6), round(p.lon, 6)): name
        for name, p in zip(matrix.vp_names, matrix.vp_locations)
    }
    names: Set[str] = set()
    for rep in result.replicas:
        key = f"{rep.city.name},{rep.city.country}"
        if key not in cities or rep.disk is None:
            continue
        center = rep.disk.center
        name = by_coord.get((round(center.lat, 6), round(center.lon, 6)))
        if name is not None:
            names.add(name)
    return names


class _LeakCalibration:
    """One-shot, self-calibrated RTT-inflation statistics for all prefixes.

    Per-cell RTT noise is heavy-tailed (probe spikes), so a fixed diff
    threshold false-alarms constantly.  Instead the background rate of
    ``diff > leak_min_inflation_ms`` is estimated over every *other*
    common row, and a victim row must exceed the binomial expectation by
    ``leak_sigma`` standard deviations *and* the leak floor.  The diff
    matrix over common (prefix, VP) cells is computed once; per-prefix
    queries are O(1).
    """

    def __init__(
        self,
        baseline_matrix: RttMatrix,
        current_matrix: RttMatrix,
        common: List[Tuple[int, int]],
        threshold_ms: float,
    ) -> None:
        self.threshold_ms = float(threshold_ms)
        self.prefixes = np.intersect1d(
            baseline_matrix.prefixes, current_matrix.prefixes
        )
        if not common or len(self.prefixes) < 2:
            self.prefixes = self.prefixes[:0]
            self.k = np.zeros(0, dtype=np.int64)
            self.n = np.zeros(0, dtype=np.int64)
            self.d = np.zeros(0, dtype=np.int64)
            self.c = np.zeros(0, dtype=np.int64)
            self.total_k = 0
            self.total_n = 0
            self.total_d = 0
            self.total_c = 0
            return
        base_cols = np.array([b for b, _ in common])
        cur_cols = np.array([c for _, c in common])
        b_rows = np.searchsorted(baseline_matrix.prefixes, self.prefixes)
        c_rows = np.searchsorted(current_matrix.prefixes, self.prefixes)
        diffs = (
            current_matrix.rtt_ms[np.ix_(c_rows, cur_cols)].astype(np.float64)
            - baseline_matrix.rtt_ms[np.ix_(b_rows, base_cols)].astype(np.float64)
        )
        measured = ~np.isnan(diffs)
        exceed = np.zeros_like(measured)
        exceed[measured] = diffs[measured] > self.threshold_ms
        deflate = np.zeros_like(measured)
        deflate[measured] = diffs[measured] < -self.threshold_ms
        self.k = exceed.sum(axis=1).astype(np.int64)
        self.n = measured.sum(axis=1).astype(np.int64)
        self.d = deflate.sum(axis=1).astype(np.int64)
        self.c = (exceed | deflate).sum(axis=1).astype(np.int64)
        self.total_k = int(self.k.sum())
        self.total_n = int(self.n.sum())
        self.total_d = int(self.d.sum())
        self.total_c = int(self.c.sum())

    def rewrite_stats(self, prefix: int) -> Tuple[int, int]:
        """(materially changed cells, measured cells) for one prefix.

        A subprefix capture re-measures *every* vantage point against the
        attacker's location, so nearly the whole row moves; benign
        signature flicker (a deployment growing or shrinking between
        censuses) re-routes only the vantage points whose best path
        actually changed.
        """
        pos = int(np.searchsorted(self.prefixes, prefix))
        if pos >= len(self.prefixes) or self.prefixes[pos] != prefix:
            return 0, 0
        return int(self.c[pos]), int(self.n[pos])

    def background_change_rate(self, prefix: int) -> float:
        """Fraction of *other* rows' common cells that moved materially.

        Near zero when the two matrices share keyed noise draws (the
        longitudinal-service regime, where unchanged world is
        byte-identical); large when the censuses drew noise
        independently — in which regime per-row change counts carry no
        routing signal and callers must discount them.
        """
        pos = int(np.searchsorted(self.prefixes, prefix))
        if pos >= len(self.prefixes) or self.prefixes[pos] != prefix:
            c = n = 0
        else:
            c, n = int(self.c[pos]), int(self.n[pos])
        return (self.total_c - c) / max(self.total_n - n, 1)

    def relocation_evidence(
        self, prefix: int, policy: AlarmPolicy
    ) -> Tuple[bool, float, str]:
        """(re_homed, confidence, detail): did the endpoint move wholesale?

        A *full-capture* MOAS hijack leaves no anycast signature — every
        vantage point reaches the attacker, so the prefix looks like a
        unicast host that teleported.  The signature needs both halves:
        nearly the whole common-roster row re-measured (excess over the
        background movement rate, so independently-drawn noise
        self-suppresses) AND a significant share of cells getting
        *faster* (some vantage points are closer to the new origin).  A
        leak fails the second half: a detour only ever inflates.
        """
        pos = int(np.searchsorted(self.prefixes, prefix))
        if pos >= len(self.prefixes) or self.prefixes[pos] != prefix:
            return False, 0.0, "prefix not in both matrices"
        n = int(self.n[pos])
        if n == 0:
            return False, 0.0, "victim row empty"
        c = int(self.c[pos])
        d = int(self.d[pos])
        bg_n = max(self.total_n - n, 1)
        excess = c / n - (self.total_c - c) / bg_n
        if excess < policy.collapse_rewrite_fraction:
            return False, 0.0, f"rewrite excess {excess:.0%} below floor"
        p_defl = (self.total_d - d) / bg_n
        exp_d = n * p_defl
        allow_d = policy.leak_sigma * float(
            np.sqrt(max(n * p_defl * (1.0 - p_defl), 0.25))
        )
        if d < max(exp_d + allow_d, 2.0):
            return False, 0.0, "no deflated cells; one-sided change"
        confidence = float(np.clip(0.5 + excess, 0.5, 1.0))
        detail = (
            f"unicast prefix re-homed: {c}/{n} common cells re-measured "
            f"({excess:.0%} over background), {d} got faster "
            "(full-capture hijack signature)"
        )
        return True, confidence, detail

    def evidence(self, prefix: int, policy: AlarmPolicy) -> Tuple[bool, float, str]:
        """(is_leak, confidence, detail) for one prefix's inflation."""
        pos = int(np.searchsorted(self.prefixes, prefix))
        if pos >= len(self.prefixes) or self.prefixes[pos] != prefix:
            return False, 0.0, "prefix not in both matrices"
        n = int(self.n[pos])
        k = int(self.k[pos])
        if n == 0:
            return False, 0.0, "victim row empty"
        deflated = int(self.d[pos])
        bg_n = max(self.total_n - n, 1)
        p_defl = (self.total_d - deflated) / bg_n
        exp_d = n * p_defl
        allow_d = policy.leak_sigma * float(
            np.sqrt(max(n * p_defl * (1.0 - p_defl), 0.25))
        )
        if deflated >= max(exp_d + allow_d, 2.0):
            # A leak is a pure detour: captured VPs get strictly slower,
            # the rest untouched.  Significantly more *faster* cells than
            # the background (spike-redraw) rate means the prefix
            # re-routed — new attachment, new sites, fresh noise draws —
            # not a leak.
            return False, 0.0, (
                f"{deflated}/{n} common VPs got faster; re-route, not a detour"
            )
        p_noise = (self.total_k - k) / bg_n
        expected = n * p_noise
        allowance = policy.leak_sigma * float(
            np.sqrt(max(n * p_noise * (1.0 - p_noise), 0.25))
        )
        floor = max(policy.leak_min_fraction * n, 2.0)
        is_leak = k >= max(expected + allowance, floor)
        confidence = 0.0
        if is_leak:
            headroom = (k - expected) / max(n - expected, 1e-9)
            confidence = float(np.clip(headroom, 0.5, 1.0))
        detail = (
            f"{k}/{n} common VPs inflated >{self.threshold_ms:g}ms "
            f"(noise floor {expected:.1f}±{allowance:.1f})"
        )
        return is_leak, confidence, detail


def classify_routing_changes(
    baseline: AnalysisResult,
    current: AnalysisResult,
    *,
    baseline_matrix: Optional[RttMatrix] = None,
    current_matrix: Optional[RttMatrix] = None,
    known_anycast: Optional[Set[int]] = None,
    baseline_vp_names: Optional[Sequence[str]] = None,
    policy: Optional[AlarmPolicy] = None,
    speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS,
) -> List[RoutingAlarm]:
    """Typed verdict for every prefix whose routing story changed.

    The matrices are optional but load-bearing: without them the
    classifier falls back to analysis-level diffs only (no leak
    detection, no roster suppression, capture fraction assumed 1).
    ``baseline_vp_names`` is the baseline epoch's VP roster — used to
    recognise apparent changes that are really *roster* changes (a new
    VP seeing what was always there must not alarm).
    """
    policy = policy or AlarmPolicy()
    whitelist = known_anycast or set()
    baseline_any = set(baseline.anycast_prefixes)
    current_any = set(current.anycast_prefixes)
    baseline_seen = set(int(p) for p in baseline.prefixes)
    current_seen = set(int(p) for p in current.prefixes)

    common_pairs: List[Tuple[int, int]] = []
    common_names: Set[str] = set()
    if baseline_matrix is not None and current_matrix is not None:
        base_index = {n: j for j, n in enumerate(baseline_matrix.vp_names)}
        for j, name in enumerate(current_matrix.vp_names):
            if name in base_index:
                common_pairs.append((base_index[name], j))
                common_names.add(name)
    elif baseline_vp_names is not None and current_matrix is not None:
        common_names = set(baseline_vp_names) & set(current_matrix.vp_names)

    leak_cal: Optional[_LeakCalibration] = None
    if baseline_matrix is not None and current_matrix is not None:
        leak_cal = _LeakCalibration(
            baseline_matrix, current_matrix, common_pairs,
            policy.leak_min_inflation_ms,
        )

    # Bulk row lookups for every prefix the loops below will touch: one
    # vectorized searchsorted per matrix (RttMatrix.rows_of) instead of a
    # bisect per prefix per verdict branch.
    cur_rows: Dict[int, int] = {}
    base_rows: Dict[int, int] = {}
    if current_matrix is not None:
        wanted = np.fromiter(
            (int(p) for p in current_any | (baseline_any & current_seen)),
            dtype=np.int64,
        )
        hit = wanted[np.isin(wanted, current_matrix.prefixes.astype(np.int64))]
        cur_rows = dict(
            zip(hit.tolist(), current_matrix.rows_of(hit).tolist())
        )
    if baseline_matrix is not None:
        wanted = np.fromiter((int(p) for p in current_any), dtype=np.int64)
        hit = wanted[np.isin(wanted, baseline_matrix.prefixes.astype(np.int64))]
        base_rows = dict(
            zip(hit.tolist(), baseline_matrix.rows_of(hit).tolist())
        )

    alarms: List[RoutingAlarm] = []

    def add(prefix, verdict, confidence, cities, replicas, base_replicas, detail):
        alarms.append(
            RoutingAlarm(
                prefix=int(prefix),
                verdict=verdict,
                confidence=float(confidence),
                observed_cities=sorted(cities),
                replica_count=int(replicas),
                baseline_replica_count=int(base_replicas),
                detail=detail,
            )
        )

    # --- prefixes anycast now -----------------------------------------
    for prefix in sorted(current_any):
        result = current.results[prefix]
        cur_cities = set(result.city_names)

        if prefix not in baseline_seen:
            add(
                prefix, RoutingVerdict.NEW_PREFIX, 0.9, cur_cities,
                result.replica_count, 0,
                "prefix absent from baseline census; no claim to contradict",
            )
            continue

        if prefix in baseline_any:
            base_result = baseline.results[prefix]
            base_cities = set(base_result.city_names)
            new_cities = cur_cities - base_cities
            if not new_cities:
                # Same (or shrunk) city set.  Leaks against *anycast*
                # victims sit below the detectability floor: a detour's
                # RTT inflation is indistinguishable from the re-routing
                # (and fresh per-cell noise draws) of ordinary catchment
                # evolution, so the leak sweep is scoped to prefixes
                # unicast in both censuses — the canonical real-world
                # leak victim, whose endpoint cannot legitimately move.
                if cur_cities < base_cities:
                    add(
                        prefix, RoutingVerdict.SITE_DRAIN, 0.8, cur_cities,
                        result.replica_count, base_result.replica_count,
                        f"lost {len(base_cities - cur_cities)} of "
                        f"{len(base_cities)} baseline cities",
                    )
                continue

            # New cities appeared on a known-anycast prefix.  This is
            # never a hijack verdict on its own: an RTT disk containing a
            # "new" city is geometrically indistinguishable from a site
            # that was always there but outside the baseline's sampled
            # catchment — exactly why the paper scopes hijack detection
            # to *knowingly unicast* prefixes.  Partial-capture attacks
            # on anycast victims sit below the detectability floor of a
            # data-plane census; the typed verdict records the evidence
            # without paging anyone.
            if prefix in whitelist:
                add(
                    prefix, RoutingVerdict.GROWTH, 0.9, cur_cities,
                    result.replica_count, base_result.replica_count,
                    "whitelisted anycast deployment",
                )
                continue
            if current_matrix is not None and common_names:
                witnesses = _replica_vp_names(result, current_matrix, new_cities)
                if witnesses and not (witnesses & common_names):
                    add(
                        prefix, RoutingVerdict.GROWTH, 0.85, cur_cities,
                        result.replica_count, base_result.replica_count,
                        "new cities witnessed only by vantage points absent "
                        "from the baseline roster",
                    )
                    continue
            capture = 1.0
            if current_matrix is not None:
                base_points = [
                    r.city.location
                    for r in base_result.replicas
                ]
                new_points = [
                    r.city.location
                    for r in result.replicas
                    if f"{r.city.name},{r.city.country}" in new_cities
                ]
                capture = _capture_fraction(
                    current_matrix, cur_rows[prefix],
                    base_points, new_points, speed_km_per_ms,
                    policy.containment_slack_km,
                )
            add(
                prefix, RoutingVerdict.GROWTH, 0.7, cur_cities,
                result.replica_count, base_result.replica_count,
                f"{len(new_cities)} new cities on known anycast "
                f"(apparent capture {capture:.0%}; below the anycast-victim "
                "detectability floor)",
            )
            continue

        # --- unicast -> anycast flip ----------------------------------
        if prefix in whitelist:
            add(
                prefix, RoutingVerdict.GROWTH, 0.9, cur_cities,
                result.replica_count, 0, "whitelisted anycast deployment",
            )
            continue
        if policy.suppress_low_confidence and current.confidence_of(prefix) != "full":
            add(
                prefix, RoutingVerdict.GROWTH, 0.3, cur_cities,
                result.replica_count, 0,
                f"detection confidence {current.confidence_of(prefix)!r}; "
                "suppressed",
            )
            continue
        if current_matrix is not None and common_names:
            keep = np.array(
                [name in common_names for name in current_matrix.vp_names]
            )
            row = cur_rows[prefix]
            if not _row_violates(
                current_matrix, current_matrix.rtt_ms[row], keep, speed_km_per_ms
            ):
                add(
                    prefix, RoutingVerdict.GROWTH, 0.6, cur_cities,
                    result.replica_count, 0,
                    "violation vanishes on the common-roster restriction; "
                    "apparent flip is a roster artifact",
                )
                continue
        capture = 1.0
        if current_matrix is not None and baseline_matrix is not None:
            # Two capture estimates, take the stronger.  (1) Excess
            # rewrite: fraction of the common roster whose RTT moved,
            # minus the background movement rate — in the keyed-noise
            # longitudinal regime unchanged rows are byte-stable, so the
            # moved excess IS the captured fraction; when the censuses
            # drew noise independently the background rate soaks it up
            # and the estimate self-suppresses.  (2) Disk containment:
            # VPs whose disks exclude the baseline position — regime-
            # independent but weak at global scale (spiky RTTs make huge
            # disks that swallow the baseline position).
            rewrite_capture = 0.0
            if leak_cal is not None:
                changed, n_common = leak_cal.rewrite_stats(prefix)
                if n_common > 0:
                    rewrite_capture = max(
                        0.0,
                        changed / n_common
                        - leak_cal.background_change_rate(prefix),
                    )
            try:
                base_row = base_rows[prefix]
                b_vals = baseline_matrix.rtt_ms[base_row]
                j = int(np.nanargmin(b_vals))
                base_points = [baseline_matrix.vp_locations[j]]
            except (KeyError, ValueError):
                base_points = []
            disk_capture = _capture_fraction(
                current_matrix, cur_rows[prefix],
                base_points, [], speed_km_per_ms,
                policy.containment_slack_km,
            )
            capture = max(rewrite_capture, disk_capture)
            if capture < policy.min_capture_fraction:
                add(
                    prefix, RoutingVerdict.GROWTH, 0.5, cur_cities,
                    result.replica_count, 0,
                    f"flip below capture floor ({capture:.0%})",
                )
                continue
        add(
            prefix, RoutingVerdict.HIJACK,
            float(np.clip(0.5 + capture, 0.5, 1.0)), cur_cities,
            result.replica_count, 0,
            f"unicast prefix turned anycast; capture {capture:.0%}",
        )

    # --- prefixes that stopped being anycast (or vanished) ------------
    for prefix in sorted(baseline_any - current_any):
        base_result = baseline.results[prefix]
        base_cities = set(base_result.city_names)
        if prefix not in current_seen:
            add(
                prefix, RoutingVerdict.SITE_DRAIN, 0.7, set(),
                0, base_result.replica_count,
                "prefix vanished from the census (withdrawn or unresponsive)",
            )
            continue
        # Still replying, no longer anycast: collapsed onto one apparent
        # location.  The subprefix-capture signature needs *both* halves:
        # the min-RTT disk excludes every baseline site (the traffic no
        # longer reaches anything the baseline knew about) AND most of
        # the common-roster row was re-measured (a more-specific route
        # wins at every AS, so every VP moves; benign signature flicker
        # — a deployment growing or shrinking between censuses — moves
        # only the re-routed few).
        verdict = RoutingVerdict.SITE_DRAIN
        confidence = 0.8
        detail = "anycast collapsed onto a known site"
        if current_matrix is not None:
            row = cur_rows[prefix]
            values = current_matrix.rtt_ms[row]
            rewritten = True
            rewrite_excess = 1.0
            if leak_cal is not None:
                changed, n_common = leak_cal.rewrite_stats(prefix)
                rewritten = (
                    n_common > 0
                    and changed / n_common >= policy.collapse_rewrite_fraction
                )
                if n_common >= 4:
                    rewrite_excess = (
                        changed / n_common
                        - leak_cal.background_change_rate(prefix)
                    )
                else:
                    rewrite_excess = 0.0
            if rewritten and np.isfinite(values).any():
                j = int(np.nanargmin(values))
                radius = float(
                    _radii_km(np.array([values[j]]), speed_km_per_ms)[0]
                )
                vp = current_matrix.vp_locations[j]
                base_points = [r.city.location for r in base_result.replicas]
                d = pairwise_distances_km(
                    [vp.lat], [vp.lon],
                    [p.lat for p in base_points], [p.lon for p in base_points],
                )[0]
                if (d > radius + policy.containment_slack_km).all():
                    verdict = RoutingVerdict.HIJACK
                    confidence = 0.9
                    detail = (
                        "anycast collapsed onto a location excluding every "
                        "baseline site (subprefix-capture signature)"
                    )
                elif rewrite_excess >= policy.collapse_total_rewrite_fraction:
                    # Geometry cannot rule out the baseline footprint (a
                    # wide deployment leaves a site inside almost any RTT
                    # disk), but a drained site cannot re-measure the whole
                    # roster: near-total rewrite over background means a
                    # more-specific route won everywhere.
                    verdict = RoutingVerdict.HIJACK
                    confidence = 0.9
                    detail = (
                        "anycast collapsed and the whole roster re-measured "
                        f"({rewrite_excess:.0%} over background; "
                        "subprefix-capture signature)"
                    )
        add(
            prefix, verdict, confidence, set(),
            0, base_result.replica_count, detail,
        )

    # --- leaks against prefixes unicast in both censuses ---------------
    # A leaked unicast route changes no anycast status and no geolocation;
    # the only census-visible symptom is the RTT detour on the captured
    # vantage points.  Whitelisted (registered-anycast) prefixes are
    # excluded even when both censuses called them unicast: a small
    # deployment under the detection floor still re-routes legitimately,
    # and a re-route onto topologically-nearer-but-farther sites inflates
    # one-sidedly just like a detour would.
    if leak_cal is not None:
        steady_unicast = (
            (baseline_seen & current_seen)
            - baseline_any
            - current_any
            - whitelist
        )
        for prefix in sorted(steady_unicast):
            result = current.results.get(prefix)
            cities = set(result.city_names) if result is not None else set()
            replicas = result.replica_count if result is not None else 1

            re_homed, rh_conf, rh_detail = leak_cal.relocation_evidence(
                prefix, policy
            )
            if re_homed:
                add(
                    prefix, RoutingVerdict.HIJACK, rh_conf, cities,
                    replicas, replicas, rh_detail,
                )
                continue

            is_leak, leak_conf, leak_detail = leak_cal.evidence(prefix, policy)
            if not is_leak:
                continue
            add(
                prefix, RoutingVerdict.LEAK, leak_conf, cities,
                replicas, replicas, leak_detail,
            )

    return sorted(alarms, key=lambda a: (not a.is_alarm, a.prefix))

"""Cross-VP trust scoring: which vantage points can the census believe?

The speed-of-light detection test has no false positives *only if every
vantage point tells the truth* about two things: the RTT it measured
and the place it measured from.  One miscalibrated node — a skewed
clock, a bufferbloated uplink, a stale geolocation entry, a wedged
timestamping path — can fabricate disk-disjointness and flip a unicast
prefix to anycast, or hide real violations.  This module scores each VP
against the rest of the roster and excises the ones that cannot be
physically consistent with it, feeding the same quarantine/degraded-
confidence machinery the sanitizers use.

Scoring runs in two passes, because liars contaminate statistics:

**Pass 1 — hard physical evidence**, needing no roster comparison:
negative RTTs (only a skewed clock produces a sub-zero round trip) and
a near-zero RTT spread (real paths to a global hitlist span a huge RTT
range; a constant column is a wedged timestamping path).  Pass-1
flagged columns are *excluded from every pass-2 statistic* — a VP
reporting negative RTTs would otherwise drag every target's best-RTT
reference down and smear honest VPs' residuals.

**Pass 2 — cross-VP consistency** over the surviving roster:

* **iterative solo-violation attribution** — a target's speed-of-light
  violations are *attributable* to one VP when every violating disk
  pair involves it: remove that VP and the target has no violation
  left.  Genuine anycast violations are corroborated across catchments
  (many pairs, no single VP accounts for all of them), so an honest
  VP's solo rate stays near zero no matter how eccentric its
  geography; a mis-geolocated VP fabricates violations on unicast
  targets that *only it* can witness.  Flagging is iterative — excise
  the worst offender above ``solo_margin``, recompute, repeat —
  because two distorted VPs can corroborate each other's fake
  violations and hide from a single-shot solo count; peeling them off
  one at a time re-exposes the remainder;
* **RTT residual** — the VP's median excess over each target's best
  surviving RTT, robust-z-scored over the roster with an absolute
  margin floor.  Bufferbloat and positive clock skew inflate it far
  above the honest straggler cohort (whose exponential inflation is an
  order of magnitude smaller).  The z-score scale is estimated from
  the *sub-margin core* of the cohort only: several co-distorted
  nodes with similar inflation would otherwise widen the roster MAD
  enough to mask each other.

Thresholds are margins over roster-relative statistics, so a clean
roster flags nobody: the whole layer is output-neutral on clean data
(:func:`apply_trust` returns its argument object unchanged when every
VP is trusted).  The supported adversary is a minority — up to ~30% of
the roster — of independently-miscalibrated nodes.

Known observability limits: a mis-geolocated VP is caught through the
violations it fabricates, and fabrication needs target mass near the
VP's true position.  A remote node displaced to an equally remote spot
(an island probe claiming mid-ocean coordinates) fabricates violations
on well under 1% of targets — beneath the honest sole-witness
background, and with proportionally small census harm.  Conversely,
excising a distorted VP can *vacate a region*: the remaining honest
regional witness inherits every far-catchment violation its excised
neighbour used to corroborate, and a sole honest witness of a far
anycast catchment is observationally identical to a mis-geolocated
fabricator (same all-pairs-involve-me solo signature, same small
disks).  No per-matrix statistic can tell them apart, so the engine
stays soundness-first and may excise such a witness too — the cost is
bounded (only the detections that witness alone could make), where
keeping a real liar would fabricate anycast.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..census.combine import RttMatrix
from ..core.detection import witness_filter
from ..geo.disks import FIBER_SPEED_KM_PER_MS
from ..obs import current_events, current_metrics, current_tracer

if TYPE_CHECKING:
    from ..measurement.campaign import CampaignHealthReport

#: Reason codes attached to untrusted verdicts.
TRUST_REASON_NEGATIVE_RTT = "negative-rtt"
TRUST_REASON_SOL_VIOLATION = "sol-violation-outlier"
TRUST_REASON_RTT_INFLATION = "rtt-inflation"
TRUST_REASON_STUCK_RTT = "stuck-rtt"

#: Cells per (rows, V) temporary of the solo-violation peel: 1 MB of
#: float64, where the all-pairs test needed (rows, V, V) per block.
_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class TrustPolicy:
    """Thresholds of the cross-VP consistency checks.

    The relative thresholds (``*_z``) are robust z-scores over the
    roster; each is paired with an absolute margin so a tightly-packed
    clean roster (tiny MAD) cannot flag a VP over measurement dust.
    """

    #: Disk geometry speed (must match the detection configuration).
    speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS
    #: Absolute floor below which a VP's solo-violation rate is never
    #: flagged.  Honest VPs on a diverse roster sit near zero (a real
    #: anycast violation is corroborated by pairs that do not involve
    #: any single VP); sole-witness anycast targets — where one VP
    #: genuinely is the only roster member in a separate catchment —
    #: are the honest background this floor must clear (observed well
    #: under 1% of a VP's targets on realistic anycast densities;
    #: mis-geolocated VPs fabricate several percent).
    solo_margin: float = 0.02
    #: ...and the robust z-score over the roster's solo-rate
    #: distribution a candidate must also exceed.  On small or
    #: geographically clustered rosters the honest sole-witness
    #: background is a wide *continuum* (a lone VP per region solos on
    #: every anycast target whose far catchment only it sees), so an
    #: absolute threshold alone would excise honest VPs; a liar must
    #: instead stick out of whatever background its roster has.
    solo_z: float = 3.5
    #: Floor (in rate units, pre z-scaling) on the roster MAD used for
    #: ``solo_z`` — an immaculate roster (all rates ~0) must not flag a
    #: VP over measurement dust.
    solo_mad_floor: float = 0.005
    #: Stop the iterative solo excision once this fraction of the
    #: pass-2 cohort (the columns surviving hard pass-1 evidence) has
    #: been flagged — past a minority of liars the remaining
    #: "consensus" is meaningless and excising further only destroys
    #: coverage.  Pass-1 convictions never count against this budget:
    #: they are physical evidence, not adjudication.
    max_excised_fraction: float = 0.34
    #: Robust z-score above which a VP's median RTT residual is an
    #: outlier.  Deliberately loose — rosters with genuinely-isolated
    #: honest nodes (island VPs far from the target mass) have a wide
    #: residual spread; the absolute margin below is the main gate and
    #: the z-score only protects tightly-packed rosters.  The scale is
    #: estimated from the sub-margin core of the cohort, so several
    #: similarly-inflated co-distorted nodes cannot widen the roster
    #: MAD enough to mask one another; the threshold is sized so that a
    #: geographically bimodal honest core (a dense continental cluster
    #: plus remote outposts, MAD in the tens of ms) still cannot mask a
    #: hundreds-of-ms liar.  Honest VPs are kept out by the margin
    #: gate: distortion elsewhere only *raises* a target's best-RTT
    #: reference, so it can shrink honest residuals but never inflate
    #: them across the margin.
    residual_z: float = 2.5
    #: ...and the minimum absolute excess over the roster median (ms).
    #: Sized above honest straggler inflation (an overloaded host adds an
    #: exponential of a few tens of ms), below the hundreds of ms that
    #: bufferbloat or a broken clock discipline introduce.
    residual_margin_ms: float = 150.0
    #: A column MAD below this many ms marks a stuck (constant) reporter.
    min_spread_ms: float = 0.5
    #: Checks need at least this many samples in the VP's column.
    min_samples: int = 8
    #: A roster smaller than this cannot out-vote a liar; score nothing.
    min_roster: int = 4

    def __post_init__(self) -> None:
        if self.speed_km_per_ms <= 0:
            raise ValueError("speed_km_per_ms must be positive")
        if not 0.0 < self.solo_margin < 1.0:
            raise ValueError("solo_margin must be in (0, 1)")
        if self.solo_z <= 0:
            raise ValueError("solo_z must be positive")
        if self.solo_mad_floor <= 0:
            raise ValueError("solo_mad_floor must be positive")
        if not 0.0 < self.max_excised_fraction <= 1.0:
            raise ValueError("max_excised_fraction must be in (0, 1]")
        if self.residual_z <= 0:
            raise ValueError("residual_z must be positive")
        if self.residual_margin_ms < 0:
            raise ValueError("residual_margin_ms must be non-negative")
        if self.min_spread_ms < 0:
            raise ValueError("min_spread_ms must be non-negative")
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if self.min_roster < 3:
            raise ValueError("min_roster must be >= 3")


@dataclass
class VpTrustVerdict:
    """One vantage point's consistency scorecard."""

    name: str
    trusted: bool
    #: Reason codes (empty when trusted).
    reasons: List[str] = field(default_factory=list)
    #: Fraction of (target, peer) disk pairs disjoint from this VP's —
    #: the raw background, reported for context, never used for flagging.
    violation_rate: float = 0.0
    #: Fraction of this VP's measured targets whose speed-of-light
    #: violations are attributable to it *alone* (every violating pair
    #: involves it).  The flagging statistic of the solo check; for a
    #: flagged VP this is the rate at the excision round, for a trusted
    #: VP the final-round (fully cleaned roster) rate.
    solo_rate: float = 0.0
    #: Median excess (ms) of this VP's RTTs over each target's best RTT.
    residual_ms: float = 0.0
    #: Robust z-score of ``residual_ms`` over the surviving roster.
    residual_zscore: float = 0.0
    #: Median absolute deviation (ms) of the VP's RTT column.
    spread_ms: float = 0.0
    n_samples: int = 0

    def to_doc(self) -> Dict:
        return {
            "name": self.name,
            "trusted": self.trusted,
            "reasons": list(self.reasons),
            "violation_rate": round(self.violation_rate, 6),
            "solo_rate": round(self.solo_rate, 6),
            "residual_ms": round(self.residual_ms, 3),
            "residual_zscore": round(self.residual_zscore, 3),
            "spread_ms": round(self.spread_ms, 3),
            "n_samples": self.n_samples,
        }


@dataclass
class VpTrustReport:
    """Trust verdicts for one roster (the ``trust.json`` sidecar body)."""

    verdicts: List[VpTrustVerdict] = field(default_factory=list)
    #: The solo-violation excision ran into ``max_excised_fraction``
    #: with candidates still above threshold: the roster has no
    #: coherent majority consensus (e.g. a small, geographically
    #: clustered roster over dense anycast, where every regional
    #: outpost looks like a sole witness).  All solo flags were
    #: dropped rather than excising what cannot be adjudicated; hard
    #: pass-1 evidence and the residual check still apply.
    sol_check_aborted: bool = False

    @property
    def untrusted(self) -> List[VpTrustVerdict]:
        return [v for v in self.verdicts if not v.trusted]

    @property
    def untrusted_names(self) -> List[str]:
        return [v.name for v in self.untrusted]

    @property
    def untrusted_fraction(self) -> float:
        if not self.verdicts:
            return 0.0
        return len(self.untrusted) / len(self.verdicts)

    def reasons_by_vp(self) -> Dict[str, List[str]]:
        return {v.name: list(v.reasons) for v in self.untrusted}

    def to_doc(self) -> Dict:
        return {
            "kind": "vp-trust",
            "n_vps": len(self.verdicts),
            "n_untrusted": len(self.untrusted),
            "untrusted_fraction": round(self.untrusted_fraction, 6),
            "sol_check_aborted": self.sol_check_aborted,
            "verdicts": [v.to_doc() for v in self.verdicts],
        }

    def summary_lines(self) -> List[str]:
        lines = [
            f"vp trust: {len(self.verdicts) - len(self.untrusted)}"
            f"/{len(self.verdicts)} trusted"
        ]
        if self.sol_check_aborted:
            lines.append(
                "  sol check aborted: no coherent roster consensus "
                "(excision cap reached); solo flags dropped"
            )
        for verdict in self.untrusted:
            lines.append(
                f"  untrusted {verdict.name}: {', '.join(verdict.reasons)}"
            )
        return lines


def _robust_z(
    values: np.ndarray, core_margin: Optional[float] = None
) -> Tuple[np.ndarray, float]:
    """Per-element robust z-scores over a vector, plus its median.

    With ``core_margin`` set, the MAD is estimated from the sub-margin
    core only (values within ``median + core_margin``): outliers above
    the margin are exactly the conviction candidates, and several
    co-distorted nodes with similar inflation would otherwise widen
    the roster MAD enough to mask one another.
    """
    median = float(np.median(values))
    core = values
    if core_margin is not None:
        core = values[values <= median + core_margin]
    mad = float(np.median(np.abs(core - median)))
    scale = 1.4826 * mad
    if scale <= 1e-12:
        # A degenerate spread: z-scores are meaningless, rely on the
        # absolute margins alone (report inf where above the median).
        z = np.where(values > median, np.inf, 0.0)
    else:
        z = (values - median) / scale
    return z, median


def score_vps(
    matrix: RttMatrix, policy: Optional[TrustPolicy] = None
) -> VpTrustReport:
    """Score every vantage point of a matrix against the roster.

    Pure and deterministic: the report depends only on the matrix
    contents and the policy.  Metrics/events are emitted when an obs
    context is active, and the enclosing span (the ``trust`` stage) is
    annotated with ``rows_violating`` (target rows holding a
    speed-of-light violation among the pass-2 cohort) and
    ``peel_rounds`` (solo-violation rounds scanned).
    """
    policy = policy or TrustPolicy()
    n_vps = matrix.n_vps
    rtt = matrix.rtt_ms.astype(np.float64)
    present = ~np.isnan(rtt)
    col_samples = present.sum(axis=0)

    verdicts = [
        VpTrustVerdict(name=name, trusted=True, n_samples=int(col_samples[j]))
        for j, name in enumerate(matrix.vp_names)
    ]
    report = VpTrustReport(verdicts=verdicts)
    if n_vps < policy.min_roster:
        current_tracer().annotate(rows_violating=0, peel_rounds=0)
        _emit(report)
        return report

    # ---- Pass 1: hard physical evidence, no roster comparison needed.
    scorable = col_samples >= policy.min_samples
    with np.errstate(invalid="ignore"):
        has_negative = np.nansum(np.where(rtt < 0.0, 1, 0), axis=0) > 0

    spread_ms = np.zeros(n_vps, dtype=np.float64)
    for j in range(n_vps):
        column = rtt[present[:, j], j]
        if len(column) >= 2:
            spread_ms[j] = float(np.median(np.abs(column - np.median(column))))
    stuck = scorable & (spread_ms < policy.min_spread_ms)

    # Columns excluded from every pass-2 statistic: a negative-RTT clock
    # would drag the per-target best-RTT reference down and smear every
    # honest VP's residual; a stuck-low column fabricates violations.
    surviving = ~(has_negative | stuck)

    # ---- Pass 2: iterative solo-violation attribution.
    peel = _solo_peel(matrix, rtt, present, surviving, scorable, col_samples, policy)
    sol_flag = peel.flags
    current_tracer().annotate(
        rows_violating=peel.rows_violating, peel_rounds=peel.rounds
    )

    # Median residual over each target's best RTT among the columns that
    # survived both passes (liars neither set the reference nor sit in
    # the z-score cohort).
    cleaned = surviving & ~sol_flag
    masked = np.where(present & cleaned[None, :], rtt, np.nan)
    row_has_two = (present & cleaned[None, :]).sum(axis=1) >= 2
    residual_ms = np.zeros(n_vps, dtype=np.float64)
    if bool(row_has_two.any()):
        rows = masked[row_has_two]
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            best = np.nanmin(rows, axis=1)
            med = np.nanmedian(rows - best[:, None], axis=0)
        residual_ms = np.where(np.isnan(med), 0.0, med)
    # z-scores over the cleaned roster only.
    residual_zs = np.zeros(n_vps, dtype=np.float64)
    residual_median = 0.0
    if int(cleaned.sum()) >= policy.min_roster:
        zs, residual_median = _robust_z(
            residual_ms[cleaned], core_margin=policy.residual_margin_ms
        )
        residual_zs[cleaned] = zs
    inflated = (
        scorable
        & cleaned
        & (residual_zs > policy.residual_z)
        & (residual_ms > residual_median + policy.residual_margin_ms)
    )

    report.sol_check_aborted = peel.aborted
    for j, verdict in enumerate(verdicts):
        verdict.violation_rate = float(peel.violation_rate[j])
        verdict.solo_rate = float(peel.solo_rates[j])
        verdict.residual_ms = float(residual_ms[j])
        verdict.residual_zscore = float(residual_zs[j])
        verdict.spread_ms = float(spread_ms[j])
        if not scorable[j]:
            continue  # too thin to judge either way; keep, but unscored
        if bool(has_negative[j]):
            verdict.reasons.append(TRUST_REASON_NEGATIVE_RTT)
        if bool(stuck[j]):
            verdict.reasons.append(TRUST_REASON_STUCK_RTT)
        if bool(sol_flag[j]):
            verdict.reasons.append(TRUST_REASON_SOL_VIOLATION)
        if bool(inflated[j]):
            verdict.reasons.append(TRUST_REASON_RTT_INFLATION)
        verdict.trusted = not verdict.reasons

    _emit(report)
    return report


class _Peel(NamedTuple):
    """Outcome of pass 2's solo-violation peel."""

    #: Columns convicted by the solo check (all False when aborted).
    flags: np.ndarray
    #: Per VP: the solo rate at its excision round (flagged) or at the
    #: last round (kept); 0 for columns outside the pass-2 cohort.
    solo_rates: np.ndarray
    #: Per VP: first-round violating pairs over sampled pairs.
    violation_rate: np.ndarray
    aborted: bool
    #: Target rows with a violation in the first round.
    rows_violating: int
    #: Rounds scanned: one per solo conviction (dropped ones included),
    #: plus the last.
    rounds: int


def _solo_peel(
    matrix: RttMatrix,
    rtt: np.ndarray,
    present: np.ndarray,
    surviving: np.ndarray,
    scorable: np.ndarray,
    col_samples: np.ndarray,
    policy: TrustPolicy,
) -> _Peel:
    """Pass 2: iterative solo-violation attribution.

    Per round: with the currently-excised columns silenced (radius +inf
    never forms a disjoint pair), count for each VP the targets whose
    violating pairs ALL involve it — remove the VP and that target has
    no violation left.  Flag the single worst offender above the margin,
    silence it, rescan; repeat until nothing clears the margin or a
    roster-fraction cap trips.  One-at-a-time argmax matters twice over:
    corroborating liars hide each other from a single-shot solo count
    until the first is peeled off, and a lone fabricated pair is formally
    attributable to *both* of its endpoints — the honest endpoint's rate
    deflates once the liar (the common endpoint of many such pairs, hence
    the argmax) goes.

    Only rows that hold a violation contribute a count, and silencing a
    column can only remove violations, so round 1 scans every row and
    each later round rescans just the rows that still violated in the
    round before.
    """
    n_targets, n_vps = rtt.shape
    distances = matrix.vp_distance_matrix()
    speed = policy.speed_km_per_ms
    both = present & surviving
    # Sampled (target, peer) pairs per VP, the violation-rate denominator.
    raw_pairs = (both.sum(axis=1) - 1) @ both
    sol_flag = np.zeros(n_vps, dtype=bool)
    solo_rates = np.zeros(n_vps, dtype=np.float64)
    violation_rate = np.zeros(n_vps, dtype=np.float64)
    max_solo = int(policy.max_excised_fraction * int(surviving.sum()))
    aborted = False
    rows = np.arange(n_targets)
    rows_violating = 0
    rounds = 0
    while True:
        active = surviving & ~sol_flag
        solo_counts, raw_counts, rows = _peel_round(
            distances, rtt, present, active, rows, speed
        )
        rates = solo_counts / np.maximum(col_samples, 1)
        solo_rates = np.where(active, rates, solo_rates)
        if rounds == 0:
            violation_rate = raw_counts / np.maximum(raw_pairs, 1)
            rows_violating = len(rows)
        rounds += 1
        # A candidate must clear the absolute floor AND be a robust
        # outlier against the surviving roster's own solo background —
        # clustered rosters have honestly-high backgrounds (see
        # ``TrustPolicy.solo_z``) that no fixed threshold survives.
        cohort = rates[scorable & active]
        if cohort.size >= policy.min_roster:
            cohort_median = float(np.median(cohort))
            cohort_mad = float(np.median(np.abs(cohort - cohort_median)))
            scale = max(1.4826 * cohort_mad, policy.solo_mad_floor)
            threshold = max(
                policy.solo_margin, cohort_median + policy.solo_z * scale
            )
        else:
            threshold = np.inf  # too few scorable columns to out-vote
        candidates = scorable & active & (rates > threshold)
        if not bool(candidates.any()):
            break
        if int(sol_flag.sum()) >= max_solo:
            # The peel hit the cohort-fraction cap with offenders still
            # standing.  A true liar minority converges before the cap
            # (each excision removes its fabrications); an endless
            # supply of "offenders" means the solo statistic is seeing
            # honest structure — every peeled regional witness promotes
            # the next one.  There is no coherent consensus to defer
            # to, so drop every solo flag instead of excising a third
            # of an honest roster.
            aborted = True
            sol_flag[:] = False
            break
        worst = int(np.argmax(np.where(candidates, rates, -1.0)))
        sol_flag[worst] = True
    return _Peel(sol_flag, solo_rates, violation_rate, aborted, rows_violating, rounds)


def _peel_round(
    distances: np.ndarray,
    rtt: np.ndarray,
    present: np.ndarray,
    active: np.ndarray,
    rows: np.ndarray,
    speed_km_per_ms: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One peel round over ``rows`` with the inactive columns silenced.

    Returns per-VP ``(solo_counts, raw_counts, violating_rows)``: the
    rows whose every violating pair involves the VP, the violating
    pairs the VP is part of, and the subset of ``rows`` that holds any
    violation.  Rows go in blocks of :data:`_BLOCK_CELLS` cells.
    """
    n_vps = len(active)
    solo_counts = np.zeros(n_vps, dtype=np.int64)
    raw_counts = np.zeros(n_vps, dtype=np.int64)
    violating = [rows[:0]]
    step = max(1, _BLOCK_CELLS // max(n_vps, 1))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        radii = np.where(
            present[block] & active, rtt[block] / 2.0 * speed_km_per_ms, np.inf
        )
        _, outside = witness_filter(distances, radii)
        held = outside.any(axis=1)  # the rest are certified: no violation
        block, radii, outside = block[held], radii[held], outside[held]
        involved = _violating_partners(distances, radii, outside, step)
        total = involved.sum(axis=1)  # 2 x violating pairs
        solo_counts += ((involved > 0) & (2 * involved == total[:, None])).sum(axis=0)
        raw_counts += involved.sum(axis=0)
        violating.append(block[total > 0])
    return solo_counts, raw_counts, np.concatenate(violating)


def _violating_partners(
    distances: np.ndarray, radii: np.ndarray, outside: np.ndarray, step: int
) -> np.ndarray:
    """Per (row, VP): how many disks of the row are disjoint from its own.

    Equal to the all-pairs count ``#{j : D[i, j] > r_i + r_j}``, found
    without it: every disjoint pair has a member among the row's
    ``outside`` disks (:func:`~repro.core.detection.witness_filter`), so
    only those run the pair test against the whole row, in blocks of
    ``step`` (row, disk) cells.  An outside disk's count is its own row
    of hits; any other disk's partners are all outside, so its count is
    the sum of its column over the outside disks' hits (``D`` is
    symmetric).
    """
    involved = np.zeros(radii.shape, dtype=np.int64)
    rows, disks = np.nonzero(outside)
    partners = np.empty(len(rows), dtype=np.int64)
    for k in range(0, len(rows), step):
        row, disk = rows[k : k + step], disks[k : k + step]
        hits = distances[disk] > radii[row] + radii[row, disk][:, None]
        partners[k : k + step] = hits.sum(axis=1)
        # ``np.nonzero`` runs row-major: each row's disks are contiguous.
        first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        involved[row[first]] += np.add.reduceat(hits, first, axis=0, dtype=np.int64)
    involved[rows, disks] = partners
    return involved


def _emit(report: VpTrustReport) -> None:
    metrics = current_metrics()
    if metrics.enabled:
        metrics.gauge("vps_scored").set(len(report.verdicts))
        metrics.gauge("vps_untrusted").set(len(report.untrusted))
    events = current_events()
    if events.enabled:
        for verdict in report.untrusted:
            events.emit(
                "trust",
                "vp_untrusted",
                vp=verdict.name,
                reasons=",".join(verdict.reasons),
            )


def apply_trust(
    matrix: RttMatrix, report: VpTrustReport
) -> Tuple[RttMatrix, np.ndarray]:
    """Excise untrusted VP columns from a matrix.

    Returns ``(filtered_matrix, excised_per_target)`` where the second
    element counts, per target row, the non-NaN samples that were
    removed — the confidence-downgrade input (a target that lost
    samples is honestly labelled rather than silently re-judged on
    thinner data).  When every VP is trusted the *original matrix
    object* is returned with an all-zero count: the trust layer is
    output-neutral on clean rosters.
    """
    untrusted = set(report.untrusted_names)
    if not untrusted:
        return matrix, np.zeros(matrix.n_targets, dtype=np.int64)
    keep = [j for j, name in enumerate(matrix.vp_names) if name not in untrusted]
    if not keep:
        raise ValueError("trust filtering would excise every vantage point")
    dropped = np.ones(matrix.n_vps, dtype=bool)
    dropped[keep] = False
    excised = (~np.isnan(matrix.rtt_ms[:, dropped])).sum(axis=1).astype(np.int64)
    filtered = replace(
        matrix,
        vp_names=[matrix.vp_names[j] for j in keep],
        vp_locations=[matrix.vp_locations[j] for j in keep],
        rtt_ms=np.ascontiguousarray(matrix.rtt_ms[:, keep]),
        sample_count=np.ascontiguousarray(matrix.sample_count[:, keep]),
    )
    return filtered, excised


def trust_gate(
    matrix: RttMatrix, health_reports: Iterable["CampaignHealthReport"] = ()
) -> Tuple[RttMatrix, np.ndarray, VpTrustReport]:
    """The trust stage: score the roster, excise the convicted, tell the
    censuses' health reports who went and why.

    Returns ``(matrix, excised_per_target, report)``.  On a clean roster
    nothing is convicted, the very same matrix object comes back with an
    all-zero excision count and no health report is touched — the
    neutrality invariant of the trust layer.
    """
    report = score_vps(matrix)
    matrix, excised = apply_trust(matrix, report)
    if report.untrusted_names:
        reasons = report.reasons_by_vp()
        for health in health_reports:
            health.absorb_trust(report.untrusted_names, reasons)
    return matrix, excised, report

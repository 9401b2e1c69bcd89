"""The solo-violation peel against the dense all-pairs test it replaced.

Pass 2 of :func:`score_vps` counts, per target row, the disjoint disk
pairs each VP is part of.  It scans only the rows detection's witness /
certificate filter cannot certify, pair-tests only each row's outside
disks, and after round 1 rescans only the rows that still violated.
The dense (rows, V, V) peel it replaced lives on here as the oracle: the
whole report — every verdict field and ``sol_check_aborted`` — must be
equal, not close.
"""

from __future__ import annotations

import functools
from typing import NamedTuple
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.census.combine import RttMatrix, combine_censuses
from repro.geo.cities import default_city_db
from repro.geo.coords import GeoPoint
from repro.geo.disks import FIBER_SPEED_KM_PER_MS
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.faults import VpDistortionPlan
from repro.measurement.platform import planetlab_platform
from repro.obs import Tracer, use_tracer
from repro.resilience import vptrust
from repro.resilience.vptrust import (
    TRUST_REASON_NEGATIVE_RTT,
    TRUST_REASON_STUCK_RTT,
    VpTrustReport,
    VpTrustVerdict,
    apply_trust,
    score_vps,
)


def dense_solo_peel(matrix, rtt, present, surviving, scorable, col_samples, policy, chunk=256):
    """The all-pairs peel the filtered one replaced, kept as its oracle.

    Every round tests every ordered pair of every row with a
    (chunk, V, V) temporary, inactive columns silenced at radius +inf.
    """
    n_targets, n_vps = rtt.shape
    distances = matrix.vp_distance_matrix()
    radii = rtt / 2.0 * policy.speed_km_per_ms
    sol_flag = np.zeros(n_vps, dtype=bool)
    solo_rates = np.zeros(n_vps, dtype=np.float64)
    violation_rate = np.zeros(n_vps, dtype=np.float64)
    max_solo = int(policy.max_excised_fraction * int(surviving.sum()))
    sol_aborted = False
    rows_violating = 0
    rounds = 0
    # Each VP's own rows (its disk the row's smallest) and how many of
    # them hold a disk disjoint from it, over the whole pass-2 cohort.
    safe = np.where(present & surviving[None, :], radii, np.inf)
    nearest = safe.argmin(axis=1)
    smallest = safe[np.arange(n_targets), nearest]
    measured = np.isfinite(smallest)
    disjoint = (distances[nearest] > smallest[:, None] + safe).any(axis=1)
    own = np.bincount(nearest[measured], minlength=n_vps)
    own_violating = np.bincount(nearest[measured & disjoint], minlength=n_vps)
    located = own > 2 * own_violating
    while True:
        active = surviving & ~sol_flag
        safe = np.where(present & active[None, :], radii, np.inf)
        solo_counts = np.zeros(n_vps, dtype=np.int64)
        raw_counts = np.zeros(n_vps, dtype=np.int64)
        raw_pairs = np.zeros(n_vps, dtype=np.int64)
        for start in range(0, n_targets, chunk):
            block = safe[start : start + chunk]
            sums = block[:, :, None] + block[:, None, :]
            violations = distances[None, :, :] > sums
            involved = violations.sum(axis=2)  # (t, n): pairs touching VP j
            total = involved.sum(axis=1)  # (t,): 2 x violating pairs
            solo = (involved > 0) & (2 * involved == total[:, None])
            solo_counts += solo.sum(axis=0)
            if rounds == 0:
                both = present[start : start + chunk] & active[None, :]
                raw_counts += involved.sum(axis=0)
                raw_pairs += (both.sum(axis=1)[:, None] * both - both).sum(axis=0)
                rows_violating += int((total > 0).sum())
        rates = solo_counts / np.maximum(col_samples, 1)
        solo_rates = np.where(active, rates, solo_rates)
        if rounds == 0:
            violation_rate = raw_counts / np.maximum(raw_pairs, 1)
        rounds += 1
        cohort = rates[scorable & active]
        if cohort.size >= policy.min_roster:
            cohort_median = float(np.median(cohort))
            cohort_mad = float(np.median(np.abs(cohort - cohort_median)))
            scale = max(1.4826 * cohort_mad, policy.solo_mad_floor)
            threshold = max(policy.solo_margin, cohort_median + policy.solo_z * scale)
        else:
            threshold = np.inf
        candidates = scorable & active & ~located & (rates > threshold)
        if not bool(candidates.any()):
            break
        if int(sol_flag.sum()) >= max_solo:
            sol_aborted = True
            sol_flag[:] = False
            break
        worst = int(np.argmax(np.where(candidates, rates, -1.0)))
        sol_flag[worst] = True
    return vptrust._Peel(
        sol_flag, solo_rates, violation_rate, sol_aborted, rows_violating, rounds
    )


def oracle_score_vps(matrix, policy=None):
    """:func:`score_vps` with the dense peel in place of the filtered one."""
    with mock.patch.object(vptrust, "_solo_peel", dense_solo_peel):
        return score_vps(matrix, policy)


def traced_score(matrix, policy=None):
    """``(report, span attrs)`` of one :func:`score_vps` under a span."""
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("trust"):
        report = score_vps(matrix, policy)
    return report, tracer.to_dicts()[0]["attrs"]


def assert_equals_oracle(matrix, policy=None):
    report, attrs = traced_score(matrix, policy)
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("trust"):
        expected = oracle_score_vps(matrix, policy)
    assert report.sol_check_aborted == expected.sol_check_aborted
    for got, want in zip(report.verdicts, expected.verdicts, strict=True):
        assert got == want, got.name
    assert attrs == tracer.to_dicts()[0]["attrs"]
    return report


# ---------------------------------------------------------------------------
# Matrices: synthetic rosters over real coordinates, and the campaign worlds
# the engine's regression tests pin.


class Synthetic(NamedTuple):
    """A roster over real coordinates and its physically-derived RTT rows.

    Rows answer from one server (unicast) or several (anycast, each VP
    reaching its nearest); ``liars`` columns measure from a displaced
    position (fabricated violations) and ``bloated`` ones add hundreds
    of ms; ``negative`` / ``stuck`` add one skewed-clock / constant
    column; ``nan_row`` blanks one whole row.
    """

    seed: int
    n_vps: int
    n_rows: int
    anycast_share: float = 0.3
    liars: int = 0
    bloated: int = 0
    hole_rate: float = 0.0
    negative: bool = False
    stuck: bool = False
    nan_row: bool = False
    clustered: bool = False


def random_point(rng, clustered=False):
    if clustered:  # a continental cluster: honest sole witnesses abound
        return GeoPoint(float(rng.uniform(35, 60)), float(rng.uniform(-10, 30)))
    return GeoPoint(float(rng.uniform(-55, 65)), float(rng.uniform(-179, 179)))


def rtt_row(rng, vps, servers):
    """Each VP's RTT to its nearest server: inflated propagation plus noise."""
    best = np.min([[vp.distance_km(s) for vp in vps] for s in servers], axis=0)
    stretch = rng.uniform(1.0, 1.6, size=len(vps))
    return 2.0 * best * stretch / FIBER_SPEED_KM_PER_MS + rng.exponential(3.0, len(vps)) + 0.5


def synthetic_matrix(spec: Synthetic) -> RttMatrix:
    rng = np.random.default_rng(spec.seed)
    vps = [random_point(rng, spec.clustered) for _ in range(spec.n_vps)]
    claimed = list(vps)
    for j in range(min(spec.liars, spec.n_vps)):
        claimed[j] = random_point(rng)  # measures from vps[j], claims elsewhere
    rows = []
    for _ in range(spec.n_rows):
        n_sites = int(rng.integers(2, 6)) if rng.random() < spec.anycast_share else 1
        rows.append(rtt_row(rng, vps, [random_point(rng) for _ in range(n_sites)]))
    rtt = np.array(rows, dtype=np.float64).reshape(spec.n_rows, spec.n_vps)
    for j in range(spec.liars, min(spec.liars + spec.bloated, spec.n_vps)):
        rtt[:, j] += rng.uniform(250.0, 450.0)
    if spec.negative and spec.n_vps:
        rtt[:, -1] -= 300.0
    if spec.stuck and spec.n_vps > 1:
        rtt[:, -2] = 37.5
    rtt[rng.random(rtt.shape) < spec.hole_rate] = np.nan
    if spec.nan_row and spec.n_rows:
        rtt[int(rng.integers(spec.n_rows))] = np.nan
    return RttMatrix(
        prefixes=np.arange(spec.n_rows, dtype=np.uint32) << 8,
        vp_names=[f"vp-{j:03d}" for j in range(spec.n_vps)],
        vp_locations=claimed,
        rtt_ms=rtt.astype(np.float32),
        sample_count=np.ones(rtt.shape, dtype=np.uint8),
    )


#: The distortion kinds of ``test_vptrust``'s minority property.
NON_GEOMETRIC = ("clock_skew", "bufferbloat", "stuck_rtt")
#: Every kind (``VpDistortionPlan``'s default).
ALL_KINDS = ("clock_skew", "bufferbloat", "geo_error", "stuck_rtt")


@functools.lru_cache(maxsize=None)
def diverse_world():
    """``test_vptrust``'s diverse 30-VP roster over a sparse-anycast universe."""
    internet = SyntheticInternet(
        InternetConfig(seed=7, n_unicast_slash24=3000, tail_deployments=5)
    )
    return internet, planetlab_platform(count=30, seed=11, city_db=default_city_db())


@functools.lru_cache(maxsize=None)
def distorted_matrix(fraction: float, seed: int, kinds=NON_GEOMETRIC) -> RttMatrix:
    """The diverse world's keyed census under a distorted minority."""
    internet, platform = diverse_world()
    plan = VpDistortionPlan(fraction=fraction, seed=seed, kinds=kinds)
    campaign = CensusCampaign(internet, platform, seed=99, noise="keyed", distortion=plan)
    return combine_censuses([campaign.run_census(availability=1.0)])


@functools.lru_cache(maxsize=None)
def excision_cap_matrix() -> RttMatrix:
    """``TestExcisionCap``'s 12-VP clustered world: the peel aborts."""
    db = default_city_db()
    internet = SyntheticInternet(
        InternetConfig(seed=2015, n_unicast_slash24=150, tail_deployments=4)
    )
    platform = planetlab_platform(count=12, seed=41, city_db=db)
    campaign = CensusCampaign(internet, platform, seed=500, noise="keyed")
    return combine_censuses([campaign.run_census(availability=1.0)])


def build(spec) -> RttMatrix:
    if isinstance(spec, Synthetic):
        return synthetic_matrix(spec)
    if spec == ("excision-cap",):
        return excision_cap_matrix()
    kind, *plan = spec
    assert kind == "distorted"
    return distorted_matrix(*plan)


synthetic_specs = st.builds(
    Synthetic,
    seed=st.integers(0, 2**32 - 1),
    n_vps=st.integers(0, 24),
    n_rows=st.integers(0, 120),
    anycast_share=st.sampled_from([0.0, 0.1, 0.3, 0.8]),
    liars=st.integers(0, 4),
    bloated=st.integers(0, 2),
    hole_rate=st.sampled_from([0.0, 0.1, 0.5]),
    negative=st.booleans(),
    stuck=st.booleans(),
    nan_row=st.booleans(),
    clustered=st.booleans(),
)


class TestPeelEqualsDenseOracle:
    @given(spec=synthetic_specs)
    # ``test_vptrust``'s corpus: the pinned minority example first.
    @example(spec=("distorted", 0.125, 16528))
    @example(spec=("distorted", 0.0, 0))
    @example(spec=("distorted", 0.2, 4242, ALL_KINDS))
    @example(spec=("distorted", 0.1, 777, ALL_KINDS))
    @example(spec=("distorted", 0.2, 31337, ("geo_error",)))
    @example(spec=("distorted", 0.1, 777, ("stuck_rtt",)))
    @example(spec=("distorted", 0.25, 2215641, ALL_KINDS))
    @example(spec=("distorted", 0.3, 7))
    @example(spec=("excision-cap",))
    @example(spec=Synthetic(seed=3, n_vps=16, n_rows=90, liars=2, negative=True, stuck=True))
    @example(spec=Synthetic(seed=5, n_vps=12, n_rows=60, nan_row=True, hole_rate=0.1))
    @example(spec=Synthetic(seed=8, n_vps=3, n_rows=40, liars=1))
    @example(spec=Synthetic(seed=13, n_vps=14, n_rows=100, anycast_share=0.8, clustered=True))
    @settings(max_examples=60, deadline=None)
    def test_report_equals_oracle(self, spec):
        """Every verdict field, ``sol_check_aborted`` and the span's
        ``rows_violating`` / ``peel_rounds`` match the dense peel."""
        assert_equals_oracle(build(spec))

    def test_pinned_examples_exercise_the_peel(self):
        """The pinned examples reach the outcomes the property must cover."""
        aborted = score_vps(excision_cap_matrix())
        assert aborted.sol_check_aborted
        distorted = score_vps(distorted_matrix(0.125, 16528))
        assert set(distorted.untrusted_names) == {"planetlab-0005-kr", "planetlab-0008-tw"}
        physics = score_vps(
            synthetic_matrix(Synthetic(seed=3, n_vps=16, n_rows=90, liars=2, negative=True, stuck=True))
        )
        reasons = physics.reasons_by_vp()
        assert reasons["vp-015"] == [TRUST_REASON_NEGATIVE_RTT]
        assert reasons["vp-014"] == [TRUST_REASON_STUCK_RTT]
        small, attrs = traced_score(synthetic_matrix(Synthetic(seed=8, n_vps=3, n_rows=40, liars=1)))
        assert small.untrusted_names == [] and attrs == {"rows_violating": 0, "peel_rounds": 0}

    def test_block_size_does_not_change_the_report(self, monkeypatch):
        """Blocks of one (row, disk) cell give the one-block report."""
        matrix = synthetic_matrix(Synthetic(seed=21, n_vps=9, n_rows=70, liars=2, hole_rate=0.1))
        whole = score_vps(matrix)
        monkeypatch.setattr(vptrust, "_BLOCK_CELLS", 1)
        assert score_vps(matrix) == whole
        assert whole == oracle_score_vps(matrix)

    def test_only_violating_rows_are_rescanned(self, monkeypatch):
        """Round 1 scans every row; later rounds only last round's
        violators, a subset that never grows."""
        scanned = []
        peel_round = vptrust._peel_round

        def spy(distances, rtt, present, active, rows, speed):
            scanned.append(rows)
            return peel_round(distances, rtt, present, active, rows, speed)

        monkeypatch.setattr(vptrust, "_peel_round", spy)
        matrix = distorted_matrix(0.2, 31337, ("geo_error",))
        _, attrs = traced_score(matrix)
        assert attrs["peel_rounds"] == len(scanned) >= 3
        assert len(scanned[0]) == matrix.n_targets
        assert len(scanned[1]) == attrs["rows_violating"] < matrix.n_targets
        for earlier, later in zip(scanned[1:], scanned[2:]):
            assert set(later.tolist()) <= set(earlier.tolist())


class TestApplyTrust:
    def test_wide_roster_excision_is_unchanged(self):
        """At 160 VPs the one-mask excision keeps the matrix and the
        per-row excised counts of the per-column definition."""
        matrix = synthetic_matrix(Synthetic(seed=160, n_vps=160, n_rows=50, hole_rate=0.3))
        convicted = set(matrix.vp_names[::7])
        report = VpTrustReport(
            verdicts=[
                VpTrustVerdict(
                    name=name,
                    trusted=name not in convicted,
                    reasons=[] if name not in convicted else ["stuck-rtt"],
                )
                for name in matrix.vp_names
            ]
        )
        filtered, excised = apply_trust(matrix, report)
        keep = [j for j, name in enumerate(matrix.vp_names) if name not in convicted]
        drop = [j for j, name in enumerate(matrix.vp_names) if name in convicted]
        assert filtered.vp_names == [matrix.vp_names[j] for j in keep]
        assert filtered.vp_locations == [matrix.vp_locations[j] for j in keep]
        assert filtered.rtt_ms.tobytes() == matrix.rtt_ms[:, keep].tobytes()
        assert filtered.sample_count.tobytes() == matrix.sample_count[:, keep].tobytes()
        expected = sum((~np.isnan(matrix.rtt_ms[:, j])).astype(np.int64) for j in drop)
        assert excised.dtype == np.int64
        assert np.array_equal(excised, expected)

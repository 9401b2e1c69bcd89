"""Tests for speed-of-light-violation detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import detection
from repro.core.detection import (
    CERTIFICATE_SLACK_KM,
    detect,
    detection_mask,
    detection_mask_rtt,
    radius_matrix,
)
from repro.core.samples import LatencySample
from repro.geo.coords import GeoPoint, pairwise_distances_km
from repro.geo.disks import FIBER_SPEED_KM_PER_MS
from repro.measurement.platform import planetlab_platform, ripe_platform
from repro.obs import Tracer, use_tracer

PARIS = GeoPoint(48.86, 2.35)
NYC = GeoPoint(40.71, -74.01)
TOKYO = GeoPoint(35.68, 139.65)
SYDNEY = GeoPoint(-33.87, 151.21)

VPS = [PARIS, NYC, TOKYO, SYDNEY]


def rtt_for(vp: GeoPoint, server: GeoPoint, stretch: float = 1.3) -> float:
    """A physically-consistent RTT from vp to a server and back."""
    return 2.0 * vp.distance_km(server) * stretch / FIBER_SPEED_KM_PER_MS + 1.0


class TestDetect:
    def test_unicast_never_detected(self):
        """Samples consistent with one physical server must not trigger."""
        server = GeoPoint(50.11, 8.68)  # Frankfurt
        samples = [
            LatencySample(f"vp{i}", vp, rtt_for(vp, server)) for i, vp in enumerate(VPS)
        ]
        assert not detect(samples).is_anycast

    def test_two_replica_anycast_detected(self):
        # Replicas in Paris and Tokyo: each VP reaches the close one with a
        # small RTT, so the Paris and Tokyo disks cannot intersect.
        samples = [
            LatencySample("p", PARIS, 2.0),
            LatencySample("t", TOKYO, 2.0),
        ]
        result = detect(samples)
        assert result.is_anycast
        assert result.witness is not None

    def test_single_sample_undetectable(self):
        assert not detect([LatencySample("p", PARIS, 1.0)]).is_anycast

    def test_empty(self):
        result = detect([])
        assert not result.is_anycast
        assert result.sample_count == 0

    def test_min_rtt_dedup_applied(self):
        # A large stale RTT from Paris would mask the violation; the fresh
        # minimum restores it.
        samples = [
            LatencySample("p", PARIS, 200.0),
            LatencySample("p", PARIS, 2.0),
            LatencySample("t", TOKYO, 2.0),
        ]
        assert detect(samples).is_anycast

    def test_conservative_with_huge_rtts(self):
        # Two replicas but congested paths: disks cover everything, no
        # violation, no detection — conservative by design.
        samples = [
            LatencySample("p", PARIS, 400.0),
            LatencySample("t", TOKYO, 400.0),
        ]
        assert not detect(samples).is_anycast

    @given(st.floats(min_value=1.0, max_value=2.0), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_no_false_positive_property(self, stretch, seed):
        """For any physical server and inflation, unicast stays unicast."""
        rng = np.random.default_rng(seed)
        server = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180)))
        samples = [
            LatencySample(
                f"vp{i}", vp, rtt_for(vp, server, stretch) + float(rng.exponential(5.0))
            )
            for i, vp in enumerate(VPS)
        ]
        assert not detect(samples).is_anycast


def dense_detection_mask(vp_distances_km, radii_km, chunk=64):
    """The all-pairs test the filter replaced, kept as its oracle.

    O(T·V²) with a (chunk, V, V) temporary: every ordered pair, diagonal
    included, NaN radii standing in as +inf.
    """
    radii_km = np.asarray(radii_km, dtype=np.float64)
    safe = np.where(np.isnan(radii_km), np.inf, radii_km)
    out = np.zeros(len(safe), dtype=bool)
    for start in range(0, len(safe), chunk):
        block = safe[start : start + chunk]
        sums = block[:, :, None] + block[:, None, :]
        out[start : start + chunk] = (vp_distances_km[None, :, :] > sums).any(axis=(1, 2))
    return out


def gap_matrix(points):
    lats = [p.lat for p in points]
    lons = [p.lon for p in points]
    return pairwise_distances_km(lats, lons, lats, lons)


def filter_counts(vp_dist, radii):
    """(witnessed, certified, residue) row counts off the detection span."""
    tracer = Tracer()
    with use_tracer(tracer):
        detection_mask(vp_dist, radii)
    attrs = tracer.to_dicts()[0]["attrs"]
    return attrs["witnessed"], attrs["certified"], attrs["residue"]


@st.composite
def rosters_and_radii(draw):
    """A roster (co-located VPs included) and a radius matrix whose rows
    mix the three filter outcomes with the degenerate cells."""
    n_vps = draw(st.integers(min_value=1, max_value=9))
    n_rows = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = [
        GeoPoint(float(rng.uniform(-75, 75)), float(rng.uniform(-179, 179)))
        for _ in range(n_vps)
    ]
    if n_vps > 2 and draw(st.booleans()):
        points[-1] = points[0]  # co-located pair: a zero gap off the diagonal
    vp_dist = gap_matrix(points)
    rows = []
    for _ in range(n_rows):
        kind = rng.integers(7)
        if kind == 0:  # one server, inflated paths: certificate (or residue)
            server = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 179)))
            row = np.array(
                [p.distance_km(server) * rng.uniform(1.0, 1.6) + rng.uniform(0, 80) for p in points]
            )
        elif kind == 1:  # small disks everywhere: witness
            row = rng.uniform(0.0, 300.0, size=n_vps)
        elif kind == 2:  # mid-range: whichever way the geometry falls
            row = rng.uniform(500.0, 9000.0, size=n_vps)
        elif kind == 3:  # quantized: exact ties, zeros
            row = rng.choice([0.0, 100.0, 2500.0, 2500.0, 8000.0], size=n_vps)
        elif kind == 4:  # radii touching the gaps exactly
            row = vp_dist[rng.integers(n_vps)] / 2.0
        elif kind == 5:  # a negative radius: the diagonal 0 > 2r must still flag
            row = rng.uniform(200.0, 9000.0, size=n_vps)
            row[rng.integers(n_vps)] = -rng.uniform(0.0, 50.0)
        else:  # two equal disks just missing each other under a smaller third
            i, j, m = rng.permutation(n_vps)[[0, -1, n_vps // 2]]
            row = np.full(n_vps, 20000.0)
            row[i] = row[j] = vp_dist[i, j] / 2.0 - rng.uniform(0.0, 50.0)
            row[m] = row[i] - rng.uniform(0.0, 100.0)
        row = np.where(rng.random(n_vps) < draw(st.sampled_from([0.0, 0.3, 1.0])), np.nan, row)
        rows.append(row)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return vp_dist, np.array(rows, dtype=dtype)


class TestDetectionMask:
    def make_matrix(self, rows):
        return gap_matrix(VPS), radius_matrix(np.array(rows, dtype=np.float64))

    def test_matches_object_level(self):
        server = GeoPoint(50.11, 8.68)
        unicast_row = [rtt_for(vp, server) for vp in VPS]
        anycast_row = [2.0, 2.0, 2.0, 2.0]  # impossible for one server
        vp_dist, radii = self.make_matrix([unicast_row, anycast_row])
        mask = detection_mask(vp_dist, radii)
        assert mask.tolist() == [False, True]

    def test_nan_never_witnesses(self):
        row = [2.0, np.nan, np.nan, np.nan]
        vp_dist, radii = self.make_matrix([row])
        assert not detection_mask(vp_dist, radii)[0]

    def test_chunking_equivalence(self, monkeypatch):
        rng = np.random.default_rng(0)
        rows = rng.uniform(1.0, 400.0, size=(40, 4))
        vp_dist, radii = self.make_matrix(rows.tolist())
        monkeypatch.setattr(detection, "_BLOCK_CELLS", 3 * 4)  # 3 rows a block
        a = detection_mask(vp_dist, radii)
        monkeypatch.setattr(detection, "_BLOCK_CELLS", 1 << 20)
        b = detection_mask(vp_dist, radii)
        assert a.any() and not a.all()
        assert np.array_equal(a, b)
        assert np.array_equal(a, dense_detection_mask(vp_dist, radii))

    def test_shape_mismatch_rejected(self):
        vp_dist, radii = self.make_matrix([[1.0, 1.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            detection_mask(vp_dist[:2, :2], radii)

    def test_radius_matrix_conversion(self):
        radii = radius_matrix(np.array([[10.0]]))
        assert radii[0, 0] == pytest.approx(5.0 * FIBER_SPEED_KM_PER_MS)

    @given(rosters_and_radii())
    @settings(max_examples=200, deadline=None)
    def test_filter_equals_dense_oracle(self, case):
        """Witness / certificate / residue decide exactly the all-pairs test."""
        vp_dist, radii = case
        assert np.array_equal(
            detection_mask(vp_dist, radii), dense_detection_mask(vp_dist, radii)
        )

    @given(rosters_and_radii(), st.sampled_from([FIBER_SPEED_KM_PER_MS, 150.0]))
    @settings(max_examples=50, deadline=None)
    def test_rtt_entry_equals_radius_entry(self, case, speed):
        vp_dist, rtt = case
        assert np.array_equal(
            detection_mask_rtt(vp_dist, rtt, speed),
            dense_detection_mask(vp_dist, radius_matrix(rtt, speed)),
        )

    def test_every_filter_outcome_exercised(self):
        """One row per outcome, each agreeing with the oracle."""
        server = GeoPoint(50.11, 8.68)  # Frankfurt, nearest VP is Paris
        certified = [2.0 * vp.distance_km(server) for vp in VPS]
        witnessed = [100.0, 100.0, 100.0, 100.0]
        # Paris' disk just misses NYC's location but every pair overlaps.
        gap = PARIS.distance_km(NYC)
        residue = [0.6 * gap, 0.5 * gap, 20000.0, 20000.0]
        vp_dist = gap_matrix(VPS)
        radii = np.array([certified, witnessed, residue])
        assert filter_counts(vp_dist, radii) == (1, 1, 1)
        assert detection_mask(vp_dist, radii).tolist() == [False, True, False]
        # ... and a residue row that the pair test does flag: the smallest
        # disk (Paris) reaches both others, NYC and Tokyo miss each other.
        half = NYC.distance_km(TOKYO) / 2.0 - 10.0
        flagged = [[half - 100.0, half, half, np.nan]]
        assert filter_counts(vp_dist, np.array(flagged)) == (0, 0, 1)
        assert detection_mask(vp_dist, np.array(flagged)).tolist() == [True]

    def test_degenerate_rosters(self):
        one = np.zeros((1, 1))
        radii = np.array([[5.0], [0.0], [-1.0], [np.nan]])
        assert detection_mask(one, radii).tolist() == [False, False, True, False]
        assert not detection_mask(np.zeros((0, 0)), np.zeros((3, 0))).any()
        assert detection_mask(gap_matrix(VPS), np.zeros((0, 4))).shape == (0,)

    def test_memmapped_float32_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        rtt = rng.uniform(1.0, 120.0, size=(300, 4)).astype(np.float32)
        rtt[rng.random(rtt.shape) < 0.2] = np.nan
        plane = np.memmap(tmp_path / "rtt.f32", dtype=np.float32, mode="w+", shape=rtt.shape)
        plane[:] = rtt
        vp_dist = gap_matrix(VPS)
        want = dense_detection_mask(vp_dist, radius_matrix(rtt))
        assert want.any() and not want.all()
        assert np.array_equal(detection_mask_rtt(vp_dist, plane), want)


class TestTriangleDefect:
    """The certificate's premise: the gap matrix is a metric up to a
    float defect far below the slack."""

    @pytest.mark.parametrize(
        "platform",
        [planetlab_platform(), ripe_platform(count=500)],
        ids=["planetlab-308", "ripe-500"],
    )
    def test_roster_defect_below_slack(self, platform):
        gaps = gap_matrix([vp.location for vp in platform.vantage_points])
        assert np.array_equal(gaps, gaps.T)
        assert not gaps.diagonal().any()
        defect = max(
            float((gaps - via[:, None] - via[None, :]).max()) for via in gaps
        )
        assert defect < CERTIFICATE_SLACK_KM / 1000.0


class TestToleranceSeam:
    """``detection_mask`` tests ``D > r_i + r_j``; iGreedy's overlap allows
    1e-9 km more.  A pair inside that band is flagged by the mask and
    waved through by iGreedy (no witness, no replicas)."""

    def test_seam_exists_on_float64_radii(self):
        gap = PARIS.distance_km(TOKYO)
        half_ms = (gap - 5e-10) / FIBER_SPEED_KM_PER_MS  # both radii: (gap - 5e-10) / 2
        radii = radius_matrix(np.array([[half_ms, half_ms]]))
        assert 0.0 < gap - radii.sum() < 1e-9
        assert detection_mask(gap_matrix([PARIS, TOKYO]), radii)[0]
        samples = [LatencySample("p", PARIS, half_ms), LatencySample("t", TOKYO, half_ms)]
        assert not detect(samples).is_anycast

    def test_no_seam_row_on_small_study(self, small_study):
        analysis = small_study.analysis
        assert analysis.n_anycast == len(analysis.results) > 0
        assert all(result.is_anycast for result in analysis.results.values())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_no_seam_row_through_float32_rtts(self, seed):
        """RTTs aimed inside the band: the float32 plane is ~1e5 times too
        coarse to land there, so every flagged row stays anycast."""
        from repro.census.analysis import analyze_matrix
        from repro.census.combine import RttMatrix

        rng = np.random.default_rng(seed)
        points = [
            GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)))
            for _ in range(4)
        ]
        vp_dist = gap_matrix(points)
        rtt = np.full((12, 4), 400.0)
        for row in rtt:
            i, j = rng.choice(4, size=2, replace=False)
            share = rng.uniform(0.2, 0.8)
            target = vp_dist[i, j] - rng.uniform(0.0, 1e-9)  # r_i + r_j aimed here
            row[i] = 2.0 * share * target / FIBER_SPEED_KM_PER_MS
            row[j] = 2.0 * (1.0 - share) * target / FIBER_SPEED_KM_PER_MS
        rtt = rtt.astype(np.float32)
        matrix = RttMatrix(
            prefixes=np.arange(1, 13, dtype=np.uint32),
            vp_names=[f"vp-{k}" for k in range(4)],
            vp_locations=points,
            rtt_ms=rtt,
            sample_count=np.ones(rtt.shape, dtype=np.uint8),
        )
        analysis = analyze_matrix(matrix, min_samples=1)
        assert len(analysis.results) == analysis.n_anycast
        assert all(result.is_anycast for result in analysis.results.values())

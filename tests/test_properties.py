"""Cross-module invariants and failure injection.

These tests exercise whole-pipeline properties that no single module owns:
detection soundness under arbitrary noise, conservativeness of enumeration
under fuzzed deployments, and graceful behaviour under degenerate inputs
(empty universes, dead platforms, all-degraded censuses).
"""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.census import fastpath
from repro.census.analysis import analyze_matrix
from repro.census.combine import RttMatrix, combine_censuses, matrix_from_census
from repro.core.igreedy import IGreedyConfig, igreedy
from repro.core.samples import LatencySample
from repro.geo.cities import default_city_db
from repro.geo.coords import GeoPoint
from repro.geo.disks import FIBER_SPEED_KM_PER_MS
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.platform import planetlab_platform
from repro.measurement.recordio import CensusRecords


class TestDetectionSoundnessFuzz:
    """No false positives, whatever the world looks like."""

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_fuzzed_worlds_never_false_positive(self, seed, city_db):
        internet = SyntheticInternet(
            InternetConfig(seed=seed, n_unicast_slash24=250, tail_deployments=10),
            city_db=city_db,
        )
        platform = planetlab_platform(count=40, seed=seed, city_db=city_db)
        campaign = CensusCampaign(internet, platform, seed=seed)
        census = campaign.run_census(availability=1.0)
        analysis = analyze_matrix(matrix_from_census(census), city_db=city_db)
        truly = {int(p) for p, a in zip(internet.prefixes, internet.is_anycast) if a}
        assert set(analysis.anycast_prefixes) <= truly

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=1.0, max_value=2.0),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_enumeration_never_exceeds_sites(self, n_sites, stretch, seed):
        """Property: strict iGreedy counts <= true site count, for any
        deployment geometry and noise level."""
        db = default_city_db()
        rng = np.random.default_rng(seed)
        cities = list(db.cities)
        sites = [cities[i] for i in rng.choice(len(cities), n_sites, replace=False)]
        vps = [cities[i] for i in rng.choice(len(cities), 25, replace=False)]
        samples = []
        for vp in vps:
            nearest = min(sites, key=lambda s: vp.location.distance_km(s.location))
            distance = vp.location.distance_km(nearest.location)
            rtt = 2.0 * distance * stretch / FIBER_SPEED_KM_PER_MS
            rtt += float(rng.exponential(3.0))
            samples.append(LatencySample(f"{vp.name},{vp.country}", vp.location, rtt))
        result = igreedy(samples, city_db=db)
        assert result.replica_count <= n_sites

    def test_sample_order_does_not_change_verdict(self, city_db):
        db = city_db
        sites = [db.get("New York"), db.get("Tokyo"), db.get("Frankfurt")]
        vps = [db.get(n) for n in ("Paris", "Chicago", "Seoul", "Sydney", "Madrid")]
        samples = []
        for vp in vps:
            nearest = min(sites, key=lambda s: vp.location.distance_km(s.location))
            rtt = 2.0 * vp.location.distance_km(nearest.location) * 1.2 / FIBER_SPEED_KM_PER_MS + 1
            samples.append(LatencySample(vp.name, vp.location, rtt))
        forward = igreedy(samples, city_db=db)
        backward = igreedy(list(reversed(samples)), city_db=db)
        assert forward.is_anycast == backward.is_anycast
        assert forward.city_names == backward.city_names


@st.composite
def measured_worlds(draw):
    """A random roster and an RTT matrix of unicast and anycast targets.

    Every RTT is propagation to the nearest of the target's sites times a
    stretch, plus queueing — physically possible, so any detection is one
    the geometry forces.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_vps = draw(st.integers(min_value=3, max_value=10))
    points = [
        GeoPoint(float(rng.uniform(-65, 65)), float(rng.uniform(-179, 179)))
        for _ in range(n_vps)
    ]
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        sites = [
            GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-179, 179)))
            for _ in range(rng.integers(1, 5))
        ]
        row = [
            2.0 * min(p.distance_km(s) for s in sites) * rng.uniform(1.0, 1.5)
            / FIBER_SPEED_KM_PER_MS + rng.exponential(2.0)
            for p in points
        ]
        rows.append(np.where(rng.random(n_vps) < 0.15, np.nan, row))
    return points, np.array(rows, dtype=np.float32), rng


def _matrix(points, rtt, prefixes=None, names=None):
    return RttMatrix(
        prefixes=(
            np.arange(1, len(rtt) + 1, dtype=np.uint32) if prefixes is None else prefixes
        ),
        vp_names=names or [f"vp-{k:02d}" for k in range(len(points))],
        vp_locations=list(points),
        rtt_ms=rtt,
        sample_count=(~np.isnan(rtt)).astype(np.uint8),
    )


def _verdicts(points, rtt):
    return analyze_matrix(_matrix(points, rtt), min_samples=2).anycast_mask


class TestDetectionMetamorphic:
    """Physics the detection tier must respect whatever the kernel."""

    @given(measured_worlds())
    @settings(max_examples=40, deadline=None)
    def test_inflating_rtts_never_adds_a_detection(self, world):
        points, rtt, rng = world
        inflated = rtt + np.where(
            rng.random(rtt.shape) < 0.5, rng.exponential(20.0, rtt.shape), 0.0
        ).astype(np.float32)
        assert not (_verdicts(points, inflated) & ~_verdicts(points, rtt)).any()

    @given(measured_worlds())
    @settings(max_examples=40, deadline=None)
    def test_adding_a_vp_never_removes_a_detection(self, world):
        points, rtt, _ = world
        without = _verdicts(points[:-1], np.ascontiguousarray(rtt[:, :-1]))
        assert not (without & ~_verdicts(points, rtt)).any()


class TestAnalysisOrderInvariance:
    """Neither the target order nor the roster order is an input: the one
    census engine cuts rows into blocks and scans columns in matrix order,
    and neither may show in a result."""

    @given(measured_worlds(), st.sampled_from([True, False]))
    @settings(max_examples=40, deadline=None)
    def test_permuting_target_rows_keeps_every_per_prefix_result(self, world, strict):
        points, rtt, rng = world
        config = IGreedyConfig(strict_enumeration=strict)
        matrix = _matrix(points, rtt)
        order = rng.permutation(len(rtt))
        shuffled = _matrix(
            points, np.ascontiguousarray(rtt[order]), prefixes=matrix.prefixes[order]
        )
        # Three rows a block: the permutation moves rows across blocks.
        with mock.patch.object(fastpath, "_BLOCK_CELLS", 3 * len(points)):
            base = analyze_matrix(matrix, config=config, min_samples=2)
            moved = analyze_matrix(shuffled, config=config, min_samples=2)
        assert np.array_equal(moved.anycast_mask, base.anycast_mask[order])
        assert moved.results == base.results

    @given(measured_worlds(), st.sampled_from([True, False]))
    @settings(max_examples=40, deadline=None)
    def test_permuting_vp_columns_keeps_mask_and_enumeration(self, world, strict):
        points, rtt, rng = world
        config = IGreedyConfig(strict_enumeration=strict)
        matrix = _matrix(points, rtt)
        order = rng.permutation(len(points))
        shuffled = _matrix(
            [points[k] for k in order],
            np.ascontiguousarray(rtt[:, order]),
            names=[matrix.vp_names[k] for k in order],
        )
        base = analyze_matrix(matrix, config=config, min_samples=2)
        moved = analyze_matrix(shuffled, config=config, min_samples=2)
        assert np.array_equal(moved.anycast_mask, base.anycast_mask)
        # Samples order by (RTT, VP name) and every tie-break downstream
        # is by sample slot, so the whole result survives, not just the mask.
        assert moved.results == base.results


class TestRecordIoFuzz:
    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_binary_roundtrip_any_content(self, n, seed):
        rng = np.random.default_rng(seed)
        flags = rng.choice(np.array([0, -13, -10, -9, 1], dtype=np.int8), size=n)
        rtt = np.where(flags == 0, rng.uniform(0.01, 4000.0, n), np.nan).astype(np.float32)
        records = CensusRecords(
            census_id=int(rng.integers(0, 2**16)),
            vp_index=rng.integers(0, 2**16, n).astype(np.uint16),
            prefix=rng.integers(0, 2**24, n).astype(np.uint32),
            timestamp_ms=np.sort(rng.uniform(0, 1e9, n)),
            rtt_ms=rtt,
            flag=flags,
        )
        buf = io.BytesIO()
        records.write_binary(buf)
        buf.seek(0)
        back = CensusRecords.read_binary(buf)
        assert np.array_equal(back.vp_index, records.vp_index)
        assert np.array_equal(back.prefix, records.prefix)
        assert np.array_equal(back.flag, records.flag)
        mask = flags == 0
        assert np.allclose(back.rtt_ms[mask], records.rtt_ms[mask], atol=0.006)


class TestCombinationProperties:
    def test_combination_idempotent(self, tiny_census):
        once = combine_censuses([tiny_census])
        twice = combine_censuses([tiny_census, tiny_census])
        both_nan = np.isnan(once.rtt_ms) & np.isnan(twice.rtt_ms)
        assert (both_nan | np.isclose(once.rtt_ms, twice.rtt_ms)).all()

    def test_combination_order_invariant(self, tiny_campaign):
        c1 = tiny_campaign.run_census(availability=0.9)
        c2 = tiny_campaign.run_census(availability=0.9)
        ab = combine_censuses([c1, c2])
        ba = combine_censuses([c2, c1])
        assert ab.n_targets == ba.n_targets
        # Same cells, same minima (column order may differ).
        cols = [ba.vp_names.index(n) for n in ab.vp_names]
        a, b = ab.rtt_ms, ba.rtt_ms[:, cols]
        rows = np.searchsorted(ba.prefixes, ab.prefixes)
        b = ba.rtt_ms[rows][:, cols]
        both_nan = np.isnan(a) & np.isnan(b)
        assert (both_nan | np.isclose(a, b)).all()


class TestDegenerateInputs:
    def test_empty_unicast_world(self, city_db):
        from repro.internet.catalog import TOP100_ENTRIES

        internet = SyntheticInternet(
            InternetConfig(seed=1, n_unicast_slash24=0, tail_deployments=0),
            catalog=[TOP100_ENTRIES[0]],
            city_db=city_db,
        )
        assert internet.n_targets == internet.n_anycast_slash24 == 328

    def test_single_vp_cannot_detect(self, city_db):
        internet = SyntheticInternet(
            InternetConfig(seed=2, n_unicast_slash24=50, tail_deployments=2),
            city_db=city_db,
        )
        platform = planetlab_platform(count=1, seed=3, city_db=city_db)
        campaign = CensusCampaign(internet, platform, seed=4)
        census = campaign.run_census(availability=1.0)
        analysis = analyze_matrix(matrix_from_census(census), city_db=city_db)
        assert analysis.n_anycast == 0  # one disk can never violate

    def test_all_degraded_census_still_sound(self, city_db):
        internet = SyntheticInternet(
            InternetConfig(seed=5, n_unicast_slash24=100, tail_deployments=5),
            city_db=city_db,
        )
        platform = planetlab_platform(count=30, seed=6, city_db=city_db)
        campaign = CensusCampaign(internet, platform, seed=7, degraded_fraction=1.0)
        census = campaign.run_census(availability=1.0)
        analysis = analyze_matrix(matrix_from_census(census), city_db=city_db)
        truly = {int(p) for p, a in zip(internet.prefixes, internet.is_anycast) if a}
        # Soundness holds even when every node is degraded (RTT inflation
        # only shrinks recall, never creates violations).
        assert set(analysis.anycast_prefixes) <= truly

    def test_igreedy_identical_samples(self, city_db):
        paris = city_db.get("Paris")
        samples = [LatencySample("a", paris.location, 5.0)] * 4
        result = igreedy(samples, city_db=city_db)
        assert not result.is_anycast

    def test_igreedy_zero_rtt(self, city_db):
        paris, tokyo = city_db.get("Paris"), city_db.get("Tokyo")
        samples = [
            LatencySample("a", paris.location, 0.0),
            LatencySample("b", tokyo.location, 0.0),
        ]
        result = igreedy(samples, city_db=city_db)
        assert result.is_anycast
        assert result.replica_count == 2

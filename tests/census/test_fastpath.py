"""Unit tests for the array-native analysis engine internals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.census.combine import RttMatrix, matrix_from_census
from repro.census.fastpath import FastAnalysisEngine, SharedGeometry, overlap_rows
from repro.core.geolocation import classify_disk, classify_nearest
from repro.core.igreedy import IGreedyConfig
from repro.geo.cities import City, CityDB
from repro.geo.coords import GeoPoint
from repro.geo.disks import Disk, overlap_matrix


@pytest.fixture(scope="module")
def matrix(tiny_census):
    return matrix_from_census(tiny_census)


@pytest.fixture(scope="module")
def geometry(matrix, city_db):
    return SharedGeometry(matrix, city_db)


class TestVpDistanceCache:
    def test_cached_instance_reused(self, matrix):
        first = matrix.vp_distance_matrix()
        assert matrix.vp_distance_matrix() is first

    def test_cache_read_only(self, matrix):
        with pytest.raises(ValueError):
            matrix.vp_distance_matrix()[0, 0] = 1.0


class TestSharedGeometry:
    def test_overlap_slice_matches_disk_objects(self, matrix, geometry):
        """Gathered gap row + radii sum == overlap_matrix on fresh disks."""
        rng = np.random.default_rng(3)
        vp_indices = np.stack(
            [rng.choice(matrix.n_vps, size=12, replace=False) for _ in range(5)]
        )
        radii = rng.uniform(50.0, 4000.0, size=vp_indices.shape)
        radii[:, -2:] = np.nan  # padding slots overlap nothing
        for slot in range(10):
            got = overlap_rows(
                geometry.vp_gap, vp_indices, radii, np.full(len(vp_indices), slot)
            )
            for t in range(len(vp_indices)):
                disks = [
                    Disk(center=matrix.vp_locations[v], radius_km=float(r))
                    for v, r in zip(vp_indices[t, :10], radii[t, :10])
                ]
                assert np.array_equal(overlap_matrix(disks)[slot], got[t, :10])
                assert not got[t, 10:].any()

    def test_target_arrays_match_sample_ordering(self, matrix, city_db):
        """(vp_index, rtt) planes reproduce min_rtt_samples order per row."""
        from repro.core.samples import LatencySample, min_rtt_samples

        engine = FastAnalysisEngine(matrix, city_db=city_db)
        rows = np.nonzero((~np.isnan(matrix.rtt_ms)).sum(axis=1) >= 3)[0][:8]
        vp_indices, rtt, n_samples = engine.sorted_samples(rows)
        for k, row in enumerate(rows):
            samples = min_rtt_samples(
                [
                    LatencySample(vp_name=n, vp_location=loc, rtt_ms=r)
                    for n, loc, r in matrix.samples_for(int(matrix.prefixes[row]))
                ]
            )
            n = int(n_samples[k])
            assert n == len(samples)
            assert [matrix.vp_names[j] for j in vp_indices[k, :n]] == [
                s.vp_name for s in samples
            ]
            assert rtt[k, :n].tolist() == [s.rtt_ms for s in samples]
            assert np.isnan(rtt[k, n:]).all()

    def test_combined_matrix_blocks(self, matrix, geometry, city_db):
        """The (V+C)^2 matrix agrees with the per-block caches."""
        combined = geometry.combined
        n = matrix.n_vps
        assert combined.shape == (n + len(city_db), n + len(city_db))
        assert np.array_equal(combined[:n, :n], geometry.vp_gap)
        assert np.array_equal(combined[n:, :n], geometry.city_vp)


class TestBatchedClassification:
    def test_matches_per_disk_classifier(self, city_db):
        rng = np.random.default_rng(9)
        disks = [
            Disk(
                center=city_db.cities[i].location,
                radius_km=float(rng.uniform(0.0, 3000.0)),
            )
            for i in rng.choice(len(city_db), size=20, replace=False)
        ]
        for exponent in (1.0, 0.0, 2.0, 0.5, 1.5):
            batched = city_db.classify_disks(disks, population_exponent=exponent)
            for disk, got in zip(disks, batched):
                expected = classify_disk(disk, city_db, population_exponent=exponent)
                if expected is None:
                    expected = classify_nearest(disk, city_db)
                assert got == expected

    def test_negative_exponent_rejected(self, city_db):
        with pytest.raises(ValueError):
            city_db.classify_disks([], population_exponent=-1.0)

    def test_center_distances_shape_validated(self, city_db):
        disk = Disk(center=city_db.cities[0].location, radius_km=10.0)
        with pytest.raises(ValueError):
            city_db.classify_disks([disk], center_distances=np.zeros((3, 1)))

    def test_population_array_read_only(self, city_db):
        with pytest.raises(ValueError):
            city_db.population_array()[0] = 1.0


#: How a drawn disk's radius relates to the distance ``d`` from its VP to
#: an anchor city: on the inside-set boundary, just either side of it,
#: degenerate, or short of the nearest city (an empty inside set).
RADIUS_KINDS = {
    "exact": lambda d, nearest: d,
    "above": lambda d, nearest: d + 1e-9,
    "below": lambda d, nearest: max(d - 1e-9, 0.0),
    "zero": lambda d, nearest: 0.0,
    "globe": lambda d, nearest: 20_100.0,
    "empty": lambda d, nearest: nearest / 2.0,
}


@st.composite
def tied_worlds(draw):
    """A small gazetteer full of ties, and a matrix over VPs partly on its cities.

    Cities share a few locations (distance ties) and a few populations
    (weight ties), one of them non-integral so that exponent 1 also
    takes the per-disk total.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def point():
        return GeoPoint(float(rng.uniform(-60.0, 60.0)), float(rng.uniform(-170.0, 170.0)))

    spots = [point() for _ in range(3)]
    n_cities = draw(st.integers(min_value=1, max_value=12))
    db = CityDB(
        City(
            f"c{i}",
            "XX",
            spots[int(rng.integers(len(spots)))] if rng.random() < 0.5 else point(),
            float(rng.choice([1.0, 2.0, 3.0, 2.5, 40.0])),
        )
        for i in range(n_cities)
    )
    vps = [point() for _ in range(3)] + [db.city_at(int(i)).location for i in rng.integers(n_cities, size=2)]
    rtt = np.zeros((1, len(vps)), dtype=np.float32)
    matrix = RttMatrix(
        prefixes=np.array([1], dtype=np.uint32),
        vp_names=[f"vp-{i}" for i in range(len(vps))],
        vp_locations=vps,
        rtt_ms=rtt,
        sample_count=np.ones(rtt.shape, dtype=np.uint8),
    )
    return db, matrix


class TestDiskTables:
    """The per-VP table kernel is the per-disk oracle, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        world=tied_worlds(),
        exponent=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
        draws=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=11),
                st.sampled_from(sorted(RADIUS_KINDS)),
            ),
            min_size=1,
            max_size=24,
        ),
    )
    def test_kernel_matches_classify_disk(self, world, exponent, draws):
        db, matrix = world
        engine = FastAnalysisEngine(
            matrix, city_db=db, config=IGreedyConfig(population_exponent=exponent)
        )
        distances = engine.geometry.city_vp
        vps = [v for v, _, _ in draws]
        radii = [
            RADIUS_KINDS[kind](float(distances[anchor % len(db), v]), float(distances[:, v].min()))
            for v, anchor, kind in draws
        ]
        replicas, cities = engine.classify_vp_disks(vps, radii)
        assert len(replicas) == len(draws)
        for v, r, got, city in zip(vps, radii, replicas, cities.tolist()):
            disk = Disk(center=matrix.vp_locations[v], radius_km=r)
            expected = classify_disk(disk, db, population_exponent=exponent)
            if expected is None:
                expected = classify_nearest(disk, db)
            assert got.disk == disk
            assert got.city == expected.city == db.city_at(city)
            assert got.confidence.hex() == expected.confidence.hex()


class TestReplicaCache:
    def test_cache_hit_skips_recomputation(self, matrix, city_db):
        engine = FastAnalysisEngine(matrix, city_db=city_db, config=IGreedyConfig())
        first, _ = engine.classify_vp_disks([0, 1], [500.0, 900.0])
        assert len(engine._replica_cache) == 2
        again, _ = engine.classify_vp_disks([0, 1], [500.0, 900.0])
        assert len(engine._replica_cache) == 2
        assert [id(a) for a in first] == [id(b) for b in again]

    def test_cache_entries_carry_city_index(self, matrix, city_db):
        engine = FastAnalysisEngine(matrix, city_db=city_db, config=IGreedyConfig())
        (replica,), cities = engine.classify_vp_disks([2], [1500.0])
        assert cities.tolist() == [city_db.cities.index(replica.city)]


class TestCityDbAccessors:
    def test_index_of_round_trips(self, city_db):
        for i in (0, 7, len(city_db) - 1):
            assert city_db.index_of(city_db.city_at(i)) == i

    def test_index_of_unknown_city_raises(self, city_db):
        from repro.geo.cities import City
        from repro.geo.coords import GeoPoint

        stranger = City("Atlantis", "XX", GeoPoint(0.0, 0.0), 1.0)
        with pytest.raises(KeyError):
            city_db.index_of(stranger)

    def test_spherical_centroid(self, city_db):
        paris = city_db.index_of(city_db.get("Paris"))
        centroid = city_db.spherical_centroid([paris])
        assert centroid.distance_km(city_db.get("Paris").location) < 1.0
        with pytest.raises(ValueError):
            city_db.spherical_centroid([])

"""Unit tests for the array-native analysis engine internals."""

import numpy as np
import pytest

from repro.census.combine import matrix_from_census
from repro.census.fastpath import FastAnalysisEngine, SharedGeometry, overlap_rows
from repro.core.geolocation import classify_disk, classify_nearest
from repro.core.igreedy import IGreedyConfig
from repro.geo.cities import default_city_db
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
        for exponent in (1.0, 0.0, 2.0):
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


class TestReplicaCache:
    def test_cache_hit_skips_recomputation(self, matrix, city_db):
        engine = FastAnalysisEngine(matrix, city_db=city_db, config=IGreedyConfig())
        first = engine.classify_vp_disks([0, 1], [500.0, 900.0])
        assert len(engine._replica_cache) == 2
        again = engine.classify_vp_disks([0, 1], [500.0, 900.0])
        assert len(engine._replica_cache) == 2
        assert [id(a[0]) for a in first] == [id(b[0]) for b in again]

    def test_cache_entries_carry_city_index(self, matrix, city_db):
        engine = FastAnalysisEngine(matrix, city_db=city_db, config=IGreedyConfig())
        ((replica, city_idx),) = engine.classify_vp_disks([2], [1500.0])
        assert city_db.city_at(city_idx) == replica.city


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

"""Tests for geodesic coordinate primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import (
    EARTH_RADIUS_KM,
    MAX_SURFACE_DISTANCE_KM,
    GeoPoint,
    centroid,
    destination_point,
    destination_points,
    distances_to_point_km,
    great_circle_km,
    initial_bearing_deg,
    midpoint,
    pairwise_distances_km,
)

PARIS = GeoPoint(48.8566, 2.3522)
NEW_YORK = GeoPoint(40.7128, -74.0060)
SYDNEY = GeoPoint(-33.8688, 151.2093)

lat_st = st.floats(min_value=-89.9, max_value=89.9)
lon_st = st.floats(min_value=-180.0, max_value=180.0)
point_st = st.builds(GeoPoint, lat_st, lon_st)


class TestGeoPoint:
    def test_valid_construction(self):
        p = GeoPoint(45.0, -120.0)
        assert p.lat == 45.0
        assert p.lon == -120.0

    def test_latitude_bounds_enforced(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-90.5, 0.0)

    def test_longitude_bounds_enforced(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -180.1)

    def test_poles_and_antimeridian_allowed(self):
        GeoPoint(90.0, 0.0)
        GeoPoint(-90.0, 0.0)
        GeoPoint(0.0, 180.0)
        GeoPoint(0.0, -180.0)

    def test_hashable_and_equal(self):
        assert GeoPoint(1.0, 2.0) == GeoPoint(1.0, 2.0)
        assert len({GeoPoint(1.0, 2.0), GeoPoint(1.0, 2.0)}) == 1

    def test_as_radians(self):
        lat, lon = GeoPoint(90.0, -180.0).as_radians()
        assert lat == pytest.approx(math.pi / 2)
        assert lon == pytest.approx(-math.pi)


class TestGreatCircle:
    def test_zero_distance_to_self(self):
        assert PARIS.distance_km(PARIS) == pytest.approx(0.0, abs=1e-9)

    def test_known_paris_new_york(self):
        # Reference geodesic distance ~5837 km.
        assert PARIS.distance_km(NEW_YORK) == pytest.approx(5837, rel=0.01)

    def test_known_quarter_meridian(self):
        equator = GeoPoint(0.0, 0.0)
        pole = GeoPoint(90.0, 0.0)
        assert equator.distance_km(pole) == pytest.approx(
            math.pi * EARTH_RADIUS_KM / 2, rel=1e-6
        )

    def test_antipodal_is_max_distance(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        assert a.distance_km(b) == pytest.approx(MAX_SURFACE_DISTANCE_KM, rel=1e-9)

    @given(point_st, point_st)
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        assert a.distance_km(b) == pytest.approx(b.distance_km(a), abs=1e-6)

    @given(point_st, point_st)
    @settings(max_examples=60)
    def test_bounded_by_half_circumference(self, a, b):
        assert 0.0 <= a.distance_km(b) <= MAX_SURFACE_DISTANCE_KM + 1e-6

    @given(point_st, point_st, point_st)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_km(c) <= a.distance_km(b) + b.distance_km(c) + 1e-6


class TestVectorized:
    def test_matches_scalar(self):
        points = [PARIS, NEW_YORK, SYDNEY]
        lats = [p.lat for p in points]
        lons = [p.lon for p in points]
        matrix = pairwise_distances_km(lats, lons, lats, lons)
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                assert matrix[i, j] == pytest.approx(a.distance_km(b), abs=1e-6)

    def test_shape(self):
        matrix = pairwise_distances_km([0, 1], [0, 1], [0, 1, 2], [0, 1, 2])
        assert matrix.shape == (2, 3)

    def test_distances_to_point(self):
        d = distances_to_point_km([PARIS.lat, SYDNEY.lat], [PARIS.lon, SYDNEY.lon], NEW_YORK)
        assert d[0] == pytest.approx(PARIS.distance_km(NEW_YORK), abs=1e-6)
        assert d[1] == pytest.approx(SYDNEY.distance_km(NEW_YORK), abs=1e-6)

    def test_empty_input(self):
        matrix = pairwise_distances_km([], [], [0.0], [0.0])
        assert matrix.shape == (0, 1)


class TestBearingAndDestination:
    def test_bearing_due_north(self):
        assert initial_bearing_deg(GeoPoint(0, 0), GeoPoint(10, 0)) == pytest.approx(0.0)

    def test_bearing_due_east(self):
        assert initial_bearing_deg(GeoPoint(0, 0), GeoPoint(0, 10)) == pytest.approx(90.0)

    def test_bearing_range(self):
        b = initial_bearing_deg(SYDNEY, PARIS)
        assert 0.0 <= b < 360.0

    def test_destination_zero_distance(self):
        p = destination_point(PARIS, 123.0, 0.0)
        assert p.distance_km(PARIS) == pytest.approx(0.0, abs=1e-6)

    def test_destination_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            destination_point(PARIS, 0.0, -1.0)

    @given(point_st, st.floats(min_value=0, max_value=360),
           st.floats(min_value=0, max_value=5000))
    @settings(max_examples=60)
    def test_destination_distance_roundtrip(self, origin, bearing, distance):
        dest = destination_point(origin, bearing, distance)
        assert origin.distance_km(dest) == pytest.approx(distance, abs=1e-3)

    def test_destination_longitude_normalized(self):
        # Travelling east across the antimeridian stays in [-180, 180].
        p = destination_point(GeoPoint(0.0, 179.5), 90.0, 200.0)
        assert -180.0 <= p.lon <= 180.0


class TestDestinationPoints:
    """The array form must equal the scalar one bit for bit: the unicast
    half of every synthetic world is built with it."""

    @staticmethod
    def assert_bitwise(lats, lons, bearings, distances):
        got_lats, got_lons = destination_points(
            np.asarray(lats), np.asarray(lons), np.asarray(bearings), np.asarray(distances)
        )
        want = [
            destination_point(GeoPoint(lat, lon), bearing, distance)
            for lat, lon, bearing, distance in zip(lats, lons, bearings, distances)
        ]
        assert [x.hex() for x in got_lats.tolist()] == [p.lat.hex() for p in want]
        assert [x.hex() for x in got_lons.tolist()] == [p.lon.hex() for p in want]

    def test_random_points_match_scalar_bitwise(self):
        rng = np.random.default_rng(20151028)
        n = 20_000
        self.assert_bitwise(
            rng.uniform(-90.0, 90.0, n).tolist(),
            rng.uniform(-180.0, 180.0, n).tolist(),
            rng.uniform(0.0, 360.0, n).tolist(),
            rng.uniform(0.0, 20_000.0, n).tolist(),
        )

    def test_edges_match_scalar_bitwise(self):
        # Poles, the antimeridian, zero and half-circumference distances.
        lats = [90.0, -90.0, 0.0, 0.0, 45.0, -0.0, 89.999999, 0.0]
        lons = [0.0, 180.0, 179.5, -180.0, 0.0, -0.0, 10.0, 0.0]
        bearings = [0.0, 180.0, 90.0, 270.0, 360.0, 0.0, 0.0, 45.0]
        distances = [100.0, 100.0, 200.0, 0.0, MAX_SURFACE_DISTANCE_KM, 0.0, 1.0, 1e-12]
        self.assert_bitwise(lats, lons, bearings, distances)

    def test_empty(self):
        lats, lons = destination_points(np.empty(0), np.empty(0), np.empty(0), np.empty(0))
        assert lats.shape == lons.shape == (0,)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            destination_points(np.zeros(2), np.zeros(2), np.zeros(2), np.array([1.0, -1.0]))


class TestMidpointCentroid:
    def test_midpoint_equidistant(self):
        m = midpoint(PARIS, NEW_YORK)
        assert m.distance_km(PARIS) == pytest.approx(m.distance_km(NEW_YORK), rel=1e-6)

    def test_midpoint_on_geodesic(self):
        m = midpoint(PARIS, NEW_YORK)
        total = PARIS.distance_km(NEW_YORK)
        assert m.distance_km(PARIS) + m.distance_km(NEW_YORK) == pytest.approx(total, rel=1e-6)

    def test_centroid_of_single_point(self):
        c = centroid([PARIS])
        assert c.distance_km(PARIS) == pytest.approx(0.0, abs=1e-6)

    def test_centroid_symmetric_pair(self):
        c = centroid([GeoPoint(10, 0), GeoPoint(-10, 0)])
        assert c.lat == pytest.approx(0.0, abs=1e-9)
        assert c.lon == pytest.approx(0.0, abs=1e-9)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_centroid_degenerate_raises(self):
        with pytest.raises(ValueError):
            centroid([GeoPoint(0, 0), GeoPoint(0, 180)])

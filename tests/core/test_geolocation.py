"""Tests for population-biased replica geolocation."""

import pytest

from repro.core.geolocation import classify_disk, classify_nearest, geolocation_error_km
from repro.geo.cities import default_city_db
from repro.geo.coords import GeoPoint
from repro.geo.disks import Disk


def match_replicas_to_truth(predicted, truth) -> dict:
    """Greedy one-to-one matching of predicted cities to true cities.

    Returns a dict with ``true_positives`` (exact city matches),
    ``errors_km`` (distance of each mispredicted replica to its closest
    unmatched true city), ``recall`` (matched fraction of truth) and
    ``precision`` (exact-match fraction of the predictions).  ``"tpr"``
    is an alias of ``"precision"``: the ratio divides by the *predicted*
    count, which is precision, not a true-positive rate.
    """
    remaining = list(truth)
    tp = 0
    errors = []
    for city in predicted:
        if city in remaining:
            remaining.remove(city)
            tp += 1
            continue
        if remaining:
            nearest = min(remaining, key=lambda t: geolocation_error_km(city, t))
            errors.append(geolocation_error_km(city, nearest))
            remaining.remove(nearest)
    precision = tp / len(predicted) if predicted else 0.0
    return {
        "true_positives": tp,
        "errors_km": errors,
        "recall": (len(truth) - len(remaining)) / len(truth) if truth else 1.0,
        "precision": precision,
        "tpr": precision,
    }


@pytest.fixture(scope="module")
def db():
    return default_city_db()


class TestClassifyDisk:
    def test_picks_largest_city(self, db):
        # Disk around western Europe: Paris (largest nearby) must win over
        # Brussels/Amsterdam.
        disk = Disk(db.get("Brussels").location, 300.0)
        replica = classify_disk(disk, db)
        assert replica is not None
        assert replica.city.name == "Paris"

    def test_ashburn_misclassified_as_philadelphia(self, db):
        """The paper's documented failure: population bias wins."""
        disk = Disk(db.get("Ashburn", "US").location, 260.0)
        replica = classify_disk(disk, db)
        assert replica.city.name == "Philadelphia"

    def test_uniform_prior_picks_nearest(self, db):
        """population_exponent=0 removes the bias: Ashburn is recovered."""
        disk = Disk(db.get("Ashburn", "US").location, 260.0)
        replica = classify_disk(disk, db, population_exponent=0.0)
        assert replica.city.name == "Ashburn"

    def test_empty_disk_returns_none(self, db):
        assert classify_disk(Disk(GeoPoint(-48.0, -120.0), 5.0), db) is None

    def test_confidence_in_unit_interval(self, db):
        disk = Disk(db.get("Paris").location, 500.0)
        replica = classify_disk(disk, db)
        assert 0.0 < replica.confidence <= 1.0

    def test_single_candidate_full_confidence(self, db):
        disk = Disk(db.get("Reykjavik").location, 50.0)
        replica = classify_disk(disk, db)
        assert replica.city.name == "Reykjavik"
        assert replica.confidence == pytest.approx(1.0)

    def test_negative_exponent_rejected(self, db):
        with pytest.raises(ValueError):
            classify_disk(Disk(GeoPoint(0, 0), 100.0), db, population_exponent=-1.0)

    def test_stronger_bias_monotone(self, db):
        """Raising the exponent can only favour bigger cities."""
        disk = Disk(db.get("Ashburn", "US").location, 260.0)
        weak = classify_disk(disk, db, population_exponent=0.5)
        strong = classify_disk(disk, db, population_exponent=2.0)
        assert strong.city.population >= weak.city.population


class TestClassifyNearest:
    def test_nearest_fallback(self, db):
        disk = Disk(GeoPoint(-47.0, -122.0), 5.0)  # empty South Pacific disk
        replica = classify_nearest(disk, db)
        assert replica.confidence == 0.0
        assert replica.city is db.nearest(disk.center)


class TestErrorMetrics:
    def test_error_zero_for_same_city(self, db):
        c = db.get("Paris")
        assert geolocation_error_km(c, c) == 0.0

    def test_known_error(self, db):
        # Ashburn <-> Philadelphia is ~250-300 km (the paper quotes 260 km).
        err = geolocation_error_km(db.get("Ashburn", "US"), db.get("Philadelphia"))
        assert 200 <= err <= 320

    def test_match_all_correct(self, db):
        cities = [db.get("Paris"), db.get("Tokyo")]
        out = match_replicas_to_truth(cities, cities)
        assert out["true_positives"] == 2
        assert out["precision"] == 1.0
        assert out["recall"] == 1.0
        assert out["errors_km"] == []

    def test_match_partial(self, db):
        predicted = [db.get("Paris"), db.get("Reston", "US")]
        truth = [db.get("Paris"), db.get("Ashburn", "US")]
        out = match_replicas_to_truth(predicted, truth)
        assert out["true_positives"] == 1
        assert out["precision"] == 0.5
        assert len(out["errors_km"]) == 1
        assert out["errors_km"][0] < 50  # Reston is near Ashburn

    def test_tpr_is_deprecated_alias_of_precision(self, db):
        # The quantity divides by the predicted count — precision.  The
        # historical "tpr" key must keep returning the same value.
        predicted = [db.get("Paris"), db.get("Tokyo"), db.get("Reston", "US")]
        truth = [db.get("Paris"), db.get("Tokyo")]
        out = match_replicas_to_truth(predicted, truth)
        assert out["precision"] == out["tpr"] == pytest.approx(2 / 3)

    def test_match_empty_truth(self, db):
        out = match_replicas_to_truth([db.get("Paris")], [])
        assert out["recall"] == 1.0
        assert out["true_positives"] == 0

    def test_match_empty_prediction(self, db):
        out = match_replicas_to_truth([], [db.get("Paris")])
        assert out["tpr"] == 0.0
        assert out["recall"] == 0.0

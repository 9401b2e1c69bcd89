"""Unit tests for the scan driver's policy and report, and the
campaign's quarantine counter."""

import pytest

from repro.exec import ExecutionReport, ShardedExecutor
from repro.measurement.faults import StrikeCounter


class TestExecutionPolicy:
    """The driver's whole policy: a thread count and a deadline."""

    def test_defaults_are_sane(self):
        driver = ShardedExecutor()
        assert driver.workers == 0
        assert driver.deadline_s is None

    def test_target_sharding_is_gone(self):
        # A scan unit is one VP: there is no second byte stream to select.
        with pytest.raises(TypeError):
            ShardedExecutor(n_target_shards=2)

    @pytest.mark.parametrize("kwargs", [{"workers": -1}, {"deadline_s": 0.0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ShardedExecutor(**kwargs)


class TestCircuitBreaker:
    """The campaign's quarantine counter: a :class:`StrikeCounter`."""

    def test_trips_exactly_once_at_threshold(self):
        breaker = StrikeCounter(3)
        assert breaker.record("vp", ok=False) is False
        assert breaker.record("vp", ok=False) is False
        assert breaker.record("vp", ok=False) is True
        assert breaker.tripped == ["vp"]
        # Tripped for good: a later success does not close it.
        assert breaker.record("vp", ok=True) is True
        assert breaker.tripped == ["vp"]

    def test_keys_are_independent(self):
        breaker = StrikeCounter(1)
        assert breaker.record("a", ok=False)
        assert not breaker.record("b", ok=True)
        assert breaker.tripped == ["a"]

    def test_open_keys_sorted(self):
        breaker = StrikeCounter(1)
        for key in ("z", "a", "m"):
            breaker.record(key, ok=False)
        assert breaker.tripped == ["a", "m", "z"]


class TestExecutionReport:
    def test_to_dict_is_json_shaped(self):
        import json

        report = ExecutionReport(workers=2, n_units=8)
        report.units_completed = 8
        report.scan_errors = {"vp-1": "ValueError: boom"}
        dumped = json.loads(json.dumps(report.finish().to_dict()))
        assert dumped["workers"] == 2
        assert dumped["units_completed"] == 8
        assert dumped["scan_errors"] == {"vp-1": "ValueError: boom"}
        assert dumped["wall_s"] >= 0.0

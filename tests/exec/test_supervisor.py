"""Unit tests for the process-free supervision machinery."""

import pytest

from repro.exec.errors import ReassignmentBudgetExceeded
from repro.exec.supervisor import (
    ExecutionPolicy,
    ExecutionReport,
    ReassignmentLedger,
)
from repro.measurement.faults import (
    StrikeCounter,
    WorkerFaultKind,
    WorkerFaultPlan,
)


class TestExecutionPolicy:
    def test_defaults_are_sane(self):
        policy = ExecutionPolicy()
        assert policy.workers == 2
        assert policy.deadline_s is None
        assert policy.worker_faults is None

    def test_default_budgets_scale_with_workers(self):
        policy = ExecutionPolicy(workers=4)
        assert policy.total_reassignment_budget == 4 * 4 + 8
        assert policy.respawn_budget == 2 * 4 + 2

    def test_target_sharding_is_gone(self):
        # A scan unit is one VP: there is no second byte stream to select.
        with pytest.raises(TypeError):
            ExecutionPolicy(n_target_shards=2)

    def test_explicit_budgets_win(self):
        policy = ExecutionPolicy(max_total_reassignments=5, max_respawns=1)
        assert policy.total_reassignment_budget == 5
        assert policy.respawn_budget == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"deadline_s": 0.0},
            {"liveness_timeout_s": 0.0},
            {"poll_interval_s": 0.0},
            {"prefetch": 0},
            {"max_reassignments_per_unit": -1},
            {"breaker_threshold": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)


class TestCircuitBreaker:
    """The engine's per-VP scan breaker: a :class:`StrikeCounter` at
    ``ExecutionPolicy.breaker_threshold``."""

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


class TestReassignmentLedger:
    def test_per_unit_budget_enforced(self):
        ledger = ReassignmentLedger(per_unit_budget=2, total_budget=100)
        ledger.charge(7)
        ledger.charge(7)
        with pytest.raises(ReassignmentBudgetExceeded) as exc:
            ledger.charge(7)
        assert exc.value.unit_id == 7
        assert ledger.attempts(7) == 2

    def test_total_budget_enforced(self):
        ledger = ReassignmentLedger(per_unit_budget=10, total_budget=3)
        for unit_id in range(3):
            ledger.charge(unit_id)
        with pytest.raises(ReassignmentBudgetExceeded) as exc:
            ledger.charge(3)
        assert exc.value.unit_id is None
        assert ledger.total == 3


class TestExecutionReport:
    def test_to_dict_is_json_shaped(self):
        import json

        report = ExecutionReport(workers=2, n_units=8)
        report.units_completed = 8
        report.breaker_open_vps = ["vp-1"]
        dumped = json.loads(json.dumps(report.finish().to_dict()))
        assert dumped["workers"] == 2
        assert dumped["units_completed"] == 8
        assert dumped["breaker_open_vps"] == ["vp-1"]
        assert dumped["wall_s"] >= 0.0


class TestWorkerFaultPlan:
    def test_disabled_by_default(self):
        assert not WorkerFaultPlan().enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerFaultPlan(dead_prob=1.5)
        with pytest.raises(ValueError):
            WorkerFaultPlan(dead_prob=0.7, wedged_prob=0.7)

    def test_explicit_ids_fire_on_first_task_only(self):
        plan = WorkerFaultPlan(dead_worker_ids=(1,), wedged_worker_ids=(2,))
        assert plan.fault_for(1, 1, 5, 0) is WorkerFaultKind.DEAD_WORKER
        assert plan.fault_for(2, 1, 5, 0) is WorkerFaultKind.WEDGED_WORKER
        assert plan.fault_for(1, 2, 5, 0) is None
        assert plan.fault_for(0, 1, 5, 0) is None

    def test_probabilistic_draws_are_keyed(self):
        """A draw belongs to (unit, attempt): the worker that makes it,
        and how many tasks that worker ran before, do not matter."""
        plan = WorkerFaultPlan(dead_prob=0.5, seed=42)
        draws = [(u, k) for u in range(4) for k in range(5)]
        fates = [plan.fault_for(0, 1, u, k) for u, k in draws]
        assert fates == [plan.fault_for(3, 7, u, k) for u, k in draws]
        assert any(fate is not None for fate in fates)
        assert any(fate is None for fate in fates)

"""Engine mechanics: dispatch, liveness, breakers, deadline, drain.

These tests drive :class:`ShardedExecutor` with a fake unit context (no
campaign, no numpy scans) so each supervision behaviour is observable in
isolation and in well under a second of injected fault time.  The
byte-determinism contract against the real campaign lives in
``tests/test_parallel_determinism.py``.
"""

import time

import pytest

from repro.exec.engine import ShardedExecutor
from repro.exec.errors import ReassignmentBudgetExceeded, WorkerLost
from repro.exec.plan import build_plan
from repro.exec.supervisor import (
    BREAKER_FAULT,
    DEADLINE_FAULT,
    ExecutionPolicy,
)
from repro.measurement.faults import WorkerFaultPlan

VPS = [(f"node-{i}", i, i, False) for i in range(4)]


class FakeContext:
    """Stand-in for UnitContext: units compute a tagged string result."""

    def __init__(self, units, fail_vps=(), delay_s=0.0, worker_faults=None):
        self.units = units
        self.fail_vps = set(fail_vps)
        self.delay_s = delay_s
        self.worker_faults = worker_faults

    def execute(self, unit_id):
        unit = self.units[unit_id]
        if self.delay_s:
            time.sleep(self.delay_s)
        if unit.vp_name in self.fail_vps:
            raise ValueError(f"poisoned input for {unit.vp_name}")
        return f"result:{unit.vp_name}"


def run_engine(policy, fail_vps=(), delay_s=0.0, vps=VPS, **run_kwargs):
    context = FakeContext(
        build_plan(vps),
        fail_vps=fail_vps,
        delay_s=delay_s,
        worker_faults=policy.worker_faults,
    )
    return ShardedExecutor(policy).run(context, **run_kwargs)


class TestInProcessEngine:
    def test_completes_every_vp(self):
        outcome = run_engine(ExecutionPolicy(workers=0))
        assert sorted(outcome.results) == [f"node-{i}" for i in range(4)]
        assert outcome.results["node-2"] == "result:node-2"
        assert outcome.failed == {}
        assert outcome.report.in_process
        assert outcome.report.units_completed == 4

    def test_breaker_trips_failing_vp_only(self):
        outcome = run_engine(
            ExecutionPolicy(workers=0, breaker_threshold=2), fail_vps=["node-1"]
        )
        assert outcome.failed == {"node-1": BREAKER_FAULT}
        assert "node-1" not in outcome.results
        assert len(outcome.results) == 3
        assert outcome.report.breaker_open_vps == ["node-1"]

    def test_deadline_fails_unfinished_vps(self):
        outcome = run_engine(
            ExecutionPolicy(workers=0, deadline_s=0.05), delay_s=0.04
        )
        assert outcome.report.deadline_hit
        assert outcome.failed
        assert all(tag == DEADLINE_FAULT for tag in outcome.failed.values())
        assert set(outcome.results) | set(outcome.failed) == {
            f"node-{i}" for i in range(4)
        }

    def test_should_stop_drains(self):
        calls = []

        def stop():
            calls.append(1)
            return len(calls) > 2

        outcome = run_engine(ExecutionPolicy(workers=0), should_stop=stop)
        assert outcome.report.interrupted
        assert len(outcome.results) < 4

    def test_vp_callback_takes_every_result(self):
        # A callback's return value means nothing: should_stop is the one
        # way to stop a run.  The callback takes each result it is
        # handed; nothing is retained next to it.
        taken = []

        def on_vp_complete(name, result):
            taken.append((name, result))
            return False

        outcome = run_engine(ExecutionPolicy(workers=0), on_vp_complete=on_vp_complete)
        assert not outcome.report.interrupted
        assert taken == [(f"node-{i}", f"result:node-{i}") for i in range(4)]
        assert outcome.results == {}


class TestPoolEngine:
    POLICY = dict(liveness_timeout_s=2.0, poll_interval_s=0.02)

    def test_completes_every_vp(self):
        outcome = run_engine(ExecutionPolicy(workers=2, **self.POLICY))
        assert sorted(outcome.results) == [f"node-{i}" for i in range(4)]
        assert not outcome.report.in_process
        assert outcome.report.workers == 2
        assert outcome.report.heartbeats > 0

    def test_scan_errors_trip_breaker_not_ledger(self):
        outcome = run_engine(
            ExecutionPolicy(workers=2, breaker_threshold=2, **self.POLICY),
            fail_vps=["node-3"],
        )
        assert outcome.failed == {"node-3": BREAKER_FAULT}
        assert len(outcome.results) == 3
        assert outcome.report.reassignments == 0
        assert outcome.report.workers_lost == 0

    def test_dead_worker_is_reassigned_and_respawned(self):
        faults = WorkerFaultPlan(dead_worker_ids=(0,))
        outcome = run_engine(
            ExecutionPolicy(workers=2, worker_faults=faults, **self.POLICY)
        )
        assert sorted(outcome.results) == [f"node-{i}" for i in range(4)]
        assert outcome.report.workers_lost == 1
        assert outcome.report.workers_respawned >= 1
        assert outcome.report.reassignments >= 1

    def test_wedged_worker_is_detected_and_replaced(self):
        faults = WorkerFaultPlan(wedged_worker_ids=(0,), wedge_seconds=30.0)
        outcome = run_engine(
            ExecutionPolicy(
                workers=2,
                worker_faults=faults,
                liveness_timeout_s=0.25,
                poll_interval_s=0.02,
            )
        )
        assert sorted(outcome.results) == [f"node-{i}" for i in range(4)]
        assert outcome.report.workers_wedged == 1
        assert outcome.report.reassignments >= 1

    def test_slow_worker_is_waited_out_not_killed(self):
        faults = WorkerFaultPlan(slow_worker_ids=(0,), slow_seconds=0.6)
        outcome = run_engine(
            ExecutionPolicy(
                workers=2,
                worker_faults=faults,
                liveness_timeout_s=0.25,
                poll_interval_s=0.02,
            )
        )
        assert sorted(outcome.results) == [f"node-{i}" for i in range(4)]
        assert outcome.report.workers_wedged == 0
        assert outcome.report.workers_lost == 0

    def test_relentless_deaths_exhaust_budgets(self):
        faults = WorkerFaultPlan(dead_prob=1.0)
        with pytest.raises((ReassignmentBudgetExceeded, WorkerLost)):
            run_engine(
                ExecutionPolicy(
                    workers=2,
                    worker_faults=faults,
                    max_reassignments_per_unit=2,
                    max_respawns=3,
                    **self.POLICY,
                )
            )

    def test_deadline_in_pool_mode(self):
        outcome = run_engine(
            ExecutionPolicy(workers=2, deadline_s=0.1, **self.POLICY),
            delay_s=0.2,
        )
        assert outcome.report.deadline_hit
        assert all(tag == DEADLINE_FAULT for tag in outcome.failed.values())

    def test_empty_plan_is_a_noop(self):
        outcome = run_engine(ExecutionPolicy(workers=2, **self.POLICY), vps=[])
        assert outcome.results == {}
        assert outcome.failed == {}
        assert outcome.report.n_units == 0

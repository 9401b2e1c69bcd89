"""Engine mechanics: dispatch, liveness, failed scans, deadline, drain.

These tests drive :class:`ShardedExecutor` with a fake ``execute`` (no
campaign, no numpy scans) so each supervision behaviour is observable in
isolation and in well under a second of injected fault time.  The
byte-determinism contract against the real campaign lives in
``tests/test_parallel_determinism.py``.
"""

import time
from typing import Dict, NamedTuple

import pytest

from repro.exec.engine import ShardedExecutor
from repro.exec.errors import ReassignmentBudgetExceeded, WorkerLost
from repro.exec.supervisor import (
    BREAKER_FAULT,
    DEADLINE_FAULT,
    ExecutionPolicy,
    ExecutionReport,
)
from repro.measurement.faults import WorkerFaultPlan
from repro.obs import Tracer, use_tracer

NAMES = [f"node-{i}" for i in range(4)]


class Run(NamedTuple):
    report: ExecutionReport
    #: Gave-up fault tags by VP name.
    failed: Dict[str, str]
    #: Results the completion callback took, by VP name.
    results: Dict[str, str]


def fake_execute(names, fail_vps=(), delay_s=0.0):
    """Units compute a tagged string result; ``fail_vps`` raise."""

    def execute(i):
        if delay_s:
            time.sleep(delay_s)
        if names[i] in fail_vps:
            raise ValueError(f"poisoned input for {names[i]}")
        return f"result:{names[i]}"

    return execute


def run_engine(policy, fail_vps=(), delay_s=0.0, names=NAMES, **run_kwargs):
    results = {}

    def on_complete(i, result):
        results[names[i]] = result

    report, failed = ShardedExecutor(policy).run(
        names, fake_execute(names, fail_vps, delay_s), on_complete, **run_kwargs
    )
    return Run(report, {names[i]: tag for i, tag in failed.items()}, results)


class TestInProcessEngine:
    def test_completes_every_vp(self):
        run = run_engine(ExecutionPolicy(workers=0))
        assert sorted(run.results) == NAMES
        assert run.results["node-2"] == "result:node-2"
        assert run.failed == {}
        assert run.report.in_process
        assert run.report.units_completed == 4

    def test_breaker_trips_failing_vp_only(self):
        run = run_engine(ExecutionPolicy(workers=0), fail_vps=["node-1"])
        assert run.failed == {"node-1": BREAKER_FAULT}
        assert "node-1" not in run.results
        assert len(run.results) == 3
        assert run.report.breaker_open_vps == ["node-1"]
        assert run.report.scan_errors == {
            "node-1": "ValueError: poisoned input for node-1"
        }

    def test_deadline_fails_unfinished_vps(self):
        run = run_engine(ExecutionPolicy(workers=0, deadline_s=0.05), delay_s=0.04)
        assert run.report.deadline_hit
        assert run.failed
        assert all(tag == DEADLINE_FAULT for tag in run.failed.values())
        assert set(run.results) | set(run.failed) == set(NAMES)

    def test_should_stop_drains(self):
        calls = []

        def stop():
            calls.append(1)
            return len(calls) > 2

        run = run_engine(ExecutionPolicy(workers=0), should_stop=stop)
        assert run.report.interrupted
        assert len(run.results) < 4

    def test_vp_callback_takes_every_result(self):
        # A callback's return value means nothing: should_stop is the one
        # way to stop a run.  The callback takes each result, in census
        # order in-process.
        taken = []

        def on_complete(i, result):
            taken.append((i, result))
            return False

        report, failed = ShardedExecutor(ExecutionPolicy(workers=0)).run(
            NAMES, fake_execute(NAMES), on_complete
        )
        assert not report.interrupted
        assert failed == {}
        assert taken == [(i, f"result:node-{i}") for i in range(4)]


class TestPoolEngine:
    POLICY = dict(liveness_timeout_s=2.0, poll_interval_s=0.02)

    def test_completes_every_vp(self):
        run = run_engine(ExecutionPolicy(workers=2, **self.POLICY))
        assert sorted(run.results) == NAMES
        assert not run.report.in_process
        assert run.report.workers == 2
        assert run.report.heartbeats > 0

    def test_scan_errors_trip_breaker_not_ledger(self):
        run = run_engine(
            ExecutionPolicy(workers=2, **self.POLICY), fail_vps=["node-3"]
        )
        assert run.failed == {"node-3": BREAKER_FAULT}
        assert len(run.results) == 3
        assert run.report.reassignments == 0
        assert run.report.workers_lost == 0

    def test_dead_worker_is_reassigned_and_respawned(self):
        faults = WorkerFaultPlan(dead_worker_ids=(0,))
        run = run_engine(
            ExecutionPolicy(workers=2, worker_faults=faults, **self.POLICY)
        )
        assert sorted(run.results) == NAMES
        assert run.report.workers_lost == 1
        assert run.report.workers_respawned >= 1
        assert run.report.reassignments >= 1

    def test_wedged_worker_is_detected_and_replaced(self):
        faults = WorkerFaultPlan(wedged_worker_ids=(0,), wedge_seconds=30.0)
        run = run_engine(
            ExecutionPolicy(
                workers=2,
                worker_faults=faults,
                liveness_timeout_s=0.25,
                poll_interval_s=0.02,
            )
        )
        assert sorted(run.results) == NAMES
        assert run.report.workers_wedged == 1
        assert run.report.reassignments >= 1

    def test_slow_worker_is_waited_out_not_killed(self):
        faults = WorkerFaultPlan(slow_worker_ids=(0,), slow_seconds=0.6)
        run = run_engine(
            ExecutionPolicy(
                workers=2,
                worker_faults=faults,
                liveness_timeout_s=0.25,
                poll_interval_s=0.02,
            )
        )
        assert sorted(run.results) == NAMES
        assert run.report.workers_wedged == 0
        assert run.report.workers_lost == 0

    def test_relentless_deaths_exhaust_budgets(self):
        faults = WorkerFaultPlan(dead_prob=1.0)
        with pytest.raises((ReassignmentBudgetExceeded, WorkerLost)):
            run_engine(
                ExecutionPolicy(
                    workers=2,
                    worker_faults=faults,
                    max_reassignments_per_unit=2,
                    **self.POLICY,
                )
            )

    def test_deadline_in_pool_mode(self):
        run = run_engine(
            ExecutionPolicy(workers=2, deadline_s=0.1, **self.POLICY),
            delay_s=0.2,
        )
        assert run.report.deadline_hit
        assert all(tag == DEADLINE_FAULT for tag in run.failed.values())

    def test_empty_plan_is_a_noop(self):
        run = run_engine(ExecutionPolicy(workers=2, **self.POLICY), names=[])
        assert run.results == {}
        assert run.failed == {}
        assert run.report.n_units == 0


@pytest.mark.parametrize("workers", [0, 2])
def test_raising_scan_runs_exactly_once(tmp_path, workers):
    """A scan is a pure function of its unit, so one that raised would
    raise again: the engine fails the VP on its first raise, in one
    ``vp_scan`` span per VP at any worker count.  Calls are logged to a
    file, which every forked worker appends to."""
    log = tmp_path / "calls"

    def execute(i):
        with open(log, "a") as out:
            out.write(f"{i}\n")
        if i == 1:
            raise ValueError("boom")
        return f"result:{NAMES[i]}"

    tracer = Tracer()
    with use_tracer(tracer):
        report, failed = ShardedExecutor(
            ExecutionPolicy(workers=workers, **TestPoolEngine.POLICY)
        ).run(NAMES, execute, lambda i, result: None)
    assert log.read_text().split().count("1") == 1
    assert sorted(span.attrs["vp"] for span in tracer.roots) == NAMES
    assert failed == {1: BREAKER_FAULT}
    assert report.scan_errors == {"node-1": "ValueError: boom"}
    assert report.units_completed == 3

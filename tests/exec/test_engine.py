"""Driver mechanics: census order, failed scans, deadline, drain, window.

These tests drive :class:`ShardedExecutor` with a fake ``execute`` (no
campaign, no numpy scans) so each behaviour is observable in isolation,
inline (``workers=0``) and on threads.  The byte-determinism contract
against the real campaign lives in ``tests/test_parallel_determinism.py``.
"""

import threading
import time
from typing import Dict, NamedTuple

import pytest

from repro.exec.engine import (
    DEADLINE_FAULT,
    SCAN_RAISED_FAULT,
    WINDOW_PER_WORKER,
    ExecutionReport,
    ShardedExecutor,
)
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


def run_engine(driver, fail_vps=(), delay_s=0.0, names=NAMES, **run_kwargs):
    results = {}

    def on_complete(i, result):
        results[names[i]] = result

    report, failed = driver.run(
        names, fake_execute(names, fail_vps, delay_s), on_complete, **run_kwargs
    )
    return Run(report, {names[i]: tag for i, tag in failed.items()}, results)


class TestInProcessEngine:
    def test_completes_every_vp(self):
        run = run_engine(ShardedExecutor(workers=0))
        assert sorted(run.results) == NAMES
        assert run.results["node-2"] == "result:node-2"
        assert run.failed == {}
        assert run.report.workers == 0
        assert run.report.units_completed == 4

    def test_breaker_trips_failing_vp_only(self):
        run = run_engine(ShardedExecutor(workers=0), fail_vps=["node-1"])
        assert run.failed == {"node-1": SCAN_RAISED_FAULT}
        assert "node-1" not in run.results
        assert len(run.results) == 3
        assert run.report.scan_errors == {
            "node-1": "ValueError: poisoned input for node-1"
        }

    def test_deadline_fails_unfinished_vps(self):
        run = run_engine(ShardedExecutor(workers=0, deadline_s=0.05), delay_s=0.04)
        assert run.report.deadline_hit
        assert run.failed
        assert all(tag == DEADLINE_FAULT for tag in run.failed.values())
        assert set(run.results) | set(run.failed) == set(NAMES)

    def test_should_stop_drains(self):
        calls = []

        def stop():
            calls.append(1)
            return len(calls) > 2

        run = run_engine(ShardedExecutor(workers=0), should_stop=stop)
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

        report, failed = ShardedExecutor(workers=0).run(
            NAMES, fake_execute(NAMES), on_complete
        )
        assert not report.interrupted
        assert failed == {}
        assert taken == [(i, f"result:node-{i}") for i in range(4)]


class TestPoolEngine:
    def test_completes_every_vp(self):
        run = run_engine(ShardedExecutor(workers=2))
        assert sorted(run.results) == NAMES
        assert run.report.workers == 2
        assert run.report.units_completed == 4

    def test_scan_errors_trip_breaker_not_ledger(self):
        run = run_engine(ShardedExecutor(workers=2), fail_vps=["node-3"])
        assert run.failed == {"node-3": SCAN_RAISED_FAULT}
        assert len(run.results) == 3
        assert run.report.scan_errors == {
            "node-3": "ValueError: poisoned input for node-3"
        }

    def test_deadline_in_pool_mode(self):
        run = run_engine(ShardedExecutor(workers=2, deadline_s=0.1), delay_s=0.2)
        assert run.report.deadline_hit
        assert all(tag == DEADLINE_FAULT for tag in run.failed.values())

    def test_empty_plan_is_a_noop(self):
        run = run_engine(ShardedExecutor(workers=2), names=[])
        assert run.results == {}
        assert run.failed == {}
        assert run.report.n_units == 0


@pytest.mark.parametrize("workers", [0, 2])
def test_raising_scan_runs_exactly_once(tmp_path, workers):
    """A scan is a pure function of its unit, so one that raised would
    raise again: the engine fails the VP on its first raise, in one
    ``vp_scan`` span per VP at any worker count.  Calls are logged to a
    file, which every scan thread appends to."""
    log = tmp_path / "calls"

    def execute(i):
        with open(log, "a") as out:
            out.write(f"{i}\n")
        if i == 1:
            raise ValueError("boom")
        return f"result:{NAMES[i]}"

    tracer = Tracer()
    with use_tracer(tracer):
        report, failed = ShardedExecutor(workers=workers).run(
            NAMES, execute, lambda i, result: None
        )
    assert log.read_text().split().count("1") == 1
    assert sorted(span.attrs["vp"] for span in tracer.roots) == NAMES
    assert failed == {1: SCAN_RAISED_FAULT}
    assert report.scan_errors == {"node-1": "ValueError: boom"}
    assert report.units_completed == 3


class TestThreadedWindow:
    """At ``workers>=1`` the driver starts at most ``WINDOW_PER_WORKER *
    workers`` units ahead of the result it takes, so a drain starts no
    unit past that window and a journal it leaves is a serial one."""

    WORKERS = 2
    WINDOW = WINDOW_PER_WORKER * WORKERS

    def counting_run(self, n, stop_at=None, execute_s=0.0, complete_s=0.0):
        """Run ``n`` units on threads; ``started`` maps each unit that ran
        to how many results had been taken when it started."""
        names = [f"node-{i}" for i in range(n)]
        taken, started, lock = [], {}, threading.Lock()

        def execute(i):
            with lock:
                started[i] = len(taken)
            time.sleep(execute_s)
            return i

        def on_complete(i, result):
            time.sleep(complete_s)
            taken.append(result)

        stop = None if stop_at is None else (lambda: len(taken) >= stop_at)
        report, failed = ShardedExecutor(workers=self.WORKERS).run(
            names, execute, on_complete, should_stop=stop
        )
        assert failed == {}
        return report, taken, started

    def test_units_in_flight_never_exceed_the_window(self):
        # A slow taker lets the threads run ahead to the window's edge.
        report, taken, started = self.counting_run(24, complete_s=0.01)
        assert taken == list(range(24))
        assert sorted(started) == list(range(24))
        assert max(i - before for i, before in started.items()) == self.WINDOW - 1
        assert report.units_completed == 24

    @pytest.mark.parametrize(
        "execute_s, complete_s", [(0.0, 0.01), (0.01, 0.0)], ids=["slow-taker", "slow-scans"]
    )
    def test_stop_starts_no_unit_beyond_the_window(self, execute_s, complete_s):
        k = 10
        report, taken, started = self.counting_run(
            40, stop_at=k, execute_s=execute_s, complete_s=complete_s
        )
        assert report.interrupted
        assert taken == list(range(k))
        assert set(range(k)) <= set(started)
        assert max(started) < k + self.WINDOW

    def test_stop_cancels_the_units_not_yet_started(self):
        # Slow scans keep both threads busy when the stop comes: only the
        # units already running finish, the queued rest never start.
        k = 6
        report, taken, started = self.counting_run(40, stop_at=k, execute_s=0.05)
        assert report.interrupted
        assert taken == list(range(k))
        assert max(started) <= k + self.WORKERS - 1

    def test_threaded_journal_resumes_serially_bit_for_bit(
        self, tiny_internet, tiny_platform, tmp_path, monkeypatch
    ):
        import contextlib
        import io

        import numpy as np

        import repro.exec.signals as signals
        from repro.measurement.campaign import CensusCampaign, CensusInterrupted

        class CountdownFlag:
            """Turns true at the ``polls``-th poll: the driver polls once
            per unit, before taking its result."""

            def __init__(self, polls):
                self.polls = polls

            def __bool__(self):
                self.polls -= 1
                return self.polls < 0

        k = 5
        flags = [CountdownFlag(k)]

        @contextlib.contextmanager
        def fake_shutdown(*args, **kwargs):
            yield flags.pop(0) if flags else signals.ShutdownFlag()

        def census_bytes(census):
            sink = io.BytesIO()
            census.records.write_binary(sink)
            return (
                sink.getvalue(),
                census.vp_duration_hours.tobytes(),
                census.vp_drop_rate.tobytes(),
            )

        def campaign(workers):
            made = CensusCampaign(tiny_internet, tiny_platform, seed=99, workers=workers)
            made.run_precensus()
            return made

        serial = census_bytes(campaign(0).run_census(availability=0.85))
        monkeypatch.setattr(signals, "graceful_shutdown", fake_shutdown)
        threaded = campaign(self.WORKERS)
        scan_vp, scans = threaded.scan_vp, []

        def counting_scan(*args, **kwargs):
            scans.append(args[0])
            return scan_vp(*args, **kwargs)

        monkeypatch.setattr(threaded, "scan_vp", counting_scan)
        journal = str(tmp_path / "census-001.journal")
        with pytest.raises(CensusInterrupted) as exc:
            threaded.run_census(availability=0.85, checkpoint=journal)
        assert exc.value.completed_vps == k
        assert k <= len(scans) < k + self.WINDOW
        resumed = campaign(0).run_census(availability=0.85, checkpoint=journal)
        assert resumed.health.n_vps_resumed == k
        assert census_bytes(resumed) == serial
        assert not np.isnan(resumed.vp_duration_hours).all()


@pytest.mark.parametrize("workers", [0, 2])
def test_vp_scan_spans_time_the_scan_where_it_ran(workers):
    """Each ``vp_scan`` span's ``scan_s`` is its scan's own duration, read
    on the thread that ran it, and the span covers it even when the scan
    ran ahead of its turn."""
    names = [f"node-{i}" for i in range(8)]
    tracer = Tracer()
    with use_tracer(tracer):
        run_engine(ShardedExecutor(workers=workers), delay_s=0.005, names=names)
    spans = tracer.roots
    assert [span.attrs["vp"] for span in spans] == names
    for span in spans:
        assert 0.005 <= span.attrs["scan_s"] <= span.inclusive_s

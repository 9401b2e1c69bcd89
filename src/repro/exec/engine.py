"""The supervised execution engine — the one way a census scans.

:class:`ShardedExecutor` runs a census's work units — one whole VP scan
each, known to the engine only by its VP name and its census position
``i`` — by calling the caller's ``execute(i)``, either in-process
(``workers=0``: the serial census, and the reference every pool run is
tested against) or on a forked worker pool that inherits ``execute``.
Both drivers honour a cooperative stop flag (SIGINT/SIGTERM drain, the
one way to stop a run early) and record completions into one
:class:`_RunState`, which:

* hands each unit's result to the caller's ``on_complete(i, result)``;
* fails a unit whose scan raised at once (fault tag
  :data:`~repro.exec.supervisor.BREAKER_FAULT`), keeping the error's
  text: a scan is a pure function of ``(seed, census, VP)``, so a retry
  would raise the same error again;
* enforces an overall deadline, failing unfinished VPs into the
  existing quorum machinery rather than hanging forever.

The pool driver adds an event loop that:

* dispatches units to workers (bounded prefetch per worker);
* tracks liveness via message heartbeats, declaring silent workers
  wedged after ``liveness_timeout_s`` and reassigning their units;
* detects dead workers by their corpses, reassigns, and respawns
  replacements — all under bounded budgets
  (:class:`~repro.exec.supervisor.ReassignmentLedger`).

Determinism contract: a unit's result depends only on the unit (all
scan RNG is keyed by ``(seed, census, VP)``) and the caller assembles
VPs in census order — so the bytes out are identical for any worker
count, any dispatch order, and any schedule of worker faults the budgets
survive.
"""

from __future__ import annotations

import collections
import queue as queue_mod
import time
from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs import current_events, current_metrics, current_tracer
from .errors import WorkerLost
from .pool import (
    MSG_HB,
    MSG_OK,
    MSG_START,
    Execute,
    WorkerPool,
    drain_worker_metrics,
    fork_available,
    run_unit,
)
from .supervisor import (
    BREAKER_FAULT,
    DEADLINE_FAULT,
    ExecutionPolicy,
    ExecutionReport,
    ReassignmentLedger,
)

#: Takes unit ``i``'s result, in the parent, inside the unit's span.
OnComplete = Callable[[int, Any], None]


class _RunState:
    """What one engine run has produced so far, shared by both drivers.

    Owns the bookkeeping that decides the run's *outcome* — resolved
    units, failed scans, deadline expiry, the report — so the in-process
    and the pool driver differ only in how a unit gets executed, never in
    what its completion means.
    """

    def __init__(
        self,
        policy: ExecutionPolicy,
        names: Sequence[str],
        workers: int,
        on_complete: OnComplete,
    ) -> None:
        self.names = names
        self.on_complete = on_complete
        self.report = ExecutionReport(
            workers=workers, n_units=len(names), in_process=workers == 0
        )
        #: Units the engine gave up on, mapped to a fault tag
        #: (:data:`BREAKER_FAULT` or :data:`DEADLINE_FAULT`).
        self.failed: Dict[int, str] = {}
        self.resolved: Set[int] = set()
        self._deadline = (
            None if policy.deadline_s is None else time.monotonic() + policy.deadline_s
        )

    @property
    def unresolved(self) -> int:
        return len(self.names) - len(self.resolved)

    def complete(self, i: int, result: Any) -> None:
        """Record one finished unit and hand its result to the caller."""
        self.resolved.add(i)
        self.report.units_completed += 1
        self.on_complete(i, result)

    def scan_failed(self, i: int, error: str) -> None:
        """Fail a unit whose scan raised (``"TypeName: message"``).

        A scan exception is a property of the unit, not of whoever ran
        it, so it never touches the reassignment ledger; its text is kept
        per VP, since the failed VP must say what failed it.
        """
        self.report.scan_errors[self.names[i]] = error
        self._fail(i, BREAKER_FAULT)

    def deadline_expired(self) -> bool:
        """Once past the deadline, fail every unfinished VP and say so."""
        if self._deadline is None or time.monotonic() <= self._deadline:
            return False
        self.report.deadline_hit = True
        for i in range(len(self.names)):
            if i not in self.resolved:
                self._fail(i, DEADLINE_FAULT)
        return True

    def _fail(self, i: int, tag: str) -> None:
        self.failed[i] = tag
        self.resolved.add(i)
        self.report.units_failed += 1

    def finish(self) -> Tuple[ExecutionReport, Dict[int, str]]:
        report = self.report
        report.breaker_open_vps = sorted(report.scan_errors)
        report.finish()
        metrics = current_metrics()
        if metrics.enabled:
            metrics.counter("exec_units_completed").inc(report.units_completed)
            metrics.counter("exec_units_failed").inc(report.units_failed)
            metrics.counter("exec_heartbeats").inc(report.heartbeats)
            metrics.counter("exec_reassignments").inc(report.reassignments)
            metrics.counter("exec_workers_lost").inc(report.workers_lost)
            metrics.counter("exec_workers_wedged").inc(report.workers_wedged)
            metrics.counter("exec_workers_respawned").inc(report.workers_respawned)
            metrics.counter("exec_breaker_tripped").inc(len(report.breaker_open_vps))
            if report.deadline_hit:
                metrics.counter("exec_deadline_expired").inc()
            metrics.gauge("exec_workers").set(report.workers)
        return report, self.failed


class ShardedExecutor:
    """Runs one census's work units under supervision."""

    def __init__(self, policy: ExecutionPolicy) -> None:
        self.policy = policy

    def run(
        self,
        names: Sequence[str],
        execute: Execute,
        on_complete: OnComplete,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[ExecutionReport, Dict[int, str]]:
        """Run units ``0..len(names)-1`` (unit ``i`` is VP ``names[i]``):
        ``execute(i)`` computes a unit's result, ``on_complete(i, result)``
        takes it in the parent.  Returns the run's report and the units
        the engine gave up on, mapped to their fault tag."""
        if self.policy.workers == 0 or not names or not fork_available():
            return self._run_in_process(names, execute, on_complete, should_stop)
        return self._run_pool(names, execute, on_complete, should_stop)

    # ------------------------------------------------------------------
    # In-process reference driver
    # ------------------------------------------------------------------

    def _run_in_process(
        self,
        names: Sequence[str],
        execute: Execute,
        on_complete: OnComplete,
        should_stop: Optional[Callable[[], bool]],
    ) -> Tuple[ExecutionReport, Dict[int, str]]:
        """Canonical-order execution of the units, zero processes.

        The serial census, the byte-level reference every pool run must
        match, and the fallback where ``fork`` is unavailable.
        """
        tracer = current_tracer()
        state = _RunState(self.policy, names, 0, on_complete)

        for i, name in enumerate(names):
            if should_stop is not None and should_stop():
                state.report.interrupted = True
                break
            if state.deadline_expired():
                break
            with tracer.span("vp_scan", vp=name, worker=-1):
                try:
                    result = run_unit(execute, i)
                except Exception as exc:  # noqa: BLE001 — fails the unit
                    state.scan_failed(i, f"{type(exc).__name__}: {exc}")
                else:
                    state.complete(i, result)

        return state.finish()

    # ------------------------------------------------------------------
    # Pool driver
    # ------------------------------------------------------------------

    def _run_pool(
        self,
        names: Sequence[str],
        execute: Execute,
        on_complete: OnComplete,
        should_stop: Optional[Callable[[], bool]],
    ) -> Tuple[ExecutionReport, Dict[int, str]]:
        tracer = current_tracer()
        events = current_events()
        policy = self.policy
        n_workers = min(policy.workers, len(names))
        state = _RunState(policy, names, n_workers, on_complete)
        report = state.report
        resolved = state.resolved

        ledger = ReassignmentLedger(
            per_unit_budget=policy.max_reassignments_per_unit,
            total_budget=policy.total_reassignment_budget,
        )
        order = list(range(len(names)))
        if policy.submit_seed is not None:
            np.random.default_rng(policy.submit_seed).shuffle(order)
        pending: collections.deque = collections.deque(order)
        #: Dispatches per unit so far: a task's attempt number, which keys
        #: its injected worker fault.
        dispatched: collections.Counter = collections.Counter()
        pool = WorkerPool(execute, policy.worker_faults)
        respawns_left = policy.respawn_budget

        def orphan_units(handle) -> None:
            """Requeue a lost worker's unresolved units (budget-charged)."""
            active = [uid for uid in handle.assigned if uid not in resolved]
            handle.assigned.clear()
            for uid in reversed(active):
                ledger.charge(uid)
                report.reassignments += 1
                pending.appendleft(uid)
                if events.enabled:
                    events.emit(
                        "reassignment",
                        "unit_requeued",
                        unit_id=uid,
                        vp=names[uid],
                        from_worker=handle.worker_id,
                    )

        def maybe_respawn() -> None:
            nonlocal respawns_left
            live = len(pool.live())
            wanted = min(n_workers, state.unresolved)
            while live < wanted and respawns_left > 0:
                pool.spawn()
                respawns_left -= 1
                report.workers_respawned += 1
                live += 1
            if live == 0 and state.unresolved > 0:
                raise WorkerLost(
                    "worker pool exhausted: no live workers and no respawn "
                    "budget left",
                    unit_ids=sorted(set(range(len(names))) - resolved),
                )

        try:
            for _ in range(n_workers):
                pool.spawn()

            while state.unresolved > 0:
                if should_stop is not None and should_stop():
                    report.interrupted = True
                    break
                if state.deadline_expired():
                    break
                now = time.monotonic()

                # -- liveness sweep --------------------------------------
                for handle in list(pool.workers.values()):
                    if handle.retired:
                        continue
                    if not handle.process.is_alive():
                        report.workers_lost += 1
                        if events.enabled:
                            events.emit(
                                "worker", "worker_lost", worker=handle.worker_id
                            )
                        pool.retire(handle)
                        orphan_units(handle)
                        continue
                    active = [u for u in handle.assigned if u not in resolved]
                    if active and handle.stale_for(now) > policy.liveness_timeout_s:
                        report.workers_wedged += 1
                        if events.enabled:
                            events.emit(
                                "worker",
                                "worker_wedged",
                                worker=handle.worker_id,
                                stale_s=round(handle.stale_for(now), 3),
                            )
                        pool.retire(handle, terminate=True)
                        orphan_units(handle)
                maybe_respawn()

                # -- dispatch --------------------------------------------
                for handle in pool.live():
                    while pending and len(
                        [u for u in handle.assigned if u not in resolved]
                    ) < policy.prefetch:
                        uid = pending.popleft()
                        if uid in resolved:
                            continue
                        handle.dispatch(uid, dispatched[uid])
                        dispatched[uid] += 1

                # -- collect ---------------------------------------------
                try:
                    messages = [pool.out_q.get(timeout=policy.poll_interval_s)]
                except queue_mod.Empty:
                    messages = []
                while True:
                    try:
                        messages.append(pool.out_q.get_nowait())
                    except queue_mod.Empty:
                        break

                for kind, worker_id, unit_id, payload in messages:
                    report.heartbeats += 1
                    handle = pool.workers.get(worker_id)
                    if handle is not None:
                        handle.heartbeat()
                    if kind in (MSG_START, MSG_HB):
                        continue
                    if unit_id in resolved:
                        report.duplicate_results += 1
                        continue
                    if handle is not None and unit_id in handle.assigned:
                        handle.assigned.remove(unit_id)
                    # The scan ran in the worker; this parent-side span
                    # marks its end (the caller's callback, or its failure).
                    with tracer.span("vp_scan", vp=names[unit_id], worker=worker_id):
                        if kind == MSG_OK:
                            state.complete(unit_id, payload)
                        else:
                            state.scan_failed(unit_id, payload)
        finally:
            # Pull the workers' in-worker registries home before tearing
            # the pool down, so parallel totals match serial runs.
            drain_worker_metrics(pool, current_metrics())
            pool.shutdown()

        return state.finish()

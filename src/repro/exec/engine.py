"""The supervised sharded execution engine — the one way a census scans.

:class:`ShardedExecutor` takes a census's work units — one whole VP scan
each (:func:`~repro.exec.plan.build_plan`) — and runs them either
in-process (``workers=0``: the serial census, and the reference every
pool run is tested against) or on a forked worker pool.  Both drivers
honour a cooperative stop flag (SIGINT/SIGTERM drain, the one way to
stop a run early) and record completions into one :class:`_RunState`,
which:

* hands each VP's scan result to the caller;
* trips a per-VP circuit breaker on repeated *scan* failures
  (deterministic data errors, not infrastructure), keeping the last
  error's text and routing the VP to the campaign's quarantine path
  instead of burning retries;
* enforces an overall deadline, failing unfinished VPs into the
  existing quorum machinery rather than hanging forever.

The pool driver adds an event loop that:

* dispatches units to workers (bounded prefetch per worker);
* tracks liveness via message heartbeats, declaring silent workers
  wedged after ``liveness_timeout_s`` and reassigning their units;
* detects dead workers by their corpses, reassigns, and respawns
  replacements — all under bounded budgets
  (:class:`~repro.exec.supervisor.ReassignmentLedger`).

Determinism contract: unit results depend only on unit keys (all scan
RNG is keyed by ``(seed, census, VP)``) and the caller assembles VPs in
census order — so the bytes out are identical for any worker count, any
dispatch order, and any schedule of worker faults the budgets survive.
"""

from __future__ import annotations

import collections
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from ..measurement.faults import StrikeCounter
from ..measurement.prober import VpScanResult
from ..obs import current_events, current_metrics, current_tracer
from .errors import WorkerLost
from .plan import WorkUnit
from .pool import (
    MSG_ERR,
    MSG_HB,
    MSG_OK,
    MSG_START,
    UnitContext,
    WorkerPool,
    drain_worker_metrics,
    fork_available,
)
from .supervisor import (
    BREAKER_FAULT,
    DEADLINE_FAULT,
    ExecutionPolicy,
    ExecutionReport,
    ReassignmentLedger,
)

#: Callback invoked with each VP's finished scan result.
VpCallback = Callable[[str, VpScanResult], None]


@dataclass
class ExecutionOutcome:
    """Everything one engine run produced."""

    report: ExecutionReport
    #: Scan results by VP name — filled only for callers that pass
    #: no ``on_vp_complete``: a callback takes each result instead, so a
    #: census never holds a scan's arrays here next to what the callback
    #: made of them.
    results: Dict[str, VpScanResult] = field(default_factory=dict)
    #: VPs the engine gave up on, mapped to a fault tag
    #: (:data:`BREAKER_FAULT` or :data:`DEADLINE_FAULT`).
    failed: Dict[str, str] = field(default_factory=dict)


class _RunState:
    """What one engine run has produced so far, shared by both drivers.

    Owns the bookkeeping that decides the run's *outcome* — resolved
    units, the scan-error breaker, deadline expiry, the report — so the
    in-process and the pool driver differ only in how a unit gets
    executed, never in what its completion means.
    """

    def __init__(
        self,
        policy: ExecutionPolicy,
        units: Tuple[WorkUnit, ...],
        workers: int,
        on_vp_complete: Optional[VpCallback],
    ) -> None:
        self.units = units
        self.on_vp_complete = on_vp_complete
        self.report = ExecutionReport(
            workers=workers, n_units=len(units), in_process=workers == 0
        )
        self.outcome = ExecutionOutcome(report=self.report)
        #: Raising scans per VP.  A unit is retried in place until it
        #: resolves, so within a run its failures are consecutive.
        self.breaker = StrikeCounter(policy.breaker_threshold)
        self.resolved: Set[int] = set()
        self._deadline = (
            None if policy.deadline_s is None else time.monotonic() + policy.deadline_s
        )

    @property
    def unresolved(self) -> int:
        return len(self.units) - len(self.resolved)

    def complete(self, unit: WorkUnit, result: VpScanResult) -> None:
        """Record one finished unit and hand its result to the caller."""
        self.resolved.add(unit.unit_id)
        self.report.units_completed += 1
        if self.on_vp_complete is None:
            self.outcome.results[unit.vp_name] = result
        else:
            self.on_vp_complete(unit.vp_name, result)

    def scan_failed(self, unit: WorkUnit, error: str) -> bool:
        """Count one scan exception (``"TypeName: message"``) against the
        VP's breaker; True while the unit may be retried.

        A scan exception is a property of the unit, not of whoever ran
        it, so it never touches the reassignment ledger.  The text of the
        last one is kept per VP: a tripped breaker must say what tripped it.
        """
        self.report.scan_errors[unit.vp_name] = error
        if not self.breaker.record(unit.vp_name, ok=False):
            return True
        self._fail(unit, BREAKER_FAULT)
        return False

    def deadline_expired(self) -> bool:
        """Once past the deadline, fail every unfinished VP and say so."""
        if self._deadline is None or time.monotonic() <= self._deadline:
            return False
        self.report.deadline_hit = True
        for unit in self.units:
            if unit.unit_id not in self.resolved:
                self._fail(unit, DEADLINE_FAULT)
        return True

    def _fail(self, unit: WorkUnit, tag: str) -> None:
        self.outcome.failed[unit.vp_name] = tag
        self.resolved.add(unit.unit_id)
        self.report.units_failed += 1

    def finish(self) -> ExecutionOutcome:
        report = self.report
        report.breaker_open_vps = self.breaker.tripped
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
        return self.outcome


class ShardedExecutor:
    """Runs one census's work units (``context.units``) under supervision."""

    def __init__(self, policy: ExecutionPolicy) -> None:
        self.policy = policy

    def run(
        self,
        context: UnitContext,
        on_vp_complete: Optional[VpCallback] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> ExecutionOutcome:
        if self.policy.workers == 0 or not context.units or not fork_available():
            return self._run_in_process(context, on_vp_complete, should_stop)
        return self._run_pool(context, on_vp_complete, should_stop)

    # ------------------------------------------------------------------
    # In-process reference driver
    # ------------------------------------------------------------------

    def _run_in_process(
        self,
        context: UnitContext,
        on_vp_complete: Optional[VpCallback],
        should_stop: Optional[Callable[[], bool]],
    ) -> ExecutionOutcome:
        """Canonical-order execution of the plan, zero processes.

        The serial census, the byte-level reference every pool run must
        match, and the fallback where ``fork`` is unavailable.
        """
        tracer = current_tracer()
        state = _RunState(self.policy, context.units, 0, on_vp_complete)

        for unit in context.units:
            if should_stop is not None and should_stop():
                state.report.interrupted = True
                break
            if state.deadline_expired():
                break
            # A raising scan is retried in place, bounded by the breaker
            # (which resolves the unit when it trips).
            while unit.unit_id not in state.resolved:
                with tracer.span("vp_scan", vp=unit.vp_name, worker=-1):
                    try:
                        result = context.execute(unit.unit_id)
                    except Exception as exc:  # noqa: BLE001 — routed to the breaker
                        state.scan_failed(unit, f"{type(exc).__name__}: {exc}")
                    else:
                        state.complete(unit, result)

        return state.finish()

    # ------------------------------------------------------------------
    # Pool driver
    # ------------------------------------------------------------------

    def _run_pool(
        self,
        context: UnitContext,
        on_vp_complete: Optional[VpCallback],
        should_stop: Optional[Callable[[], bool]],
    ) -> ExecutionOutcome:
        tracer = current_tracer()
        events = current_events()
        policy = self.policy
        units = context.units
        n_workers = min(policy.workers, len(units))
        state = _RunState(policy, units, n_workers, on_vp_complete)
        report = state.report
        resolved = state.resolved

        ledger = ReassignmentLedger(
            per_unit_budget=policy.max_reassignments_per_unit,
            total_budget=policy.total_reassignment_budget,
        )
        order = list(range(len(units)))
        if policy.submit_seed is not None:
            np.random.default_rng(policy.submit_seed).shuffle(order)
        pending: collections.deque = collections.deque(order)
        #: Dispatches per unit so far: a task's attempt number, which keys
        #: its injected worker fault.
        dispatched: collections.Counter = collections.Counter()
        pool = WorkerPool(context)
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
                        vp=units[uid].vp_name,
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
                    unit_ids=sorted(set(range(len(units))) - resolved),
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
                    unit = units[unit_id]
                    if handle is not None and unit_id in handle.assigned:
                        handle.assigned.remove(unit_id)
                    if kind == MSG_OK:
                        # The scan ran in the worker; this parent-side
                        # span marks its completion (the caller's callback).
                        with tracer.span(
                            "vp_scan", vp=unit.vp_name, worker=worker_id
                        ):
                            state.complete(unit, payload)
                    elif kind == MSG_ERR and state.scan_failed(unit, payload):
                        pending.appendleft(unit_id)
        finally:
            # Pull the workers' in-worker registries home before tearing
            # the pool down, so parallel totals match serial runs.
            drain_worker_metrics(pool, current_metrics())
            pool.shutdown()

        return state.finish()

"""Worker-pool plumbing: worker processes, queues, liveness handles.

The pool is deliberately dumb: workers pull ``(unit id, attempt)`` tasks
from their own task queue, execute them against a shared
:class:`UnitContext`, and report start/ok/err messages (which double as
heartbeats) on one results queue.
All scheduling intelligence — dispatch, reassignment, breakers, budgets
— lives in :mod:`repro.exec.engine`.

Workers are forked, not spawned: the campaign's synthetic Internet and
platform are inherited copy-on-write instead of pickled per task, which
is what keeps per-unit overhead proportional to the *result* size only.
Where ``fork`` is unavailable the engine falls back to in-process
execution (same plan, same bytes, no parallelism).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..measurement.faults import WorkerFaultKind, WorkerFaultPlan
from ..measurement.prober import ScanTargets
from ..obs.metrics import MetricsRegistry, current_metrics, set_metrics
from .plan import WorkUnit

#: Message kinds on the results queue.  Every message is
#: ``(kind, worker_id, unit_id, payload)`` and counts as a heartbeat.
MSG_START = "start"
MSG_HB = "hb"
MSG_OK = "ok"
MSG_ERR = "err"
#: A worker's final message: its in-worker metrics snapshot, shipped on
#: the drain sentinel so parallel runs stop dropping worker-side
#: counters/histograms.  ``unit_id`` is -1 (no unit).
MSG_METRICS = "metrics"

#: Exit code of a worker killed by the injected dead-worker fault.
DEAD_WORKER_EXIT = 113


@dataclass
class UnitContext:
    """Everything a worker needs to execute any unit of one census.

    Shipped once per worker (by fork inheritance), never per task.
    """

    campaign: Any  # CensusCampaign; Any avoids an import cycle
    census_id: int
    targets: ScanTargets
    rate_pps: float
    units: Tuple[WorkUnit, ...]
    worker_faults: Optional[WorkerFaultPlan] = None

    def execute(self, unit_id: int):
        unit = self.units[unit_id]
        result = self.campaign.scan_vp(
            unit.platform_index,
            census_id=self.census_id,
            targets=self.targets,
            census_vp_index=unit.census_vp_index,
            rate_pps=self.rate_pps,
            degraded=unit.degraded,
        )
        metrics = current_metrics()
        if metrics.enabled:
            metrics.counter("exec_unit_scans").inc()
            metrics.counter("exec_unit_probes").inc(result.probes_sent)
        return result


def _sleep_heartbeating(
    out_q, worker_id: int, unit_id: int, seconds: float, chunk_s: float
) -> None:
    """A slow worker's nap: delayed, but visibly alive the whole time."""
    deadline = time.monotonic() + seconds
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(chunk_s, remaining))
        out_q.put((MSG_HB, worker_id, unit_id, None))


def worker_main(worker_id: int, context: UnitContext, task_q, out_q) -> None:
    """Body of one worker process: pull unit ids, execute, report."""
    # Forked children inherit the parent's graceful-shutdown handlers,
    # which must not run here: a terminal Ctrl-C hits the whole process
    # group, and an inherited flag-setting SIGTERM handler would defang
    # the supervisor's terminate().  The parent owns this lifecycle —
    # ignore SIGINT, restore default SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The forked child inherits the parent's current registry.  When the
    # parent had metrics on, swap in a fresh in-worker registry so this
    # worker's observations are its own — shipped back whole on drain,
    # then merged in the parent (order-free, so totals equal serial).
    metrics = None
    if current_metrics().enabled:
        metrics = MetricsRegistry()
        set_metrics(metrics)
    plan = context.worker_faults
    if plan is not None and not plan.enabled:
        plan = None
    task_seq = 0
    while True:
        task = task_q.get()
        if task is None:
            if metrics is not None:
                out_q.put((MSG_METRICS, worker_id, -1, metrics.snapshot()))
            return
        unit_id, attempt = task
        task_seq += 1
        fault = plan.fault_for(worker_id, task_seq, unit_id, attempt) if plan else None
        if fault is WorkerFaultKind.DEAD_WORKER:
            # Dies holding the unit, before any message: the parent only
            # learns from the corpse.  os._exit skips finalizers the way
            # a real OOM kill would.
            os._exit(DEAD_WORKER_EXIT)
        out_q.put((MSG_START, worker_id, unit_id, None))
        if fault is WorkerFaultKind.WEDGED_WORKER:
            # Silent stall: no heartbeats.  The liveness timeout, not
            # this sleep, decides when the supervisor gives up on us.
            time.sleep(plan.wedge_seconds)
        elif fault is WorkerFaultKind.SLOW_WORKER:
            _sleep_heartbeating(
                out_q, worker_id, unit_id, plan.slow_seconds, chunk_s=0.05
            )
        try:
            result = context.execute(unit_id)
        except Exception as exc:  # noqa: BLE001 — reported, never fatal here
            out_q.put(
                (MSG_ERR, worker_id, unit_id, f"{type(exc).__name__}: {exc}")
            )
        else:
            out_q.put((MSG_OK, worker_id, unit_id, result))


class WorkerHandle:
    """Parent-side view of one worker: process, queue, assigned units."""

    def __init__(self, worker_id: int, process, task_q) -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_q = task_q
        #: Unit ids dispatched to this worker and not yet resolved.
        self.assigned: List[int] = []
        self.last_hb = time.monotonic()
        self.retired = False

    @property
    def alive(self) -> bool:
        return not self.retired and self.process.is_alive()

    def dispatch(self, unit_id: int, attempt: int = 0) -> None:
        """Hand over one unit, with how many times it was dispatched before."""
        self.assigned.append(unit_id)
        self.task_q.put((unit_id, attempt))

    def heartbeat(self) -> None:
        self.last_hb = time.monotonic()

    def stale_for(self, now: float) -> float:
        return now - self.last_hb


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerPool:
    """Spawns, tracks, respawns, and tears down worker processes."""

    def __init__(self, context: UnitContext) -> None:
        self._context = context
        self._mp = multiprocessing.get_context("fork")
        self.out_q = self._mp.Queue()
        self.workers: Dict[int, WorkerHandle] = {}
        self._next_id = 0

    def spawn(self) -> WorkerHandle:
        worker_id = self._next_id
        self._next_id += 1
        task_q = self._mp.Queue()
        process = self._mp.Process(
            target=worker_main,
            args=(worker_id, self._context, task_q, self.out_q),
            daemon=True,
            name=f"census-worker-{worker_id}",
        )
        process.start()
        handle = WorkerHandle(worker_id, process, task_q)
        self.workers[worker_id] = handle
        return handle

    def live(self) -> List[WorkerHandle]:
        return [w for w in self.workers.values() if w.alive]

    def retire(self, handle: WorkerHandle, terminate: bool = False) -> None:
        """Stop tracking a worker (dead, wedged, or drained)."""
        handle.retired = True
        if terminate and handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=2.0)
        handle.task_q.cancel_join_thread()
        handle.task_q.close()

    def shutdown(self, drain_timeout_s: float = 2.0) -> None:
        """Stop every worker: sentinel, short join, then terminate."""
        for handle in self.workers.values():
            if handle.alive:
                try:
                    handle.task_q.put(None)
                except (ValueError, OSError):  # queue already closed
                    pass
        deadline = time.monotonic() + drain_timeout_s
        for handle in self.workers.values():
            if handle.retired:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
            self.retire(handle, terminate=True)
        self.out_q.cancel_join_thread()
        self.out_q.close()


def drain_worker_metrics(
    pool: WorkerPool,
    registry,
    timeout_s: float = 2.0,
) -> int:
    """Collect every live worker's final metrics snapshot into ``registry``.

    Each worker ships one :data:`MSG_METRICS` message when it sees its
    drain sentinel; this helper sends the sentinels, then pulls the
    results queue until every expected worker reported or ``timeout_s``
    passes.

    A worker that drained and exited before this call still has its
    snapshot in the queue, so every unretired worker is expected.  Dead
    or wedged workers never ship a snapshot and are pruned from the
    expectation as soon as their process is gone and the queue is empty —
    their observations are lost, the same asymmetry their unfinished
    units already have.
    Returns the number of snapshots merged here.  No-op (0) when the
    registry is disabled.
    """
    import queue as _queue

    if not getattr(registry, "enabled", False):
        return 0
    expected = {w.worker_id for w in pool.workers.values() if not w.retired}
    for handle in pool.workers.values():
        if handle.alive:
            try:
                handle.task_q.put(None)
            except (ValueError, OSError):
                pass
    merged = 0
    deadline = time.monotonic() + timeout_s
    while expected and time.monotonic() < deadline:
        try:
            kind, worker_id, _unit_id, payload = pool.out_q.get(timeout=0.05)
        except _queue.Empty:
            # A queue feeder flushes before its process exits, so a dead
            # worker with an empty queue has nothing more to say.
            expected = {
                wid
                for wid in expected
                if pool.workers[wid].process.is_alive()
            }
            continue
        if kind == MSG_METRICS:
            if worker_id in expected:
                registry.merge(payload)
                merged += 1
                expected.discard(worker_id)
        # Any other late message (stray heartbeat, result already
        # reassigned) is simply consumed: the caller's loop is done.
    return merged

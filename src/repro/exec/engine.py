"""The census scan driver — the one way a census scans.

:class:`ShardedExecutor` runs a census's work units — one whole VP scan
each, known to the engine only by its VP name and its census position
``i`` — by calling the caller's ``execute(i)``, and takes their results
in census order.  One loop serves every worker count; each unit's turn
in it is the same:

* a cooperative stop check (SIGINT/SIGTERM drain, the one way to stop a
  run early), then the deadline check: past an overall deadline every
  unfinished VP fails into the caller's quorum machinery rather than the
  run hanging forever;
* inside the unit's ``vp_scan`` span, the result goes to the caller's
  ``on_complete(i, result)``, or, when the scan raised, the unit fails at
  once (fault tag :data:`SCAN_RAISED_FAULT`) keeping the error's text: a
  scan is a pure function of ``(seed, census, VP)``, so a retry would
  raise the same error again.  Under a tracer the scan is timed where it
  runs: the span's ``scan_s`` is the scan's own duration, and a span
  starts no later than its scan did (at ``workers>=1`` a scan may run
  ahead of its turn, so sibling spans overlap as the scans did).

Where a scan runs is the only thing the worker count changes.  At
``workers=0`` the loop calls ``execute(i)`` inline (the serial census,
the reference); at ``workers>=1`` the scans run on that many threads of
the calling process — numpy releases the GIL in the scan kernels — with
at most :data:`WINDOW_PER_WORKER` units per worker started and not yet
taken, so a drain or a deadline starts no unit beyond that window and
cancels the units not yet started.

Determinism contract: a unit's result depends only on the unit (all
scan RNG is keyed by ``(seed, census, VP)``), and results, spans and
metrics are taken in census order in the calling thread — so the bytes
out are identical for every worker count.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from ..obs import current_metrics, current_tracer

#: Fault tag recorded on a VP whose scan raised: a pure scan retried
#: would raise the same error, so it fails on the first raise.
SCAN_RAISED_FAULT = "scan_raised"
#: Fault tag recorded on a VP whose scan was cut off by the deadline.
DEADLINE_FAULT = "deadline"

#: Units per worker thread that may be started and not yet taken.
WINDOW_PER_WORKER = 2

#: Executes unit ``i`` — one VP's whole scan — and returns its result
#: (a scan result: it has ``probes_sent``).  At ``workers>=1`` it runs on
#: a worker thread, concurrently with other units.
Execute = Callable[[int], Any]
#: Takes unit ``i``'s result, in the calling thread, inside the unit's span.
OnComplete = Callable[[int, Any], None]


@dataclass
class ExecutionReport:
    """What the scan driver saw while executing one census."""

    workers: int
    n_units: int
    units_completed: int = 0
    units_failed: int = 0
    #: The scan exception per VP whose scan raised (``"TypeName:
    #: message"``), in census order; these are the
    #: :data:`SCAN_RAISED_FAULT` VPs.
    scan_errors: Dict[str, str] = field(default_factory=dict)
    deadline_hit: bool = False
    interrupted: bool = False
    wall_s: float = 0.0
    _started: float = field(default_factory=time.monotonic, repr=False)

    def finish(self) -> "ExecutionReport":
        self.wall_s = time.monotonic() - self._started
        return self

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict dump for health reports and run manifests."""
        return {
            "workers": self.workers,
            "n_units": self.n_units,
            "units_completed": self.units_completed,
            "units_failed": self.units_failed,
            "scan_errors": dict(self.scan_errors),
            "deadline_hit": self.deadline_hit,
            "interrupted": self.interrupted,
            "wall_s": self.wall_s,
        }


class _RunState:
    """What one engine run has produced so far — failed units, scan
    errors, deadline expiry, the report — as units are taken in order."""

    def __init__(
        self,
        deadline_s: Optional[float],
        names: Sequence[str],
        workers: int,
        on_complete: OnComplete,
    ) -> None:
        self.names = names
        self.on_complete = on_complete
        self.report = ExecutionReport(workers=workers, n_units=len(names))
        #: Units the engine gave up on, mapped to a fault tag
        #: (:data:`SCAN_RAISED_FAULT` or :data:`DEADLINE_FAULT`).
        self.failed: Dict[int, str] = {}
        self._deadline = None if deadline_s is None else time.monotonic() + deadline_s

    def complete(self, i: int, result: Any) -> None:
        """Record one finished unit and hand its result to the caller."""
        self.report.units_completed += 1
        metrics = current_metrics()
        if metrics.enabled:
            metrics.counter("exec_unit_scans").inc()
            metrics.counter("exec_unit_probes").inc(result.probes_sent)
        self.on_complete(i, result)

    def scan_failed(self, i: int, error: str) -> None:
        """Fail a unit whose scan raised (``"TypeName: message"``); its
        text is kept per VP, since the failed VP must say what failed it."""
        self.report.scan_errors[self.names[i]] = error
        self._fail(i, SCAN_RAISED_FAULT)

    def deadline_expired(self, i: int) -> bool:
        """Once past the deadline, fail units ``i`` onwards (every unit
        before ``i`` is taken) and say so."""
        if self._deadline is None or time.monotonic() <= self._deadline:
            return False
        self.report.deadline_hit = True
        for j in range(i, len(self.names)):
            self._fail(j, DEADLINE_FAULT)
        return True

    def _fail(self, i: int, tag: str) -> None:
        self.failed[i] = tag
        self.report.units_failed += 1

    def finish(self) -> Tuple[ExecutionReport, Dict[int, str]]:
        report = self.report.finish()
        metrics = current_metrics()
        if metrics.enabled:
            metrics.counter("exec_units_completed").inc(report.units_completed)
            metrics.counter("exec_units_failed").inc(report.units_failed)
            metrics.counter("exec_scans_raised").inc(len(report.scan_errors))
            if report.deadline_hit:
                metrics.counter("exec_deadline_expired").inc()
            metrics.gauge("exec_workers").set(report.workers)
        return report, self.failed


@contextlib.contextmanager
def _results_in_order(
    execute: Execute, n_units: int, workers: int
) -> Iterator[Execute]:
    """A ``result(i)`` to be called for ``i = 0, 1, ...`` in order.

    At ``workers=0`` it is ``execute`` itself.  Otherwise ``result(i)``
    first submits every unit below ``i + window`` to a pool of threads,
    then waits for unit ``i``; on exit the units not yet started are
    cancelled and the running ones waited out.
    """
    if workers == 0 or n_units == 0:
        yield execute
        return
    window = WINDOW_PER_WORKER * workers
    pending: Dict[int, Future] = {}
    submitted = 0
    with ThreadPoolExecutor(min(workers, n_units), "census-scan") as pool:

        def result(i: int) -> Any:
            nonlocal submitted
            while submitted < min(i + window, n_units):
                pending[submitted] = pool.submit(execute, submitted)
                submitted += 1
            return pending.pop(i).result()

        try:
            yield result
        finally:
            # Units past a drain or the deadline are given up: the ones
            # already running finish, and their results, errors included,
            # are dropped (a drain's resume rescans them).
            for future in pending.values():
                future.cancel()


def _timed(execute: Execute, clock: Callable[[], float]) -> Execute:
    """``execute`` returning ``(result, scan start, scan end)`` on ``clock``,
    read on the thread that runs the scan."""

    def timed(i: int) -> Tuple[Any, float, float]:
        started = clock()
        result = execute(i)
        return result, started, clock()

    return timed


class ShardedExecutor:
    """Runs one census's work units on ``workers`` threads (``0``: inline)
    under an optional overall ``deadline_s`` (seconds)."""

    def __init__(self, workers: int = 0, deadline_s: Optional[float] = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        self.workers = workers
        self.deadline_s = deadline_s

    def run(
        self,
        names: Sequence[str],
        execute: Execute,
        on_complete: OnComplete,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[ExecutionReport, Dict[int, str]]:
        """Run units ``0..len(names)-1`` (unit ``i`` is VP ``names[i]``):
        ``execute(i)`` computes a unit's result, ``on_complete(i, result)``
        takes it in the calling thread, in census order.  Returns the
        run's report and the units the engine gave up on, mapped to their
        fault tag."""
        tracer = current_tracer()
        if tracer.enabled:
            execute = _timed(execute, tracer.now)
        state = _RunState(self.deadline_s, names, self.workers, on_complete)
        with _results_in_order(execute, len(names), self.workers) as result_of:
            for i, name in enumerate(names):
                if should_stop is not None and should_stop():
                    state.report.interrupted = True
                    break
                if state.deadline_expired(i):
                    break
                with tracer.span("vp_scan", vp=name) as span:
                    try:
                        result = result_of(i)
                    except Exception as exc:  # noqa: BLE001 — fails the unit
                        state.scan_failed(i, f"{type(exc).__name__}: {exc}")
                    else:
                        if tracer.enabled:
                            result, started, ended = result
                            span.set("scan_s", ended - started)
                            span.t_start = min(span.t_start, started)
                        state.complete(i, result)
        return state.finish()

"""Supervised census execution — the one scan executor.

Runs a census's work units — one whole VP scan each, named by its VP and
executed by the caller's ``execute(i)`` — in-process (``workers=0``, the
default and the reference) or on a forked worker pool under liveness
supervision: heartbeats, bounded unit reassignment, worker respawn, an
overall deadline.  A scan that raises fails its VP at once.  Unit
results depend only on the unit and the caller assembles them in census
order, so the output bytes never depend on worker count, dispatch
order, or which workers died along the way.

Entry points:

* :class:`ShardedExecutor` / :class:`ExecutionPolicy` — the engine.
* :func:`graceful_shutdown` — SIGINT/SIGTERM drain of a census, at any
  worker count.
"""

from .engine import ShardedExecutor
from .errors import ExecError, ReassignmentBudgetExceeded, WorkerLost
from .pool import WorkerPool, fork_available
from .signals import ShutdownFlag, graceful_shutdown
from .supervisor import (
    BREAKER_FAULT,
    DEADLINE_FAULT,
    ExecutionPolicy,
    ExecutionReport,
    ReassignmentLedger,
)

__all__ = [
    "BREAKER_FAULT",
    "DEADLINE_FAULT",
    "ExecError",
    "ExecutionPolicy",
    "ExecutionReport",
    "ReassignmentBudgetExceeded",
    "ReassignmentLedger",
    "ShardedExecutor",
    "ShutdownFlag",
    "WorkerLost",
    "WorkerPool",
    "fork_available",
    "graceful_shutdown",
]

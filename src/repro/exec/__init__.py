"""Supervised census execution — the one scan executor.

Partitions a census into deterministic work units — one whole VP scan
each — and executes them in-process (``workers=0``, the default and the
reference) or on a forked worker pool under liveness supervision —
heartbeats, bounded unit reassignment, worker respawn, per-VP circuit
breakers, an overall deadline.  Unit results depend only on unit keys
and the caller assembles them in census order, so the output bytes never
depend on worker count, dispatch order, or which workers died along the
way.

Entry points:

* :class:`ShardedExecutor` / :class:`ExecutionPolicy` — the engine.
* :func:`build_plan` / :class:`WorkUnit` — unit partitioning.
* :func:`graceful_shutdown` — SIGINT/SIGTERM drain of a census, at any
  worker count.
"""

from .engine import ExecutionOutcome, ShardedExecutor
from .errors import (
    DeadlineExceeded,
    ExecError,
    ReassignmentBudgetExceeded,
    WorkerLost,
    WorkerWedged,
)
from .plan import WorkUnit, build_plan
from .pool import UnitContext, WorkerPool, fork_available
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
    "DeadlineExceeded",
    "ExecError",
    "ExecutionOutcome",
    "ExecutionPolicy",
    "ExecutionReport",
    "ReassignmentBudgetExceeded",
    "ReassignmentLedger",
    "ShardedExecutor",
    "ShutdownFlag",
    "UnitContext",
    "WorkUnit",
    "WorkerLost",
    "WorkerPool",
    "WorkerWedged",
    "build_plan",
    "fork_available",
    "graceful_shutdown",
]

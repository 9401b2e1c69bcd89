"""Supervised census execution — the one scan executor.

Partitions a census into deterministic (VP × target-shard) work units,
executes them in-process (``workers=0``, the default and the reference)
or on a forked worker pool under liveness supervision —
heartbeats, bounded shard reassignment, worker respawn, per-VP circuit
breakers, an overall deadline — and merges results canonically so the
output bytes never depend on worker count, dispatch order, or which
workers died along the way.

Entry points:

* :class:`ShardedExecutor` / :class:`ExecutionPolicy` — the engine.
* :func:`build_plan` / :class:`ShardPlan` — unit partitioning.
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
from .plan import ShardPlan, WorkUnit, build_plan, merge_vp_shards, shard_target_mask
from .pool import UnitContext, WorkerPool, fork_available
from .signals import ShutdownFlag, graceful_shutdown
from .supervisor import (
    BREAKER_FAULT,
    DEADLINE_FAULT,
    CircuitBreaker,
    ExecutionPolicy,
    ExecutionReport,
    ReassignmentLedger,
)

__all__ = [
    "BREAKER_FAULT",
    "DEADLINE_FAULT",
    "CircuitBreaker",
    "DeadlineExceeded",
    "ExecError",
    "ExecutionOutcome",
    "ExecutionPolicy",
    "ExecutionReport",
    "ReassignmentBudgetExceeded",
    "ReassignmentLedger",
    "ShardPlan",
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
    "merge_vp_shards",
    "shard_target_mask",
]

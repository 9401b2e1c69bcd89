"""Pool-supervision bookkeeping: policy, budgets, report.

Everything here is process-free state machinery, unit-testable without
spawning a single worker; :mod:`repro.exec.engine` drives it from its
event loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..measurement.faults import WorkerFaultPlan
from .errors import ReassignmentBudgetExceeded

#: Fault tag recorded on a VP whose scan raised: its breaker opens on the
#: first raise, since a pure scan retried would raise the same error.
BREAKER_FAULT = "worker_breaker"
#: Fault tag recorded on a VP whose scan was cut off by the deadline.
DEADLINE_FAULT = "deadline"


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a census execution engine runs and when it gives up.

    ``workers=0`` executes the plan in-process in canonical unit order —
    the serial census, the reference every pool size is tested against
    (and the fallback where ``fork`` is unavailable).  ``workers>=1``
    runs a real multiprocessing pool.
    """

    workers: int = 0
    #: Overall wall-clock budget for one census's scan phase (seconds).
    #: On expiry, unfinished VPs are marked failed and the existing
    #: quorum machinery decides whether the census still stands.
    deadline_s: Optional[float] = None
    #: A worker with work whose last heartbeat is older than this is
    #: declared wedged: terminated, its units reassigned.
    liveness_timeout_s: float = 5.0
    #: Event-loop tick (result poll timeout).
    poll_interval_s: float = 0.05
    #: Work units a worker may hold at once (pipelining vs. blast radius).
    prefetch: int = 2
    #: Reassignments allowed per unit before escalating.
    max_reassignments_per_unit: int = 3
    #: Injected worker-level chaos (tests/benchmarks only).
    worker_faults: Optional[WorkerFaultPlan] = None
    #: Shuffle the dispatch order (tests prove order-independence).
    submit_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.liveness_timeout_s <= 0:
            raise ValueError("liveness_timeout_s must be positive")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.prefetch < 1:
            raise ValueError("prefetch must be >= 1")
        if self.max_reassignments_per_unit < 0:
            raise ValueError("max_reassignments_per_unit must be >= 0")

    @property
    def total_reassignment_budget(self) -> int:
        """Reassignments allowed per census."""
        return 4 * max(self.workers, 1) + 8

    @property
    def respawn_budget(self) -> int:
        """Worker respawns allowed per census."""
        return 2 * max(self.workers, 1) + 2


class ReassignmentLedger:
    """Bounded accounting of orphaned-unit reassignments."""

    def __init__(self, per_unit_budget: int, total_budget: int) -> None:
        self.per_unit_budget = per_unit_budget
        self.total_budget = total_budget
        self._per_unit: Dict[int, int] = {}
        self.total = 0

    def charge(self, unit_id: int) -> None:
        """Record one reassignment; raise when a budget is exhausted."""
        attempts = self._per_unit.get(unit_id, 0) + 1
        if attempts > self.per_unit_budget:
            raise ReassignmentBudgetExceeded(
                unit_id, attempts, self.per_unit_budget
            )
        if self.total + 1 > self.total_budget:
            raise ReassignmentBudgetExceeded(
                None, self.total + 1, self.total_budget
            )
        self.total += 1
        self._per_unit[unit_id] = attempts


@dataclass
class ExecutionReport:
    """What the pool supervisor saw while executing one census."""

    workers: int
    n_units: int
    units_completed: int = 0
    units_failed: int = 0
    reassignments: int = 0
    workers_lost: int = 0
    workers_wedged: int = 0
    workers_respawned: int = 0
    heartbeats: int = 0
    duplicate_results: int = 0
    #: VPs whose scan raised, sorted (the ``BREAKER_FAULT`` VPs).
    breaker_open_vps: List[str] = field(default_factory=list)
    #: The scan exception per such VP (``"TypeName: message"``).
    scan_errors: Dict[str, str] = field(default_factory=dict)
    deadline_hit: bool = False
    interrupted: bool = False
    in_process: bool = False
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
            "reassignments": self.reassignments,
            "workers_lost": self.workers_lost,
            "workers_wedged": self.workers_wedged,
            "workers_respawned": self.workers_respawned,
            "heartbeats": self.heartbeats,
            "duplicate_results": self.duplicate_results,
            "breaker_open_vps": list(self.breaker_open_vps),
            "scan_errors": dict(self.scan_errors),
            "deadline_hit": self.deadline_hit,
            "interrupted": self.interrupted,
            "in_process": self.in_process,
            "wall_s": self.wall_s,
        }

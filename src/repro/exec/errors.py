"""Typed failures of the sharded execution engine.

These sit *below* the stage-level taxonomy in
:mod:`repro.resilience.errors`: a worker dying is an infrastructure
event, not a data event.  The engine absorbs as many of them as its
budgets allow (reassigning orphaned units, respawning workers); only
budget exhaustion escalates, as one of these types, into the existing
``StageFailed``/quorum machinery.
"""

from __future__ import annotations

from typing import Optional, Sequence


class ExecError(RuntimeError):
    """Base class of execution-engine failures."""


class WorkerLost(ExecError):
    """A worker process died while holding work units.

    The engine normally recovers by reassigning; this escalates only
    when the pool can no longer make progress (respawn budget spent and
    no live worker remains).
    """

    def __init__(self, message: str, unit_ids: Sequence[int] = ()) -> None:
        self.unit_ids = tuple(unit_ids)
        super().__init__(message)


class ReassignmentBudgetExceeded(ExecError):
    """Orphaned-unit reassignment hit its bound without completing.

    Raised instead of silently retrying forever: a pool that keeps
    losing the same unit has an environmental problem no amount of
    reassignment fixes, and the run must escalate rather than produce
    thin data.
    """

    def __init__(self, unit_id: Optional[int], attempts: int, budget: int) -> None:
        self.unit_id = unit_id
        self.attempts = attempts
        self.budget = budget
        scope = f"unit {unit_id}" if unit_id is not None else "pool"
        super().__init__(
            f"{scope} reassigned {attempts} time(s), budget {budget} exhausted"
        )


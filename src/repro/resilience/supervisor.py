"""Stage supervision: retry, degrade, or fail — per policy, never by luck.

A :class:`StageSupervisor` wraps each pipeline stage of a
:class:`~repro.workflow.CensusStudy`.  Failures are classified through
the :mod:`~repro.resilience.errors` taxonomy and handled per the
:class:`ResiliencePolicy`:

* **transient** failures are retried with exponential backoff, a bounded
  number of times;
* **corrupt-input** failures degrade-and-continue: the stage's fallback
  (typically the same computation over the sanitized subset, or an
  honestly-empty result) runs instead, and the outcome is labelled
  ``degraded`` in the :class:`DegradationReport`;
* **fatal** failures fail fast, wrapped in a :class:`StageFailed` that
  names the stage.

The supervisor also watches the quarantine log around each stage: a
stage that succeeded but only after its input was partially quarantined
is ``degraded``, not ``ok`` — partial results are fine, mislabelled
results are not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NoReturn, Optional

from ..measurement.faults import RetryPolicy
from ..obs import current_events, current_metrics, current_tracer
from .errors import Severity, StageFailed, classify_exception
from .quarantine import QuarantineLog


@dataclass(frozen=True)
class ResiliencePolicy:
    """How every pipeline stage responds to each failure severity.

    ``retry`` bounds transient retries; its ``backoff_base`` is real
    wall-clock seconds of sleep — supervision is operational, not part
    of the simulated timeline.  ``strict`` never degrades: corrupt input
    fails the stage instead of running its fallback, and so does a
    stage that succeeded only after the sanitizers quarantined part of
    its input.  ``ResiliencePolicy.strict()`` builds that posture.
    """

    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(backoff_base=0.05))
    strict: bool = False


# Set after the class so the ``strict`` field keeps its default; on an
# instance the field shadows this constructor.
ResiliencePolicy.strict = classmethod(  # type: ignore[assignment]
    lambda cls: cls(retry=RetryPolicy(max_attempts=1), strict=True)
)


@dataclass
class StageOutcome:
    """What the supervisor saw while running one stage."""

    stage: str
    status: str = "ok"  # "ok" | "degraded" | "failed"
    attempts: int = 1
    #: Items quarantined out of this stage's input.
    quarantined: int = 0
    error: Optional[str] = None
    error_severity: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "status": self.status,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "error": self.error,
            "error_severity": self.error_severity,
        }


@dataclass
class DegradationReport:
    """Honest labelling of a partially-successful study.

    Collects per-stage outcomes, the quarantine totals, and the
    per-target confidence tally — the run's "what you are looking at"
    note, persisted into the manifest.
    """

    stages: Dict[str, StageOutcome] = field(default_factory=dict)
    #: Per-verdict target counts ("full" / "degraded" / "insufficient"),
    #: filled in once the analysis stage has run.
    confidence: Dict[str, int] = field(default_factory=dict)
    quarantined_total: int = 0

    @property
    def degraded(self) -> bool:
        """Whether any stage ran on less than its full, clean input."""
        return any(o.status != "ok" for o in self.stages.values()) or any(
            self.confidence.get(v, 0) > 0 for v in ("degraded", "insufficient")
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "degraded": self.degraded,
            "quarantined_total": self.quarantined_total,
            "stages": {name: o.to_dict() for name, o in sorted(self.stages.items())},
            "confidence": dict(self.confidence),
        }

    def summary_lines(self) -> List[str]:
        lines = [
            "degradation: "
            + ("DEGRADED" if self.degraded else "clean")
            + f" ({self.quarantined_total} quarantined)"
        ]
        for name in sorted(self.stages):
            outcome = self.stages[name]
            detail = f" [{outcome.error_severity}: {outcome.error}]" if outcome.error else ""
            lines.append(
                f"  {name:16s} {outcome.status:9s} attempts={outcome.attempts}"
                f" quarantined={outcome.quarantined}{detail}"
            )
        if self.confidence:
            tally = ", ".join(
                f"{verdict}={self.confidence[verdict]}"
                for verdict in ("full", "degraded", "insufficient")
                if verdict in self.confidence
            )
            lines.append(f"  confidence:      {tally}")
        return lines


class StageSupervisor:
    """Runs pipeline stages under a :class:`ResiliencePolicy`."""

    def __init__(
        self,
        policy: Optional[ResiliencePolicy] = None,
        quarantine: Optional[QuarantineLog] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.quarantine = quarantine if quarantine is not None else QuarantineLog()
        self.outcomes: Dict[str, StageOutcome] = {}
        self._sleep = sleep

    def run(
        self,
        stage: str,
        fn: Callable[[], Any],
        fallback: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Run one stage under its policy; see the module docstring.

        ``fallback`` is the degrade path for corrupt input — typically
        the same computation over a sanitized subset or an explicitly
        empty result.  Without one, corrupt input escalates to failure.
        """
        policy, retry = self.policy, self.policy.retry
        outcome = StageOutcome(stage=stage)
        self.outcomes[stage] = outcome
        quarantined_before = self.quarantine.total
        metrics = current_metrics()

        def settle(status: str) -> None:
            outcome.status = status
            if metrics.enabled:
                metrics.counter(f"stage_{status}").inc()

        def fail(severity: Severity, error: str, cause: Optional[BaseException]) -> NoReturn:
            outcome.error, outcome.error_severity = error, severity.value
            settle("failed")
            raise StageFailed(stage, severity, error) from cause

        degraded = False
        for attempt in range(1, retry.max_attempts + 1):
            outcome.attempts = attempt
            try:
                value = fn()
            except Exception as exc:  # noqa: BLE001 — classification is the point
                severity = classify_exception(exc)
                outcome.error, outcome.error_severity = str(exc), severity.value
                if severity is Severity.TRANSIENT and attempt < retry.max_attempts:
                    if metrics.enabled:
                        metrics.counter("stage_retries").inc()
                    self._sleep(retry.backoff(attempt))
                    continue
                if severity is not Severity.CORRUPT or policy.strict or fallback is None:
                    fail(severity, str(exc), exc)
                # Corrupt input degrades through the fallback; a raising
                # fallback fails the stage like any other failure.
                try:
                    value = fallback()
                except Exception as fallback_exc:  # noqa: BLE001
                    fail(
                        classify_exception(fallback_exc),
                        f"fallback: {fallback_exc}",
                        fallback_exc,
                    )
                degraded = True
            break

        outcome.quarantined = self.quarantine.total - quarantined_before
        if outcome.quarantined and policy.strict:
            fail(Severity.CORRUPT, f"{outcome.quarantined} item(s) quarantined", None)
        settle("degraded" if degraded or outcome.quarantined else "ok")
        return value

    def report(self, confidence: Optional[Dict[str, int]] = None) -> DegradationReport:
        """Assemble the degradation report from everything seen so far."""
        return DegradationReport(
            stages=dict(self.outcomes),
            confidence=dict(confidence or {}),
            quarantined_total=self.quarantine.total,
        )


def run_stage(
    name: str,
    fn: Callable[[], Any],
    supervisor: Optional[StageSupervisor] = None,
    fallback: Optional[Callable[[], Any]] = None,
    **attrs: Any,
) -> Any:
    """Run one pipeline stage — the one way the study and the service do.

    Opens a span called ``name`` on the current tracer and brackets the
    stage with ``stage_start`` / ``stage_end`` events (``attrs``, e.g.
    ``epoch=3``, go on all three); ``stage_end`` fires whether the stage
    returns or raises.  With a ``supervisor`` the stage runs under its
    policy (retry / degrade via ``fallback`` / fail-fast); without one
    ``fn`` runs bare and any exception propagates untouched.
    """
    events = current_events()
    with current_tracer().span(name, **attrs):
        events.emit("stage", "stage_start", stage=name, **attrs)
        try:
            if supervisor is None:
                return fn()
            return supervisor.run(name, fn, fallback=fallback)
        finally:
            events.emit("stage", "stage_end", stage=name, **attrs)

"""Stage supervision: retry, degrade, or fail — per policy, never by luck.

A :class:`StageSupervisor` wraps each pipeline stage of a
:class:`~repro.workflow.CensusStudy`.  Failures are classified through
the :mod:`~repro.resilience.errors` taxonomy and handled by the stage's
:class:`StagePolicy`:

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
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..obs import current_events, current_metrics, current_tracer
from .errors import Severity, StageFailed, classify_exception
from .quarantine import QuarantineLog


@dataclass(frozen=True)
class StagePolicy:
    """How one pipeline stage responds to each failure severity."""

    #: Total attempts for transient failures (1 = no retry).
    max_attempts: int = 3
    #: Base of the exponential backoff between transient retries, in
    #: seconds.  Real wall-clock sleep — supervision is operational, not
    #: part of the simulated timeline.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    #: ``"degrade"`` runs the stage's fallback on corrupt input;
    #: ``"fail"`` treats corrupt input as fatal.
    on_corrupt: str = "degrade"
    #: Refuse quarantined input outright: a stage that *succeeds* but
    #: only after the sanitizers removed part of its input fails instead
    #: of being labelled degraded.  The strict posture's teeth.
    fail_on_quarantine: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.on_corrupt not in ("degrade", "fail"):
            raise ValueError(f"unknown on_corrupt mode {self.on_corrupt!r}")

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Pipeline-wide supervision configuration.

    ``overrides`` maps stage names (``"measurement"``, ``"combine"``,
    ``"analysis"``, ...) to stage-specific policies; every other stage
    uses ``default``.
    """

    default: StagePolicy = field(default_factory=StagePolicy)
    overrides: Mapping[str, StagePolicy] = field(default_factory=dict)

    def for_stage(self, name: str) -> StagePolicy:
        return self.overrides.get(name, self.default)

    @classmethod
    def strict(cls) -> "ResiliencePolicy":
        """Never degrade: corrupt or quarantined input fails the stage."""
        return cls(
            default=StagePolicy(
                max_attempts=1, on_corrupt="fail", fail_on_quarantine=True
            )
        )

    @classmethod
    def permissive(cls) -> "ResiliencePolicy":
        """The default degrade-and-continue posture (alias for clarity)."""
        return cls()


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
        policy = self.policy.for_stage(stage)
        outcome = StageOutcome(stage=stage)
        self.outcomes[stage] = outcome
        quarantined_before = self.quarantine.total
        metrics = current_metrics()

        attempt = 0
        while True:
            attempt += 1
            outcome.attempts = attempt
            try:
                value = fn()
            except Exception as exc:  # noqa: BLE001 — classification is the point
                severity = classify_exception(exc)
                outcome.error = str(exc)
                outcome.error_severity = severity.value
                if severity is Severity.TRANSIENT and attempt < policy.max_attempts:
                    if metrics.enabled:
                        metrics.counter("stage_retries").inc()
                    self._sleep(policy.backoff_s(attempt))
                    continue
                if (
                    severity is Severity.CORRUPT
                    and policy.on_corrupt == "degrade"
                    and fallback is not None
                ):
                    value = fallback()
                    outcome.status = "degraded"
                    outcome.quarantined = self.quarantine.total - quarantined_before
                    if metrics.enabled:
                        metrics.counter("stage_degraded").inc()
                    return value
                outcome.status = "failed"
                if metrics.enabled:
                    metrics.counter("stage_failed").inc()
                raise StageFailed(stage, severity, str(exc)) from exc
            else:
                outcome.quarantined = self.quarantine.total - quarantined_before
                if outcome.quarantined and policy.fail_on_quarantine:
                    outcome.status = "failed"
                    outcome.error = f"{outcome.quarantined} item(s) quarantined"
                    outcome.error_severity = Severity.CORRUPT.value
                    if metrics.enabled:
                        metrics.counter("stage_failed").inc()
                    raise StageFailed(stage, Severity.CORRUPT, outcome.error)
                if outcome.quarantined and outcome.status == "ok":
                    outcome.status = "degraded"
                if metrics.enabled:
                    metrics.counter(f"stage_{outcome.status}").inc()
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

"""Typed error taxonomy for pipeline-stage supervision.

The census pipeline runs for hours before its analysis stages see a
single byte, so *how* a stage fails matters as much as *that* it failed.
Every failure the :class:`~repro.resilience.supervisor.StageSupervisor`
sees is classified into one of three severities:

* **transient** — the operation might succeed if simply tried again
  (a checkpoint file briefly locked, an interrupted system call).  The
  supervisor retries with backoff.
* **corrupt** — the stage's *input* is bad (malformed records, impossible
  coordinates, a matrix that lost its samples).  Retrying is pointless;
  the supervisor degrades: it re-runs the stage on the sanitized subset
  and labels the result honestly instead of crashing the study.
* **fatal** — the run cannot meaningfully continue (quorum missed,
  misconfiguration).  The supervisor fails fast and re-raises.

Raise the typed subclasses from resilience-aware code; foreign
exceptions are mapped by :func:`classify_exception` so a study never
dies of an unclassified stack trace after the expensive measurement
phase already ran.
"""

from __future__ import annotations

import enum

from ..measurement.campaign import CensusAborted


class Severity(enum.Enum):
    """How a stage failure should be handled."""

    #: Might succeed on retry (I/O hiccup, interrupted call).
    TRANSIENT = "transient"
    #: The stage input is malformed; retrying cannot help, degrading can.
    CORRUPT = "corrupt"
    #: The run cannot meaningfully continue; fail fast.
    FATAL = "fatal"


class ResilienceError(RuntimeError):
    """Base of the typed stage-failure hierarchy."""

    severity: Severity = Severity.FATAL


class TransientStageError(ResilienceError):
    """A failure worth retrying (e.g. a brief I/O hiccup)."""

    severity = Severity.TRANSIENT


class CorruptInputError(ResilienceError):
    """A stage received input it cannot analyze soundly."""

    severity = Severity.CORRUPT


class FatalStageError(ResilienceError):
    """A failure no retry or degradation can recover from."""

    severity = Severity.FATAL


class StageFailed(ResilienceError):
    """Raised by the supervisor when a stage exhausted its policy.

    Wraps the last underlying exception so callers see both the stage
    name and the original cause (available as ``__cause__``).
    """

    severity = Severity.FATAL

    def __init__(self, stage: str, severity: Severity, message: str) -> None:
        self.stage = stage
        self.failure_severity = severity
        super().__init__(f"stage {stage!r} failed ({severity.value}): {message}")


def classify_exception(exc: BaseException) -> Severity:
    """Map an arbitrary exception onto the severity taxonomy.

    Typed :class:`ResilienceError` subclasses carry their own severity.
    For foreign exceptions the mapping is deliberately conservative:
    data-shaped errors (``ValueError``/``KeyError``/``IndexError``/
    arithmetic) come from malformed input and are *corrupt*; OS-level
    errors are *transient*; a :class:`CensusAborted` quorum miss and
    everything unrecognized are *fatal* — an unknown failure mode should
    stop the study, not be papered over.
    """
    if isinstance(exc, ResilienceError):
        return exc.severity
    if isinstance(exc, CensusAborted):
        return Severity.FATAL
    if isinstance(exc, (OSError, TimeoutError, InterruptedError)):
        return Severity.TRANSIENT
    if isinstance(exc, (ValueError, KeyError, IndexError, ArithmeticError, TypeError)):
        return Severity.CORRUPT
    return Severity.FATAL

"""repro.resilience — pipeline-wide data quarantine and stage supervision.

Three pillars (see ``docs/API_GUIDE.md``):

* :mod:`repro.resilience.sanitize` — validators/sanitizers for the data
  crossing stage boundaries (probe records, RTT matrices, hitlists):
  repair what's repairable, quarantine what isn't;
* :mod:`repro.resilience.supervisor` — a :class:`StageSupervisor` with a
  typed error taxonomy (:mod:`repro.resilience.errors`) and per-stage
  policies: retry transient failures, degrade-and-continue on corrupt
  input, fail fast on fatal errors;
* :mod:`repro.resilience.degraded` — per-target confidence verdicts
  (``full`` / ``degraded`` / ``insufficient``) that flow into the
  characterization tables and the run manifest.

The golden rule mirrors the obs layer's: resilience is *output-neutral*
on clean data.  Every sanitizer returns its argument object unchanged
when nothing is wrong, so a resilience-enabled study over an unpoisoned
campaign is byte-identical to the baseline.
"""

from .degraded import (
    CONFIDENCE_DEGRADED,
    CONFIDENCE_FULL,
    CONFIDENCE_INSUFFICIENT,
    CONFIDENCE_LEVELS,
    confidence_counts,
    confidence_verdicts,
    empty_analysis,
)
from .errors import (
    CorruptInputError,
    FatalStageError,
    ResilienceError,
    Severity,
    StageFailed,
    TransientStageError,
    classify_exception,
)
from .quarantine import QuarantineBucket, QuarantineLog
from .sanitize import (
    MAX_PLAUSIBLE_RTT_MS,
    MIN_PLAUSIBLE_RTT_MS,
    VALID_FLAGS,
    sanitize_hitlist,
    sanitize_matrix,
    sanitize_records,
)
from .supervisor import (
    DegradationReport,
    ResiliencePolicy,
    StageOutcome,
    StageSupervisor,
    run_stage,
)
from .vptrust import (
    TRUST_REASON_NEGATIVE_RTT,
    TRUST_REASON_RTT_INFLATION,
    TRUST_REASON_SOL_VIOLATION,
    TRUST_REASON_STUCK_RTT,
    PeelCarry,
    TrustPolicy,
    VpTrustReport,
    VpTrustVerdict,
    apply_trust,
    score_vps,
    trust_gate,
)

__all__ = [
    "CONFIDENCE_DEGRADED",
    "CONFIDENCE_FULL",
    "CONFIDENCE_INSUFFICIENT",
    "CONFIDENCE_LEVELS",
    "confidence_counts",
    "confidence_verdicts",
    "empty_analysis",
    "CorruptInputError",
    "FatalStageError",
    "ResilienceError",
    "Severity",
    "StageFailed",
    "TransientStageError",
    "classify_exception",
    "QuarantineBucket",
    "QuarantineLog",
    "MAX_PLAUSIBLE_RTT_MS",
    "MIN_PLAUSIBLE_RTT_MS",
    "VALID_FLAGS",
    "sanitize_hitlist",
    "sanitize_matrix",
    "sanitize_records",
    "DegradationReport",
    "ResiliencePolicy",
    "StageOutcome",
    "StageSupervisor",
    "run_stage",
    "TRUST_REASON_NEGATIVE_RTT",
    "TRUST_REASON_RTT_INFLATION",
    "TRUST_REASON_SOL_VIOLATION",
    "TRUST_REASON_STUCK_RTT",
    "PeelCarry",
    "TrustPolicy",
    "VpTrustReport",
    "VpTrustVerdict",
    "apply_trust",
    "score_vps",
    "trust_gate",
]

"""repro.obs — zero-dependency observability for the census pipeline.

Deterministic in-process layers (see ``docs/API_GUIDE.md``):

* :mod:`repro.obs.trace` — hierarchical spans with inclusive/exclusive
  wall time, a process-wide default tracer, and a free no-op tracer;
* :mod:`repro.obs.metrics` — named counters, gauges, and fixed-bucket
  histograms (with p50/p90/p99 estimation and order-free ``merge``),
  snapshotable to plain dicts;
* :mod:`repro.obs.manifest` — the run manifest: config + trace + metrics
  + health in one atomically-written, schema-validated JSON document;

and the fleet-telemetry layers built on top of them:

* :mod:`repro.obs.events` — append-only JSONL structured-event log with
  a bounded buffer and crash-safe flush;
* :mod:`repro.obs.export` — Prometheus text-exposition and Chrome
  trace-event (Perfetto) exporters, with self-contained validators;
* :mod:`repro.obs.slo` — declarative latency/error budgets evaluated
  per epoch into schema-validated pass/warn/breach reports;
* :mod:`repro.obs.timeline` — longitudinal series over an archive plus
  a rolling median/MAD regression sentinel.

The golden rule: observability is *behaviour-neutral*.  Instrumentation
never touches an RNG, never feeds wall time into results, and with the
null tracer/registry/log installed (the default) its overhead is a few
attribute lookups per call site.
"""

from .events import (
    NULL_EVENTS,
    EventLog,
    NullEventLog,
    current_events,
    parse_events,
    read_events,
    set_events,
    use_events,
)
from .export import (
    chrome_trace_problems,
    prometheus_problems,
    to_chrome_trace,
    to_prometheus,
)
from .manifest import (
    CANONICAL_STAGES,
    REQUIRED_KEYS,
    SCHEMA_VERSION,
    RunManifest,
    manifest_problems,
    validate_manifest,
)
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    current_metrics,
    set_metrics,
    use_metrics,
)
from .slo import (
    Budget,
    SloReport,
    SloSpec,
    default_service_slo,
    evaluate_slo,
    slo_report_problems,
    stage_seconds_from_trace,
    validate_slo_report,
)
from .timeline import (
    Regression,
    Timeline,
    collect_timeline,
    detect_regressions,
    render_timeline,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Stopwatch,
    Tracer,
    current_tracer,
    iter_span_names,
    render_trace,
    set_tracer,
    use_tracer,
)


class activate:
    """Install a tracer, a metrics registry and an event log together,
    scoped.

    ``with activate(tracer, metrics, events): study_stage()`` — any
    argument may be ``None`` to leave that layer untouched.
    """

    def __init__(self, tracer=None, metrics=None, events=None) -> None:
        self._tracer_cm = use_tracer(tracer) if tracer is not None else None
        self._metrics_cm = use_metrics(metrics) if metrics is not None else None
        self._events_cm = use_events(events) if events is not None else None

    def __enter__(self) -> "activate":
        if self._tracer_cm is not None:
            self._tracer_cm.__enter__()
        if self._metrics_cm is not None:
            self._metrics_cm.__enter__()
        if self._events_cm is not None:
            self._events_cm.__enter__()
        return self

    def __exit__(self, *exc: object) -> bool:
        if self._events_cm is not None:
            self._events_cm.__exit__(*exc)
        if self._metrics_cm is not None:
            self._metrics_cm.__exit__(*exc)
        if self._tracer_cm is not None:
            self._tracer_cm.__exit__(*exc)
        return False


__all__ = [
    "CANONICAL_STAGES",
    "REQUIRED_KEYS",
    "SCHEMA_VERSION",
    "RunManifest",
    "manifest_problems",
    "validate_manifest",
    "DEFAULT_BUCKETS",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "current_metrics",
    "set_metrics",
    "use_metrics",
    "NULL_EVENTS",
    "EventLog",
    "NullEventLog",
    "current_events",
    "parse_events",
    "read_events",
    "set_events",
    "use_events",
    "chrome_trace_problems",
    "prometheus_problems",
    "to_chrome_trace",
    "to_prometheus",
    "Budget",
    "SloReport",
    "SloSpec",
    "default_service_slo",
    "evaluate_slo",
    "slo_report_problems",
    "stage_seconds_from_trace",
    "validate_slo_report",
    "Regression",
    "Timeline",
    "collect_timeline",
    "detect_regressions",
    "render_timeline",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Stopwatch",
    "Tracer",
    "current_tracer",
    "iter_span_names",
    "render_trace",
    "set_tracer",
    "use_tracer",
    "activate",
]

"""Hierarchical tracing for the census pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
pipeline stage, census, VP scan, or iGreedy phase — with monotonic wall
time (``time.perf_counter``) and derived inclusive/exclusive durations.
Instrumented code never takes a tracer parameter; it asks for the
process-wide *current* tracer (:func:`current_tracer`), which defaults to
a shared :class:`NullTracer` whose spans are free no-ops.  Callers that
want a trace install their tracer for the duration of a computation::

    tracer = Tracer()
    with use_tracer(tracer):
        campaign.run(n_censuses=2)
    print(render_trace(tracer))

Determinism contract: the *shape* of the span tree (names, nesting,
sibling order) is a pure function of the pipeline inputs, because the
pipeline itself is deterministic; only the recorded durations vary run to
run.  Timestamps live exclusively in spans — instrumentation never feeds
wall time back into scientific results.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("name", "attrs", "children", "t_start", "t_end")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = attrs or {}
        self.children: List["Span"] = []
        self.t_start: float = 0.0
        self.t_end: Optional[float] = None

    def set(self, key: str, value: Any) -> None:
        """Attach (or update) an attribute mid-span."""
        self.attrs[key] = value

    @property
    def finished(self) -> bool:
        return self.t_end is not None

    @property
    def inclusive_s(self) -> float:
        """Wall time from entry to exit, children included."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    @property
    def exclusive_s(self) -> float:
        """Inclusive time minus the inclusive time of direct children."""
        return max(self.inclusive_s - sum(c.inclusive_s for c in self.children), 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict serialization (manifest / JSON friendly)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "inclusive_s": round(self.inclusive_s, 6),
            "exclusive_s": round(self.exclusive_s, 6),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.inclusive_s * 1000:.1f} ms, {len(self.children)} children)"


class _SpanContext:
    """Re-entrant-free context manager for one span (cheaper than
    ``@contextmanager`` on the hot path)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        stack = tracer._stack
        parent = stack[-1] if stack else None
        (parent.children if parent is not None else tracer.roots).append(span)
        stack.append(span)
        span.t_start = tracer._clock()
        return span

    def __exit__(self, *exc: object) -> bool:
        span = self._span
        span.t_end = self._tracer._clock()
        stack = self._tracer._stack
        if stack and stack[-1] is span:
            stack.pop()
        return False


class Tracer:
    """Collects a forest of spans; one instance per traced run."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._clock = clock

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span: ``with tracer.span("census", census_id=1):``."""
        return _SpanContext(self, Span(name, attrs or None))

    def now(self) -> float:
        """The tracer's clock (span times are on it); callable from any thread."""
        return self._clock()

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span (``None`` outside any)."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attrs: Any) -> None:
        """Set attributes on the innermost open span — for code that runs
        inside a span somebody else opened (a callback under the engine's
        ``vp_scan``).  No-op outside any span."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    @property
    def n_spans(self) -> int:
        def count(spans: Sequence[Span]) -> int:
            return sum(1 + count(s.children) for s in spans)

        return count(self.roots)

    def clear(self) -> None:
        self.roots.clear()
        self._stack.clear()

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [s.to_dict() for s in self.roots]


class _NullSpan:
    """Shared do-nothing span; entering/exiting costs two attribute hits."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: ``span()`` returns a shared no-op context."""

    enabled = False
    roots: Tuple[Span, ...] = ()
    n_spans = 0
    current = _NULL_SPAN

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def annotate(self, **attrs: Any) -> None:
        pass

    def clear(self) -> None:
        pass

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []


#: Process-wide disabled tracer (the default for uninstrumented runs).
NULL_TRACER = NullTracer()

_current: Union[Tracer, NullTracer] = NULL_TRACER


def current_tracer() -> Union[Tracer, NullTracer]:
    """The process-wide tracer instrumented code reports to."""
    return _current


def set_tracer(tracer: Union[Tracer, NullTracer]) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` as the process-wide default; returns the previous one."""
    global _current
    previous = _current
    _current = tracer
    return previous


class use_tracer:
    """Scoped installation: ``with use_tracer(t): ...`` restores on exit."""

    def __init__(self, tracer: Union[Tracer, NullTracer]) -> None:
        self._tracer = tracer
        self._previous: Union[Tracer, NullTracer] = NULL_TRACER

    def __enter__(self) -> Union[Tracer, NullTracer]:
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, *exc: object) -> bool:
        set_tracer(self._previous)
        return False


class Stopwatch:
    """Tiny context-managed timer for benchmarks and ad-hoc measurements.

    Replaces the ``t0 = time.perf_counter(); ...; elapsed = ...`` idiom::

        with Stopwatch() as sw:
            expensive()
        print(sw.elapsed_s)
    """

    __slots__ = ("_t0", "_t1")

    def __init__(self) -> None:
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._t1 = time.perf_counter()
        return False

    @property
    def elapsed_s(self) -> float:
        if self._t0 is None:
            return 0.0
        return (self._t1 if self._t1 is not None else time.perf_counter()) - self._t0


# ----------------------------------------------------------------------
# Rendering and shape extraction
# ----------------------------------------------------------------------


def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{seconds * 1000.0:.1f} ms"


def _fmt_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    return "  " + " ".join(f"{k}={v}" for k, v in attrs.items())


def _group_siblings(spans: Sequence[Span]) -> List[Tuple[str, List[Span]]]:
    """Group sibling spans by name, preserving first-appearance order."""
    groups: Dict[str, List[Span]] = {}
    order: List[str] = []
    for span in spans:
        if span.name not in groups:
            groups[span.name] = []
            order.append(span.name)
        groups[span.name].append(span)
    return [(name, groups[name]) for name in order]


def _render(spans: Sequence[Span], lines: List[str], depth: int, indent: int) -> None:
    pad = " " * (depth * indent)
    for name, group in _group_siblings(spans):
        if len(group) == 1:
            span = group[0]
            lines.append(
                f"{pad}{name:<{max(28 - depth * indent, 1)}} "
                f"{_fmt_duration(span.inclusive_s):>10} "
                f"(excl {_fmt_duration(span.exclusive_s)})"
                f"{_fmt_attrs(span.attrs)}"
            )
            _render(span.children, lines, depth + 1, indent)
        else:
            total = sum(s.inclusive_s for s in group)
            mean = total / len(group)
            lines.append(
                f"{pad}{name} ×{len(group):<{max(22 - depth * indent, 1)}} "
                f"{_fmt_duration(total):>10} "
                f"(mean {_fmt_duration(mean)})"
            )
            merged: List[Span] = []
            for span in group:
                merged.extend(span.children)
            _render(merged, lines, depth + 1, indent)


def render_trace(
    source: Union[Tracer, NullTracer, Sequence[Span]], indent: int = 2
) -> str:
    """Indented text rendering of a span forest.

    Sibling spans sharing a name (e.g. 100 ``vp_scan`` spans under one
    census) are aggregated into a single ``name ×N`` line with total and
    mean durations, so big traces stay readable; their children are merged
    and aggregated recursively the same way.
    """
    spans = source if isinstance(source, (list, tuple)) else source.roots
    if not spans:
        return "(no spans recorded)"
    lines: List[str] = []
    _render(list(spans), lines, 0, indent)
    return "\n".join(lines)


def iter_span_names(source: Union[Tracer, NullTracer, Sequence[Span]]) -> Iterator[str]:
    """Depth-first iteration over every span name in the forest."""
    spans = source if isinstance(source, (list, tuple)) else source.roots
    stack: List[Span] = list(reversed(list(spans)))
    while stack:
        span = stack.pop()
        yield span.name
        stack.extend(reversed(span.children))

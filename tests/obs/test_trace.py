"""Unit tests for the tracing layer (spans, null tracer, rendering)."""

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Stopwatch,
    Tracer,
    current_tracer,
    iter_span_names,
    render_trace,
    set_tracer,
    use_tracer,
)


def tree_shape(source):
    """The duration-free shape of a span forest: nested (name, children).

    Two runs of the same deterministic pipeline must produce equal shapes;
    the neutrality tests assert exactly that.
    """
    spans = source if isinstance(source, (list, tuple)) else source.roots

    def shape(span):
        return (span.name, tuple(shape(c) for c in span.children))

    return tuple(shape(s) for s in spans)


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.roots] == ["a"]
        assert [s.name for s in tracer.roots[0].children] == ["b", "c"]
        assert tracer.n_spans == 3

    def test_inclusive_and_exclusive_durations(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        # Clock ticks: outer@1, inner@2, inner-end@3, outer-end@4.
        assert inner.inclusive_s == pytest.approx(1.0)
        assert outer.inclusive_s == pytest.approx(3.0)
        assert outer.exclusive_s == pytest.approx(2.0)

    def test_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", census_id=3) as span:
            span.set("status", "ok")
        assert tracer.roots[0].attrs == {"census_id": 3, "status": "ok"}

    def test_exception_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.roots[0].finished
        # Stack unwound: the next span is a sibling, not a child.
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["doomed", "after"]

    def test_to_dicts_serialization(self):
        tracer = Tracer()
        with tracer.span("root", k="v"):
            with tracer.span("leaf"):
                pass
        (doc,) = tracer.to_dicts()
        assert doc["name"] == "root"
        assert doc["attrs"] == {"k": "v"}
        assert doc["inclusive_s"] >= doc["children"][0]["inclusive_s"]


class TestNullTracer:
    def test_span_is_noop(self):
        tracer = NullTracer()
        with tracer.span("whatever", attr=1) as span:
            span.set("k", "v")
        assert tracer.roots == ()
        assert tracer.n_spans == 0
        assert tracer.to_dicts() == []

    def test_null_span_is_shared(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")


class TestCurrentTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_restores(self):
        tracer = Tracer()
        before = current_tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is before

    def test_use_tracer_restores_on_error(self):
        tracer = Tracer()
        before = current_tracer()
        with pytest.raises(ValueError):
            with use_tracer(tracer):
                raise ValueError
        assert current_tracer() is before

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(previous)


class TestRendering:
    def _forest(self):
        tracer = Tracer(clock=FakeClock(step=0.5))
        with tracer.span("census", census_id=1):
            for name in ("vp-a", "vp-b", "vp-c"):
                with tracer.span("vp_scan", vp=name):
                    pass
        return tracer

    def test_render_aggregates_repeated_siblings(self):
        out = render_trace(self._forest())
        assert "census" in out
        assert "vp_scan ×3" in out
        assert "vp-a" not in out  # aggregated lines drop per-span attrs

    def test_render_single_span_shows_attrs(self):
        out = render_trace(self._forest())
        assert "census_id=1" in out

    def test_render_empty(self):
        assert render_trace(Tracer()) == "(no spans recorded)"
        assert render_trace(NULL_TRACER) == "(no spans recorded)"

    def test_tree_shape(self):
        a, b = self._forest(), self._forest()
        assert tree_shape(a) == tree_shape(b)
        assert tree_shape(a) == (
            ("census", (("vp_scan", ()), ("vp_scan", ()), ("vp_scan", ()))),
        )

    def test_iter_span_names_depth_first(self):
        assert list(iter_span_names(self._forest())) == [
            "census", "vp_scan", "vp_scan", "vp_scan",
        ]


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as sw:
            pass
        assert sw.elapsed_s >= 0.0

    def test_unstarted_is_zero(self):
        assert Stopwatch().elapsed_s == 0.0

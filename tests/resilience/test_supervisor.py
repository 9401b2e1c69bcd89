"""Tests for the stage supervisor, policies, and degradation report."""

import pytest

from repro.measurement.faults import RetryPolicy
from repro.obs import EventLog, MetricsRegistry, Tracer, activate
from repro.resilience import (
    CorruptInputError,
    FatalStageError,
    QuarantineLog,
    ResiliencePolicy,
    StageFailed,
    StageSupervisor,
    TransientStageError,
    run_stage,
)


def make_supervisor(policy=None, quarantine=None):
    sleeps = []
    sup = StageSupervisor(
        policy=policy, quarantine=quarantine, sleep=sleeps.append
    )
    return sup, sleeps


class TestStagePolicy:
    """Every stage runs under one :class:`ResiliencePolicy`: a
    :class:`RetryPolicy` (backoff in wall-clock seconds) and ``strict``."""

    def test_backoff_is_exponential(self):
        policy = ResiliencePolicy(RetryPolicy(backoff_base=0.1, backoff_factor=3.0))
        assert policy.retry.backoff(1) == pytest.approx(0.1)
        assert policy.retry.backoff(2) == pytest.approx(0.3)
        assert policy.retry.backoff(3) == pytest.approx(0.9)
        assert ResiliencePolicy().retry.backoff(1) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(TypeError):
            ResiliencePolicy(overrides={})

    def test_strict_never_degrades(self):
        strict = ResiliencePolicy.strict()
        assert strict.retry.max_attempts == 1
        assert strict.strict
        assert not ResiliencePolicy().strict


class TestSupervisorRun:
    def test_success_passes_value_through(self):
        sup, sleeps = make_supervisor()
        assert sup.run("combine", lambda: 42) == 42
        assert sup.outcomes["combine"].status == "ok"
        assert sup.outcomes["combine"].attempts == 1
        assert sleeps == []

    def test_transient_failures_retry_with_backoff(self):
        sup, sleeps = make_supervisor()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientStageError("hiccup")
            return "ok"

        assert sup.run("measurement", flaky) == "ok"
        assert len(calls) == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # exponential
        assert sup.outcomes["measurement"].attempts == 3
        assert sup.outcomes["measurement"].status == "ok"

    def test_transient_exhaustion_becomes_stage_failed(self):
        sup, _ = make_supervisor(ResiliencePolicy(RetryPolicy(max_attempts=2)))

        def always():
            raise TransientStageError("still down")

        with pytest.raises(StageFailed) as info:
            sup.run("measurement", always)
        assert info.value.stage == "measurement"
        assert isinstance(info.value.__cause__, TransientStageError)
        assert sup.outcomes["measurement"].attempts == 2
        assert sup.outcomes["measurement"].status == "failed"

    def test_corrupt_input_runs_fallback_and_degrades(self):
        sup, sleeps = make_supervisor()

        def broken():
            raise CorruptInputError("bad rows")

        assert sup.run("combine", broken, fallback=lambda: "partial") == "partial"
        assert sup.outcomes["combine"].status == "degraded"
        assert sleeps == []  # corruption is never retried

    def test_corrupt_without_fallback_fails(self):
        sup, _ = make_supervisor()
        with pytest.raises(StageFailed):
            sup.run("combine", lambda: (_ for _ in ()).throw(CorruptInputError()))

    def test_corrupt_with_fail_policy_ignores_fallback(self):
        sup, _ = make_supervisor(ResiliencePolicy.strict())
        with pytest.raises(StageFailed):
            sup.run(
                "combine",
                lambda: (_ for _ in ()).throw(CorruptInputError("x")),
                fallback=lambda: "nope",
            )

    def test_raising_fallback_fails_the_stage_typed(self):
        sup, _ = make_supervisor()
        registry = MetricsRegistry()

        def broken():
            raise CorruptInputError("bad rows")

        def fallback():
            raise ValueError("salvage broke too")

        with activate(None, registry):
            with pytest.raises(StageFailed) as info:
                sup.run("analysis", broken, fallback=fallback)
        assert info.value.stage == "analysis"
        assert isinstance(info.value.__cause__, ValueError)
        outcome = sup.outcomes["analysis"]
        assert outcome.status == "failed"
        assert "salvage broke too" in outcome.error
        assert sup.report().degraded
        counters = registry.snapshot()["counters"]
        assert counters["stage_failed"] == 1
        assert "stage_degraded" not in counters

    def test_fatal_fails_fast_without_retry(self):
        sup, sleeps = make_supervisor()
        calls = []

        def fatal():
            calls.append(1)
            raise FatalStageError("no quorum")

        with pytest.raises(StageFailed):
            sup.run("measurement", fatal, fallback=lambda: "nope")
        assert len(calls) == 1
        assert sleeps == []

    def test_quarantine_growth_marks_stage_degraded(self):
        log = QuarantineLog()
        sup, _ = make_supervisor(quarantine=log)

        def stage():
            log.add("combine", "nan_rtt", 4)
            return "value"

        assert sup.run("combine", stage) == "value"
        assert sup.outcomes["combine"].status == "degraded"
        assert sup.outcomes["combine"].quarantined == 4

    def test_fail_on_quarantine_refuses_partial_input(self):
        log = QuarantineLog()
        sup, _ = make_supervisor(ResiliencePolicy.strict(), quarantine=log)

        def stage():
            log.add("combine", "nan_rtt", 1)
            return "value"

        with pytest.raises(StageFailed) as info:
            sup.run("combine", stage)
        assert "quarantined" in str(info.value)
        assert sup.outcomes["combine"].status == "failed"

    def test_metrics_counters_are_emitted(self):
        registry = MetricsRegistry()
        sup, _ = make_supervisor()
        with activate(None, registry):
            sup.run("a", lambda: 1)
            with pytest.raises(StageFailed):
                sup.run("b", lambda: (_ for _ in ()).throw(FatalStageError()))
        counters = registry.snapshot()["counters"]
        assert counters["stage_ok"] == 1
        assert counters["stage_failed"] == 1


class TestRunStage:
    """The one stage runner shared by the study and the service."""

    @pytest.mark.parametrize("supervised", [False, True])
    def test_raising_stage_still_emits_stage_end(self, supervised):
        def boom():
            raise FatalStageError("disk on fire")

        supervisor = make_supervisor()[0] if supervised else None
        tracer, events = Tracer(), EventLog()
        with activate(tracer=tracer, events=events):
            with pytest.raises(StageFailed if supervised else FatalStageError):
                run_stage("analysis", boom, supervisor, epoch=3)
        import json

        emitted = [json.loads(line) for line in events.to_lines()]
        assert [(e["name"], e["attrs"]) for e in emitted] == [
            ("stage_start", {"stage": "analysis", "epoch": 3}),
            ("stage_end", {"stage": "analysis", "epoch": 3}),
        ]
        (span,) = tracer.roots
        assert span.name == "analysis" and span.attrs["epoch"] == 3

    def test_supervised_stage_degrades_through_its_fallback(self):
        def corrupt():
            raise CorruptInputError("bad rows")

        sup, _ = make_supervisor()
        assert run_stage("combine", corrupt, sup, fallback=lambda: "salvaged") == "salvaged"
        assert sup.outcomes["combine"].status == "degraded"


class TestDegradationReport:
    def test_clean_report(self):
        sup, _ = make_supervisor()
        sup.run("a", lambda: 1)
        report = sup.report()
        assert not report.degraded
        assert report.quarantined_total == 0
        assert report.stages["a"].status == "ok"

    def test_degraded_when_any_stage_degraded(self):
        sup, _ = make_supervisor()
        sup.run("a", lambda: (_ for _ in ()).throw(CorruptInputError()),
                fallback=lambda: 0)
        assert sup.report().degraded

    def test_degraded_when_confidence_has_insufficient_targets(self):
        sup, _ = make_supervisor()
        sup.run("a", lambda: 1)
        report = sup.report(confidence={"full": 5, "insufficient": 2})
        assert report.degraded
        assert report.confidence["insufficient"] == 2

    def test_to_dict_shape(self):
        import json

        sup, _ = make_supervisor()
        sup.run("a", lambda: 1)
        doc = sup.report(confidence={"full": 3}).to_dict()
        assert set(doc) == {"degraded", "quarantined_total", "stages", "confidence"}
        assert doc["stages"]["a"]["status"] == "ok"
        json.dumps(doc)

    def test_summary_lines_render(self):
        sup, _ = make_supervisor()
        sup.run("a", lambda: 1)
        text = "\n".join(sup.report().summary_lines())
        assert "degradation: clean" in text
        assert "a" in text

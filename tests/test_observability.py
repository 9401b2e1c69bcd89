"""End-to-end observability guarantees: neutrality and determinism.

The tentpole contract: with tracing and metrics on, pipeline *outputs*
are byte-identical to a run with them off, and the recorded span tree /
metric snapshot are themselves deterministic across identical runs.
"""

import pytest

from repro.internet.topology import InternetConfig
from repro.obs import CANONICAL_STAGES, iter_span_names, validate_manifest
from repro.workflow import CensusStudy, StudyConfig

from .obs.test_trace import tree_shape


def _config(trace: bool) -> StudyConfig:
    return StudyConfig(
        internet=InternetConfig(seed=3, n_unicast_slash24=400, tail_deployments=15),
        n_vantage_points=40,
        n_censuses=2,
        trace=trace,
        metrics=trace,
        events=trace,
    )


def _run(trace: bool) -> CensusStudy:
    study = CensusStudy(_config(trace))
    study.characterization  # force the full pipeline
    return study


def _result_fingerprint(study: CensusStudy):
    """Everything scientific: detections, enumerations, geolocations,
    and the raw census records."""
    analysis = study.analysis
    return (
        sorted(analysis.anycast_prefixes),
        {p: r.city_names for p, r in analysis.results.items()},
        {p: r.replica_count for p, r in analysis.results.items()},
        [c.records.checksum() for c in study.censuses],
    )


@pytest.fixture(scope="module")
def plain_study():
    return _run(trace=False)


@pytest.fixture(scope="module")
def traced_study():
    return _run(trace=True)


class TestNeutrality:
    def test_outputs_identical_with_and_without_observability(
        self, plain_study, traced_study
    ):
        assert _result_fingerprint(plain_study) == _result_fingerprint(traced_study)

    def test_plain_study_records_nothing(self, plain_study):
        assert plain_study.tracer.n_spans == 0
        assert plain_study.metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert plain_study.events.snapshot()["n_events"] == 0

    def test_observability_does_not_leak_between_studies(
        self, plain_study, traced_study
    ):
        # The traced study's instruments saw only its own pipeline: two
        # censuses at 40 VPs means well under 200 VP scans.
        counters = traced_study.metrics.snapshot()["counters"]
        n_scans = counters["vps_ok"] + counters.get("vps_failed", 0)
        assert n_scans <= 3 * 40  # precensus + 2 censuses


class TestDeterminism:
    def test_span_tree_shape_stable_across_runs(self, traced_study):
        again = _run(trace=True)
        assert tree_shape(traced_study.tracer) == tree_shape(again.tracer)
        assert _result_fingerprint(traced_study) == _result_fingerprint(again)

    def test_metrics_snapshot_identical_across_runs(self, traced_study):
        again = _run(trace=True)
        assert traced_study.metrics.snapshot() == again.metrics.snapshot()


class TestCoverage:
    def test_trace_covers_every_pipeline_stage(self, traced_study):
        seen = set(iter_span_names(traced_study.tracer))
        assert set(CANONICAL_STAGES) <= seen

    def test_expected_metrics_present(self, traced_study):
        snap = traced_study.metrics.snapshot()
        assert snap["counters"]["probes_sent"] > 0
        assert snap["counters"]["censuses_completed"] == 2
        assert snap["counters"]["targets_classified_anycast"] > 0
        assert snap["histograms"]["disks_per_target"]["count"] > 0
        assert snap["histograms"]["mis_size"]["count"] > 0
        assert snap["histograms"]["igreedy_iterations"]["count"] > 0
        assert snap["gauges"]["rtt_matrix_cells"] > 0

    def test_event_log_brackets_every_stage(self, traced_study):
        from repro.obs import parse_events

        events, problems = parse_events(
            "".join(traced_study.events.to_lines()), strict=True
        )
        assert problems == []
        started = [e["attrs"]["stage"] for e in events if e["name"] == "stage_start"]
        ended = [e["attrs"]["stage"] for e in events if e["name"] == "stage_end"]
        assert sorted(started) == sorted(ended)  # every stage closed
        assert {"measurement", "analysis", "characterization"} <= set(started)

    def test_manifest_roundtrip(self, traced_study, tmp_path):
        import json

        path = traced_study.write_manifest(tmp_path / "run.json")
        doc = json.loads(path.read_text())
        validate_manifest(doc)
        assert doc["pipeline_stages"] == list(CANONICAL_STAGES)
        assert len(doc["health"]) == 2
        assert doc["config"]["n_censuses"] == 2


class TestLazyHealthReports:
    def test_health_reports_do_not_force_a_run(self):
        study = CensusStudy(_config(trace=False))
        assert study.health_reports == []
        assert study._censuses is None  # nothing was materialized

    def test_health_reports_after_materialization(self, plain_study):
        assert len(plain_study.health_reports) == 2

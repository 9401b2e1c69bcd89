"""Durable telemetry sidecars: byte-neutral, crash-safe, repairable.

The telemetry PR's service-level contract:

* **neutrality** — a telemetry-on timeline's census payloads (manifest,
  records, results, index) are byte-identical to a telemetry-off one;
  only the ``telemetry.json``/``events.jsonl`` sidecars differ;
* **crash safety** — sidecars ride inside the atomic commit, so a kill
  at any commit point leaves either a complete, seal-valid events file
  or none, and catch-up converges to byte-identical census outputs;
* **repairability** — fsck treats a rotten sidecar as repairable:
  quarantine the telemetry, keep the run;
* **regression sentinel** — a seeded slow stage is flagged by the
  timeline engine while clean epochs are not.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.measurement.campaign import CensusInterrupted
from repro.measurement.faults import FaultPlan
from repro.measurement.recordio import CorruptPayloadError
from repro.obs import parse_events, validate_slo_report
from repro.service.archive import EVENTS_FILE, TELEMETRY_FILE, telemetry_problems
from repro.workflow import small_service

from .conftest import DAYS, archive_tree
from .test_chaos_service import run_until_dead

#: Sidecar names excluded from census byte-identity comparisons.
SIDECARS = {TELEMETRY_FILE, EVENTS_FILE}


def census_tree(root):
    """The archive tree minus telemetry sidecars (the census bytes)."""
    return {
        path: data
        for path, data in archive_tree(root).items()
        if pathlib.PurePath(path).name not in SIDECARS
    }


def telemetry_service(root, fault_plan=None):
    return small_service(root, telemetry=True, fault_plan=fault_plan)


@pytest.fixture(scope="module")
def telemetry_archive(tmp_path_factory) -> pathlib.Path:
    """An uninterrupted 5-day telemetry-on timeline (read-only!)."""
    root = tmp_path_factory.mktemp("telemetry") / "archive"
    service = telemetry_service(root)
    for epoch in range(DAYS):
        service.run_epoch(epoch)
    return root


class TestByteNeutrality:
    def test_census_bytes_identical_to_plain_service(
        self, telemetry_archive, reference_tree
    ):
        reference_census = {
            path: data
            for path, data in reference_tree.items()
            if pathlib.PurePath(path).name not in SIDECARS
        }
        assert census_tree(telemetry_archive) == reference_census

    def test_sidecars_present_on_every_run(self, telemetry_archive):
        service = telemetry_service(telemetry_archive)
        for epoch in range(DAYS):
            run_dir = service.archive.run_dir(epoch)
            assert (run_dir / TELEMETRY_FILE).exists()
            assert (run_dir / EVENTS_FILE).exists()

    def test_sidecars_not_sealed_into_manifest(self, telemetry_archive):
        service = telemetry_service(telemetry_archive)
        manifest = service.archive.read_manifest(0)
        assert SIDECARS.isdisjoint(manifest["payloads"])


class TestTelemetryPayload:
    def test_telemetry_document_is_valid(self, telemetry_archive):
        service = telemetry_service(telemetry_archive)
        for epoch in range(DAYS):
            doc = service.archive.read_telemetry(epoch)
            assert telemetry_problems(doc) == []
            assert doc["epoch"] == epoch
            assert doc["stages"].get("census", 0) >= 0
            assert "analysis" in doc["stages"]
            validate_slo_report(doc["slo"])
            assert doc["metrics"]["counters"]["service_epochs_committed"] == 1

    def test_events_parse_and_match_seal(self, telemetry_archive):
        service = telemetry_service(telemetry_archive)
        for epoch in range(DAYS):
            text = (service.archive.run_dir(epoch) / EVENTS_FILE).read_text()
            events, problems = parse_events(text, strict=True)
            assert problems == []
            names = [e["name"] for e in events]
            assert names[0] == "epoch_start"
            assert "epoch_end" in names
            seal = service.archive.read_telemetry(epoch)["events"]
            assert seal["lines"] == len(text.splitlines())

    def test_plain_run_has_no_telemetry(self, reference_archive):
        service = small_service(reference_archive)
        assert service.archive.read_telemetry(0) is None

    def test_worker_metrics_folded_into_sidecar(self, tmp_path, monkeypatch):
        # With the epoch's census on scan threads, the unit counters
        # must land in the archived snapshot as the serial run's do.
        import repro.service.service as service_mod

        root = tmp_path / "archive"
        telemetry_service(root).run_epoch(0)
        serial = telemetry_service(root).archive.read_telemetry(0)["metrics"]

        # The service config has no worker knob; wrap the campaign
        # factory so the same epoch scans on 2 threads.
        real_campaign = service_mod.CensusCampaign
        monkeypatch.setattr(
            service_mod,
            "CensusCampaign",
            lambda *a, **kw: real_campaign(
                *a, workers=2, **kw
            ),
        )
        pooled_root = tmp_path / "pooled"
        pooled_service = telemetry_service(pooled_root)
        pooled_service.run_epoch(0)
        pooled = pooled_service.archive.read_telemetry(0)["metrics"]

        # Unit counters of the threaded scans equal the ones the serial
        # (inline) driver counted...
        assert pooled["counters"]["exec_unit_scans"] > 0
        assert pooled["counters"]["exec_unit_scans"] == serial["counters"]["exec_unit_scans"]
        # ...census-level families agree with serial...
        assert pooled["counters"]["vps_ok"] == serial["counters"]["vps_ok"]
        assert (
            pooled["histograms"]["vp_scan_duration_hours"]
            == serial["histograms"]["vp_scan_duration_hours"]
        )
        # ...and the pooled census bytes are the serial bytes.
        assert census_tree(pooled_root) == census_tree(root)


class TestCrashSafety:
    @pytest.mark.parametrize(
        "point", ["commit:staged", "commit:renamed", "commit:indexed"]
    )
    def test_kill_inside_commit_never_tears_events(
        self, tmp_path, reference_tree, point
    ):
        root = tmp_path / "archive"
        assert run_until_dead(telemetry_service(root), DAYS - 1, commit_kill=point)
        # Every *committed* run has a complete, parseable events file.
        for run_dir in sorted((root / "runs").iterdir()):
            if run_dir.name.startswith("."):
                continue  # torn staging: fsck's job
            events_path = run_dir / EVENTS_FILE
            if events_path.exists():
                _, problems = parse_events(events_path.read_text(), strict=True)
                assert problems == [], run_dir.name
        # Catch-up converges to the exact census bytes of an
        # uninterrupted telemetry-off timeline.
        report, outcomes = telemetry_service(root).catch_up(DAYS - 1)
        reference_census = {
            p: d
            for p, d in reference_tree.items()
            if pathlib.PurePath(p).name not in SIDECARS
        }
        assert census_tree(root) == reference_census
        assert not list((root / "journal").iterdir())

    def test_mid_census_interrupt_then_catch_up(self, tmp_path, reference_tree):
        root = tmp_path / "archive"
        service = telemetry_service(root)
        service.run_epoch(0)
        with pytest.raises(CensusInterrupted):
            service.run_epoch(1, abort_after_vps=5)
        assert service.archive.journal_path(1).exists()
        telemetry_service(root).catch_up(DAYS - 1)
        reference_census = {
            p: d
            for p, d in reference_tree.items()
            if pathlib.PurePath(p).name not in SIDECARS
        }
        assert census_tree(root) == reference_census
        # The resumed epoch still archived complete telemetry.
        assert telemetry_service(root).archive.read_telemetry(1) is not None

    def test_catch_up_mixes_plain_and_telemetry_epochs(
        self, tmp_path, reference_tree
    ):
        # Telemetry switched on mid-history: old runs stay valid and
        # sidecar-less, new runs carry telemetry, census bytes converge.
        root = tmp_path / "archive"
        plain = small_service(root)
        plain.run_epoch(0)
        plain.run_epoch(1)
        service = telemetry_service(root)
        service.catch_up(DAYS - 1)
        reference_census = {
            p: d
            for p, d in reference_tree.items()
            if pathlib.PurePath(p).name not in SIDECARS
        }
        assert census_tree(root) == reference_census
        assert service.archive.read_telemetry(0) is None
        assert service.archive.read_telemetry(DAYS - 1) is not None


class TestFsckRepair:
    def _copy(self, telemetry_archive, tmp_path):
        import shutil

        root = tmp_path / "archive"
        shutil.copytree(telemetry_archive, root)
        return root

    def test_truncated_events_quarantined_run_kept(self, telemetry_archive, tmp_path):
        root = self._copy(telemetry_archive, tmp_path)
        service = telemetry_service(root)
        events_path = service.archive.run_dir(2) / EVENTS_FILE
        data = events_path.read_bytes()
        events_path.write_bytes(data[: len(data) // 2])  # torn mid-line
        with pytest.raises(CorruptPayloadError):
            service.archive.read_telemetry(2)
        report = service.fsck()
        assert sorted(report.ok_epochs) == list(range(DAYS))  # run survives
        assert len(report.telemetry_quarantined) == 1
        assert report.telemetry_quarantined[0][0] == service.archive.run_dir(2).name
        # Sidecars moved out; the epoch now reads as telemetry-less.
        assert service.archive.read_telemetry(2) is None
        assert any((root / "quarantine").iterdir())
        # Second pass: nothing left to repair.
        assert service.fsck().clean

    def test_corrupt_telemetry_json_quarantined(self, telemetry_archive, tmp_path):
        root = self._copy(telemetry_archive, tmp_path)
        service = telemetry_service(root)
        (service.archive.run_dir(1) / TELEMETRY_FILE).write_text("{not json")
        report = service.fsck()
        assert sorted(report.ok_epochs) == list(range(DAYS))
        assert len(report.telemetry_quarantined) == 1
        assert service.archive.read_telemetry(1) is None

    def test_orphan_events_file_quarantined(self, telemetry_archive, tmp_path):
        root = self._copy(telemetry_archive, tmp_path)
        service = telemetry_service(root)
        (service.archive.run_dir(0) / TELEMETRY_FILE).unlink()
        report = service.fsck()
        assert sorted(report.ok_epochs) == list(range(DAYS))
        assert len(report.telemetry_quarantined) == 1

    def test_dry_run_reports_without_touching(self, telemetry_archive, tmp_path):
        root = self._copy(telemetry_archive, tmp_path)
        service = telemetry_service(root)
        (service.archive.run_dir(3) / TELEMETRY_FILE).write_text("{not json")
        before = archive_tree(root)
        report = service.fsck(repair=False)
        assert len(report.telemetry_quarantined) == 1
        assert not report.repaired
        assert archive_tree(root) == before

    def test_catch_up_after_sidecar_rot_keeps_census(
        self, telemetry_archive, tmp_path, reference_tree
    ):
        root = self._copy(telemetry_archive, tmp_path)
        service = telemetry_service(root)
        events_path = service.archive.run_dir(2) / EVENTS_FILE
        events_path.write_bytes(b"garbage that is not json lines")
        report, outcomes = service.catch_up(DAYS - 1)
        # No epoch was re-run: the census survived its sidecar.
        assert [o.status for o in outcomes] == ["already-present"] * DAYS
        reference_census = {
            p: d
            for p, d in reference_tree.items()
            if pathlib.PurePath(p).name not in SIDECARS
        }
        live = {
            p: d
            for p, d in census_tree(root).items()
            if not p.startswith("quarantine/")
        }
        assert live == reference_census


class TestRegressionSentinel:
    @pytest.fixture(scope="class")
    def seeded_archive(self, tmp_path_factory):
        """4 clean telemetry epochs, then one with a seeded slow stage."""
        root = tmp_path_factory.mktemp("seeded") / "archive"
        clean = telemetry_service(root)
        for epoch in range(DAYS - 1):
            clean.run_epoch(epoch)
        slow = telemetry_service(root, fault_plan=FaultPlan(hang_prob=1.0))
        slow.run_epoch(DAYS - 1)
        return root

    def test_clean_timeline_is_quiet(self, telemetry_archive):
        timeline, regressions = telemetry_service(telemetry_archive).timeline()
        assert timeline.epochs == list(range(DAYS))
        assert regressions == []

    def test_seeded_slow_stage_is_flagged(self, seeded_archive):
        timeline, regressions = telemetry_service(seeded_archive).timeline()
        assert any(
            r.metric == "vp_scan_hours_mean" and r.epoch == DAYS - 1
            for r in regressions
        ), [r.describe() for r in regressions]
        # The sentinel saw a ~100x jump, not borderline jitter.
        (reg,) = [r for r in regressions if r.metric == "vp_scan_hours_mean"]
        assert reg.score > 10

    def test_seeded_census_bytes_stay_identical(
        self, seeded_archive, reference_tree
    ):
        # The hang fault stretches only simulated duration telemetry;
        # the committed census bytes are untouched.
        reference_census = {
            p: d
            for p, d in reference_tree.items()
            if pathlib.PurePath(p).name not in SIDECARS
        }
        assert census_tree(seeded_archive) == reference_census

    def test_timeline_mixes_telemetry_less_epochs(self, tmp_path):
        root = tmp_path / "archive"
        plain = small_service(root)
        plain.run_epoch(0)
        plain.run_epoch(1)
        service = telemetry_service(root)
        service.run_epoch(2)
        timeline, _ = service.timeline()
        assert timeline.epochs == [0, 1, 2]
        assert len(timeline.metric("n_targets")) == 3
        assert len(timeline.metric("stage_seconds:census")) == 1

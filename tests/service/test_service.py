"""Behavioural tests for the longitudinal census service."""

from __future__ import annotations

import json

import pytest

from repro.service import CensusService, ServiceConfig
from repro.service.archive import run_manifest_problems
from repro.service.delta import REASON_CHURN, REASON_NO_BASELINE
from repro.workflow import small_service

from .conftest import DAYS, live_tree
from .test_fsck import flip_byte


def config_like_small_service(archive_root, **overrides):
    """The ``small_service`` recipe as a raw config, for knob tests."""
    base = small_service(archive_root).config
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class TestDeterminism:
    def test_runs_are_pure_functions_of_the_epoch(self, tmp_path, reference_archive):
        root = tmp_path / "archive"
        service = small_service(root)
        for epoch in range(2):
            service.run_epoch(epoch)
        for epoch in range(2):
            day = f"day-{epoch:06d}"
            for name in ("manifest.json", "records.bin", "results.json"):
                fresh = (root / "runs" / day / name).read_bytes()
                ref = (reference_archive / "runs" / day / name).read_bytes()
                assert fresh == ref, f"{day}/{name} differs between services"

    def test_rerun_is_idempotent(self, tmp_path):
        service = small_service(tmp_path / "archive")
        first = service.run_epoch(0)
        again = service.run_epoch(0)
        assert first.status == "committed"
        assert again.status == "already-present"
        assert (again.n_targets, again.n_anycast) == (
            first.n_targets,
            first.n_anycast,
        )


class TestIncrementalRecompute:
    def test_incremental_equals_cold_byte_for_byte(self, tmp_path, reference_archive):
        """The load-bearing safety property of the whole subsystem.

        The reference archive runs incrementally (the service default);
        a from-scratch cold timeline over the same evolving world must
        produce byte-identical results and records for every day.
        """
        root = tmp_path / "cold"
        service = CensusService(config_like_small_service(root, incremental=False))
        for epoch in range(DAYS):
            outcome = service.run_epoch(epoch)
            assert outcome.mode == "cold"
            assert outcome.n_copied == 0
            day = f"day-{epoch:06d}"
            for name in ("records.bin", "results.json"):
                cold = (root / "runs" / day / name).read_bytes()
                ref = (reference_archive / "runs" / day / name).read_bytes()
                assert cold == ref, f"{day}/{name}: incremental != cold"

    def test_first_day_is_cold_then_incremental(self, reference_archive):
        service = small_service(reference_archive)
        history = service.history()
        assert history[0]["mode"] == "cold"
        assert all(row["mode"] == "incremental" for row in history[1:])
        # Gentle evolution: the service really does skip most targets.
        manifest = service.archive.read_manifest(1)
        analysis = manifest["analysis"]
        assert analysis["n_copied"] > 10 * analysis["n_recomputed"]

    def test_zero_threshold_forces_cold(self, tmp_path):
        service = CensusService(
            config_like_small_service(tmp_path / "archive", churn_threshold=0.0)
        )
        service.run_epoch(0)
        outcome = service.run_epoch(1)
        assert outcome.mode == "cold"
        assert outcome.reason == REASON_CHURN

    def test_stream_noise_never_matches_signatures(self, tmp_path):
        # Stream noise re-draws every row each epoch, so signatures all
        # change and the service correctly refuses to reuse anything.
        service = CensusService(
            config_like_small_service(tmp_path / "archive", noise="stream")
        )
        service.run_epoch(0)
        outcome = service.run_epoch(1)
        assert outcome.mode == "cold"
        assert outcome.churn_fraction == pytest.approx(1.0)

    def test_corrupt_baseline_forces_cold(self, scratch_archive):
        # Keep only a rotten day 0; day 1 must refuse the baseline.
        import shutil

        for epoch in range(1, DAYS):
            shutil.rmtree(scratch_archive / "runs" / f"day-{epoch:06d}")
        flip_byte(scratch_archive / "runs" / "day-000000" / "results.json")
        service = small_service(scratch_archive)
        outcome = service.run_epoch(1)
        assert outcome.mode == "cold"
        assert outcome.reason.startswith("baseline-unreadable")


class TestManifests:
    def test_manifests_validate_and_carry_the_analysis_story(self, reference_archive):
        service = small_service(reference_archive)
        for epoch in range(DAYS):
            manifest = service.archive.read_manifest(epoch)
            assert run_manifest_problems(manifest) == []
            analysis = manifest["analysis"]
            assert analysis["n_recomputed"] + analysis["n_copied"] == (
                manifest["counts"]["n_targets"]
            )
        first = service.archive.read_manifest(0)
        assert first["analysis"]["reason"] == REASON_NO_BASELINE
        assert first["churn"] is None

    def test_churn_block_tracks_consecutive_days(self, reference_archive):
        service = small_service(reference_archive)
        for epoch in range(1, DAYS):
            churn = service.archive.read_manifest(epoch)["churn"]
            assert churn["epoch_before"] == epoch - 1
            assert churn["epoch_after"] == epoch
            assert set(churn["ases"]) >= {"grown", "stable", "appeared"}

    def test_no_wall_clock_anywhere(self, reference_archive):
        # Byte-identity across timelines forbids timestamps; a likely
        # regression is someone adding a "created"/"time" field.
        for path in (reference_archive / "runs").rglob("*.json"):
            doc = json.loads(path.read_text())
            banned = {"created", "created_unix", "timestamp", "time", "date"}
            assert not (banned & set(doc)), f"{path} grew a wall-clock field"


class TestServiceOperations:
    def test_catch_up_fills_gaps_only(self, scratch_archive, reference_tree):
        import shutil

        shutil.rmtree(scratch_archive / "runs" / "day-000003")
        report, outcomes = small_service(scratch_archive).catch_up(DAYS - 1)
        assert report.index_rebuilt  # the index still advertised day 3
        assert [o.status for o in outcomes] == [
            "already-present",
            "already-present",
            "already-present",
            "committed",
            "already-present",
        ]
        assert live_tree(scratch_archive) == reference_tree

    def test_history_shape(self, reference_archive):
        history = small_service(reference_archive).history()
        assert [row["epoch"] for row in history] == list(range(DAYS))
        for row in history:
            assert row["n_targets"] > 0
            assert 0.0 <= row["churn_fraction"] <= 1.0

    def test_outcome_summary_lines(self, reference_archive):
        outcome = small_service(reference_archive).run_epoch(0)
        text = "\n".join(outcome.summary_lines())
        assert "already-present" in text
        assert "recomputed/copied" in text


class TestConfigValidation:
    def test_bad_noise_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="noise"):
            ServiceConfig(archive_root=str(tmp_path), noise="loud")

    def test_bad_threshold_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="churn_threshold"):
            ServiceConfig(archive_root=str(tmp_path), churn_threshold=2.0)

    @pytest.mark.parametrize("field", ["bgp", "trust_policy", "alarm_policy"])
    def test_fields_nobody_set_are_gone(self, tmp_path, field):
        with pytest.raises(TypeError):
            ServiceConfig(archive_root=str(tmp_path), **{field: None})

    def test_negative_epoch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            small_service(tmp_path / "archive").catalog_for(-1)

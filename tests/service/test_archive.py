"""Unit tests for the append-only run archive."""

from __future__ import annotations

import json

import pytest

from repro.measurement.recordio import CorruptPayloadError
from repro.service.archive import (
    ANALYSIS_MODES,
    INDEX_KIND,
    MANIFEST_FILE,
    RECORDS_FILE,
    RESULTS_FILE,
    RUN_KIND,
    RUN_SCHEMA_VERSION,
    ArchiveError,
    CensusArchive,
    canonical_json_bytes,
    parse_run_dirname,
    run_dirname,
    run_manifest_problems,
    validate_run_manifest,
)

from .conftest import archive_tree


@pytest.fixture()
def sample_run(reference_archive):
    """(manifest_core, records, results_doc) lifted from the reference."""
    archive = CensusArchive(reference_archive)
    manifest = archive.read_manifest(0)
    core = {
        k: v
        for k, v in manifest.items()
        if k not in ("kind", "schema_version", "epoch", "payloads")
    }
    return core, archive.read_records(0), archive.read_results(0)


class TestNaming:
    def test_round_trip(self):
        for epoch in (0, 1, 12, 999_999):
            assert parse_run_dirname(run_dirname(epoch)) == epoch

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            run_dirname(-1)
        with pytest.raises(ValueError):
            run_dirname(1_000_000)

    @pytest.mark.parametrize(
        "name",
        ["day-12", "day-0000001", "week-000001", "day-00000a", ".day-000001.staging"],
    )
    def test_malformed_names_parse_to_none(self, name):
        assert parse_run_dirname(name) is None


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        a = canonical_json_bytes({"b": 1, "a": [1.5, None]})
        b = canonical_json_bytes({"a": [1.5, None], "b": 1})
        assert a == b
        assert a.endswith(b"\n")

    def test_floats_round_trip(self):
        doc = {"x": 0.1 + 0.2, "y": 1e-17}
        assert json.loads(canonical_json_bytes(doc)) == doc


class TestManifestSchema:
    def test_reference_manifests_are_valid(self, reference_archive):
        archive = CensusArchive(reference_archive)
        for epoch in archive.epochs():
            assert run_manifest_problems(archive.read_manifest(epoch)) == []

    def test_non_object_is_one_problem(self):
        assert run_manifest_problems([1, 2]) == ["run manifest is not a JSON object"]

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(kind="diary"), "kind"),
            (lambda d: d.update(schema_version="1"), "schema_version"),
            (lambda d: d.update(schema_version=RUN_SCHEMA_VERSION + 1), "newer"),
            (lambda d: d.update(epoch=-1), "epoch"),
            (lambda d: d.update(census=None), "census"),
            (lambda d: d.update(vantage_points=[]), "vantage_points"),
            (lambda d: d.update(vantage_points=[{"name": "vp"}]), "name/lat/lon"),
            (lambda d: d.pop("payloads"), "payloads"),
            (lambda d: d["payloads"].pop(RECORDS_FILE), RECORDS_FILE),
            (lambda d: d["payloads"][RESULTS_FILE].pop("crc32"), RESULTS_FILE),
            (lambda d: d.update(analysis=None), "analysis"),
            (lambda d: d["analysis"].update(mode="warm"), "mode"),
            (lambda d: d.update(churn=7), "churn"),
        ],
    )
    def test_each_violation_is_reported(self, reference_archive, mutate, fragment):
        doc = CensusArchive(reference_archive).read_manifest(0)
        mutate(doc)
        problems = run_manifest_problems(doc)
        assert problems, f"mutation {fragment!r} went unnoticed"
        assert any(fragment in p for p in problems)
        with pytest.raises(ValueError):
            validate_run_manifest(doc)

    def test_declared_modes_match_schema(self):
        assert set(ANALYSIS_MODES) == {"cold", "incremental"}


class TestCommit:
    def test_commit_round_trips(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        manifest = archive.commit_run(3, core, records, results)
        assert manifest["kind"] == RUN_KIND
        assert archive.epochs() == [3]
        assert archive.read_records(3).checksum() == records.checksum()
        assert archive.read_results(3) == results
        index = archive.read_index()
        assert index["kind"] == INDEX_KIND
        assert list(index["runs"]) == [run_dirname(3)]

    def test_double_commit_refused(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        archive.commit_run(0, core, records, results)
        with pytest.raises(ArchiveError):
            archive.commit_run(0, core, records, results)

    def test_crash_before_rename_leaves_no_run(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")

        class Boom(Exception):
            pass

        def hook(point):
            if point == "commit:staged":
                raise Boom

        archive.crash_hook = hook
        with pytest.raises(Boom):
            archive.commit_run(0, core, records, results)
        assert archive.epochs() == []
        staged = list(archive.runs_dir.iterdir())
        assert [p.name for p in staged] == [".day-000000.staging"]

        # Retrying on the same archive cleans the torn staging dir and
        # produces exactly the bytes an uncrashed commit would have.
        archive.crash_hook = None
        archive.commit_run(0, core, records, results)
        clean = CensusArchive(tmp_path / "clean")
        clean.commit_run(0, core, records, results)
        assert archive_tree(archive.root) == archive_tree(clean.root)

    def test_hook_points_fire_in_order(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        points = []
        archive.crash_hook = points.append
        archive.commit_run(0, core, records, results)
        assert points == ["commit:staged", "commit:renamed", "commit:indexed"]


class TestReaders:
    def test_epochs_ignore_foreign_entries(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        archive.commit_run(2, core, records, results)
        (archive.runs_dir / "notes.txt").write_text("hello")
        (archive.runs_dir / ".day-000005.staging").mkdir()
        assert archive.epochs() == [2]
        assert archive.latest_epoch_before(5) == 2
        assert archive.latest_epoch_before(2) is None

    def test_manifest_epoch_mismatch_detected(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        archive.commit_run(0, core, records, results)
        archive.run_dir(0).rename(archive.run_dir(7))
        with pytest.raises(CorruptPayloadError, match="claims epoch 0"):
            archive.read_manifest(7)

    def test_results_verified_against_manifest(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        archive.commit_run(0, core, records, results)
        path = archive.run_dir(0) / RESULTS_FILE
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptPayloadError, match="does not match"):
            archive.read_results(0)

    def test_missing_manifest_is_corrupt_not_crash(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        archive.commit_run(0, core, records, results)
        (archive.run_dir(0) / MANIFEST_FILE).unlink()
        with pytest.raises(CorruptPayloadError):
            archive.read_manifest(0)

    def test_index_is_a_cache(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        archive.commit_run(0, core, records, results)
        assert archive.read_index() == archive.build_index()
        archive.index_path.write_text("garbage")
        assert archive.read_index() is None  # unreadable -> rebuildable
        assert run_dirname(0) in archive.build_index()["runs"]


class TestIndexMemo:
    """``build_index`` keeps each run's entry on its manifest's stat; the
    written index must always equal a memo-free rebuild."""

    POINTS = ("commit:staged", "commit:renamed", "commit:indexed")

    @staticmethod
    def memo_free(archive):
        return CensusArchive(archive.root).build_index()

    def test_index_equals_a_memo_free_rebuild_after_every_commit(
        self, tmp_path, sample_run
    ):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        for epoch in range(4):
            archive.commit_run(epoch, core, records, results)
            assert archive.read_index() == self.memo_free(archive)

    @pytest.mark.parametrize("same_archive", [True, False], ids=["same", "fresh"])
    @pytest.mark.parametrize("point", POINTS)
    def test_index_after_a_crash_and_resume(
        self, tmp_path, sample_run, point, same_archive
    ):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        for epoch in range(2):
            archive.commit_run(epoch, core, records, results)

        class Kill(Exception):
            pass

        def hook(name):
            if name == point:
                raise Kill(name)

        archive.crash_hook = hook
        with pytest.raises(Kill):
            archive.commit_run(2, core, records, results)
        archive.crash_hook = None
        if not same_archive:
            archive = CensusArchive(archive.root)
        for epoch in range(2 if not archive.has(2) else 3, 5):
            archive.commit_run(epoch, core, records, results)
            assert archive.read_index() == self.memo_free(archive)
        assert sorted(archive.read_index()["runs"]) == [run_dirname(e) for e in range(5)]

    def test_quiet_commit_reads_no_older_manifest(
        self, tmp_path, sample_run, monkeypatch
    ):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        for epoch in range(3):
            archive.commit_run(epoch, core, records, results)
        read = []
        real = archive.read_manifest

        def spy(epoch):
            read.append(epoch)
            return real(epoch)

        monkeypatch.setattr(archive, "read_manifest", spy)
        before = archive.counters["index_entries_read"]
        archive.commit_run(3, core, records, results)
        assert read == [3]
        assert archive.counters["index_entries_read"] - before == 1

    def test_a_changed_manifest_is_read_again(self, tmp_path, sample_run):
        core, records, results = sample_run
        archive = CensusArchive(tmp_path / "archive")
        for epoch in range(3):
            archive.commit_run(epoch, core, records, results)
        (archive.run_dir(1) / MANIFEST_FILE).write_text("{ rotten")
        index = archive.build_index()
        assert index == self.memo_free(archive)
        assert sorted(index["runs"]) == [run_dirname(0), run_dirname(2)]

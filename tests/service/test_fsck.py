"""Corruption-matrix tests for the archive fsck subsystem.

Every scenario corrupts a private copy of the 5-day reference archive,
then demands the same three things:

1. fsck never raises — it reports, quarantines, repairs;
2. nothing is silently lost — bad runs move to ``quarantine/``, they are
   not deleted, and good runs are untouched;
3. the service heals — ``catch_up`` over the repaired archive re-runs
   exactly the quarantined days and the live tree comes back
   byte-identical to the uninterrupted reference.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.service.archive import CensusArchive
from repro.service.fsck import fsck_archive
from repro.workflow import small_service

from .conftest import DAYS, archive_tree, live_tree


def flip_byte(path, offset=None):
    data = bytearray(path.read_bytes())
    offset = len(data) // 2 if offset is None else offset
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def heal_and_compare(root, reference_tree):
    """Catch up the corrupted archive and demand byte-identity."""
    report, outcomes = small_service(root).catch_up(DAYS - 1)
    assert live_tree(root) == reference_tree
    return report, outcomes


class TestPayloadCorruption:
    def test_truncated_records(self, scratch_archive, reference_tree):
        run = scratch_archive / "runs" / "day-000002"
        blob = (run / "records.bin").read_bytes()
        (run / "records.bin").write_bytes(blob[:-10])

        report = fsck_archive(CensusArchive(scratch_archive))
        assert [name for name, _ in report.quarantined] == ["day-000002"]
        assert "records.bin" in report.quarantined[0][1]
        assert report.ok_epochs == [0, 1, 3, 4]
        assert (scratch_archive / "quarantine" / "day-000002").is_dir()

        heal_and_compare(scratch_archive, reference_tree)

    def test_bit_flipped_records(self, scratch_archive, reference_tree):
        flip_byte(scratch_archive / "runs" / "day-000001" / "records.bin")
        report = fsck_archive(CensusArchive(scratch_archive))
        assert [name for name, _ in report.quarantined] == ["day-000001"]
        heal_and_compare(scratch_archive, reference_tree)

    def test_bit_flipped_results(self, scratch_archive, reference_tree):
        flip_byte(scratch_archive / "runs" / "day-000003" / "results.json")
        report = fsck_archive(CensusArchive(scratch_archive))
        assert [name for name, _ in report.quarantined] == ["day-000003"]
        assert "results.json" in report.quarantined[0][1]
        heal_and_compare(scratch_archive, reference_tree)

    def test_truncated_results(self, scratch_archive, reference_tree):
        path = scratch_archive / "runs" / "day-000000" / "results.json"
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        report = fsck_archive(CensusArchive(scratch_archive))
        assert [name for name, _ in report.quarantined] == ["day-000000"]
        assert "truncated" in report.quarantined[0][1]
        heal_and_compare(scratch_archive, reference_tree)


class TestManifestCorruption:
    def test_missing_manifest(self, scratch_archive, reference_tree):
        (scratch_archive / "runs" / "day-000002" / "manifest.json").unlink()
        report = fsck_archive(CensusArchive(scratch_archive))
        assert [name for name, _ in report.quarantined] == ["day-000002"]
        assert "manifest" in report.quarantined[0][1]
        heal_and_compare(scratch_archive, reference_tree)

    def test_garbled_manifest(self, scratch_archive, reference_tree):
        (scratch_archive / "runs" / "day-000004" / "manifest.json").write_text(
            "{not json"
        )
        report = fsck_archive(CensusArchive(scratch_archive))
        assert [name for name, _ in report.quarantined] == ["day-000004"]
        heal_and_compare(scratch_archive, reference_tree)

    def test_schema_invalid_manifest(self, scratch_archive, reference_tree):
        path = scratch_archive / "runs" / "day-000001" / "manifest.json"
        doc = json.loads(path.read_text())
        del doc["analysis"]
        path.write_text(json.dumps(doc))
        report = fsck_archive(CensusArchive(scratch_archive))
        assert [name for name, _ in report.quarantined] == ["day-000001"]
        heal_and_compare(scratch_archive, reference_tree)

    def test_manifest_pointing_at_wrong_bytes(self, scratch_archive, reference_tree):
        # A valid manifest whose payload seal disagrees with the disk.
        path = scratch_archive / "runs" / "day-000002" / "manifest.json"
        doc = json.loads(path.read_text())
        doc["payloads"]["records.bin"]["crc32"] ^= 1
        path.write_text(json.dumps(doc))
        report = fsck_archive(CensusArchive(scratch_archive))
        assert [name for name, _ in report.quarantined] == ["day-000002"]
        heal_and_compare(scratch_archive, reference_tree)


class TestIndexAndForeignEntries:
    def test_missing_index_rebuilt(self, scratch_archive, reference_tree):
        (scratch_archive / "index.json").unlink()
        report = fsck_archive(CensusArchive(scratch_archive))
        assert report.index_rebuilt
        assert not report.quarantined
        assert archive_tree(scratch_archive) == reference_tree

    def test_stale_index_rebuilt(self, scratch_archive, reference_tree):
        archive = CensusArchive(scratch_archive)
        index = archive.read_index()
        del index["runs"]["day-000004"]
        archive.write_index(index)
        report = fsck_archive(archive)
        assert report.index_rebuilt
        assert archive_tree(scratch_archive) == reference_tree

    def test_garbage_index_rebuilt(self, scratch_archive, reference_tree):
        (scratch_archive / "index.json").write_text("42")
        report = fsck_archive(CensusArchive(scratch_archive))
        assert report.index_rebuilt
        assert archive_tree(scratch_archive) == reference_tree

    def test_foreign_file_quarantined(self, scratch_archive, reference_tree):
        (scratch_archive / "runs" / "notes.txt").write_text("operator scribbles")
        report = fsck_archive(CensusArchive(scratch_archive))
        assert report.quarantined == [("notes.txt", "not a dated run")]
        assert (scratch_archive / "quarantine" / "notes.txt").is_file()
        # Quarantining a non-run touches neither the runs nor the index.
        assert not report.index_rebuilt
        assert live_tree(scratch_archive) == reference_tree

    def test_torn_staging_discarded(self, scratch_archive, reference_tree):
        staging = scratch_archive / "runs" / ".day-000005.staging"
        staging.mkdir()
        (staging / "records.bin").write_bytes(b"partial")
        report = fsck_archive(CensusArchive(scratch_archive))
        assert report.discarded_staging == [".day-000005.staging"]
        assert archive_tree(scratch_archive) == reference_tree


class TestLeftoverJournalDirectory:
    def test_an_older_archives_journal_directory_is_left_alone(
        self, scratch_archive, reference_tree
    ):
        """Archives written before the census journal was deleted carry a
        ``journal/`` directory; fsck neither touches it nor calls the
        archive unclean for it."""
        leftover = scratch_archive / "journal" / "epoch-000007.journal"
        leftover.parent.mkdir()
        leftover.write_bytes(b"resume state nothing reads any more")
        report = fsck_archive(CensusArchive(scratch_archive))
        assert report.clean
        assert archive_tree(scratch_archive) == {
            **reference_tree,
            "journal/epoch-000007.journal": leftover.read_bytes(),
        }


class TestFsckBehaviour:
    def test_dry_run_changes_nothing(self, scratch_archive, reference_tree):
        flip_byte(scratch_archive / "runs" / "day-000002" / "records.bin")
        before = archive_tree(scratch_archive)
        report = fsck_archive(CensusArchive(scratch_archive), repair=False)
        assert not report.repaired
        assert not report.clean
        assert [name for name, _ in report.quarantined] == ["day-000002"]
        assert archive_tree(scratch_archive) == before

    def test_clean_archive_is_a_no_op(self, scratch_archive, reference_tree):
        report = fsck_archive(CensusArchive(scratch_archive))
        assert report.clean
        assert report.ok_epochs == list(range(DAYS))
        assert archive_tree(scratch_archive) == reference_tree

    def test_missing_root_is_empty_report(self, tmp_path):
        report = fsck_archive(CensusArchive(tmp_path / "nothing-here"))
        assert report.clean
        assert report.ok_epochs == []

    def test_never_committed_archive_is_clean(self, tmp_path):
        """A first day interrupted before its commit leaves the layout
        and no index: nothing to repair, and fsck writes none."""
        archive = CensusArchive(tmp_path / "archive")
        archive.ensure_layout()
        report = fsck_archive(archive)
        assert report.clean
        assert not archive.index_path.exists()

    def test_repeat_offender_keeps_every_copy(self, scratch_archive, reference_archive):
        flip_byte(scratch_archive / "runs" / "day-000002" / "records.bin")
        fsck_archive(CensusArchive(scratch_archive))
        # The same day rots again after being re-run.
        shutil.copytree(
            reference_archive / "runs" / "day-000002",
            scratch_archive / "runs" / "day-000002",
        )
        flip_byte(scratch_archive / "runs" / "day-000002" / "results.json")
        fsck_archive(CensusArchive(scratch_archive))
        quarantine = scratch_archive / "quarantine"
        assert (quarantine / "day-000002").is_dir()
        assert (quarantine / "day-000002.1").is_dir()

    def test_multi_day_rot_heals_in_one_catch_up(self, scratch_archive, reference_tree):
        flip_byte(scratch_archive / "runs" / "day-000001" / "records.bin")
        (scratch_archive / "runs" / "day-000003" / "manifest.json").unlink()
        report, outcomes = small_service(scratch_archive).catch_up(DAYS - 1)
        assert [name for name, _ in report.quarantined] == [
            "day-000001",
            "day-000003",
        ]
        statuses = [o.status for o in outcomes]
        assert statuses == [
            "already-present",
            "committed",
            "already-present",
            "committed",
            "already-present",
        ]
        assert live_tree(scratch_archive) == reference_tree

    def test_summary_lines_cover_every_action(self, scratch_archive):
        flip_byte(scratch_archive / "runs" / "day-000000" / "records.bin")
        (scratch_archive / "runs" / ".day-000009.staging").mkdir()
        report = fsck_archive(CensusArchive(scratch_archive))
        text = "\n".join(report.summary_lines())
        assert "quarantined day-000000" in text
        assert "torn commit" in text
        assert "index rebuilt" in text

"""Tests for the stage-boundary validators/sanitizers."""

import numpy as np
import pytest

from repro.census.combine import RttMatrix
from repro.geo.coords import GeoPoint
from repro.internet.hitlist import HitlistEntry
from repro.measurement.faults import _impossible_point
from repro.measurement.recordio import CensusRecords
from repro.net.addresses import host_in_slash24, slash24_of
from repro.resilience import (
    MAX_PLAUSIBLE_RTT_MS,
    MIN_PLAUSIBLE_RTT_MS,
    QuarantineLog,
    sanitize_hitlist,
    sanitize_matrix,
    sanitize_records,
)


def make_records(rtts, flags, vp=None, prefix=None, census_id=0):
    n = len(rtts)
    return CensusRecords(
        census_id=census_id,
        vp_index=np.array(vp if vp is not None else range(n), dtype=np.uint16),
        prefix=np.array(prefix if prefix is not None else [7] * n, dtype=np.uint32),
        timestamp_ms=np.zeros(n, dtype=np.float64),
        rtt_ms=np.array(rtts, dtype=np.float32),
        flag=np.array(flags, dtype=np.int8),
    )


def make_matrix(rtt, locations=None, names=None, counts=None):
    rtt = np.array(rtt, dtype=np.float32)
    n_targets, n_vps = rtt.shape
    if counts is None:
        counts = (~np.isnan(rtt)).astype(np.uint8)
    return RttMatrix(
        prefixes=np.arange(100, 100 + n_targets, dtype=np.int64),
        vp_names=list(names or [f"vp{j}" for j in range(n_vps)]),
        vp_locations=list(
            locations or [GeoPoint(10.0 * j, 20.0) for j in range(n_vps)]
        ),
        rtt_ms=rtt,
        sample_count=np.asarray(counts, dtype=np.uint8),
    )


class TestSanitizeRecords:
    def test_clean_batch_returns_same_object(self):
        records = make_records([10.0, 20.0], [0, 0])
        log = QuarantineLog()
        assert sanitize_records(records, log) is records
        assert log.total == 0

    def test_empty_batch_is_clean(self):
        records = CensusRecords.empty(3)
        log = QuarantineLog()
        assert sanitize_records(records, log) is records

    def test_nan_rtt_on_reply_rows_is_quarantined(self):
        records = make_records([np.nan, 20.0], [0, 0])
        log = QuarantineLog()
        out = sanitize_records(records, log)
        assert len(out) == 1
        assert out.rtt_ms[0] == pytest.approx(20.0)
        assert log.by_reason() == {"nan_rtt": 1}

    def test_nan_rtt_on_error_rows_is_legitimate(self):
        # Error records carry NaN RTT by design — not a data fault.
        records = make_records([np.nan, np.nan], [1, -9])
        log = QuarantineLog()
        assert sanitize_records(records, log) is records

    def test_negative_and_superluminal_and_implausible(self):
        records = make_records(
            [-1.0, MIN_PLAUSIBLE_RTT_MS / 2, MAX_PLAUSIBLE_RTT_MS * 2, 30.0],
            [0, 0, 0, 0],
        )
        log = QuarantineLog()
        out = sanitize_records(records, log)
        assert len(out) == 1
        assert log.by_reason() == {
            "negative_rtt": 1,
            "superluminal_rtt": 1,
            "implausible_rtt": 1,
        }

    def test_unknown_flags_are_quarantined(self):
        records = make_records([10.0, 20.0], [0, 42])
        log = QuarantineLog()
        out = sanitize_records(records, log)
        assert len(out) == 1
        assert log.by_reason() == {"unknown_flag": 1}

    def test_duplicate_vp_target_pairs_keep_first(self):
        records = make_records(
            [10.0, 11.0, 12.0], [0, 0, 0], vp=[3, 3, 4], prefix=[7, 7, 7]
        )
        log = QuarantineLog()
        out = sanitize_records(records, log)
        assert len(out) == 2
        kept = out.rtt_ms[out.vp_index == 3]
        assert kept[0] == pytest.approx(10.0)
        assert log.by_reason() == {"duplicate_record": 1}


class TestSanitizeMatrix:
    def test_clean_matrix_returns_same_object_and_zero_losses(self):
        matrix = make_matrix([[10.0, 20.0], [np.nan, 30.0]])
        log = QuarantineLog()
        out, removed = sanitize_matrix(matrix, log)
        assert out is matrix
        assert removed.tolist() == [0, 0]
        assert log.total == 0

    def test_impossible_vp_coordinates_drop_the_column(self):
        matrix = make_matrix(
            [[10.0, 20.0], [15.0, 30.0]],
            locations=[_impossible_point(400.0, 500.0), GeoPoint(10.0, 20.0)],
        )
        log = QuarantineLog()
        out, removed = sanitize_matrix(matrix, log)
        assert out.n_vps == 1
        assert out.vp_names == ["vp1"]
        # Both targets lose the sample the bad column contributed.
        assert removed.tolist() == [1, 1]
        assert log.by_reason() == {"impossible_vp_coords": 1}

    def test_duplicate_vp_columns_merge_minimum(self):
        matrix = make_matrix(
            [[10.0, 5.0], [np.nan, 30.0]], names=["vp0", "vp0"]
        )
        log = QuarantineLog()
        out, removed = sanitize_matrix(matrix, log)
        assert out.n_vps == 1
        assert out.rtt_ms[0, 0] == pytest.approx(5.0)
        assert out.rtt_ms[1, 0] == pytest.approx(30.0)
        assert int(out.sample_count[0, 0]) == 2
        assert log.by_reason() == {"duplicate_vp": 1}

    def test_bad_cells_are_nulled_and_counted(self):
        matrix = make_matrix([[-2.0, 20.0], [MAX_PLAUSIBLE_RTT_MS * 10, 30.0]])
        log = QuarantineLog()
        out, removed = sanitize_matrix(matrix, log)
        assert np.isnan(out.rtt_ms[0, 0])
        assert np.isnan(out.rtt_ms[1, 0])
        assert int(out.sample_count[0, 0]) == 0
        assert removed.tolist() == [1, 1]
        assert log.by_reason() == {"negative_rtt": 1, "implausible_rtt": 1}

    def test_torn_cells_sample_count_without_rtt(self):
        # A NaN cell that *claims* samples is torn data, not silence.
        counts = [[1, 1], [0, 1]]
        matrix = make_matrix([[np.nan, 20.0], [np.nan, 30.0]], counts=counts)
        log = QuarantineLog()
        out, removed = sanitize_matrix(matrix, log)
        assert log.by_reason() == {"lost_sample": 1}
        assert removed.tolist() == [1, 0]
        assert int(out.sample_count[0, 0]) == 0

    def test_input_matrix_is_never_mutated(self):
        rtt = [[-2.0, 20.0], [15.0, 30.0]]
        matrix = make_matrix(rtt)
        before = matrix.rtt_ms.copy()
        sanitize_matrix(matrix, QuarantineLog())
        np.testing.assert_array_equal(matrix.rtt_ms, before)


class TestSanitizeHitlist:
    def test_clean_entries_pass_through(self):
        entries = [
            HitlistEntry(prefix=5, address=host_in_slash24(5, 9), score=10),
            HitlistEntry(prefix=6, address=host_in_slash24(6, 1), score=-2),
        ]
        log = QuarantineLog()
        out = sanitize_hitlist(entries, log)
        assert out == entries
        assert log.total == 0

    def test_invalid_prefix_is_dropped(self):
        entries = [HitlistEntry(prefix=-1, address=0, score=1)]
        log = QuarantineLog()
        assert sanitize_hitlist(entries, log) == []
        assert log.by_reason() == {"invalid_prefix": 1}

    def test_duplicate_prefix_keeps_first(self):
        entries = [
            HitlistEntry(prefix=5, address=host_in_slash24(5, 1), score=1),
            HitlistEntry(prefix=5, address=host_in_slash24(5, 2), score=2),
        ]
        log = QuarantineLog()
        out = sanitize_hitlist(entries, log)
        assert len(out) == 1
        assert out[0].score == 1
        assert log.by_reason() == {"duplicate_prefix": 1}

    def test_drifted_address_is_repaired_not_dropped(self):
        drifted = host_in_slash24(99, 7)  # address inside /24 #99 ...
        entries = [HitlistEntry(prefix=5, address=drifted, score=3)]  # ... on row 5
        log = QuarantineLog()
        out = sanitize_hitlist(entries, log)
        assert len(out) == 1
        assert slash24_of(out[0].address) == 5
        assert out[0].score == 3
        assert log.by_reason() == {"address_repaired": 1}
        assert log.dropped == 0

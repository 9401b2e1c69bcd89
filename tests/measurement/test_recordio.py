"""Tests for census record formats (binary vs textual)."""

import io

import numpy as np
import pytest

from repro.measurement.recordio import (
    FLAG_OTHER_ERROR,
    FLAG_REPLY,
    CensusRecords,
    concatenate,
    flag_for,
    outcome_for,
)
from repro.net.icmp import IcmpOutcome


def make_records(n=100, census_id=1, seed=0) -> CensusRecords:
    rng = np.random.default_rng(seed)
    flags = rng.choice([FLAG_REPLY, FLAG_REPLY, FLAG_REPLY, -13, -10, -9, 1], size=n).astype(np.int8)
    rtt = np.where(flags == FLAG_REPLY, rng.uniform(0.5, 300.0, n), np.nan).astype(np.float32)
    return CensusRecords(
        census_id=census_id,
        vp_index=rng.integers(0, 50, n).astype(np.uint16),
        prefix=rng.integers(70000, 90000, n).astype(np.uint32),
        timestamp_ms=np.sort(rng.uniform(0, 1e7, n)),
        rtt_ms=rtt,
        flag=flags,
    )


class TestFlags:
    def test_reply_flag(self):
        assert flag_for(IcmpOutcome.ECHO_REPLY) == FLAG_REPLY

    @pytest.mark.parametrize(
        "outcome,flag",
        [
            (IcmpOutcome.ADMIN_FILTERED, -13),
            (IcmpOutcome.HOST_PROHIBITED, -10),
            (IcmpOutcome.NET_PROHIBITED, -9),
            (IcmpOutcome.UNREACHABLE, FLAG_OTHER_ERROR),
        ],
    )
    def test_error_flags_roundtrip(self, outcome, flag):
        assert flag_for(outcome) == flag
        assert outcome_for(flag) is outcome

    def test_silent_has_no_record(self):
        with pytest.raises(ValueError):
            flag_for(IcmpOutcome.SILENT)

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError):
            outcome_for(7)


class TestColumns:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CensusRecords(
                1,
                np.zeros(3, np.uint16),
                np.zeros(2, np.uint32),
                np.zeros(3),
                np.zeros(3, np.float32),
                np.zeros(3, np.int8),
            )

    def test_replies_filter(self):
        records = make_records(500)
        replies = records.replies()
        assert (replies.flag == FLAG_REPLY).all()
        assert not np.isnan(replies.rtt_ms).any()

    def test_greylistable_filter(self):
        records = make_records(500)
        grey = records.greylistable()
        assert (grey.flag < 0).all()

    def test_select_preserves_census_id(self):
        records = make_records(10, census_id=7)
        assert records.select(records.flag == FLAG_REPLY).census_id == 7


class TestBinaryFormat:
    def test_roundtrip(self):
        records = make_records(300)
        buf = io.BytesIO()
        written = records.write_binary(buf)
        assert written == buf.tell() == records.binary_size_bytes()
        buf.seek(0)
        back = CensusRecords.read_binary(buf)
        assert back.census_id == records.census_id
        assert np.array_equal(back.vp_index, records.vp_index)
        assert np.array_equal(back.prefix, records.prefix)
        assert np.array_equal(back.flag, records.flag)
        # RTTs quantized to 0.01 ms.
        mask = records.flag == FLAG_REPLY
        assert np.allclose(back.rtt_ms[mask], records.rtt_ms[mask], atol=0.006)
        assert np.isnan(back.rtt_ms[~mask]).all()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            CensusRecords.read_binary(io.BytesIO(b"NOPE" + b"\0" * 20))

    def test_truncation_detected(self):
        records = make_records(50)
        buf = io.BytesIO()
        records.write_binary(buf)
        truncated = io.BytesIO(buf.getvalue()[:-10])
        with pytest.raises(ValueError):
            CensusRecords.read_binary(truncated)

    def test_empty_roundtrip(self):
        records = make_records(0)
        buf = io.BytesIO()
        records.write_binary(buf)
        buf.seek(0)
        assert len(CensusRecords.read_binary(buf)) == 0


class TestCsvFormat:
    def test_roundtrip(self):
        records = make_records(120)
        buf = io.StringIO()
        records.write_csv(buf)
        buf.seek(0)
        back = CensusRecords.read_csv(buf)
        assert np.array_equal(back.prefix, records.prefix)
        assert np.array_equal(back.flag, records.flag)
        mask = records.flag == FLAG_REPLY
        assert np.allclose(back.rtt_ms[mask], records.rtt_ms[mask], rtol=1e-5)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            CensusRecords.read_csv(io.StringIO("1,2,3\n"))

    def test_comments_skipped(self):
        records = make_records(5)
        buf = io.StringIO()
        records.write_csv(buf)
        buf.seek(0)
        assert len(CensusRecords.read_csv(buf)) == 5


class TestSizes:
    def test_binary_much_smaller_than_csv(self):
        """The Tab. 1 effect: binary is a fraction of the textual size."""
        records = make_records(2000)
        assert records.binary_size_bytes() * 2 < records.csv_size_bytes()

    def test_csv_size_matches_actual_write(self):
        records = make_records(50)
        buf = io.StringIO()
        records.write_csv(buf)
        assert len(buf.getvalue()) == records.csv_size_bytes()


class TestConcatenate:
    def test_concatenate(self):
        a, b = make_records(10, seed=1), make_records(20, seed=2)
        merged = concatenate((a, b))
        assert len(merged) == 30

    def test_mixed_census_ids_rejected(self):
        a = make_records(5, census_id=1)
        b = make_records(5, census_id=2)
        with pytest.raises(ValueError):
            concatenate((a, b))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concatenate(())


class TestChecksum:
    def test_stable_across_calls(self):
        records = make_records(50)
        assert records.checksum() == records.checksum()

    def test_sensitive_to_any_column(self):
        base = make_records(50)
        reference = base.checksum()
        outside = {  # a value outside each column's generated range
            "vp_index": 60000,
            "prefix": 5,
            "timestamp_ms": -777.0,
            "rtt_ms": -777.0,
            "flag": 77,
        }
        for column, value in outside.items():
            mutated = make_records(50)
            getattr(mutated, column)[7] = value
            assert mutated.checksum() != reference, column

    def test_sensitive_to_census_id(self):
        assert make_records(10, census_id=1).checksum() != make_records(
            10, census_id=2
        ).checksum()

    def test_empty_records_well_typed(self):
        empty = CensusRecords.empty(3)
        assert len(empty) == 0
        assert empty.census_id == 3
        assert isinstance(empty.checksum(), int)


class TestValidatedConcatenate:
    def test_valid_checksums_pass(self):
        a, b = make_records(10, seed=1), make_records(20, seed=2)
        merged = concatenate((a, b), checksums=(a.checksum(), b.checksum()))
        assert len(merged) == 30

    def test_corrupt_batch_raises(self):
        from repro.measurement.recordio import CorruptBatchError

        a, b = make_records(10, seed=1), make_records(20, seed=2)
        good = b.checksum()
        b.prefix[0] ^= 0xFF  # bit rot after checksumming
        with pytest.raises(CorruptBatchError) as exc:
            concatenate((a, b), checksums=(a.checksum(), good))
        assert exc.value.indices == (1,)

    def test_corrupt_batch_dropped(self):
        a, b = make_records(10, seed=1), make_records(20, seed=2)
        good = b.checksum()
        b.prefix[0] ^= 0xFF
        merged = concatenate(
            (a, b), checksums=(a.checksum(), good), on_corrupt="drop"
        )
        assert len(merged) == 10

    def test_checksum_count_must_match(self):
        a = make_records(10, seed=1)
        with pytest.raises(ValueError):
            concatenate((a,), checksums=())

    def test_unknown_mode_rejected(self):
        a = make_records(10, seed=1)
        with pytest.raises(ValueError):
            concatenate((a,), checksums=(a.checksum(),), on_corrupt="ignore")


class TestRawFormat:
    def test_roundtrip_is_exact(self):
        records = make_records(200, census_id=4, seed=9)
        sink = io.BytesIO()
        records.write_raw(sink)
        sink.seek(0)
        loaded = CensusRecords.read_raw(sink)
        assert loaded.census_id == 4
        # Bit-for-bit, including full-precision floats and NaN patterns —
        # unlike write_binary, which quantizes.
        assert loaded.checksum() == records.checksum()
        assert np.array_equal(loaded.timestamp_ms, records.timestamp_ms)
        assert np.array_equal(loaded.rtt_ms, records.rtt_ms, equal_nan=True)

    def test_truncated_blob_rejected(self):
        records = make_records(50)
        sink = io.BytesIO()
        records.write_raw(sink)
        truncated = io.BytesIO(sink.getvalue()[:-10])
        with pytest.raises(ValueError):
            CensusRecords.read_raw(truncated)

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError):
            CensusRecords.read_raw(io.BytesIO(b"NOPE" + b"\0" * 20))


class TestStreamingRaw:
    """iter_raw_batches ≡ read_raw_checksummed, in O(batch) memory."""

    @staticmethod
    def _sealed(records) -> io.BytesIO:
        from repro.measurement.recordio import write_raw_checksummed

        sink = io.BytesIO()
        write_raw_checksummed(records, sink)
        sink.seek(0)
        return sink

    def test_batches_reassemble_exactly(self):
        from repro.measurement.recordio import iter_raw_batches

        records = make_records(500, census_id=3, seed=4)
        batches = list(iter_raw_batches(self._sealed(records), batch_records=64))
        assert len(batches) == (500 + 63) // 64
        merged = concatenate(tuple(batches))
        assert merged.checksum() == records.checksum()
        assert np.array_equal(merged.timestamp_ms, records.timestamp_ms)
        assert np.array_equal(merged.rtt_ms, records.rtt_ms, equal_nan=True)

    def test_empty_payload_yields_one_empty_batch(self):
        from repro.measurement.recordio import iter_raw_batches

        records = CensusRecords.empty(7)
        batches = list(iter_raw_batches(self._sealed(records)))
        assert len(batches) == 1
        assert len(batches[0]) == 0
        assert batches[0].census_id == 7

    def test_corruption_detected_before_any_batch(self):
        from repro.measurement.recordio import CorruptPayloadError, iter_raw_batches

        records = make_records(200, seed=5)
        blob = bytearray(self._sealed(records).getvalue())
        blob[40] ^= 0xFF  # flip a payload byte under the seal
        with pytest.raises(CorruptPayloadError):
            list(iter_raw_batches(io.BytesIO(bytes(blob))))

    def test_truncation_detected(self):
        from repro.measurement.recordio import CorruptPayloadError, iter_raw_batches

        records = make_records(200, seed=6)
        blob = self._sealed(records).getvalue()[:-30]
        with pytest.raises(CorruptPayloadError):
            list(iter_raw_batches(io.BytesIO(blob)))

    def test_matches_one_shot_reader(self):
        from repro.measurement.recordio import (
            iter_raw_batches,
            read_raw_checksummed,
        )

        records = make_records(300, seed=7)
        one_shot = read_raw_checksummed(self._sealed(records))
        streamed = concatenate(
            tuple(iter_raw_batches(self._sealed(records), batch_records=50))
        )
        assert streamed.checksum() == one_shot.checksum()


class TestFlapCheckpointResume:
    """Fault-injection flap mode interacting with journal resume.

    A flapped VP contributes *no* records at all for that census.  The
    journal must reproduce exactly that absence on resume: a census
    interrupted while flaps are active and resumed in a fresh process
    has to be bit-for-bit identical to an uninterrupted run — flapped
    VPs must not be re-rolled, double-recorded, or resurrected.
    """

    @staticmethod
    def _campaign(internet, platform, seed=321, workers=0):
        from repro.measurement.campaign import CensusCampaign
        from repro.measurement.faults import FaultPlan

        campaign = CensusCampaign(
            internet,
            platform,
            seed=seed,
            fault_plan=FaultPlan(flap_prob=0.4, seed=17),
            min_vp_quorum=1,
            workers=workers,
        )
        campaign.run_precensus()
        return campaign

    @staticmethod
    def _records_bytes(census):
        sink = io.BytesIO()
        census.records.write_binary(sink)
        return sink.getvalue()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_resume_mid_flap_is_bit_for_bit(
        self, tiny_internet, tiny_platform, tmp_path, workers
    ):
        from repro.measurement.campaign import CensusInterrupted

        reference = self._campaign(tiny_internet, tiny_platform)
        uninterrupted = reference.run_census(availability=0.85)
        # The fault plan must actually flap VPs or this exercises nothing.
        assert uninterrupted.health.faults_seen.get("flap", 0) > 0
        flapped = uninterrupted.health.failed_vps
        assert flapped, "flap plan injected no flaps; adjust seed"

        journal_path = tmp_path / "census-001.journal"
        interrupted = self._campaign(tiny_internet, tiny_platform, workers=workers)
        with pytest.raises(CensusInterrupted) as exc:
            interrupted.run_census(
                availability=0.85,
                checkpoint=str(journal_path),
                abort_after_vps=7,
            )
        # Flapped and scanned VPs alike count one against the budget.
        assert exc.value.completed_vps == 7

        # "New process": a fresh campaign under the same seeds replays
        # the journal prefix and scans only the remaining VPs.
        resumer = self._campaign(tiny_internet, tiny_platform, workers=workers)
        resumed = resumer.run_census(
            availability=0.85, checkpoint=str(journal_path)
        )
        assert resumed.health.n_vps_resumed == 7
        assert self._records_bytes(resumed) == self._records_bytes(uninterrupted)
        assert np.array_equal(
            resumed.records.rtt_ms, uninterrupted.records.rtt_ms, equal_nan=True
        )
        assert sorted(resumed.greylist.prefixes) == sorted(
            uninterrupted.greylist.prefixes
        )
        # The flap pattern itself is part of the reproduced state.
        assert resumed.health.failed_vps == flapped
        assert resumed.health.faults_seen.get("flap", 0) == (
            uninterrupted.health.faults_seen.get("flap", 0)
        )

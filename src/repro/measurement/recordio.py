"""Census record formats: compact binary vs textual CSV.

A scalability lesson of the paper (Sec. 3.5, Tab. 1): the first census was
logged as text (270 MB per node, 79 GB total) and took >3 days to analyze;
switching to "a stripped-down binary format containing a timestamp, delay
and ICMP flag" (~20 MB per node, 6 GB per census) brought analysis under
three hours.  We implement both formats so the benchmark can reproduce the
size/throughput gap.

A record exists for every probe that got *some* answer (echo reply or ICMP
error); silence produces no packet and hence no record.  The ``flag`` field
encodes the outcome exactly as the paper does — "encoding greylist return
codes 9, 10, or 13 as a negative sign":

* ``0``   echo reply (``rtt_ms`` is valid),
* ``-13`` / ``-10`` / ``-9``  administratively-prohibited errors,
* ``1``   other ICMP error.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Optional, Sequence, TextIO, Tuple

import numpy as np

from ..net.addresses import format_slash24, parse_slash24
from ..net.icmp import IcmpOutcome

FLAG_REPLY = 0
FLAG_OTHER_ERROR = 1

_MAGIC = b"ACEN"
_VERSION = 2
_HEADER = struct.Struct("<4sHHQ")  # magic, version, census_id, n_records

_RAW_MAGIC = b"ACRW"
_RAW_HEADER = struct.Struct("<4sHHQ")  # magic, version, census_id, n_records

#: RTT quantum of the binary format: 0.01 ms.
RTT_QUANTUM_MS = 0.01


def flag_for(outcome: IcmpOutcome) -> int:
    """Encode an ICMP outcome in the record flag convention."""
    if outcome is IcmpOutcome.ECHO_REPLY:
        return FLAG_REPLY
    if outcome.triggers_greylist:
        return -outcome.icmp_code
    if outcome.is_error:
        return FLAG_OTHER_ERROR
    raise ValueError(f"{outcome} produces no record")


def outcome_for(flag: int) -> IcmpOutcome:
    """Decode a record flag back to an ICMP outcome."""
    if flag == FLAG_REPLY:
        return IcmpOutcome.ECHO_REPLY
    if flag == FLAG_OTHER_ERROR:
        return IcmpOutcome.UNREACHABLE
    if flag < 0:
        from ..net.icmp import outcome_from_code

        return outcome_from_code(-flag)
    raise ValueError(f"unknown record flag {flag!r}")


@dataclass
class CensusRecords:
    """Columnar storage of one census's probe records.

    Parallel arrays indexed by record number:

    * ``vp_index``   uint16 — vantage-point position within the census;
    * ``prefix``     uint32 — the /24 prefix index probed;
    * ``timestamp_ms`` float64 — probe send time since census start;
    * ``rtt_ms``     float32 — RTT (NaN unless the flag says reply);
    * ``flag``       int8   — outcome encoding (see module docstring).
    """

    census_id: int
    vp_index: np.ndarray
    prefix: np.ndarray
    timestamp_ms: np.ndarray
    rtt_ms: np.ndarray
    flag: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.vp_index)
        for name in ("prefix", "timestamp_ms", "rtt_ms", "flag"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
        self.vp_index = np.asarray(self.vp_index, dtype=np.uint16)
        self.prefix = np.asarray(self.prefix, dtype=np.uint32)
        self.timestamp_ms = np.asarray(self.timestamp_ms, dtype=np.float64)
        self.rtt_ms = np.asarray(self.rtt_ms, dtype=np.float32)
        self.flag = np.asarray(self.flag, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.vp_index)

    @classmethod
    def empty(cls, census_id: int) -> "CensusRecords":
        """A well-typed zero-record batch (e.g. a fully-masked scan)."""
        return cls(
            census_id,
            np.empty(0, np.uint16),
            np.empty(0, np.uint32),
            np.empty(0, np.float64),
            np.empty(0, np.float32),
            np.empty(0, np.int8),
        )

    def checksum(self) -> int:
        """CRC-32 over the batch content (census id + all columns).

        Computed on the node right after a scan and re-checked when the
        batch is collected, so silently-corrupted batches (bad RAM, torn
        writes, mangled transfers) are detected instead of polluting the
        census.  Byte-order-independent: columns are hashed in canonical
        little-endian layout.
        """
        crc = zlib.crc32(struct.pack("<Q", self.census_id))
        for column, dtype in (
            (self.vp_index, "<u2"),
            (self.prefix, "<u4"),
            (self.timestamp_ms, "<f8"),
            (self.rtt_ms, "<f4"),
            (self.flag, "i1"),
        ):
            crc = zlib.crc32(np.ascontiguousarray(column, dtype=dtype).tobytes(), crc)
        return crc & 0xFFFFFFFF

    @property
    def reply_mask(self) -> np.ndarray:
        return self.flag == FLAG_REPLY

    def replies(self) -> "CensusRecords":
        """Only the echo-reply records (the analysis input)."""
        return self.select(self.reply_mask)

    def greylistable(self) -> "CensusRecords":
        """Only records carrying administratively-prohibited errors."""
        return self.select(self.flag < 0)

    def select(self, mask: np.ndarray) -> "CensusRecords":
        return CensusRecords(
            census_id=self.census_id,
            vp_index=self.vp_index[mask],
            prefix=self.prefix[mask],
            timestamp_ms=self.timestamp_ms[mask],
            rtt_ms=self.rtt_ms[mask],
            flag=self.flag[mask],
        )

    # ------------------------------------------------------------------
    # Binary format
    # ------------------------------------------------------------------

    def write_binary(self, fp: BinaryIO) -> int:
        """Write the compact binary format; return bytes written."""
        n = len(self)
        header = _HEADER.pack(_MAGIC, _VERSION, self.census_id, n)
        fp.write(header)
        written = len(header)
        # RTT quantized to centi-milliseconds; NaN encoded as 0 (the flag
        # already says whether the RTT is meaningful).
        rtt_q = np.where(np.isnan(self.rtt_ms), 0.0, self.rtt_ms / RTT_QUANTUM_MS)
        columns = (
            self.vp_index.astype("<u2"),
            self.prefix.astype("<u4"),
            np.round(self.timestamp_ms).astype("<u4"),
            np.round(rtt_q).astype("<u4"),
            self.flag.astype("i1"),
        )
        for col in columns:
            buf = col.tobytes()
            fp.write(buf)
            written += len(buf)
        return written

    @classmethod
    def read_binary(cls, fp: BinaryIO) -> "CensusRecords":
        header = fp.read(_HEADER.size)
        magic, version, census_id, n = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError("not a census binary file")
        if version != _VERSION:
            raise ValueError(f"unsupported census format version {version}")
        def col(dtype: str, width: int) -> np.ndarray:
            raw = fp.read(n * width)
            if len(raw) != n * width:
                raise ValueError("truncated census binary file")
            return np.frombuffer(raw, dtype=dtype)

        vp = col("<u2", 2)
        prefix = col("<u4", 4)
        ts = col("<u4", 4).astype(np.float64)
        rtt_q = col("<u4", 4)
        flag = col("i1", 1)
        rtt = rtt_q.astype(np.float32) * RTT_QUANTUM_MS
        rtt = np.where(flag == FLAG_REPLY, rtt, np.float32(np.nan))
        return cls(census_id, vp, prefix, ts, rtt.astype(np.float32), flag)

    def binary_size_bytes(self) -> int:
        """Size of the binary serialization without writing it out."""
        return _HEADER.size + len(self) * (2 + 4 + 4 + 4 + 1)

    # ------------------------------------------------------------------
    # Lossless format
    # ------------------------------------------------------------------

    def write_raw(self, fp: BinaryIO) -> int:
        """Write the full-precision columns; return bytes written.

        Unlike :meth:`write_binary` (which quantizes timestamps and RTTs
        for compactness, as the paper's stripped-down format does), this
        round-trips exactly: the archive's ``records.bin`` (see
        :func:`write_raw_checksummed`) hands back the very census it
        stored, bit for bit.
        """
        header = _RAW_HEADER.pack(_RAW_MAGIC, 1, self.census_id, len(self))
        fp.write(header)
        written = len(header)
        for column, dtype in (
            (self.vp_index, "<u2"),
            (self.prefix, "<u4"),
            (self.timestamp_ms, "<f8"),
            (self.rtt_ms, "<f4"),
            (self.flag, "i1"),
        ):
            buf = np.ascontiguousarray(column, dtype=dtype).tobytes()
            fp.write(buf)
            written += len(buf)
        return written

    @classmethod
    def read_raw(cls, fp: BinaryIO) -> "CensusRecords":
        header = fp.read(_RAW_HEADER.size)
        magic, version, census_id, n = _RAW_HEADER.unpack(header)
        if magic != _RAW_MAGIC:
            raise ValueError("not a raw census record blob")
        if version != 1:
            raise ValueError(f"unsupported raw record version {version}")

        def col(dtype: str, width: int) -> np.ndarray:
            raw = fp.read(n * width)
            if len(raw) != n * width:
                raise ValueError("truncated raw census record blob")
            return np.frombuffer(raw, dtype=dtype)

        return cls(
            census_id,
            col("<u2", 2),
            col("<u4", 4),
            col("<f8", 8).astype(np.float64),
            col("<f4", 4).astype(np.float32),
            col("i1", 1),
        )

    # ------------------------------------------------------------------
    # Textual format
    # ------------------------------------------------------------------

    def write_csv(self, fp: TextIO) -> int:
        """Write the verbose textual format; return characters written."""
        written = fp.write("# census_id,vp_index,prefix,timestamp_ms,rtt_ms,flag\n")
        for i in range(len(self)):
            rtt = self.rtt_ms[i]
            rtt_text = "" if np.isnan(rtt) else f"{float(rtt):.6f}"
            line = (
                f"{self.census_id},{int(self.vp_index[i])},"
                f"{format_slash24(int(self.prefix[i]))},"
                f"{float(self.timestamp_ms[i]):.3f},{rtt_text},{int(self.flag[i])}\n"
            )
            written += fp.write(line)
        return written

    @classmethod
    def read_csv(cls, fp: TextIO) -> "CensusRecords":
        census_id = 0
        vp, prefix, ts, rtt, flag = [], [], [], [], []
        for line in fp:
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != 6:
                raise ValueError(f"malformed census CSV line: {line!r}")
            census_id = int(parts[0])
            vp.append(int(parts[1]))
            prefix.append(parse_slash24(parts[2]))
            ts.append(float(parts[3]))
            rtt.append(float(parts[4]) if parts[4] else np.nan)
            flag.append(int(parts[5]))
        return cls(
            census_id,
            np.array(vp, dtype=np.uint16),
            np.array(prefix, dtype=np.uint32),
            np.array(ts, dtype=np.float64),
            np.array(rtt, dtype=np.float32),
            np.array(flag, dtype=np.int8),
        )

    def csv_size_bytes(self) -> int:
        """Size of the CSV serialization without keeping it around."""
        sink = _CountingTextSink()
        self.write_csv(sink)
        return sink.count


class _CountingTextSink(io.TextIOBase):
    """A write-only text stream that just counts characters."""

    def __init__(self) -> None:
        self.count = 0

    def write(self, s: str) -> int:  # type: ignore[override]
        self.count += len(s)
        return len(s)


class CorruptPayloadError(ValueError):
    """A checksummed payload failed its integrity check (torn or flipped)."""


# Footer of the checksummed raw container: magic, payload CRC-32, payload
# length (mod 2^32).  A footer — not a header — so truncation strips the
# seal itself and is caught even when the payload happens to parse.
_SEAL_MAGIC = b"ACSM"
_SEAL_FOOTER = struct.Struct("<4sII")


def write_raw_checksummed(records: "CensusRecords", fp: BinaryIO) -> int:
    """Write :meth:`CensusRecords.write_raw` plus an integrity footer.

    The archive's payload format: the raw lossless columns followed by a
    CRC-32 seal over them.  :func:`read_raw_checksummed` refuses torn or
    bit-flipped files with :class:`CorruptPayloadError` instead of
    returning silently-wrong data.
    """
    sink = io.BytesIO()
    records.write_raw(sink)
    payload = sink.getvalue()
    footer = _SEAL_FOOTER.pack(
        _SEAL_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF, len(payload) & 0xFFFFFFFF
    )
    fp.write(payload)
    fp.write(footer)
    return len(payload) + len(footer)


def read_raw_checksummed(fp: BinaryIO) -> "CensusRecords":
    """Read a checksummed raw payload, verifying the seal first.

    Raises :class:`CorruptPayloadError` on any integrity failure:
    missing/garbled footer, truncated payload, or CRC mismatch.  For
    bounded-memory access to large payloads use :func:`iter_raw_batches`,
    which performs the same verification without materializing the file.
    """
    data = fp.read()
    if len(data) < _SEAL_FOOTER.size:
        raise CorruptPayloadError("payload too short for integrity footer")
    payload, footer = data[: -_SEAL_FOOTER.size], data[-_SEAL_FOOTER.size :]
    magic, crc, length = _SEAL_FOOTER.unpack(footer)
    if magic != _SEAL_MAGIC:
        raise CorruptPayloadError("missing integrity footer (torn write?)")
    if len(payload) & 0xFFFFFFFF != length:
        raise CorruptPayloadError(
            f"payload length {len(payload)} != sealed length {length}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptPayloadError("payload CRC mismatch (bit rot or tampering)")
    try:
        _raw_header(payload[: _RAW_HEADER.size], len(payload))
        return CensusRecords.read_raw(io.BytesIO(payload))
    except (struct.error, ValueError) as exc:  # seal ok but content unparseable
        raise CorruptPayloadError(f"sealed payload unreadable: {exc}") from exc


#: Raw-format column layout: (attribute dtype, on-disk dtype, width).
_RAW_COLUMNS = (
    ("<u2", 2),
    ("<u4", 4),
    ("<f8", 8),
    ("<f4", 4),
    ("i1", 1),
)
_RAW_RECORD_BYTES = sum(width for _dtype, width in _RAW_COLUMNS)

#: IO chunk of the streaming CRC pass.
_STREAM_CHUNK = 1 << 22


def _raw_header(header: bytes, payload_len: int) -> Tuple[int, int]:
    """``(census_id, n_records)`` of a raw payload's header, checked to
    fit the ``payload_len`` bytes under its seal (so a garbled record
    count is refused before any read is sized by it)."""
    magic, version, census_id, n = _RAW_HEADER.unpack(header)
    if magic != _RAW_MAGIC:
        raise ValueError("not a raw census record blob")
    if version != 1:
        raise ValueError(f"unsupported raw record version {version}")
    if _RAW_HEADER.size + n * _RAW_RECORD_BYTES > payload_len:
        raise ValueError("truncated raw census record blob")
    return census_id, n


def iter_raw_batches(fp: BinaryIO, batch_records: int = 1 << 18):
    """Stream a checksummed raw container in bounded record batches.

    The memory-flat replay path: the seal is verified with a chunked CRC
    pass (never holding more than :data:`_STREAM_CHUNK` bytes), then the
    column-major payload is served as :class:`CensusRecords` batches of
    at most ``batch_records`` rows via per-column slice reads — peak
    memory is O(batch) regardless of file size.  Raises
    :class:`CorruptPayloadError` for exactly the failures
    :func:`read_raw_checksummed` rejects.  Requires a seekable stream;
    concatenating the yielded batches reproduces the one-shot read.
    """
    if not fp.seekable():  # pragma: no cover - all our containers are files
        raise ValueError("iter_raw_batches requires a seekable stream")
    if batch_records < 1:
        raise ValueError("batch_records must be >= 1")
    start = fp.tell()
    fp.seek(0, os.SEEK_END)
    total = fp.tell() - start
    if total < _SEAL_FOOTER.size:
        raise CorruptPayloadError("payload too short for integrity footer")
    payload_len = total - _SEAL_FOOTER.size
    fp.seek(start + payload_len)
    magic, crc, length = _SEAL_FOOTER.unpack(fp.read(_SEAL_FOOTER.size))
    if magic != _SEAL_MAGIC:
        raise CorruptPayloadError("missing integrity footer (torn write?)")
    if payload_len & 0xFFFFFFFF != length:
        raise CorruptPayloadError(
            f"payload length {payload_len} != sealed length {length}"
        )
    fp.seek(start)
    running = 0
    remaining = payload_len
    while remaining:
        chunk = fp.read(min(_STREAM_CHUNK, remaining))
        if not chunk:
            raise CorruptPayloadError("payload truncated under its seal")
        running = zlib.crc32(chunk, running)
        remaining -= len(chunk)
    if running & 0xFFFFFFFF != crc:
        raise CorruptPayloadError("payload CRC mismatch (bit rot or tampering)")

    fp.seek(start)
    try:
        census_id, n = _raw_header(fp.read(_RAW_HEADER.size), payload_len)
    except (struct.error, ValueError) as exc:
        raise CorruptPayloadError(f"sealed payload unreadable: {exc}") from exc

    # Column offsets within the payload: columns are stored contiguously.
    offsets = []
    position = start + _RAW_HEADER.size
    for _dtype, width in _RAW_COLUMNS:
        offsets.append(position)
        position += n * width

    for lo in range(0, max(n, 1), batch_records):
        hi = min(lo + batch_records, n)
        if n == 0:
            hi = 0
        columns = []
        for (dtype, width), offset in zip(_RAW_COLUMNS, offsets):
            fp.seek(offset + lo * width)
            raw = fp.read((hi - lo) * width)
            columns.append(np.frombuffer(raw, dtype=dtype))
        yield CensusRecords(
            census_id,
            columns[0],
            columns[1],
            columns[2].astype(np.float64),
            columns[3].astype(np.float32),
            columns[4],
        )
        if n == 0:
            return


class CorruptBatchError(ValueError):
    """A record batch failed its integrity checksum."""

    def __init__(self, indices: Sequence[int]) -> None:
        self.indices = tuple(indices)
        super().__init__(
            f"{len(self.indices)} corrupt record batch(es) at indices {self.indices}"
        )


def concatenate(
    parts: Tuple[CensusRecords, ...],
    checksums: Optional[Sequence[int]] = None,
    on_corrupt: str = "raise",
) -> CensusRecords:
    """Concatenate per-VP record batches into one census-wide set.

    When ``checksums`` (one expected :meth:`CensusRecords.checksum` per
    batch) is given, every batch is validated first.  ``on_corrupt``
    selects what happens on a mismatch: ``"raise"`` (default) raises
    :class:`CorruptBatchError`; ``"drop"`` silently excludes the corrupt
    batches — callers wanting accounting should validate per batch
    themselves (as :class:`~repro.measurement.campaign.CensusCampaign`
    does) and use ``concatenate`` as the final integrity gate.
    """
    if checksums is not None:
        if len(checksums) != len(parts):
            raise ValueError("one checksum per batch required")
        if on_corrupt not in ("raise", "drop"):
            raise ValueError(f"unknown on_corrupt mode {on_corrupt!r}")
        bad = [
            i
            for i, (part, expected) in enumerate(zip(parts, checksums))
            if part.checksum() != int(expected)
        ]
        if bad:
            if on_corrupt == "raise":
                raise CorruptBatchError(bad)
            parts = tuple(p for i, p in enumerate(parts) if i not in set(bad))
    if not parts:
        raise ValueError("nothing to concatenate")
    ids = {p.census_id for p in parts}
    if len(ids) != 1:
        raise ValueError(f"mixed census ids: {sorted(ids)}")
    return CensusRecords(
        census_id=parts[0].census_id,
        vp_index=np.concatenate([p.vp_index for p in parts]),
        prefix=np.concatenate([p.prefix for p in parts]),
        timestamp_ms=np.concatenate([p.timestamp_ms for p in parts]),
        rtt_ms=np.concatenate([p.rtt_ms for p in parts]),
        flag=np.concatenate([p.flag for p in parts]),
    )

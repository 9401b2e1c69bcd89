#!/usr/bin/env python3
"""Probing the Atlas-scale frontier: a census far bigger than RAM wants.

The paper measured ~10.6M /24s from ~250 PlanetLab nodes; RIPE Atlas
today offers ~10k vantage points, a ~40× larger VP×target product whose
dense RTT matrix alone is tens of gigabytes.  This example runs a
*reduced* frontier probe — default 64 VPs × 20k targets, a shape any
laptop handles in seconds — through the exact machinery that scales to
the full product:

* records stream through ``iter_raw_batches`` in O(batch) heap, never
  materializing the records payload;
* the fold is a unique-cell scatter — a census holds at most one reply
  per (VP, target) cell, checked as the batches stream by;
* the output planes live on a :class:`MatrixStore` (memory-mapped temp
  files), so the matrix never touches the Python heap and may exceed RAM.

Scale the numbers up with ``--vps`` / ``--targets`` to find your own
host's frontier.

Run time at the default scale: ~5 s.

    python examples/atlas_scale_census.py --vps 64 --targets 20000
"""

import argparse
import io
import time
import tracemalloc

import numpy as np

from repro.census.combine import (
    matrix_from_record_batches,
    matrix_from_records,
    reply_prefix_union,
)
from repro.geo.coords import GeoPoint
from repro.measurement.recordio import (
    CensusRecords,
    iter_raw_batches,
    write_raw_checksummed,
)


def synth_records_payload(n_vps: int, n_targets: int, samples_per_target: int) -> bytes:
    """A sealed raw-record payload standing in for one census's ``records.bin``.

    Shaped like one: at most one reply per (VP, target) cell, VP after VP,
    each VP's replies in ascending prefix order.
    """
    rng = np.random.default_rng(2015)
    prefixes = np.sort(
        rng.choice(n_targets * 4, size=n_targets, replace=False)
    ).astype(np.uint32)
    n_cells = n_vps * n_targets
    n = min(n_targets * samples_per_target, n_cells)
    cells = np.sort(rng.choice(n_cells, size=n, replace=False))
    records = CensusRecords(
        census_id=1,
        vp_index=(cells // n_targets).astype(np.uint16),
        prefix=prefixes[cells % n_targets],
        timestamp_ms=rng.uniform(0, 8.64e7, n),
        rtt_ms=rng.uniform(1.0, 350.0, n).astype(np.float32),
        flag=np.zeros(n, dtype=np.int8),
    )
    sink = io.BytesIO()
    write_raw_checksummed(records, sink)
    return sink.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vps", type=int, default=64, help="roster width")
    parser.add_argument("--targets", type=int, default=20_000,
                        help="distinct /24 targets in the records payload")
    parser.add_argument("--samples", type=int, default=4,
                        help="records per target in the synthetic records payload")
    parser.add_argument("--batch", type=int, default=1 << 16,
                        help="records per streamed batch")
    args = parser.parse_args()

    rng = np.random.default_rng(7)
    names = [f"atlas-{i:05d}" for i in range(args.vps)]
    locations = [
        GeoPoint(float(a), float(b))
        for a, b in zip(
            rng.uniform(-60, 60, args.vps), rng.uniform(-170, 170, args.vps)
        )
    ]

    print(f"Synthesizing a records payload: {args.vps} VPs x ~{args.targets:,} targets...")
    blob = synth_records_payload(args.vps, args.targets, args.samples)
    print(f"  records payload: {len(blob) / 1e6:.1f} MB sealed")

    # -- streaming + memmap store: the Atlas-scale path -----------------
    tracemalloc.start()
    start = time.perf_counter()
    union = reply_prefix_union(iter_raw_batches(io.BytesIO(blob), args.batch))
    matrix = matrix_from_record_batches(
        iter_raw_batches(io.BytesIO(blob), args.batch),
        names,
        locations,
        prefixes=union,
        store="memmap",
    )
    stream_s = time.perf_counter() - start
    stream_peak = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    cells = matrix.n_targets * matrix.n_vps
    print(
        f"  streaming+memmap: {cells:,} cells in {stream_s:.2f}s, "
        f"heap peak {stream_peak:.1f} MB "
        f"(planes: {matrix.rtt_ms.nbytes / 1e6:.1f} MB, off-heap)"
    )

    # -- the classic one-shot inline path, for contrast ------------------
    tracemalloc.start()
    start = time.perf_counter()
    from repro.measurement.recordio import read_raw_checksummed

    records = read_raw_checksummed(io.BytesIO(blob))
    inline = matrix_from_records(records, names, locations, store="inline")
    inline_s = time.perf_counter() - start
    inline_peak = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    print(
        f"  one-shot inline:  {cells:,} cells in {inline_s:.2f}s, "
        f"heap peak {inline_peak:.1f} MB"
    )

    identical = (
        np.asarray(matrix.rtt_ms).tobytes() == inline.rtt_ms.tobytes()
        and np.asarray(matrix.sample_count).tobytes()
        == inline.sample_count.tobytes()
    )
    print(f"  byte-identical planes across paths: {identical}")
    assert identical

    ratio = inline_peak / max(stream_peak, 0.1)
    print(
        f"\nHeap-frontier headroom at this shape: {ratio:.1f}x "
        f"(grows with the records payload)"
    )
    matrix.store.close()


if __name__ == "__main__":
    main()

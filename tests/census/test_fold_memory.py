"""The census fold's memory bound and its chunking.

Both builders (:func:`combine_censuses` and the streaming
:func:`matrix_from_record_batches`) fold records in bounded chunks of
``combine._FOLD_CHUNK`` records.  So beyond the output planes and the row
space, the fold's peak memory is a per-chunk allowance, whatever the
census's size; and the chunk size changes no byte of the matrix.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.census import combine
from repro.census.combine import (
    combine_censuses,
    matrix_from_record_batches,
    matrix_from_records,
    reply_prefix_union,
)
from repro.measurement.campaign import Census
from repro.measurement.greylist import Greylist
from repro.measurement.platform import Platform, planetlab_platform
from repro.measurement.recordio import FLAG_OTHER_ERROR, FLAG_REPLY, CensusRecords
from repro.resilience.errors import CorruptInputError

#: Bytes per chunk record the fold may hold at once: the chunk's reply
#: mask and reply columns, rows, the row-space and cell-order checks, the
#: flat cell indices and the gathered minima.
_PER_CHUNK_RECORD_BYTES = 64

_VP_POOL = planetlab_platform(count=64, seed=4).vantage_points


def _census(census_id, vps, universe, seed, reply_share=0.75, error_share=0.05):
    """A census-shaped census over ``vps``: each VP's echo replies to a
    random share of ``universe``, ascending, then its ICMP errors from
    other targets, ascending (the order every scan lists its records)."""
    rng = np.random.default_rng(seed)
    columns = {name: [] for name in ("vp_index", "prefix", "rtt_ms", "flag")}
    for k in range(len(vps)):
        draw = rng.random(len(universe))
        for flag, targets in (
            (FLAG_REPLY, universe[draw < reply_share]),
            (FLAG_OTHER_ERROR, universe[draw > 1.0 - error_share]),
        ):
            columns["vp_index"].append(np.full(len(targets), k, dtype=np.uint16))
            columns["prefix"].append(targets)
            rtt = rng.uniform(1.0, 300.0, len(targets)).astype(np.float32)
            columns["rtt_ms"].append(rtt if flag == FLAG_REPLY else np.full_like(rtt, np.nan))
            columns["flag"].append(np.full(len(targets), flag, dtype=np.int8))
    joined = {name: np.concatenate(parts) for name, parts in columns.items()}
    records = CensusRecords(
        census_id=census_id, timestamp_ms=np.zeros(len(joined["flag"])), **joined
    )
    return Census(
        census_id=census_id,
        platform=Platform("gen", list(vps)),
        records=records,
        vp_duration_hours=np.zeros(len(vps)),
        vp_drop_rate=np.zeros(len(vps)),
        greylist=Greylist(),
        rate_pps=1000.0,
    )


def _universe(n_targets, seed):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(1 << 24, size=n_targets, replace=False)).astype(np.uint32)


def _oracle(censuses):
    """The minimum-RTT planes by unbuffered ufuncs over every reply."""
    names = []
    for census in censuses:
        names += [vp.name for vp in census.platform.vantage_points if vp.name not in names]
    replies = [c.records.replies() for c in censuses]
    prefixes = np.unique(np.concatenate([r.prefix for r in replies]))
    rtt = np.full((len(prefixes), len(names)), np.inf, dtype=np.float32)
    counts = np.zeros(rtt.shape, dtype=np.uint8)
    for census, r in zip(censuses, replies):
        local = np.array([names.index(vp.name) for vp in census.platform.vantage_points])
        cells = (np.searchsorted(prefixes, r.prefix), local[r.vp_index])
        np.minimum.at(rtt, cells, r.rtt_ms)
        np.add.at(counts, cells, 1)
    rtt[np.isinf(rtt)] = np.nan
    return prefixes, names, rtt.tobytes(), counts.tobytes()


def _planes(matrix):
    return (
        matrix.prefixes,
        matrix.vp_names,
        np.asarray(matrix.rtt_ms).tobytes(),
        np.asarray(matrix.sample_count).tobytes(),
    )


def _assert_same(got, want):
    assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
    assert got[1:] == want[1:]


class TestFoldMemory:
    @pytest.fixture(scope="class")
    def big_census(self):
        census = _census(1, _VP_POOL[:48], _universe(9_000, seed=1), seed=2)
        assert len(census.records) >= 200_000
        return census

    def _peak(self, build):
        tracemalloc.start()
        try:
            matrix = build()
            return matrix, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _bound(self, matrix):
        planes = matrix.rtt_ms.nbytes + matrix.sample_count.nbytes
        # The row space, and the union pass's copies of it.
        union = 4 * matrix.prefixes.nbytes
        return planes + union + _PER_CHUNK_RECORD_BYTES * combine._FOLD_CHUNK

    def test_combine_peak_is_planes_union_and_one_chunk(self, big_census):
        matrix, peak = self._peak(lambda: combine_censuses([big_census], store="inline"))
        assert peak <= self._bound(matrix), (peak, self._bound(matrix))

    def test_streaming_fold_peak_is_planes_union_and_one_chunk(self, big_census):
        vps = big_census.platform.vantage_points
        names, locations = [vp.name for vp in vps], [vp.location for vp in vps]
        matrix, peak = self._peak(
            lambda: matrix_from_records(big_census.records, names, locations, store="inline")
        )
        assert peak <= self._bound(matrix), (peak, self._bound(matrix))


class TestChunkSizeChangesNoByte:
    """Chunks of 1 and 7 records, and one chunk holding the whole census,
    fold to the same bytes as the unbuffered oracle, through both
    builders."""

    @pytest.fixture(scope="class")
    def paper_pair(self):
        """Two censuses over overlapping, differently ordered rosters and
        overlapping target sets (the paper's combined censuses)."""
        universe = _universe(300, seed=3)
        first = _census(1, _VP_POOL[:6], universe[:250], seed=4)
        second = _census(2, _VP_POOL[8:2:-1], universe[40:], seed=5)
        return first, second

    @pytest.fixture(params=[1, 7, 1 << 20], ids=["chunk1", "chunk7", "whole"])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(combine, "_FOLD_CHUNK", request.param)
        return request.param

    def test_a_chunk_boundary_falls_inside_a_vp_run(self, paper_pair):
        records = paper_pair[0].records
        cuts = np.arange(7, len(records), 7)
        inside = (records.vp_index[cuts - 1] == records.vp_index[cuts]) & (
            records.flag[cuts - 1] == FLAG_REPLY
        ) & (records.flag[cuts] == FLAG_REPLY)
        assert inside.any()
        assert len(records) < 1 << 20

    def test_cell_order_is_checked_across_chunks(self, paper_pair, chunk):
        """A repeated cell straddling a chunk boundary still raises: the
        last cell is carried from one chunk to the next."""
        census = paper_pair[0]
        records = census.records
        keep = np.ones(len(records), dtype=bool)
        keep[7] = False  # record 7 now repeats record 6's cell
        repeated = records.select(keep)
        repeated.prefix[7] = repeated.prefix[6]
        assert repeated.flag[6] == repeated.flag[7] == FLAG_REPLY
        assert repeated.vp_index[6] == repeated.vp_index[7]
        vps = census.platform.vantage_points
        names, locations = [vp.name for vp in vps], [vp.location for vp in vps]
        with pytest.raises(CorruptInputError):
            combine_censuses([replace(census, records=repeated)])
        with pytest.raises(CorruptInputError):
            matrix_from_records(repeated, names, locations)

    def test_combine_equals_oracle(self, paper_pair, chunk):
        for censuses in ([paper_pair[0]], [paper_pair[1]], list(paper_pair)):
            _assert_same(_planes(combine_censuses(censuses)), _oracle(censuses))

    def test_streaming_fold_equals_oracle(self, paper_pair, chunk):
        census = paper_pair[1]
        records = census.records
        vps = census.platform.vantage_points
        names, locations = [vp.name for vp in vps], [vp.location for vp in vps]
        want = _oracle([census])
        _assert_same(_planes(matrix_from_records(records, names, locations)), want)
        # Batches cut at arbitrary records, inside VP runs too.
        bounds = [0, 5, 333, 334, 900, len(records)]
        batches = [
            records.select((np.arange(len(records)) >= lo) & (np.arange(len(records)) < hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        streamed = matrix_from_record_batches(
            batches, names, locations, prefixes=reply_prefix_union(batches)
        )
        _assert_same(_planes(streamed), want)

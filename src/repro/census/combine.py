"""Combining censuses into a per-(VP, target) minimum-RTT matrix.

The paper's headline results come from the *combination* of four censuses
(Sec. 4.1): per vantage point and target, the minimum RTT across censuses
is kept — the best available estimate of pure propagation delay, which
tightens every disk and adds ~200 anycast /24s over any individual census
(Fig. 12).

Censuses run from different node subsets (261/255/269/240 of ~308), so the
combination is keyed on VP *name*; the union of nodes across censuses is
the effective platform of the combined dataset.

Scale notes (the Atlas-size path):

* A census holds at most one reply per (VP, target) cell: each VP walks
  the hitlist once (Sec. 3.3), and its replies come out in ascending
  prefix order.  So each census folds as a plain gather -> ``np.minimum``
  -> scatter over unique cells, with ``counts += 1`` — no group-by, no
  sort, no ``ufunc.at``.  Censuses fold one after the other; a float32
  minimum is order-independent (NaN poisoning included) and uint8 counts
  wrap mod 256 exactly as one scattered add over all censuses would.
* Both builders run one fold (:func:`_fold_records`) over bounded chunks
  of :data:`_FOLD_CHUNK` records: each chunk's replies are masked out,
  placed on the row space, checked and folded, so the fold's temporaries
  are O(chunk) however many records a census or a stream holds.
* The uniqueness is checked, not assumed, in O(records) with no
  cells-sized temporary: the census-local key (VP, row) must be strictly
  increasing, across chunks too.  Records can come from outside the
  program (journals, archives), so a violation is a typed
  :class:`~repro.resilience.errors.CorruptInputError`, never a silently
  wrong matrix; so are replies outside the row space or the roster.
* The row space is a sort-based distinct over the uint32 prefix column,
  several times faster than the hash-based ``np.unique`` on it, grown
  chunk by chunk (:func:`reply_prefix_union`).
* The output planes can live on a :class:`~repro.census.matstore.MatrixStore`
  (memory-mapped temp files) instead of the heap — same bytes, different
  backing — so the matrix can exceed RAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.coords import GeoPoint, pairwise_distances_km
from ..measurement.campaign import Census
from ..measurement.platform import VantagePoint
from ..measurement.recordio import FLAG_REPLY, CensusRecords
from .matstore import MatrixStore, allocate_matrix_planes, resolve_store

#: Cells per block of :func:`merge_matrices`'s streaming merge.
_MERGE_BLOCK_CELLS = 1 << 21

#: Records per chunk of the census fold (:func:`_fold_records`): bounds
#: its temporaries, whatever the census's size.
_FOLD_CHUNK = 1 << 16


@dataclass
class RttMatrix:
    """Dense per-target, per-VP minimum-RTT view of one or more censuses.

    ``rtt_ms[i, j]`` is the smallest RTT any contributing census measured
    from VP ``vp_names[j]`` toward ``prefixes[i]``; NaN where no reply was
    ever received.
    """

    prefixes: np.ndarray          # (n_targets,) uint32, sorted
    vp_names: List[str]           # (n_vps,)
    vp_locations: List[GeoPoint]  # (n_vps,)
    rtt_ms: np.ndarray            # (n_targets, n_vps) float32, NaN = missing
    #: Number of censuses contributing at least one reply per cell.
    sample_count: np.ndarray      # (n_targets, n_vps) uint8
    #: Backing store when the planes live on memory-mapped temp files
    #: (``None`` on the classic inline path).  Purely a *where*, never a
    #: *what*: bytes are identical across backends.
    store: Optional[MatrixStore] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_t, n_v = self.rtt_ms.shape
        if len(self.prefixes) != n_t or len(self.vp_names) != n_v:
            raise ValueError("RttMatrix dimension mismatch")
        if len(self.vp_locations) != n_v:
            raise ValueError("vp_locations length mismatch")
        self._vp_distances: Optional[np.ndarray] = None

    @property
    def n_targets(self) -> int:
        return len(self.prefixes)

    @property
    def n_vps(self) -> int:
        return len(self.vp_names)

    def vp_distance_matrix(self) -> np.ndarray:
        """Great-circle distances between all VP pairs (detection input).

        Computed once and cached on the instance (read-only): detection,
        the per-target enumeration geometry, and the throughput benchmark
        all share the same matrix, and every disk of every target is
        centered on one of these VPs — so per-target overlap matrices are
        slices of this cache plus a radii outer sum, with zero fresh
        trigonometry.
        """
        if self._vp_distances is None:
            lats = [p.lat for p in self.vp_locations]
            lons = [p.lon for p in self.vp_locations]
            distances = pairwise_distances_km(lats, lons, lats, lons)
            distances.setflags(write=False)
            self._vp_distances = distances
        return self._vp_distances

    def row_of(self, prefix: int) -> int:
        """Row index of a /24 prefix."""
        idx = int(np.searchsorted(self.prefixes, prefix))
        if idx >= len(self.prefixes) or self.prefixes[idx] != prefix:
            raise KeyError(f"prefix index {prefix} not in matrix")
        return idx

    def rows_of(self, prefixes: Sequence[int]) -> np.ndarray:
        """Vectorized bulk :meth:`row_of`: one searchsorted for the batch.

        Raises :exc:`KeyError` (naming up to five offenders) when any
        queried prefix is not in the matrix — the same contract as the
        scalar lookup, validated for the whole batch at once.
        """
        query = np.asarray(prefixes, dtype=np.int64)
        if query.size == 0:
            return np.empty(0, dtype=np.int64)
        n = len(self.prefixes)
        idx = np.searchsorted(self.prefixes, query)
        in_range = idx < n
        ok = in_range.copy()
        if in_range.any():
            safe = np.where(in_range, idx, 0)
            ok &= self.prefixes[safe].astype(np.int64) == query
        if not ok.all():
            missing = query[~ok][:5].tolist()
            raise KeyError(f"prefix indices not in matrix: {missing}")
        return idx.astype(np.int64)

    def bulk_samples(self, rows: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`samples_for`: masked-array access for many rows.

        Returns ``(present, rtt)`` — a boolean reply mask and the RTT
        block for the requested rows, both ``(len(rows), n_vps)``.  Sample
        ``(i, j)`` corresponds to ``(vp_names[j], vp_locations[j],
        rtt[i, j])``; consumers index the roster lists with
        ``np.nonzero(present[i])`` instead of looping targets in Python.
        """
        block = self.rtt_ms[np.asarray(rows, dtype=np.int64)]
        return ~np.isnan(block), block

    def samples_for(self, prefix: int):
        """(vp_name, vp_location, rtt) triples with a reply, for one target."""
        row = self.rtt_ms[self.row_of(prefix)]
        out = []
        for j in np.nonzero(~np.isnan(row))[0]:
            out.append((self.vp_names[j], self.vp_locations[j], float(row[j])))
        return out


# ----------------------------------------------------------------------
# The census fold
# ----------------------------------------------------------------------


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct elements of a 1-D array (``np.unique`` without the
    hash table): one sort, one neighbour comparison."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _check_cells(vps: np.ndarray, rows: np.ndarray, n_rows: int, last: int = -1) -> int:
    """Require the cell keys ``vp * n_rows + row`` to strictly increase.

    That is the shape of one census's replies — each VP once, each of its
    targets once, in ascending prefix order — and what makes the
    scatter fold exact.  ``last`` is the key that precedes this stretch
    (carried across the batches of one stream); returns the final key.
    Out-of-order or duplicate cells raise
    :class:`~repro.resilience.errors.CorruptInputError`.
    """
    if len(rows) == 0:
        return last
    keys = vps.astype(np.int64) * n_rows + rows
    if keys[0] <= last or not bool(np.all(keys[1:] > keys[:-1])):
        from ..resilience.errors import CorruptInputError

        raise CorruptInputError(
            "census records are not one reply per (VP, target) cell in "
            "VP, then prefix order (duplicate or out-of-order cells)"
        )
    return int(keys[-1])


def _fold_census(
    rtt: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
) -> None:
    """Fold one census's replies, at most one per cell, into the planes.

    Gather, ``np.minimum`` (NaN poisons), scatter; ``counts += 1`` wraps
    mod 256 in uint8.  Exact only because no cell repeats — callers check
    that first (:func:`_check_cells`).
    """
    cells = rows.astype(np.int64) * rtt.shape[1] + cols
    flat_rtt = rtt.reshape(-1)
    flat_rtt[cells] = np.minimum(flat_rtt[cells], values)
    flat_counts = counts.reshape(-1)
    flat_counts[cells] += 1


def _fold_records(
    rtt: np.ndarray,
    counts: np.ndarray,
    records: CensusRecords,
    prefixes: np.ndarray,
    columns: Optional[np.ndarray] = None,
    last: int = -1,
) -> int:
    """Fold one census's echo replies (or one batch of its stream) into
    the planes, :data:`_FOLD_CHUNK` records at a time.

    Each chunk's replies are masked out, placed on the sorted row space
    ``prefixes`` with ``searchsorted``, checked and folded; ``columns``
    maps the census's VP index to its matrix column (``None``: the index
    is the column).  ``last`` is the cell key that precedes the records
    (carried across chunks, and across the batches of one stream);
    returns the final key.  A reply outside the row space or the roster
    is a :exc:`ValueError`, cells out of order a
    :class:`~repro.resilience.errors.CorruptInputError`
    (:func:`_check_cells`).
    """
    n_t = len(prefixes)
    n_columns = rtt.shape[1] if columns is None else len(columns)
    for lo in range(0, len(records), _FOLD_CHUNK):
        chunk = slice(lo, lo + _FOLD_CHUNK)
        replied = records.flag[chunk] == FLAG_REPLY
        values = records.rtt_ms[chunk][replied]
        if len(values) == 0:
            continue
        reply_prefixes = records.prefix[chunk][replied]
        rows = np.searchsorted(prefixes, reply_prefixes)
        if n_t == 0 or not np.array_equal(
            prefixes[np.minimum(rows, n_t - 1)], reply_prefixes
        ):
            raise ValueError("reply prefix outside the provided row space")
        vps = records.vp_index[chunk][replied]
        if int(vps.max()) >= n_columns:
            raise ValueError("reply vp_index outside the provided roster")
        last = _check_cells(vps, rows, n_t, last)
        _fold_census(rtt, counts, rows, vps if columns is None else columns[vps], values)
    return last


def _infs_to_nan(rtt: np.ndarray, row_chunk: int = 65536) -> None:
    """Rewrite the fold identity (+inf) to the matrix convention (NaN).

    Chunked over rows so the boolean temp never approaches matrix size.
    """
    for lo in range(0, rtt.shape[0], row_chunk):
        block = rtt[lo : lo + row_chunk]
        block[np.isinf(block)] = np.nan


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def combine_censuses(
    censuses: Sequence[Census], store: Optional[str] = None
) -> RttMatrix:
    """Fold one or more censuses into the minimum-RTT matrix.

    Columns are the union of the censuses' VPs by name, rows the sorted
    union of the prefixes that ever replied.  Each census folds in bounded
    record chunks (:func:`_fold_records`): beyond the output planes and
    the row space, peak memory is O(chunk), not O(census).

    ``store`` selects the backing of the output planes (``auto`` /
    ``inline`` / ``memmap``; see
    :func:`repro.census.matstore.resolve_store`).  Bytes are identical
    across backends.
    """
    if not censuses:
        raise ValueError("no censuses to combine")

    # Union of vantage points across censuses, keyed by name.
    vp_index: Dict[str, int] = {}
    vp_locations: List[GeoPoint] = []
    for census in censuses:
        for vp in census.platform.vantage_points:
            if vp.name not in vp_index:
                vp_index[vp.name] = len(vp_index)
                vp_locations.append(vp.location)
    vp_names = sorted(vp_index, key=lambda n: vp_index[n])

    # Union of prefixes that ever replied.
    all_prefixes = reply_prefix_union(c.records for c in censuses)
    n_t, n_v = len(all_prefixes), len(vp_index)

    backend = resolve_store(store, n_cells=n_t * n_v)
    rtt, counts, store_obj = allocate_matrix_planes(n_t, n_v, backend)

    for census in censuses:
        # Map census-local VP indices to global columns.
        local_to_global = np.array(
            [vp_index[vp.name] for vp in census.platform.vantage_points],
            dtype=np.int64,
        )
        if np.array_equal(local_to_global, np.arange(len(local_to_global))):
            local_to_global = None
        _fold_records(rtt, counts, census.records, all_prefixes, local_to_global)

    _infs_to_nan(rtt)
    return RttMatrix(
        prefixes=all_prefixes,
        vp_names=vp_names,
        vp_locations=vp_locations,
        rtt_ms=rtt,
        sample_count=counts,
        store=store_obj,
    )


def matrix_from_census(census: Census, store: Optional[str] = None) -> RttMatrix:
    """Single-census convenience wrapper."""
    return combine_censuses([census], store=store)


def matrix_from_records(
    records: "CensusRecords",
    vp_names: List[str],
    vp_locations: List[GeoPoint],
    store: Optional[str] = None,
) -> RttMatrix:
    """Rebuild a single-census matrix from archived records.

    The archive stores a census's raw records plus its VP roster (names
    and locations, in platform order); this reproduces exactly what
    :func:`matrix_from_census` computed on the live census — same fold,
    same float32 minima, same ordering — so analyses recomputed from the
    archive are byte-comparable to the originals.
    """
    return matrix_from_record_batches(
        [records],
        vp_names,
        vp_locations,
        prefixes=reply_prefix_union([records]),
        store=store,
    )


def reply_prefix_union(batches: Iterable["CensusRecords"]) -> np.ndarray:
    """Sorted union of reply prefixes across record batches, O(union +
    chunk) memory: each batch is read :data:`_FOLD_CHUNK` records at a
    time.

    The row space of both builders, and the first of the two streaming
    passes over an archived journal: the union fixes the matrix row space
    so the fold pass can run in O(chunk).  Identical to
    ``np.unique(all_replies.prefix)`` on the concatenation.
    """
    union = np.empty(0, dtype=np.uint32)
    for batch in batches:
        for lo in range(0, len(batch), _FOLD_CHUNK):
            chunk = slice(lo, lo + _FOLD_CHUNK)
            replied = batch.prefix[chunk][batch.flag[chunk] == FLAG_REPLY]
            union = _sorted_distinct(np.concatenate([union, replied]))
    return union.astype(np.uint32)


def matrix_from_record_batches(
    batches: Iterable["CensusRecords"],
    vp_names: List[str],
    vp_locations: List[GeoPoint],
    prefixes: np.ndarray,
    store: Optional[str] = None,
) -> RttMatrix:
    """Streaming :func:`matrix_from_records`: fold batches as they arrive.

    The same chunked fold as :func:`combine_censuses`
    (:func:`_fold_records`), so peak memory is O(chunk) + the output
    planes: nothing concatenates.  ``prefixes`` is the sorted row space
    (see :func:`reply_prefix_union` for the streaming first pass); a
    reply outside it, or outside the roster, is an error, never a silent
    drop.  The batches are one census's records in order: cells must
    strictly increase across the whole stream (see :func:`_check_cells`).
    Bytes equal the one-shot builder's for any batching.
    """
    prefixes = np.asarray(prefixes, dtype=np.uint32)
    n_t, n_v = len(prefixes), len(vp_names)
    backend = resolve_store(store, n_cells=n_t * n_v)
    rtt, counts, store_obj = allocate_matrix_planes(n_t, n_v, backend)

    last_cell = -1
    for batch in batches:
        last_cell = _fold_records(rtt, counts, batch, prefixes, last=last_cell)

    _infs_to_nan(rtt)
    return RttMatrix(
        prefixes=prefixes,
        vp_names=list(vp_names),
        vp_locations=list(vp_locations),
        rtt_ms=rtt,
        sample_count=counts,
        store=store_obj,
    )


def merge_matrices(
    a: RttMatrix, b: RttMatrix, store: Optional[str] = None
) -> RttMatrix:
    """Merge two RTT matrices (minimum per cell, union of VPs/targets).

    The cross-platform case of the paper's Sec. 5: measurements of the
    same targets from PlanetLab and RIPE Atlas are combined into one view,
    keyed by VP name (platforms use disjoint name spaces).

    Each operand streams into the output in bounded row blocks — the old
    implementation materialized full-matrix coordinate arrays for both
    operands (a third full-size allocation on top of the output); now the
    only full-size planes are the output's own, and the per-block
    ``fmin`` (NaN-ignoring minimum) reproduces the masked scattered fold
    byte for byte.
    """
    vp_index: Dict[str, int] = {}
    vp_locations: List[GeoPoint] = []
    for matrix in (a, b):
        for name, location in zip(matrix.vp_names, matrix.vp_locations):
            if name not in vp_index:
                vp_index[name] = len(vp_index)
                vp_locations.append(location)
    vp_names = sorted(vp_index, key=lambda n: vp_index[n])

    prefixes = np.union1d(a.prefixes, b.prefixes)
    n_t, n_v = len(prefixes), len(vp_index)
    backend = resolve_store(store, n_cells=n_t * n_v)
    rtt, counts, store_obj = allocate_matrix_planes(n_t, n_v, backend)

    row_chunk = max(1, _MERGE_BLOCK_CELLS // max(n_v, 1))
    for matrix in (a, b):
        cols = np.array([vp_index[n] for n in matrix.vp_names], dtype=np.int64)
        rows = np.searchsorted(prefixes, matrix.prefixes)
        for lo in range(0, matrix.n_targets, row_chunk):
            hi = min(lo + row_chunk, matrix.n_targets)
            window = np.ix_(rows[lo:hi], cols)
            block = matrix.rtt_ms[lo:hi]
            # fmin keeps the present side: NaN source cells leave the
            # output untouched, exactly like the masked scattered fold.
            rtt[window] = np.fmin(rtt[window], block)
            # Counts only ever came from present cells (poisoned planes
            # may carry counts under NaN RTTs; those never merged before
            # and must not now).
            contribution = np.where(
                np.isnan(block), 0, matrix.sample_count[lo:hi]
            ).astype(counts.dtype)
            counts[window] += contribution

    _infs_to_nan(rtt)
    return RttMatrix(
        prefixes=prefixes,
        vp_names=vp_names,
        vp_locations=vp_locations,
        rtt_ms=rtt,
        sample_count=counts,
        store=store_obj,
    )

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

* The scattered fold is a packed-key sort + group reduction, not
  ``np.minimum.at``.  Packing ``(cell id << 32) | rtt_bits`` into one
  int64 and sorting makes each group's minimum its first element — one
  ``np.sort`` replaces two scattered ufunc passes.  Measured ~2× faster
  than the ``ufunc.at`` fast path of numpy >= 1.25 at 10^6+ records (and
  ~10–40× against the per-element dispatch of older numpys) while
  producing **identical bytes** (a float32 minimum is order-independent,
  NaN poisoning included, and uint8 counts wrap mod 256 either way) — see
  ``benchmarks/bench_scaling_frontier.py`` for the measured gap and
  ``tests/census/test_combine.py`` for the exact-bytes regression.
* Folds run in bounded chunks, so peak temp memory is O(chunk) no matter
  how many records stream through (:func:`matrix_from_record_batches`).
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
from ..measurement.recordio import CensusRecords
from .matstore import MatrixStore, allocate_matrix_planes, resolve_store

#: Records per fold chunk: bounds the lexsort temporaries (~60 MB) while
#: keeping the vectorized reduction long enough to amortize.
_FOLD_CHUNK = 1 << 21


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
# The scattered (min, count) fold
# ----------------------------------------------------------------------


def _fold_chunk(
    rtt: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
) -> None:
    """Fold one chunk of ``(row, col, rtt)`` samples into the planes.

    Exact replacement for ``np.minimum.at(rtt, (rows, cols), values)`` +
    ``np.add.at(counts, (rows, cols), 1)`` via one packed-key sort: the
    flat cell id goes in the upper 32 bits and the RTT's raw float32 bits
    in the lower 32.  IEEE bit patterns of non-negative floats are
    order-isomorphic to unsigned integers (NaN above +inf), so after one
    ``np.sort`` each group's minimum is simply its first element, group
    sizes fall out of the boundaries, and the per-group results land on
    now-unique indices with plain fancy assignment.  NaN poisoning is
    preserved (a NaN anywhere in the group sorts last; the group is then
    poisoned), and count increments wrap mod 256 exactly as the uint8
    scattered add did.

    Precondition: values are non-negative or NaN — true of RTTs by
    construction, and what makes the bit-packing order-exact.
    """
    n_v = rtt.shape[1]
    flat = rows.astype(np.int64) * n_v + cols.astype(np.int64)
    keys = (flat << 32) | values.view(np.uint32).astype(np.int64)
    keys.sort()
    cell = keys >> 32
    boundaries = np.empty(len(cell), dtype=bool)
    boundaries[0] = True
    np.not_equal(cell[1:], cell[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    ends = np.append(starts[1:], len(cell)) - 1
    group_min = (keys[starts] & 0xFFFFFFFF).astype(np.uint32).view(np.float32)
    group_max = (keys[ends] & 0xFFFFFFFF).astype(np.uint32).view(np.float32)
    group_min = np.where(np.isnan(group_max), np.float32(np.nan), group_min)
    r, c = np.divmod(cell[starts], n_v)
    rtt[r, c] = np.minimum(rtt[r, c], group_min)
    sizes = np.diff(np.append(starts, len(cell)))
    counts[r, c] += sizes.astype(counts.dtype)


def _fold_min_count(
    rtt: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    chunk: int = _FOLD_CHUNK,
) -> None:
    """Chunked scattered fold: O(chunk) temps regardless of batch size.

    Splitting is free for correctness: the minimum is associative and
    commutative (NaN included) and count addition wraps identically, so
    any chunking produces the same bytes as one pass.
    """
    n = len(values)
    if n == 0:
        return
    values = np.ascontiguousarray(values, dtype=np.float32)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        _fold_chunk(rtt, counts, rows[start:stop], cols[start:stop], values[start:stop])


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
    reply_parts = [c.records.replies() for c in censuses]
    all_prefixes = np.unique(np.concatenate([r.prefix for r in reply_parts]))
    n_t, n_v = len(all_prefixes), len(vp_index)

    backend = resolve_store(store, n_cells=n_t * n_v)
    rtt, counts, store_obj = allocate_matrix_planes(n_t, n_v, backend)

    for census, replies in zip(censuses, reply_parts):
        # Map census-local VP indices to global columns.
        local_to_global = np.array(
            [vp_index[vp.name] for vp in census.platform.vantage_points],
            dtype=np.int64,
        )
        rows = np.searchsorted(all_prefixes, replies.prefix)
        cols = local_to_global[replies.vp_index]
        _fold_min_count(rtt, counts, rows, cols, replies.rtt_ms)

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
    replies = records.replies()
    prefixes = np.unique(replies.prefix)
    return matrix_from_record_batches(
        [records],
        vp_names,
        vp_locations,
        prefixes=prefixes,
        store=store,
    )


def reply_prefix_union(batches: Iterable["CensusRecords"]) -> np.ndarray:
    """Sorted union of reply prefixes across record batches, O(union) memory.

    The first of the two streaming passes over an archived journal: the
    union fixes the matrix row space so the fold pass can run in O(batch).
    Identical to ``np.unique(all_replies.prefix)`` on the concatenation.
    """
    union = np.empty(0, dtype=np.uint32)
    for batch in batches:
        union = np.union1d(union, np.unique(batch.replies().prefix))
    return union.astype(np.uint32)


def matrix_from_record_batches(
    batches: Iterable["CensusRecords"],
    vp_names: List[str],
    vp_locations: List[GeoPoint],
    prefixes: np.ndarray,
    store: Optional[str] = None,
) -> RttMatrix:
    """Streaming :func:`matrix_from_records`: fold batches as they arrive.

    Peak memory is O(batch) + the output planes: nothing concatenates.
    ``prefixes`` is the sorted row space (see :func:`reply_prefix_union`
    for the streaming first pass); a reply outside it is an error, never
    a silent drop.  Bytes equal the one-shot builder's for any batching.
    """
    prefixes = np.asarray(prefixes, dtype=np.uint32)
    n_t, n_v = len(prefixes), len(vp_names)
    backend = resolve_store(store, n_cells=n_t * n_v)
    rtt, counts, store_obj = allocate_matrix_planes(n_t, n_v, backend)

    for batch in batches:
        replies = batch.replies()
        if len(replies) == 0:
            continue
        rows = np.searchsorted(prefixes, replies.prefix)
        safe = np.minimum(rows, max(n_t - 1, 0))
        if n_t == 0 or not np.array_equal(prefixes[safe], replies.prefix):
            raise ValueError("reply prefix outside the provided row space")
        cols = replies.vp_index.astype(np.int64)
        if len(cols) and int(cols.max()) >= n_v:
            raise ValueError("reply vp_index outside the provided roster")
        _fold_min_count(rtt, counts, rows, cols, replies.rtt_ms)

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

    row_chunk = max(1, _FOLD_CHUNK // max(n_v, 1))
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

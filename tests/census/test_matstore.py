"""MatrixStore invariants: every backend is only a *where*, never a *what*.

The hard contract of the Atlas-scale path: matrices built on the
``inline`` and ``memmap`` backends are byte-identical, analysis over them
is object-identical, and no temp file survives its owner — not even when
a forked child dies holding the mapping.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.census import matstore  # noqa: E402
from repro.census.combine import (  # noqa: E402
    RttMatrix,
    matrix_from_record_batches,
    matrix_from_records,
    merge_matrices,
    reply_prefix_union,
)
from repro.census.analysis import analyze_matrix  # noqa: E402
from repro.census.matstore import (  # noqa: E402
    AUTO_MIN_CELLS,
    active_segments,
    allocate_matrix_planes,
    resolve_store,
)
from repro.geo.cities import default_city_db  # noqa: E402
from repro.geo.coords import GeoPoint  # noqa: E402
from repro.measurement.recordio import CensusRecords  # noqa: E402

#: The backends that materialize a store object (``inline`` has none).
STORE_BACKENDS = ["memmap"]


def _store_files() -> list:
    return glob.glob(f"{tempfile.gettempdir()}/{matstore.SEGMENT_PREFIX}-*")


def _create(shape, backend):
    return allocate_matrix_planes(*shape, backend)[2]


def _records(seed: int, n_vps: int, n_targets: int, n_records: int) -> CensusRecords:
    """Random census-shaped reply records: at most one per (VP, prefix)
    cell, in VP then prefix order, as one census's scans produce them
    (``n_records`` is capped at the number of cells)."""
    rng = np.random.default_rng(seed)
    prefixes = np.sort(rng.choice(2**20, size=n_targets, replace=False)).astype(
        np.uint32
    )
    n_records = min(n_records, n_vps * n_targets)
    cells = np.sort(rng.choice(n_vps * n_targets, size=n_records, replace=False))
    return CensusRecords(
        census_id=1,
        vp_index=(cells // n_targets).astype(np.uint16),
        prefix=prefixes[cells % n_targets],
        timestamp_ms=rng.uniform(0, 1e6, size=n_records).astype(np.float64),
        rtt_ms=rng.choice(
            [2.0, 5.0, 10.0, 20.0, 60.0, 150.0], size=n_records
        ).astype(np.float32),
        flag=np.zeros(n_records, dtype=np.int8),
    )


def _roster(n_vps: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    lats = rng.uniform(-60.0, 60.0, size=n_vps)
    lons = rng.uniform(-170.0, 170.0, size=n_vps)
    names = [f"vp-{i:03d}" for i in range(n_vps)]
    locations = [GeoPoint(float(a), float(b)) for a, b in zip(lats, lons)]
    return names, locations


def _close(matrix: RttMatrix) -> None:
    if matrix.store is not None:
        matrix.store.close()


class TestResolveStore:
    def test_explicit_choices_pass_through(self):
        for choice in ("inline", "memmap"):
            assert resolve_store(choice, n_cells=1) == choice

    def test_auto_small_is_inline(self):
        assert resolve_store("auto", n_cells=AUTO_MIN_CELLS - 1) == "inline"

    def test_auto_large_is_segment_backed(self):
        assert resolve_store("auto", n_cells=AUTO_MIN_CELLS) == "memmap"

    def test_env_var_is_ignored(self, monkeypatch):
        # The hidden REPRO_MATRIX_STORE override is gone: the configured
        # choice is the only selector, valid or not.
        for value in ("memmap", "warp"):
            monkeypatch.setenv("REPRO_MATRIX_STORE", value)
            assert resolve_store("inline", n_cells=1) == "inline"
            assert resolve_store("auto", n_cells=1) == "inline"
        assert not hasattr(matstore, "STORE_ENV_VAR")

    def test_invalid_choice_rejected(self):
        for choice in ("warp", "shared"):
            with pytest.raises(ValueError):
                resolve_store(choice)


class TestLifecycle:
    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_create_close_leaves_nothing(self, backend):
        before = set(_store_files())
        store = _create((8, 4), backend)
        key = store.key
        assert key in active_segments()
        assert set(_store_files()) > before
        store.arrays["rtt_ms"][:] = 7.0
        store.close()
        assert store.released
        assert key not in active_segments()
        assert set(_store_files()) == before
        # Idempotent.
        store.close()

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_garbage_collection_releases(self, backend):
        before = set(_store_files())
        store = _create((8, 4), backend)
        key = store.key
        del store
        import gc

        gc.collect()
        assert key not in active_segments()
        assert set(_store_files()) == before

    def test_empty_matrix_falls_back_inline(self):
        rtt, counts, store = allocate_matrix_planes(0, 5, "memmap")
        assert store is None
        assert rtt.shape == (0, 5)
        assert counts.shape == (0, 5)


class TestByteEquivalence:
    """inline ≡ memmap, for the builders and the analysis."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vps=st.integers(2, 8),
        n_targets=st.integers(1, 16),
        n_records=st.integers(1, 400),
    )
    def test_builders_identical_across_backends(
        self, seed, n_vps, n_targets, n_records
    ):
        records = _records(seed, n_vps, n_targets, n_records)
        names, locations = _roster(n_vps)
        reference = matrix_from_records(records, names, locations, store="inline")
        for backend in STORE_BACKENDS:
            other = matrix_from_records(records, names, locations, store=backend)
            try:
                assert other.store is not None and other.store.backend == backend
                assert np.array_equal(reference.prefixes, other.prefixes)
                assert (
                    reference.rtt_ms.tobytes() == np.asarray(other.rtt_ms).tobytes()
                )
                assert (
                    reference.sample_count.tobytes()
                    == np.asarray(other.sample_count).tobytes()
                )
            finally:
                _close(other)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**32 - 1), batches=st.integers(1, 5))
    def test_streaming_batches_equal_one_shot(self, seed, batches):
        records = _records(seed, n_vps=6, n_targets=12, n_records=300)
        names, locations = _roster(6)
        one_shot = matrix_from_records(records, names, locations, store="inline")
        cuts = np.linspace(0, len(records.prefix), batches + 1).astype(int)
        parts = [
            records.select(
                (np.arange(len(records.prefix)) >= lo)
                & (np.arange(len(records.prefix)) < hi)
            )
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ]
        streamed = matrix_from_record_batches(
            parts,
            names,
            locations,
            prefixes=reply_prefix_union(parts),
            store="memmap",
        )
        try:
            assert np.array_equal(one_shot.prefixes, streamed.prefixes)
            assert one_shot.rtt_ms.tobytes() == np.asarray(streamed.rtt_ms).tobytes()
            assert (
                one_shot.sample_count.tobytes()
                == np.asarray(streamed.sample_count).tobytes()
            )
        finally:
            _close(streamed)

    def test_merge_identical_across_backends(self):
        names_a, locations_a = _roster(5, seed=1)
        names_b, locations_b = _roster(7, seed=2)
        a = matrix_from_records(_records(11, 5, 10, 200), names_a, locations_a)
        b = matrix_from_records(_records(12, 7, 14, 200), names_b, locations_b)
        reference = merge_matrices(a, b, store="inline")
        for backend in STORE_BACKENDS:
            other = merge_matrices(a, b, store=backend)
            try:
                assert (
                    reference.rtt_ms.tobytes() == np.asarray(other.rtt_ms).tobytes()
                )
                assert (
                    reference.sample_count.tobytes()
                    == np.asarray(other.sample_count).tobytes()
                )
            finally:
                _close(other)


class TestAnalysisEquivalence:
    """Store-backed analysis ≡ inline: detection reads the memmap plane
    block by block, iGreedy gathers rows off it."""

    @pytest.fixture(scope="class")
    def inputs(self):
        records = _records(seed=21, n_vps=10, n_targets=40, n_records=4000)
        names, locations = _roster(10, seed=21)
        return records, names, locations

    def _assert_equivalent(self, ref, other):
        assert np.array_equal(ref.prefixes, other.prefixes)
        assert np.array_equal(ref.anycast_mask, other.anycast_mask)
        assert list(ref.results.keys()) == list(other.results.keys())
        for prefix, a in ref.results.items():
            b = other.results[prefix]
            assert a.detection == b.detection, prefix
            assert a.iterations == b.iterations, prefix
            assert a.replicas == b.replicas, prefix

    def test_backends_identical(self, inputs):
        records, names, locations = inputs
        db = default_city_db()
        baseline_matrix = matrix_from_records(records, names, locations, store="inline")
        reference = analyze_matrix(baseline_matrix, city_db=db)
        assert reference.results, "fixture must detect anycast targets"
        for backend in STORE_BACKENDS:
            matrix = matrix_from_records(records, names, locations, store=backend)
            try:
                assert isinstance(matrix.rtt_ms, np.memmap)
                self._assert_equivalent(reference, analyze_matrix(matrix, city_db=db))
            finally:
                _close(matrix)
        assert active_segments() == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method",
)
class TestCrashCleanup:
    """A forked child killed while holding the mapping (every forked
    process inherits the live stores) cannot orphan or destroy a temp
    file."""

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_killed_child_leaves_no_orphans(self, backend):
        before = set(_store_files())
        store = _create((64, 8), backend)

        def child():
            store.arrays["rtt_ms"][0, :] = 42.0
            store.arrays["rtt_ms"].flush()
            os._exit(113)  # dies holding the mapping, skipping finalizers

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=child)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 113
        # The dead child's write is visible and the files are intact.
        assert (np.asarray(store.arrays["rtt_ms"][0]) == 42.0).all()
        store.close()
        assert active_segments() == []
        assert set(_store_files()) == before

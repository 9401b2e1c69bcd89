"""Census engine ≡ per-target oracle — the hard invariant of the analysis.

The array-native engine (:mod:`repro.census.fastpath`) is the only way
``analyze_matrix`` runs iGreedy; it must produce an
:class:`AnalysisResult` equivalent object-for-object to running the
single-target API :func:`repro.core.igreedy.igreedy` on every detected
row (:func:`oracle_analysis` below) for *every* configuration: same
prefixes, same detection verdicts and witnesses, same replica cities in
the same order, same confidences, same iteration counts.

The property suite drives both over randomly generated small internets
(random VP geometry, NaN holes, duplicated RTT values to provoke
tie-breaks) across the full configuration grid: strict/iterative
enumeration × population_exponent ∈ {0, 1, 1.5} × max_rtt
on/off/aggressive.  Degenerate inputs (no samples, single samples,
everything filtered), the block entry point at block sizes 1 / 7 / all
and metric totals are covered by explicit cases.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.census.analysis import (  # noqa: E402
    AnalysisResult,
    analyze_matrix,
    detect_targets,
)
from repro.census.combine import RttMatrix  # noqa: E402
from repro.census import fastpath  # noqa: E402
from repro.census.fastpath import FastAnalysisEngine  # noqa: E402
from repro.core.igreedy import IGreedyConfig, igreedy  # noqa: E402
from repro.core.samples import LatencySample  # noqa: E402
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer  # noqa: E402
from repro.obs.trace import iter_span_names  # noqa: E402
from repro.geo.cities import default_city_db  # noqa: E402
from repro.geo.coords import GeoPoint  # noqa: E402


def oracle_analysis(matrix, city_db, config=None, min_samples=3) -> AnalysisResult:
    """The per-sample pipeline: detect, then ``igreedy()`` per detected row."""
    cfg = config or IGreedyConfig()
    mask = detect_targets(matrix, cfg, min_samples)
    result = AnalysisResult(prefixes=matrix.prefixes, anycast_mask=mask)
    for row in np.nonzero(mask)[0]:
        prefix = int(matrix.prefixes[row])
        samples = [
            LatencySample(vp_name=name, vp_location=loc, rtt_ms=rtt)
            for name, loc, rtt in matrix.samples_for(prefix)
        ]
        result.results[prefix] = igreedy(samples, city_db=city_db, config=cfg)
    return result


def assert_equivalent(ref, fast) -> None:
    """Object-for-object equality of two AnalysisResults."""
    assert np.array_equal(ref.prefixes, fast.prefixes)
    assert np.array_equal(ref.anycast_mask, fast.anycast_mask)
    # Same targets in the same (canonical) order.
    assert list(ref.results.keys()) == list(fast.results.keys())
    for prefix, a in ref.results.items():
        b = fast.results[prefix]
        assert a.detection == b.detection, prefix
        assert a.iterations == b.iterations, prefix
        assert len(a.replicas) == len(b.replicas), (
            prefix,
            a.city_names,
            b.city_names,
        )
        for ra, rb in zip(a.replicas, b.replicas):
            # Frozen dataclasses: city, witnessing disk, and the exact
            # confidence float must all agree.
            assert ra == rb, prefix


# -- random-matrix generation ------------------------------------------


@st.composite
def rtt_matrices(draw):
    """A small random RttMatrix: 2-8 VPs, 1-12 targets, NaN holes, ties."""
    n_vps = draw(st.integers(min_value=2, max_value=8))
    n_targets = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)

    lats = rng.uniform(-70.0, 70.0, size=n_vps)
    lons = rng.uniform(-179.0, 179.0, size=n_vps)
    locations = [GeoPoint(float(a), float(b)) for a, b in zip(lats, lons)]
    # Shuffled zero-padded names so lexicographic order differs from
    # column order — exercises the name tie-break in sample sorting.
    names = [f"vp-{i:03d}" for i in rng.permutation(n_vps)]

    # Quantized RTTs produce frequent exact duplicates across VPs, the
    # adversarial case for (rtt, name) ordering and MIS tie-breaks.
    rtt = rng.choice([2.0, 5.0, 10.0, 20.0, 60.0, 150.0, 350.0], size=(n_targets, n_vps))
    holes = rng.random((n_targets, n_vps)) < draw(
        st.floats(min_value=0.0, max_value=0.6)
    )
    rtt = np.where(holes, np.nan, rtt).astype(np.float32)

    prefixes = np.sort(
        rng.choice(2**24, size=n_targets, replace=False).astype(np.uint32)
    )
    return RttMatrix(
        prefixes=prefixes,
        vp_names=names,
        vp_locations=locations,
        rtt_ms=rtt,
        sample_count=(~np.isnan(rtt)).astype(np.uint8),
    )


CONFIG_GRID = [
    dict(strict_enumeration=True, population_exponent=1.0, max_rtt_ms=300.0),
    dict(strict_enumeration=True, population_exponent=0.0, max_rtt_ms=None),
    dict(strict_enumeration=True, population_exponent=1.0, max_rtt_ms=8.0),
    dict(strict_enumeration=False, population_exponent=1.0, max_rtt_ms=300.0),
    dict(strict_enumeration=False, population_exponent=0.0, max_rtt_ms=300.0),
    dict(strict_enumeration=False, population_exponent=1.0, max_rtt_ms=None),
    dict(strict_enumeration=True, population_exponent=1.5, max_rtt_ms=300.0),
    dict(strict_enumeration=False, population_exponent=1.5, max_rtt_ms=None),
    dict(strict_enumeration=False, population_exponent=1.0, max_rtt_ms=300.0, max_iterations=2),
]


class TestPropertyEquivalence:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(matrix=rtt_matrices(), config_index=st.integers(0, len(CONFIG_GRID) - 1))
    def test_fast_equals_reference(self, matrix, config_index):
        kwargs = CONFIG_GRID[config_index]
        db = default_city_db()
        config = IGreedyConfig(**kwargs)
        ref = oracle_analysis(matrix, db, config)
        fast = analyze_matrix(matrix, city_db=db, config=config)
        assert_equivalent(ref, fast)

    @settings(max_examples=15, deadline=None)
    @given(matrix=rtt_matrices())
    def test_min_samples_guard_matches(self, matrix):
        db = default_city_db()
        for min_samples in (1, 3, 5):
            ref = oracle_analysis(matrix, db, min_samples=min_samples)
            fast = analyze_matrix(matrix, city_db=db, min_samples=min_samples)
            assert_equivalent(ref, fast)


# -- degenerate inputs -------------------------------------------------


def _matrix(rtt_rows, n_vps=4, seed=3):
    rng = np.random.default_rng(seed)
    lats = rng.uniform(-60.0, 60.0, size=n_vps)
    lons = rng.uniform(-170.0, 170.0, size=n_vps)
    rtt = np.asarray(rtt_rows, dtype=np.float32)
    return RttMatrix(
        prefixes=np.arange(1, rtt.shape[0] + 1, dtype=np.uint32),
        vp_names=[f"vp-{i}" for i in range(n_vps)],
        vp_locations=[GeoPoint(float(a), float(b)) for a, b in zip(lats, lons)],
        rtt_ms=rtt,
        sample_count=(~np.isnan(rtt)).astype(np.uint8),
    )


class TestDegenerateInputs:
    def test_all_nan_rows(self):
        matrix = _matrix(np.full((3, 4), np.nan))
        db = default_city_db()
        ref = oracle_analysis(matrix, db)
        fast = analyze_matrix(matrix, city_db=db)
        assert_equivalent(ref, fast)
        assert not fast.anycast_mask.any()
        assert fast.results == {}

    def test_below_min_samples(self):
        rtt = np.full((2, 4), np.nan)
        rtt[0, 0] = 3.0
        rtt[1, 0] = 3.0
        rtt[1, 1] = 4.0
        matrix = _matrix(rtt)
        db = default_city_db()
        ref = oracle_analysis(matrix, db)
        fast = analyze_matrix(matrix, city_db=db)
        assert_equivalent(ref, fast)
        assert not fast.anycast_mask.any()

    def test_max_rtt_filters_everything(self):
        # Every RTT exceeds max_rtt: the filter would leave < 2 disks, so
        # engine and oracle must both fall back to the unfiltered set.
        rtt = np.full((2, 4), 200.0, dtype=np.float32)
        rtt[:, 0] = 2.0  # tiny disks far from the rest force detection
        matrix = _matrix(rtt, seed=11)
        db = default_city_db()
        cfg = IGreedyConfig(max_rtt_ms=1.0)
        ref = oracle_analysis(matrix, db, cfg)
        fast = analyze_matrix(matrix, city_db=db, config=cfg)
        assert_equivalent(ref, fast)
        for result in fast.results.values():
            assert result.replicas  # fallback actually enumerated

    def test_iterative_tiny_iteration_budget(self):
        rng = np.random.default_rng(5)
        rtt = rng.choice([3.0, 8.0, 30.0], size=(6, 6)).astype(np.float32)
        matrix = _matrix(rtt, n_vps=6, seed=5)
        db = default_city_db()
        cfg = IGreedyConfig(strict_enumeration=False, max_iterations=1)
        ref = oracle_analysis(matrix, db, cfg)
        fast = analyze_matrix(matrix, city_db=db, config=cfg)
        assert_equivalent(ref, fast)


# -- a dense fixture: 40 targets, most of them detected ----------------


@pytest.fixture(scope="module")
def dense_matrix():
    rng = np.random.default_rng(17)
    n_targets, n_vps = 40, 10
    lats = rng.uniform(-60.0, 60.0, size=n_vps)
    lons = rng.uniform(-170.0, 170.0, size=n_vps)
    rtt = rng.choice(
        [2.0, 5.0, 12.0, 40.0, 90.0, 220.0], size=(n_targets, n_vps)
    )
    rtt = np.where(rng.random(rtt.shape) < 0.2, np.nan, rtt).astype(np.float32)
    return RttMatrix(
        prefixes=np.arange(100, 100 + n_targets, dtype=np.uint32),
        vp_names=[f"vp-{i:02d}" for i in rng.permutation(n_vps)],
        vp_locations=[GeoPoint(float(a), float(b)) for a, b in zip(lats, lons)],
        rtt_ms=rtt,
        sample_count=(~np.isnan(rtt)).astype(np.uint8),
    )


# -- the block entry point ---------------------------------------------


class TestBlockEngine:
    """``FastAnalysisEngine.analyze_rows`` is the one entry point of the
    study and the service; however its callers cut the rows into blocks,
    each row's result is the oracle's."""

    @pytest.fixture(scope="class")
    def matrix(self, dense_matrix):
        return dense_matrix

    @pytest.mark.parametrize("kwargs", CONFIG_GRID)
    def test_block_sizes_match_reference(self, matrix, kwargs, monkeypatch):
        db = default_city_db()
        config = IGreedyConfig(**kwargs)
        ref = oracle_analysis(matrix, db, config)
        rows = np.nonzero(ref.anycast_mask)[0]
        assert len(rows) > 7
        engine = FastAnalysisEngine(matrix, city_db=db, config=config)
        for size in (1, 7, len(rows)):
            results = []
            for start in range(0, len(rows), size):
                results.extend(engine.analyze_rows(rows[start : start + size]))
            assert results == list(ref.results.values()), size
        # The engine's own blocking (a few rows a block) changes nothing.
        monkeypatch.setattr(fastpath, "_BLOCK_CELLS", 3 * matrix.n_vps)
        assert engine.analyze_rows(rows) == list(ref.results.values())
        assert engine.analyze_row(rows[0]) == ref.results[int(matrix.prefixes[rows[0]])]

    def test_undetected_and_empty_rows(self, matrix):
        """Rows the mask would not hand over still get the reference's
        verdict: no witness, no replicas, the sample count."""
        engine = FastAnalysisEngine(matrix, city_db=default_city_db())
        assert engine.analyze_rows([]) == []
        rtt = matrix.rtt_ms
        quiet = RttMatrix(
            prefixes=matrix.prefixes[:3],
            vp_names=matrix.vp_names,
            vp_locations=matrix.vp_locations,
            rtt_ms=np.where(np.arange(rtt.shape[1]) < [[0], [1], [4]], 400.0, np.nan).astype(
                np.float32
            ),
            sample_count=np.ones((3, rtt.shape[1]), dtype=np.uint8),
        )
        results = FastAnalysisEngine(quiet, city_db=default_city_db()).analyze_rows([0, 1, 2])
        assert [r.is_anycast for r in results] == [False] * 3
        assert [r.detection.sample_count for r in results] == [0, 1, 4]
        assert all(r.detection.witness is None and not r.replicas for r in results)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("block_rows", [0, 2])
    def test_metric_totals_match_reference(self, matrix, strict, block_rows, monkeypatch):
        """Histogram and counter totals are the per-target API's, however
        the rows are cut into blocks (0 = the engine's own block size)."""
        if block_rows:
            monkeypatch.setattr(fastpath, "_BLOCK_CELLS", block_rows * matrix.n_vps)
        db = default_city_db()
        config = IGreedyConfig(strict_enumeration=strict)
        snapshots = []
        for analyze in (oracle_analysis, analyze_matrix):
            registry = MetricsRegistry()
            with use_metrics(registry):
                analyze(matrix, db, config)
            snapshots.append(registry.snapshot())
        ref, fast = snapshots
        for name in ("disks_per_target", "mis_size", "igreedy_iterations"):
            assert fast["histograms"][name] == ref["histograms"][name], name
        for name in (
            "replicas_enumerated",
            "detection_targets_tested",
            "detection_targets_flagged",
            "targets_classified_anycast",
        ):
            assert fast["counters"][name] == ref["counters"][name], name
        rows = [fast["counters"][f"detection_rows_{k}"] for k in ("witnessed", "certified", "residue")]
        assert sum(rows) == matrix.n_targets

    def test_one_igreedy_span_per_target_under_stage_spans(self, matrix):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("analysis"):
                result = analyze_matrix(matrix, city_db=default_city_db())
        names = list(iter_span_names(tracer))
        assert names.count("igreedy") == result.n_anycast
        for stage in ("coverage", "detection", "sort", "witness", "enumeration", "geolocation", "assembly"):
            assert stage in names
        detection = next(
            span for span in tracer.roots[0].children if span.name == "detection"
        )
        counted = [detection.attrs[k] for k in ("witnessed", "certified", "residue")]
        assert sum(counted) == matrix.n_targets and counted[0] >= result.n_anycast > 0


class TestStudyScale:
    def test_fast_path_equals_reference_on_small_study(self, small_study):
        """The block engine on a whole study's matrix."""
        matrix = small_study.matrix
        ref = oracle_analysis(matrix, small_study.city_db)
        fast = analyze_matrix(matrix, city_db=small_study.city_db)
        assert ref.n_anycast > 50
        assert_equivalent(ref, fast)


class TestEngineLabel:
    def test_resolved_engine_is_the_constant_the_harness_records(self, monkeypatch):
        """One engine, nothing to select: not a field, not an env var."""
        monkeypatch.setenv("REPRO_ANALYSIS_ENGINE", "reference")
        assert IGreedyConfig().resolved_engine() == "fast"
        with pytest.raises(TypeError):
            IGreedyConfig(engine="reference")

"""Tests for probe pacing and the latency model's statistical shape."""

import numpy as np
import pytest

from repro.geo.coords import pairwise_distances_km
from repro.internet.topology import RESP_REPLY
from repro.measurement.lfsr import lfsr_permutation
from repro.measurement.prober import (
    SAFE_RATE_PPS,
    ScanTargets,
    base_rtt_row,
    simulate_vp_scan,
)
from repro.net.latency import DEFAULT_MODEL, LatencyModel


class TestProbePacing:
    @pytest.fixture(scope="class")
    def scan(self, tiny_internet, tiny_platform):
        vp = tiny_platform.vantage_points[0]
        distances = pairwise_distances_km(
            [vp.location.lat], [vp.location.lon], tiny_internet.lats, tiny_internet.lons
        )[0]
        base = base_rtt_row(tiny_internet, vp, distances)
        order = lfsr_permutation(tiny_internet.n_targets, seed=2)
        result = simulate_vp_scan(
            internet=tiny_internet, vp=vp, vp_index=0, census_id=1,
            base_rtts=base[tiny_internet.responsiveness == RESP_REPLY],
            targets=ScanTargets.build(tiny_internet, order),
            rate_pps=SAFE_RATE_PPS,
            rng=np.random.default_rng(0), reply_loss_prob=0.0,
        )
        return result, order, tiny_internet

    def test_send_interval_matches_rate(self, scan):
        result, order, internet = scan
        records = result.records
        timestamps = np.sort(records.timestamp_ms)
        # All send times are multiples of the inter-probe gap (1 ms @ 1kpps).
        gap_ms = 1000.0 / SAFE_RATE_PPS
        remainders = np.mod(timestamps, gap_ms)
        assert np.allclose(np.minimum(remainders, gap_ms - remainders), 0.0, atol=1e-6)

    def test_send_times_span_full_scan(self, scan):
        result, order, internet = scan
        duration_ms = internet.n_targets / SAFE_RATE_PPS * 1000.0
        assert result.records.timestamp_ms.max() < duration_ms
        assert result.records.timestamp_ms.min() >= 0.0

    def test_order_respected(self, scan):
        result, order, internet = scan
        # The k-th probed target has send time k * gap.
        records = result.records
        gap_ms = 1000.0 / SAFE_RATE_PPS
        rank = {int(internet.prefixes[t]): i for i, t in enumerate(order)}
        for i in range(0, len(records), max(len(records) // 50, 1)):
            prefix = int(records.prefix[i])
            expected = rank[prefix] * gap_ms
            assert records.timestamp_ms[i] == pytest.approx(expected)


class TestLatencyDistributions:
    def test_spike_fraction_matches_config(self):
        model = LatencyModel(spike_prob=0.3, spike_ms_scale=50.0, jitter_ms_scale=0.5)
        rng = np.random.default_rng(1)
        base = np.full(50_000, 10.0)
        probes = model.probe_rtt_ms(base, rng)
        # Spiked probes exceed base + ~5x jitter scale with high probability.
        spiked = (probes > 10.0 + 5 * 0.5).mean()
        assert abs(spiked - 0.3) < 0.05

    def test_no_spikes_when_disabled(self):
        model = LatencyModel(spike_prob=0.0)
        rng = np.random.default_rng(1)
        base = np.full(10_000, 10.0)
        probes = model.probe_rtt_ms(base, rng)
        # Pure exponential jitter: tail beyond 10x the scale is negligible.
        assert (probes > 10.0 + 10 * model.jitter_ms_scale).mean() < 0.001

    def test_stretch_within_declared_bounds(self):
        rng = np.random.default_rng(2)
        distances = np.full(20_000, 5000.0)
        base = DEFAULT_MODEL.path_rtt_ms(distances, rng)
        floor = DEFAULT_MODEL.propagation_rtt_ms(distances)
        implied_stretch = (base - 0.0) / floor  # last mile inflates slightly
        assert implied_stretch.min() >= DEFAULT_MODEL.stretch_min - 1e-9
        # Mode near the configured mode: the distribution peaks around 1.3.
        hist, edges = np.histogram(implied_stretch, bins=40, range=(1.0, 2.5))
        mode = edges[np.argmax(hist)]
        assert abs(mode - DEFAULT_MODEL.stretch_mode) < 0.2

    def test_min_of_many_probes_approaches_base(self):
        """The census-combination premise: min RTT over repeats converges
        to the path baseline."""
        rng = np.random.default_rng(3)
        base = np.full(2000, 40.0)
        minimum = np.full(2000, np.inf)
        for _ in range(8):
            minimum = np.minimum(minimum, DEFAULT_MODEL.probe_rtt_ms(base, rng))
        single = DEFAULT_MODEL.probe_rtt_ms(base, np.random.default_rng(4))
        assert minimum.mean() < single.mean()
        assert (minimum - 40.0).mean() < 1.0

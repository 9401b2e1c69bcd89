"""Tests for the fastping-like per-VP scan simulation."""

import numpy as np
import pytest

from repro.geo.coords import pairwise_distances_km
from repro.internet.topology import RESP_REPLY
from repro.measurement.lfsr import lfsr_permutation
from repro.measurement.platform import VantagePoint
from repro.measurement.prober import (
    FULL_RATE_PPS,
    SAFE_RATE_PPS,
    ScanTargets,
    base_rtt_row,
    simulate_vp_scan,
    vp_path_seed,
)
from repro.net.icmp import RateLimitPolicy


def host_distances(internet, vp):
    """Distances from a VP to every target's host location."""
    return pairwise_distances_km(
        [vp.location.lat], [vp.location.lon], internet.lats, internet.lons
    )[0]


def replying(internet):
    """The echo-reply positions, where a scan's base row holds RTTs."""
    return np.flatnonzero(internet.responsiveness == RESP_REPLY)


@pytest.fixture(scope="module")
def scan_setup(tiny_internet, tiny_platform):
    vp = tiny_platform.vantage_points[0]
    at = replying(tiny_internet)
    base = base_rtt_row(tiny_internet, vp, host_distances(tiny_internet, vp)[at], at)
    order = lfsr_permutation(tiny_internet.n_targets, seed=1)
    return vp, base, order


def run_scan(internet, vp, base, order, rate=SAFE_RATE_PPS, seed=0, probe_mask=None,
             reply_loss_prob=0.0, degraded=False):
    return simulate_vp_scan(
        internet=internet,
        vp=vp,
        vp_index=0,
        census_id=1,
        base_rtts=base,
        targets=ScanTargets.build(internet, order, probe_mask),
        rate_pps=rate,
        rng=np.random.default_rng(seed),
        reply_loss_prob=reply_loss_prob,
        degraded=degraded,
    )


class TestBaseRtt:
    def test_deterministic_across_calls(self, tiny_internet, tiny_platform):
        vp = tiny_platform.vantage_points[0]
        distances = host_distances(tiny_internet, vp)
        a = base_rtt_row(tiny_internet, vp, distances)
        b = base_rtt_row(tiny_internet, vp, distances)
        assert np.array_equal(a, b)

    def test_row_at_positions_is_the_whole_row_there(self, tiny_internet, tiny_platform):
        vp = tiny_platform.vantage_points[0]
        distances = host_distances(tiny_internet, vp)
        at = replying(tiny_internet)
        whole = base_rtt_row(tiny_internet, vp, distances)
        assert np.array_equal(base_rtt_row(tiny_internet, vp, distances[at], at), whole[at])

    def test_different_vps_differ(self, tiny_internet, tiny_platform):
        a, b = (
            base_rtt_row(tiny_internet, vp, host_distances(tiny_internet, vp))
            for vp in tiny_platform.vantage_points[:2]
        )
        assert not np.array_equal(a, b)

    def test_path_seed_stable(self):
        assert vp_path_seed(1, "node-a") == vp_path_seed(1, "node-a")
        assert vp_path_seed(1, "node-a") != vp_path_seed(1, "node-b")
        assert vp_path_seed(1, "node-a") != vp_path_seed(2, "node-a")


class TestScan:
    def test_responsive_targets_reply(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        result = run_scan(tiny_internet, vp, base, order)
        replies = result.records.replies()
        responsive = int((tiny_internet.responsiveness == RESP_REPLY).sum())
        # Unlimited VP, safe rate, no loss: every responsive target answers.
        assert len(replies) == responsive

    def test_transient_loss_removes_some_replies(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        result = run_scan(tiny_internet, vp, base, order, reply_loss_prob=0.1)
        replies = result.records.replies()
        responsive = int((tiny_internet.responsiveness == RESP_REPLY).sum())
        assert 0.8 * responsive < len(replies) < responsive
        # Loss is not policing: the drop-rate metric stays clean.
        assert result.drop_rate == 0.0

    def test_degraded_vp_loses_half_and_inflates_rtts(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        healthy = run_scan(tiny_internet, vp, base, order)
        degraded = run_scan(tiny_internet, vp, base, order, degraded=True)
        assert len(degraded.records.replies()) < 0.65 * len(healthy.records.replies())
        assert (
            degraded.records.replies().rtt_ms.mean()
            > healthy.records.replies().rtt_ms.mean() + 20.0
        )

    def test_silent_hosts_produce_no_records(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        result = run_scan(tiny_internet, vp, base, order)
        recorded = set(int(p) for p in result.records.prefix)
        silent = {
            int(tiny_internet.prefixes[i])
            for i in range(tiny_internet.n_targets)
            if tiny_internet.responsiveness[i] == 1  # RESP_SILENT
        }
        assert not recorded & silent

    def test_rtts_respect_baseline(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        result = run_scan(tiny_internet, vp, base, order)
        replies = result.records.replies()
        positions = np.array([tiny_internet.target_index(int(p)) for p in replies.prefix])
        rank = np.searchsorted(replying(tiny_internet), positions)
        assert (replies.rtt_ms >= base[rank].astype(np.float32) - 0.01).all()

    def test_no_drops_at_safe_rate(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        assert run_scan(tiny_internet, vp, base, order, rate=SAFE_RATE_PPS).drop_rate == 0.0

    def test_drops_at_full_rate_when_limited(self, tiny_internet, tiny_platform, scan_setup):
        _, base, order = scan_setup
        limited = VantagePoint(
            name="limited-vp",
            city=tiny_platform.vantage_points[0].city,
            location=tiny_platform.vantage_points[0].location,
            rate_limit=RateLimitPolicy(safe_rate_pps=1500.0, severity=1.0),
        )
        result = run_scan(tiny_internet, limited, base, order, rate=FULL_RATE_PPS)
        assert result.drop_rate > 0.5  # keep ~ 1500/10000

    def test_probe_mask_skips_targets(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        mask = np.ones(tiny_internet.n_targets, dtype=bool)
        skipped_prefix = int(tiny_internet.prefixes[0])
        mask[0] = False
        result = run_scan(tiny_internet, vp, base, order, probe_mask=mask)
        assert skipped_prefix not in set(int(p) for p in result.records.prefix)
        assert result.probes_sent == tiny_internet.n_targets - 1

    def test_duration_scales_with_load_and_rate(self, tiny_internet, tiny_platform, scan_setup):
        _, base, order = scan_setup
        city = tiny_platform.vantage_points[0].city
        fast = VantagePoint("fast", city, city.location, host_load=1.0)
        slow = VantagePoint("slow", city, city.location, host_load=3.0)
        d_fast = run_scan(tiny_internet, fast, base, order).duration_hours
        d_slow = run_scan(tiny_internet, slow, base, order).duration_hours
        assert d_slow == pytest.approx(3.0 * d_fast)
        d_fast_rate = run_scan(tiny_internet, fast, base, order, rate=2 * SAFE_RATE_PPS).duration_hours
        assert d_fast_rate == pytest.approx(d_fast / 2)

    def test_timestamps_follow_order(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        result = run_scan(tiny_internet, vp, base, order)
        # First target in the probing order has the smallest timestamp.
        records = result.records
        first_target_prefix = int(tiny_internet.prefixes[order[0]])
        t = records.timestamp_ms[records.prefix == first_target_prefix]
        if len(t):
            assert t[0] == pytest.approx(0.0)

    def test_invalid_rate_rejected(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        with pytest.raises(ValueError):
            run_scan(tiny_internet, vp, base, order, rate=0.0)

    def test_array_size_checked(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        with pytest.raises(ValueError):
            run_scan(tiny_internet, vp, base[:-1], order)

    def test_fully_masked_scan_yields_empty_records(self, tiny_internet, scan_setup):
        """A probe_mask excluding everything produces a well-typed empty batch."""
        vp, base, order = scan_setup
        mask = np.zeros(tiny_internet.n_targets, dtype=bool)
        result = run_scan(tiny_internet, vp, base, order, probe_mask=mask)
        records = result.records
        assert len(records) == 0
        assert result.probes_sent == 0
        assert result.duration_hours == 0.0
        assert records.census_id == 1
        assert records.vp_index.dtype == np.uint16
        assert records.prefix.dtype == np.uint32
        assert records.timestamp_ms.dtype == np.float64
        assert records.rtt_ms.dtype == np.float32
        assert records.flag.dtype == np.int8
        # The empty batch behaves like any other: selectable, hashable,
        # serializable.
        assert len(records.replies()) == 0
        assert len(records.greylistable()) == 0
        assert records.checksum() == records.replies().checksum()

    def test_greylist_errors_recorded(self, tiny_internet, scan_setup):
        vp, base, order = scan_setup
        result = run_scan(tiny_internet, vp, base, order)
        grey = result.records.greylistable()
        # The tiny internet has error hosts; most emit their error.
        assert len(grey) > 0
        assert set(np.unique(grey.flag)) <= {-13, -10, -9}

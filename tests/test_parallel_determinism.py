"""The scan driver's hard invariant: bytes never depend on workers.

Property-style coverage of the determinism contract: a census scanned on
threads — any worker count, VP-level faults active, interrupted and
re-run at another worker count — produces output byte-identical to the
serial census (``workers=0``, the driver's inline path).
"""

import io
import time

import numpy as np
import pytest

from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign, CensusInterrupted
from repro.measurement.faults import FaultPlan, RetryPolicy
from repro.measurement.platform import planetlab_platform


@pytest.fixture(scope="module")
def internet():
    return SyntheticInternet(
        InternetConfig(seed=7, n_unicast_slash24=300, tail_deployments=10)
    )


@pytest.fixture(scope="module")
def platform():
    return planetlab_platform(count=14, seed=11)


def fresh_campaign(
    internet,
    platform,
    workers=0,
    fault_plan=None,
    retry=None,
    scan_timeout_hours=None,
):
    campaign = CensusCampaign(
        internet,
        platform,
        seed=99,
        fault_plan=fault_plan,
        retry=retry,
        scan_timeout_hours=scan_timeout_hours,
        workers=workers,
    )
    campaign.run_precensus()
    return campaign


def census_bytes(census):
    sink = io.BytesIO()
    census.records.write_binary(sink)
    return sink.getvalue()


def assert_same_census(a, b):
    assert census_bytes(a) == census_bytes(b)
    assert a.records.checksum() == b.records.checksum()
    assert np.array_equal(a.vp_duration_hours, b.vp_duration_hours, equal_nan=True)
    assert np.array_equal(a.vp_drop_rate, b.vp_drop_rate, equal_nan=True)
    assert sorted(a.greylist.prefixes) == sorted(b.greylist.prefixes)
    assert a.health.n_vps_ok == b.health.n_vps_ok
    assert a.health.failed_vps == b.health.failed_vps
    assert a.health.faults_seen == b.health.faults_seen


@pytest.fixture(scope="module")
def serial_census(internet, platform):
    census = fresh_campaign(internet, platform).run_census(availability=0.85)
    assert census.health.execution["workers"] == 0
    return census


class TestPoolMatchesSerial:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_any_worker_count_is_byte_identical(
        self, internet, platform, serial_census, workers
    ):
        census = fresh_campaign(internet, platform, workers=workers).run_census(
            availability=0.85
        )
        assert_same_census(census, serial_census)
        assert census.health.execution["workers"] == workers

    def test_shuffled_orders_agree_with_each_other(
        self, internet, platform, serial_census, monkeypatch
    ):
        """Scans that finish out of census order (each delayed by a seeded
        random nap, a different schedule per run) still give the serial
        bytes: results are taken in census order, not completion order."""
        for seed in (5, 77, 1000):
            campaign = fresh_campaign(internet, platform, workers=3)
            naps = np.random.default_rng(seed).uniform(0.0, 0.02, size=len(platform))
            scan_vp = campaign.scan_vp

            def napping_scan(platform_index, *args, **kwargs):
                time.sleep(naps[platform_index])
                return scan_vp(platform_index, *args, **kwargs)

            monkeypatch.setattr(campaign, "scan_vp", napping_scan)
            assert_same_census(campaign.run_census(availability=0.85), serial_census)

    @pytest.mark.parametrize("noise", ["stream", "keyed"])
    def test_threads_sharing_the_campaign_under_fast_switching(
        self, internet, platform, noise
    ):
        """Scan threads share one campaign (its base-row cache, its
        prepared keyed outcomes, the census's scan plan).  More threads
        than cores, switching every few microseconds, must still give the
        serial bytes."""
        import sys

        def census(workers):
            campaign = CensusCampaign(
                internet, platform, seed=99, noise=noise, workers=workers
            )
            campaign.run_precensus()
            return campaign.run_census(availability=0.85)

        serial = census(0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            started = time.monotonic()
            threaded = census(8)
            assert time.monotonic() - started < 60.0
        finally:
            sys.setswitchinterval(interval)
        assert_same_census(threaded, serial)


class TestPoolMatchesSerialUnderVpFaults:
    """The VP-level fault policy (retry, salvage, flap) must not notice
    which engine ran the scans underneath it."""

    FAULTS = FaultPlan.uniform(0.25, seed=17, flap_prob=0.15)

    def test_fault_supervision_is_engine_invariant(self, internet, platform):
        retry = RetryPolicy(jitter=0.5)
        serial = fresh_campaign(
            internet, platform, fault_plan=self.FAULTS, retry=retry,
            scan_timeout_hours=48.0,
        ).run_census(availability=0.85)
        assert serial.health.n_faults > 0, "fault plan injected nothing"
        pooled = fresh_campaign(
            internet,
            platform,
            fault_plan=self.FAULTS,
            retry=retry,
            scan_timeout_hours=48.0,
            workers=3,
        ).run_census(availability=0.85)
        assert_same_census(pooled, serial)
        assert pooled.health.retries == serial.health.retries
        assert pooled.health.backoff_hours == pytest.approx(
            serial.health.backoff_hours
        )


class TestInterruptUnderPool:
    @pytest.mark.parametrize("interrupted, rerun", [(2, 2), (2, 0), (0, 2)])
    def test_interrupt_and_rerun_is_bit_for_bit(
        self, internet, platform, serial_census, interrupted, rerun
    ):
        """A census interrupted under any worker count and re-run from
        its start under any other produces the serial bytes."""
        with pytest.raises(CensusInterrupted) as exc:
            fresh_campaign(internet, platform, workers=interrupted).run_census(
                availability=0.85, abort_after_vps=3
            )
        assert exc.value.completed_vps == 3
        rerunner = fresh_campaign(internet, platform, workers=rerun)
        assert_same_census(rerunner.run_census(availability=0.85), serial_census)


class TestSerialDrain:
    """SIGINT during the serial census drains cleanly — the census
    raises, and a fresh campaign's re-run reproduces the serial bytes.
    The flag is driven synthetically (a countdown) so the test is
    deterministic; real signal wiring is covered in tests/exec."""

    class CountdownFlag:
        def __init__(self, polls):
            self.polls = polls
            self.signum = 2

        def __bool__(self):
            self.polls -= 1
            return self.polls < 0

    def test_drain_raises_and_rerun_equals_serial(
        self, internet, platform, serial_census, monkeypatch
    ):
        import contextlib

        import repro.exec.signals as signals

        # The countdown fires only for the first census; the re-run
        # (still under the monkeypatch) gets an inert flag.
        flags = [self.CountdownFlag(polls=4)]

        @contextlib.contextmanager
        def fake_shutdown(*args, **kwargs):
            yield flags.pop(0) if flags else signals.ShutdownFlag()

        monkeypatch.setattr(signals, "graceful_shutdown", fake_shutdown)
        campaign = fresh_campaign(internet, platform)
        with pytest.raises(CensusInterrupted) as exc:
            campaign.run_census(availability=0.85)
        assert exc.value.completed_vps == 4

        rerun = fresh_campaign(internet, platform).run_census(availability=0.85)
        assert_same_census(rerun, serial_census)


class TestBackoffJitter:
    """Satellite: deterministic keyed backoff jitter."""

    def test_default_jitter_matches_classic_schedule(self):
        plain = RetryPolicy()
        assert plain.backoff(2) == plain.backoff(2, u=0.9)

    def test_jitter_scales_bounded(self):
        policy = RetryPolicy(jitter=0.5)
        base = policy.backoff(3, u=0.0)
        top = policy.backoff(3, u=1.0)
        assert top == pytest.approx(base * 1.5)

    def test_jittered_campaign_is_reproducible(self, internet, platform):
        faults = FaultPlan.uniform(0.3, seed=5)
        retry = RetryPolicy(jitter=0.4)
        runs = [
            fresh_campaign(
                internet, platform, fault_plan=faults, retry=retry,
                scan_timeout_hours=48.0,
            ).run_census(availability=0.85)
            for _ in range(2)
        ]
        assert runs[0].health.backoff_hours == runs[1].health.backoff_hours
        assert census_bytes(runs[0]) == census_bytes(runs[1])

    def test_jitter_changes_backoff_but_not_bytes(self, internet, platform):
        faults = FaultPlan.uniform(0.3, seed=5)
        plain = fresh_campaign(
            internet, platform, fault_plan=faults,
            scan_timeout_hours=48.0,
        ).run_census(availability=0.85)
        jittered = fresh_campaign(
            internet, platform, fault_plan=faults,
            retry=RetryPolicy(jitter=0.4), scan_timeout_hours=48.0,
        ).run_census(availability=0.85)
        assert census_bytes(jittered) == census_bytes(plain)
        if plain.health.retries:
            assert jittered.health.backoff_hours > plain.health.backoff_hours

"""The parallel engine's hard invariant: bytes never depend on workers.

Property-style coverage of the determinism contract: a census executed
on the supervised pool — any worker count, shuffled dispatch order,
VP-level faults active, workers killed or wedged mid-scan — produces
output byte-identical to the serial census (``workers=0``, the engine's
in-process driver).
"""

import io

import numpy as np
import pytest

from repro.exec import ExecutionPolicy
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign, CensusInterrupted
from repro.measurement.faults import (
    FaultPlan,
    RetryPolicy,
    WorkerFaultInjector,
    WorkerFaultKind,
    WorkerFaultPlan,
)
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
    executor=ExecutionPolicy(workers=0),
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
        executor=executor,
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
    assert census.health.execution["in_process"]
    return census


class TestPoolMatchesSerial:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_any_worker_count_is_byte_identical(
        self, internet, platform, serial_census, workers
    ):
        # submit_seed shuffles dispatch order: determinism must not lean
        # on the canonical submission sequence.
        policy = ExecutionPolicy(workers=workers, submit_seed=1000 + workers)
        census = fresh_campaign(internet, platform, executor=policy).run_census(
            availability=0.85
        )
        assert_same_census(census, serial_census)
        assert census.health.execution["workers"] == workers

    def test_shuffled_orders_agree_with_each_other(self, internet, platform):
        seen = set()
        for submit_seed in (None, 5, 77):
            policy = ExecutionPolicy(workers=3, submit_seed=submit_seed)
            census = fresh_campaign(internet, platform, executor=policy).run_census(
                availability=0.85
            )
            seen.add(census.records.checksum())
        assert len(seen) == 1


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
            executor=ExecutionPolicy(workers=3, submit_seed=9),
        ).run_census(availability=0.85)
        assert_same_census(pooled, serial)
        assert pooled.health.retries == serial.health.retries
        assert pooled.health.backoff_hours == pytest.approx(
            serial.health.backoff_hours
        )


class TestFaultyWorkersKeepBytesIdentical:
    def test_killed_worker_mid_census(self, internet, platform, serial_census):
        policy = ExecutionPolicy(
            workers=2,
            worker_faults=WorkerFaultPlan(dead_worker_ids=(0,)),
            liveness_timeout_s=2.0,
            poll_interval_s=0.02,
        )
        census = fresh_campaign(internet, platform, executor=policy).run_census(
            availability=0.85
        )
        assert census.health.execution["workers_lost"] == 1
        assert census.health.execution["reassignments"] >= 1
        assert_same_census(census, serial_census)

    def test_wedged_worker_mid_census(self, internet, platform, serial_census):
        policy = ExecutionPolicy(
            workers=2,
            worker_faults=WorkerFaultPlan(wedged_worker_ids=(0,), wedge_seconds=30.0),
            liveness_timeout_s=0.3,
            poll_interval_s=0.02,
        )
        census = fresh_campaign(internet, platform, executor=policy).run_census(
            availability=0.85
        )
        assert census.health.execution["workers_wedged"] == 1
        assert_same_census(census, serial_census)

    def test_probabilistic_worker_chaos(self, internet, platform, serial_census):
        """One fixed scenario: a unit's fate on its n-th dispatch is keyed
        on (seed, unit, attempt), and with one unit in flight per worker a
        worker dies only in the unit it runs, so the losses and
        reassignments are exactly the injector's leading fatal draws."""
        plan = WorkerFaultPlan(dead_prob=0.15, slow_prob=0.1, seed=3, slow_seconds=0.05)
        policy = ExecutionPolicy(
            workers=3,
            worker_faults=plan,
            liveness_timeout_s=2.0,
            poll_interval_s=0.02,
            prefetch=1,
        )
        census = fresh_campaign(internet, platform, executor=policy).run_census(
            availability=0.85
        )
        assert_same_census(census, serial_census)

        injector = WorkerFaultInjector(plan)

        def deaths(unit_id):
            attempt = 0
            while injector.fault_for(-1, 0, unit_id, attempt) is WorkerFaultKind.DEAD_WORKER:
                attempt += 1
            return attempt

        execution = census.health.execution
        lost = sum(deaths(u) for u in range(execution["n_units"]))
        assert lost > 0
        assert execution["workers_lost"] == lost
        assert execution["reassignments"] == lost
        assert execution["workers_wedged"] == 0


class TestCheckpointResumeUnderPool:
    def test_interrupt_and_resume_is_bit_for_bit(
        self, internet, platform, serial_census, tmp_path
    ):
        journal_path = str(tmp_path / "census-001.journal")
        policy = ExecutionPolicy(workers=2, poll_interval_s=0.02)
        interrupted = fresh_campaign(internet, platform, executor=policy)
        with pytest.raises(CensusInterrupted) as exc:
            interrupted.run_census(
                availability=0.85, checkpoint=journal_path, abort_after_vps=3
            )
        assert exc.value.completed_vps == 3

        resumer = fresh_campaign(internet, platform, executor=policy)
        resumed = resumer.run_census(availability=0.85, checkpoint=journal_path)
        assert resumed.health.n_vps_resumed == 3
        assert_same_census(resumed, serial_census)

    @pytest.mark.parametrize("writer, resumer", [(2, 0), (0, 2)])
    def test_pool_journal_resumable_by_serial_loop(
        self, internet, platform, serial_census, tmp_path, writer, resumer
    ):
        """A checkpoint is a plain census journal: one written under any
        worker count resumes under any other and produces the same bytes."""
        journal_path = str(tmp_path / "census-001.journal")
        with pytest.raises(CensusInterrupted):
            fresh_campaign(
                internet,
                platform,
                executor=ExecutionPolicy(workers=writer, poll_interval_s=0.02),
            ).run_census(
                availability=0.85, checkpoint=journal_path, abort_after_vps=2
            )
        resumed = fresh_campaign(
            internet,
            platform,
            executor=ExecutionPolicy(workers=resumer, poll_interval_s=0.02),
        ).run_census(availability=0.85, checkpoint=journal_path)
        assert resumed.health.n_vps_resumed == 2
        assert_same_census(resumed, serial_census)


class TestSerialDrain:
    """Satellite: SIGINT during the serial census drains cleanly —
    journal stays valid and resume reproduces the uninterrupted bytes.
    The flag is driven synthetically (a countdown) so the test is
    deterministic; real signal wiring is covered in tests/exec."""

    class CountdownFlag:
        def __init__(self, polls):
            self.polls = polls
            self.signum = 2

        def __bool__(self):
            self.polls -= 1
            return self.polls < 0

    def test_drain_leaves_resumable_checkpoint(
        self, internet, platform, serial_census, tmp_path, monkeypatch
    ):
        import contextlib

        import repro.exec.signals as signals

        # The countdown fires only for the first census; the resume run
        # (still under the monkeypatch) gets an inert flag.
        flags = [self.CountdownFlag(polls=4)]

        @contextlib.contextmanager
        def fake_shutdown(*args, **kwargs):
            yield flags.pop(0) if flags else signals.ShutdownFlag()

        monkeypatch.setattr(signals, "graceful_shutdown", fake_shutdown)
        journal_path = str(tmp_path / "census-001.journal")
        campaign = fresh_campaign(internet, platform)
        with pytest.raises(CensusInterrupted) as exc:
            campaign.run_census(availability=0.85, checkpoint=journal_path)
        assert exc.value.completed_vps == 4

        resumed = fresh_campaign(internet, platform).run_census(
            availability=0.85, checkpoint=journal_path
        )
        assert resumed.health.n_vps_resumed == 4
        assert_same_census(resumed, serial_census)


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

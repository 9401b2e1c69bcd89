"""Tests for the fault-injection and resilience layer."""

import io

import numpy as np
import pytest

from repro.measurement.campaign import (
    CensusAborted,
    CensusCampaign,
    CensusInterrupted,
)
from repro.measurement.faults import (
    DistortionKind,
    FaultKind,
    FaultPlan,
    RetryPolicy,
    VpDistortionPlan,
    StrikeCounter,
)
from repro.measurement.recordio import CensusJournal


def records_bytes(census):
    sink = io.BytesIO()
    census.records.write_binary(sink)
    return sink.getvalue()


def assert_same_census(a, b):
    """Bit-for-bit equality of everything analysis consumes."""
    assert records_bytes(a) == records_bytes(b)
    assert np.array_equal(a.records.timestamp_ms, b.records.timestamp_ms)
    assert np.array_equal(a.records.rtt_ms, b.records.rtt_ms, equal_nan=True)
    assert np.array_equal(a.vp_duration_hours, b.vp_duration_hours, equal_nan=True)
    assert np.array_equal(a.vp_drop_rate, b.vp_drop_rate, equal_nan=True)
    assert sorted(a.greylist.prefixes) == sorted(b.greylist.prefixes)
    assert [vp.name for vp in a.platform.vantage_points] == [
        vp.name for vp in b.platform.vantage_points
    ]


@pytest.fixture()
def faulted_plan():
    return FaultPlan.uniform(0.2, seed=5, flap_prob=0.05)


@pytest.fixture()
def supervision(tiny_internet):
    """Campaign kwargs: 3 attempts, a deadline of 20 nominal scans."""
    nominal = tiny_internet.n_targets / 1000.0 / 3600.0
    return dict(retry=RetryPolicy(max_attempts=3), scan_timeout_hours=nominal * 20.0)


def make_campaign(internet, platform, seed=99, **kwargs):
    campaign = CensusCampaign(internet, platform, seed=seed, **kwargs)
    campaign.run_precensus()
    return campaign


class TestFaultPlan:
    def test_default_plan_disabled(self):
        assert not FaultPlan().enabled

    def test_uniform_splits_rate(self):
        plan = FaultPlan.uniform(0.3, seed=1)
        assert plan.crash_prob == pytest.approx(0.1)
        assert plan.hang_prob == pytest.approx(0.1)
        assert plan.corrupt_prob == pytest.approx(0.1)
        assert plan.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_prob": -0.1},
            {"hang_prob": 1.5},
            {"crash_prob": 0.5, "hang_prob": 0.4, "corrupt_prob": 0.2},
            {"seed": -1},
            {"hang_factor": 0.5},
            {"corrupt_fraction": 0.0},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)


class TestFaultDraws:
    def test_draws_are_keyed_not_streamed(self):
        a = FaultPlan.uniform(0.5, seed=3)
        b = FaultPlan.uniform(0.5, seed=3)
        # Evaluate in different orders: answers must agree pointwise.
        keys = [(c, v, t) for c in (1, 2) for v in range(10) for t in range(3)]
        forward = {k: a.fault_for(*k) for k in keys}
        backward = {k: b.fault_for(*k) for k in reversed(keys)}
        assert forward == backward

    def test_seed_changes_draws(self):
        a = FaultPlan.uniform(0.5, seed=3)
        b = FaultPlan.uniform(0.5, seed=4)
        keys = [(1, v, 0) for v in range(200)]
        assert [a.fault_for(*k) for k in keys] != [b.fault_for(*k) for k in keys]

    def test_flap_rate_roughly_matches(self):
        plan = FaultPlan(flap_prob=0.25, seed=9)
        flapped = sum(plan.flaps(1, i) for i in range(1000))
        assert 180 < flapped < 320

    def test_corrupt_changes_checksum(self, tiny_census):
        plan = FaultPlan(corrupt_prob=1.0, seed=2)
        batch = tiny_census.records.select(tiny_census.records.vp_index == 0)
        assert len(batch) > 0
        corrupted = plan.corrupt(batch, 1, 0, 0)
        assert corrupted.checksum() != batch.checksum()
        assert len(corrupted) == len(batch)
        # The original batch is untouched (corruption works on a copy).
        assert batch.checksum() == tiny_census.records.select(
            tiny_census.records.vp_index == 0
        ).checksum()

    def test_corrupt_empty_batch_is_noop(self):
        from repro.measurement.recordio import CensusRecords

        plan = FaultPlan(corrupt_prob=1.0, seed=2)
        empty = CensusRecords.empty(1)
        assert plan.corrupt(empty, 1, 0, 0).checksum() == empty.checksum()


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.5)
        assert policy.backoff(2) == pytest.approx(1.0)
        assert policy.backoff(3) == pytest.approx(2.0)

    def test_no_timeout_never_times_out(self, tiny_internet, tiny_platform):
        """The deadline belongs to the campaign; ``None`` waits hangs out."""
        campaign = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=FaultPlan(hang_prob=1.0, seed=3, hang_factor=1e6),
            retry=RetryPolicy(max_attempts=1),
        )
        assert campaign.scan_timeout_hours is None
        report = campaign.run_census(availability=1.0).health
        assert report.n_vps_ok == report.n_vps_planned

    def test_timeout(self, tiny_internet, tiny_platform):
        with pytest.raises(ValueError):
            CensusCampaign(tiny_internet, tiny_platform, scan_timeout_hours=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_attempts": 0}, {"backoff_base": -1.0}, {"backoff_factor": 0.5}],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestVpHealthTracker:
    """The campaign's VP health is a :class:`StrikeCounter` of failed
    censuses; a tripped VP is quarantined."""

    def test_quarantine_after_consecutive_failures(self):
        strikes = StrikeCounter(2)
        assert not strikes.record("vp-a", ok=False)
        assert strikes.tripped == []
        assert strikes.record("vp-a", ok=False)
        assert strikes.tripped == ["vp-a"]
        assert strikes.count("vp-a") == 2

    def test_success_resets_streak(self):
        strikes = StrikeCounter(2)
        strikes.record("vp-a", ok=False)
        strikes.record("vp-a", ok=True)
        assert strikes.count("vp-a") == 0
        assert not strikes.record("vp-a", ok=False)
        assert strikes.tripped == []
        with pytest.raises(ValueError):
            StrikeCounter(0)


class TestFaultFreeEquivalence:
    def test_disabled_plan_output_identical(self, tiny_internet, tiny_platform):
        """A default FaultPlan must not perturb campaign output at all."""
        plain = make_campaign(tiny_internet, tiny_platform)
        supervised = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=FaultPlan(),
            retry=RetryPolicy(max_attempts=5),
            scan_timeout_hours=100.0,
            min_vp_quorum=1,
        )
        assert_same_census(
            plain.run_census(availability=0.85),
            supervised.run_census(availability=0.85),
        )

    def test_clean_health_report(self, tiny_census):
        report = tiny_census.health
        assert report is not None
        assert not report.degraded
        assert report.n_vps_ok == report.n_vps_planned
        assert report.faults_seen == {}
        assert report.retries == 0


class TestFaultedCensus:
    def test_degraded_census_completes_with_report(
        self, tiny_internet, tiny_platform, faulted_plan, supervision
    ):
        """Acceptance: 20% crash+hang+corrupt still yields a census."""
        campaign = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=faulted_plan,
            min_vp_quorum=5,
            **supervision,
        )
        censuses = [campaign.run_census(availability=0.85) for _ in range(3)]
        reports = [c.health for c in censuses]
        assert sum(r.n_faults for r in reports) > 0
        assert any(r.degraded for r in reports)
        # Data still flows: every census kept a quorum of usable VPs.
        for census, report in zip(censuses, reports):
            assert len(census.records) > 0
            assert report.n_vps_ok + report.n_vps_salvaged >= 5

    def test_salvaged_records_are_prefix_of_scan(self, tiny_internet, tiny_platform):
        """A crashed scan salvages exactly the probes sent before the crash."""
        crashing = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=FaultPlan(crash_prob=1.0, seed=3),
            retry=RetryPolicy(max_attempts=2),
            min_vp_quorum=1,
        )
        clean = make_campaign(tiny_internet, tiny_platform)
        crashed_census = crashing.run_census(availability=1.0)
        clean_census = clean.run_census(availability=1.0)
        report = crashed_census.health
        assert report.n_vps_salvaged == report.n_vps_planned
        assert 0 < report.records_salvaged < len(clean_census.records)
        assert len(crashed_census.records) == report.records_salvaged
        # Salvaged records are a subset of the clean census's records.
        crashed_keys = set(
            zip(
                crashed_census.records.vp_index.tolist(),
                crashed_census.records.prefix.tolist(),
                crashed_census.records.timestamp_ms.tolist(),
            )
        )
        clean_keys = set(
            zip(
                clean_census.records.vp_index.tolist(),
                clean_census.records.prefix.tolist(),
                clean_census.records.timestamp_ms.tolist(),
            )
        )
        assert crashed_keys <= clean_keys

    def test_corrupt_batches_dropped_and_accounted(self, tiny_internet, tiny_platform):
        campaign = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=FaultPlan(corrupt_prob=1.0, seed=3),
            retry=RetryPolicy(max_attempts=1),
            min_vp_quorum=1,
        )
        with pytest.raises(CensusAborted) as exc:
            campaign.run_census(availability=1.0)
        report = exc.value.report
        assert report.batches_dropped_corrupt == report.n_vps_planned
        assert report.records_dropped_corrupt > 0
        assert report.n_vps_failed == report.n_vps_planned

    def test_hang_without_timeout_is_a_straggler(self, tiny_internet, tiny_platform):
        hang_plan = FaultPlan(hang_prob=1.0, seed=3, hang_factor=50.0)
        hanging = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=hang_plan,
            retry=RetryPolicy(max_attempts=1),
        )
        clean = make_campaign(tiny_internet, tiny_platform)
        hung = hanging.run_census(availability=1.0)
        reference = clean.run_census(availability=1.0)
        # Same records, wildly inflated durations: Fig. 8's far tail.
        assert records_bytes(hung) == records_bytes(reference)
        assert np.all(hung.vp_duration_hours >= 50.0 * reference.vp_duration_hours * 0.999)

    def test_hang_with_timeout_fails_the_attempt(self, tiny_internet, tiny_platform):
        nominal = tiny_internet.n_targets / 1000.0 / 3600.0
        campaign = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=FaultPlan(hang_prob=1.0, seed=3),
            retry=RetryPolicy(max_attempts=1),
            scan_timeout_hours=nominal * 20.0,
            min_vp_quorum=1,
        )
        with pytest.raises(CensusAborted) as exc:
            campaign.run_census(availability=1.0)
        assert exc.value.report.faults_seen[FaultKind.HANG.value] > 0

    def test_retry_recovers_from_transient_faults(self, tiny_internet, tiny_platform):
        """With enough attempts, a 50% fault rate still yields clean scans."""
        nominal = tiny_internet.n_targets / 1000.0 / 3600.0
        campaign = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=FaultPlan.uniform(0.5, seed=11),
            retry=RetryPolicy(max_attempts=6),
            scan_timeout_hours=nominal * 20.0,
            min_vp_quorum=1,
        )
        census = campaign.run_census(availability=1.0)
        report = census.health
        assert report.retries > 0
        assert report.backoff_hours > 0.0
        assert report.n_vps_ok > report.n_vps_planned * 0.8


class TestQuorumAndQuarantine:
    def test_quorum_abort_is_typed(self, tiny_internet, tiny_platform):
        campaign = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=FaultPlan(flap_prob=1.0, seed=1),
            min_vp_quorum=5,
        )
        with pytest.raises(CensusAborted) as exc:
            campaign.run_census(availability=0.85)
        assert exc.value.usable_vps == 0
        assert exc.value.quorum == 5
        assert exc.value.report.n_vps_failed == exc.value.report.n_vps_planned

    @pytest.mark.parametrize("workers", [0, 2])
    def test_abort_names_the_scan_exception(
        self, tiny_internet, tiny_platform, monkeypatch, workers
    ):
        """A bug in the scan kernel fails every VP; the abort must
        say what was raised, not only that the census came out thin."""
        from repro.exec import SCAN_RAISED_FAULT

        campaign = make_campaign(tiny_internet, tiny_platform, workers=workers)

        def broken_scan(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(campaign, "scan_vp", broken_scan)
        with pytest.raises(CensusAborted) as exc:
            campaign.run_census(availability=0.85)
        assert "ValueError: boom" in str(exc.value.__cause__)
        report = exc.value.report
        assert report.faults_seen == {SCAN_RAISED_FAULT: report.n_vps_planned}
        assert set(report.vp_reasons) == set(report.failed_vps)
        assert all(
            reasons == ["scan raised ValueError: boom"]
            for reasons in report.vp_reasons.values()
        )
        assert set(report.execution["scan_errors"].values()) == {"ValueError: boom"}

    def test_quorum_validation(self, tiny_internet, tiny_platform):
        with pytest.raises(ValueError):
            CensusCampaign(tiny_internet, tiny_platform, min_vp_quorum=0)

    def test_repeated_failures_quarantine_vps(self, tiny_internet, tiny_platform):
        campaign = make_campaign(
            tiny_internet,
            tiny_platform,
            fault_plan=FaultPlan(flap_prob=0.5, seed=21),
            min_vp_quorum=1,
            quarantine_threshold=1,
        )
        first = campaign.run_census(availability=1.0)
        assert first.health.n_vps_failed > 0
        assert campaign.health.tripped == sorted(first.health.failed_vps)
        second = campaign.run_census(availability=1.0)
        assert second.health.quarantined_vps  # some VPs sat this one out
        planned_names = {vp.name for vp in second.platform.vantage_points}
        assert not planned_names & set(second.health.quarantined_vps)


class TestCheckpointResume:
    def test_interrupt_requires_nonnegative(self, tiny_internet, tiny_platform):
        campaign = make_campaign(tiny_internet, tiny_platform)
        with pytest.raises(ValueError):
            campaign.run_census(abort_after_vps=-1)

    def test_resume_is_bit_for_bit(
        self, tiny_internet, tiny_platform, faulted_plan, supervision, tmp_path
    ):
        """Kill after k VPs, resume in a fresh campaign, get identical data."""
        journal_path = tmp_path / "census-001.journal"
        kwargs = dict(fault_plan=faulted_plan, min_vp_quorum=1, **supervision)

        reference = make_campaign(tiny_internet, tiny_platform, seed=321, **kwargs)
        uninterrupted = reference.run_census(availability=0.85)

        interrupted = make_campaign(tiny_internet, tiny_platform, seed=321, **kwargs)
        with pytest.raises(CensusInterrupted) as exc:
            interrupted.run_census(
                availability=0.85, checkpoint=str(journal_path), abort_after_vps=7
            )
        assert exc.value.completed_vps == 7

        # "New process": a fresh campaign object under the same seed.
        resumer = make_campaign(tiny_internet, tiny_platform, seed=321, **kwargs)
        resumed = resumer.run_census(availability=0.85, checkpoint=str(journal_path))
        assert resumed.health.n_vps_resumed == 7
        assert_same_census(uninterrupted, resumed)

    def test_completed_journal_replays_without_scanning(
        self, tiny_internet, tiny_platform, tmp_path
    ):
        journal_path = tmp_path / "census-001.journal"
        first = make_campaign(tiny_internet, tiny_platform, seed=11)
        completed = first.run_census(availability=0.85, checkpoint=str(journal_path))

        replayer = make_campaign(tiny_internet, tiny_platform, seed=11)
        # Replaying may not scan at all: interrupt before the first fresh scan.
        replayed = replayer.run_census(
            availability=0.85, checkpoint=str(journal_path), abort_after_vps=0
        )
        assert replayed.health.n_vps_resumed == replayed.health.n_vps_planned
        assert_same_census(completed, replayed)

    def test_mismatched_journal_rejected(self, tiny_internet, tiny_platform, tmp_path):
        journal_path = tmp_path / "census.journal"
        first = make_campaign(tiny_internet, tiny_platform, seed=11)
        first.run_census(availability=0.85, checkpoint=str(journal_path))

        other_seed = make_campaign(tiny_internet, tiny_platform, seed=12)
        with pytest.raises(ValueError, match="does not match"):
            other_seed.run_census(availability=0.85, checkpoint=str(journal_path))

    def test_torn_journal_tail_recovers_prefix(
        self, tiny_internet, tiny_platform, tmp_path
    ):
        journal_path = tmp_path / "census.journal"
        campaign = make_campaign(tiny_internet, tiny_platform, seed=11)
        with pytest.raises(CensusInterrupted):
            campaign.run_census(
                availability=0.85, checkpoint=str(journal_path), abort_after_vps=5
            )
        intact = CensusJournal(journal_path)
        assert len(intact) == 5

        # Chop a few bytes off the end: the torn entry is discarded, the
        # rest of the journal (and the meta entry) survive.
        data = journal_path.read_bytes()
        journal_path.write_bytes(data[:-3])
        torn = CensusJournal(journal_path)
        assert torn.meta is not None
        assert len(torn) == 4

    def test_run_with_checkpoint_dir(self, tiny_internet, tiny_platform, tmp_path):
        campaign = CensusCampaign(tiny_internet, tiny_platform, seed=13)
        censuses = campaign.run(
            n_censuses=2, availability=0.85, checkpoint_dir=str(tmp_path)
        )
        assert len(censuses) == 2
        journals = sorted(p.name for p in tmp_path.glob("*.journal"))
        assert journals == ["census-001.journal", "census-002.journal"]

        # A second identical campaign replays both censuses from journals.
        replay = CensusCampaign(tiny_internet, tiny_platform, seed=13)
        replayed = replay.run(
            n_censuses=2, availability=0.85, checkpoint_dir=str(tmp_path)
        )
        for original, again in zip(censuses, replayed):
            assert again.health.n_vps_resumed == again.health.n_vps_planned
            assert_same_census(original, again)


class TestVpDistortion:
    """The keyed VP-distortion model: validation, determinism, effects."""

    def test_default_plan_disabled(self):
        plan = VpDistortionPlan()
        assert not plan.enabled
        assert plan.distorted_names(["vp-a", "vp-b"]) == {}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fraction": -0.1},
            {"fraction": 1.5},
            {"seed": -1},
            {"kinds": ()},
            {"skew_ms": (500.0, 200.0)},
            {"skew_ms": (0.0, 200.0)},
            {"geo_error_km": (-1.0, 100.0)},
            {"stuck_ms": (40.0, 3.0)},
            {"bufferbloat_ms": 0.0},
        ],
    )
    def test_plan_validation(self, kwargs):
        with pytest.raises(ValueError):
            VpDistortionPlan(**kwargs)

    def test_string_kinds_normalize_to_enum(self):
        plan = VpDistortionPlan(fraction=0.1, kinds=("geo_error",))
        assert plan.kinds == (DistortionKind.GEO_ERROR,)
        with pytest.raises(ValueError):
            VpDistortionPlan(fraction=0.1, kinds=("not_a_kind",))

    def test_single_constructor(self):
        plan = VpDistortionPlan.single("stuck_rtt", fraction=0.2, seed=7)
        assert plan.kinds == (DistortionKind.STUCK_RTT,)
        assert plan.fraction == 0.2
        assert plan.seed == 7
        assert plan.enabled

    def test_assignment_is_keyed_on_name_not_order(self):
        """A VP's affliction is a pure function of (seed, name): the
        same names give the same verdicts whatever the roster order or
        composition."""
        plan = VpDistortionPlan(fraction=0.4, seed=5)
        names = [f"vp-{i:02d}" for i in range(40)]
        forward = plan.distorted_names(names)
        assert forward  # 40 draws at 40%: somebody is hit
        assert plan.distorted_names(list(reversed(names))) == forward
        subset = names[::3]
        expected = {n: k for n, k in forward.items() if n in subset}
        assert plan.distorted_names(subset) == expected

    def test_different_seed_different_set(self):
        names = [f"vp-{i:02d}" for i in range(40)]
        a = VpDistortionPlan(fraction=0.4, seed=5).distorted_names(names)
        b = VpDistortionPlan(fraction=0.4, seed=6).distorted_names(names)
        assert a != b

    def test_disabled_plan_is_byte_neutral(self, tiny_internet, tiny_platform):
        """distortion=VpDistortionPlan() (fraction 0) must leave the
        campaign bit-for-bit identical to one without the layer."""
        bare = make_campaign(tiny_internet, tiny_platform).run_census()
        gated = make_campaign(
            tiny_internet, tiny_platform, distortion=VpDistortionPlan()
        ).run_census()
        assert_same_census(bare, gated)
        assert gated.health.distorted_vps == {}

    def test_distorted_census_reports_afflicted_vps(
        self, tiny_internet, tiny_platform
    ):
        plan = VpDistortionPlan(fraction=0.2, seed=99)
        census = make_campaign(
            tiny_internet, tiny_platform, distortion=plan
        ).run_census(availability=1.0)
        expected = plan.distorted_names(
            [vp.name for vp in tiny_platform.vantage_points]
        )
        assert census.health.distorted_vps == {
            name: kind.value for name, kind in expected.items()
        }
        assert any(
            "distorted (chaos):" in line for line in census.health.summary_lines()
        )

    def test_stuck_vp_reports_one_constant_rtt(self, tiny_internet, tiny_platform):
        plan = VpDistortionPlan.single("stuck_rtt", fraction=0.2, seed=3)
        census = make_campaign(
            tiny_internet, tiny_platform, distortion=plan
        ).run_census()
        names = [vp.name for vp in census.platform.vantage_points]
        stuck = set(census.health.distorted_vps)
        assert stuck
        records = census.records
        for name in stuck:
            col = records.rtt_ms[
                (records.vp_index == names.index(name)) & (records.flag == 0)
            ]
            assert len(np.unique(col)) == 1
            lo, hi = plan.stuck_ms
            assert lo <= float(col[0]) <= hi

    def test_clock_skew_is_a_constant_offset(self, tiny_internet, tiny_platform):
        plan = VpDistortionPlan.single("clock_skew", fraction=0.2, seed=3)
        clean = make_campaign(tiny_internet, tiny_platform).run_census()
        skewed = make_campaign(
            tiny_internet, tiny_platform, distortion=plan
        ).run_census()
        names = [vp.name for vp in clean.platform.vantage_points]
        afflicted = set(skewed.health.distorted_vps)
        assert afflicted
        for name in afflicted:
            idx = names.index(name)
            mask = (clean.records.vp_index == idx) & (clean.records.flag == 0)
            offsets = skewed.records.rtt_ms[mask] - clean.records.rtt_ms[mask]
            lo, hi = plan.skew_ms
            assert np.allclose(offsets, offsets[0], atol=1e-3)
            assert lo <= abs(float(offsets[0])) <= hi
        # Honest columns are untouched.
        honest = ~np.isin(
            clean.records.vp_index, [names.index(n) for n in afflicted]
        )
        assert np.array_equal(
            skewed.records.rtt_ms[honest], clean.records.rtt_ms[honest],
            equal_nan=True,
        )

    def test_geo_error_moves_reported_location_only(
        self, tiny_internet, tiny_platform
    ):
        """A mis-geolocated VP lies about *where* it is, never about
        what it measured."""
        plan = VpDistortionPlan.single("geo_error", fraction=0.2, seed=3)
        clean = make_campaign(tiny_internet, tiny_platform).run_census(
            availability=1.0
        )
        lying = make_campaign(
            tiny_internet, tiny_platform, distortion=plan
        ).run_census(availability=1.0)
        assert records_bytes(clean) == records_bytes(lying)  # data untouched
        afflicted = set(lying.health.distorted_vps)
        assert afflicted
        for true_vp, claimed_vp in zip(
            tiny_platform.vantage_points, lying.platform.vantage_points
        ):
            assert true_vp.name == claimed_vp.name
            displaced = true_vp.location.distance_km(claimed_vp.location)
            if true_vp.name in afflicted:
                lo, hi = plan.geo_error_km
                assert lo * 0.99 <= displaced <= hi * 1.01
                assert plan.distort_location(
                    true_vp.name, true_vp.location
                ) == claimed_vp.location
            else:
                assert displaced == 0.0

    def test_distortion_is_stable_across_runs(self, tiny_internet, tiny_platform):
        plan = VpDistortionPlan(fraction=0.25, seed=42)
        first = make_campaign(
            tiny_internet, tiny_platform, distortion=plan
        ).run_census()
        again = make_campaign(
            tiny_internet, tiny_platform, distortion=plan
        ).run_census()
        assert_same_census(first, again)
        assert first.health.distorted_vps == again.health.distorted_vps

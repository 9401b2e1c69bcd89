"""Every planned VP is accounted for exactly once.

Whatever happened to a VP during a census (scanned clean, salvaged after
a crash, flapped, failed by a raising scan or the deadline, resumed from a
journal), settle counts it in exactly one of ok / salvaged / failed, and
the census carries one platform entry, one duration and one drop rate
per planned VP.  A census aborted after its scans carries a report that
still accounts for every planned VP.
"""

from __future__ import annotations

import pytest

from repro.exec import SCAN_RAISED_FAULT
from repro.measurement.campaign import CensusAborted, CensusCampaign, CensusInterrupted
from repro.measurement.faults import FaultPlan

WORKERS = [0, 2]


def assert_report_accounted(report) -> None:
    assert (
        report.n_vps_ok + report.n_vps_salvaged + report.n_vps_failed
        == report.n_vps_planned
    )


def assert_census_accounted(census) -> None:
    report = census.health
    assert_report_accounted(report)
    assert (
        report.n_vps_planned
        == len(census.platform)
        == len(census.vp_duration_hours)
        == len(census.vp_drop_rate)
    )
    assert report.n_vps_resumed <= report.n_vps_planned <= report.n_vps_available
    vp_index = census.records.vp_index.astype(int)
    assert ((vp_index >= 0) & (vp_index < report.n_vps_planned)).all()


def campaign(internet, platform, workers, **kwargs) -> CensusCampaign:
    return CensusCampaign(
        internet, platform, seed=77, workers=workers, **kwargs
    )


@pytest.mark.parametrize("workers", WORKERS)
def test_clean_campaign(tiny_internet, tiny_platform, workers):
    for census in campaign(tiny_internet, tiny_platform, workers).run(2):
        assert_census_accounted(census)
        assert census.health.n_vps_ok == census.health.n_vps_planned
        assert census.health.execution["workers"] == workers


@pytest.mark.parametrize("workers", WORKERS)
def test_faulted_campaign(tiny_internet, tiny_platform, workers):
    faulted = campaign(
        tiny_internet,
        tiny_platform,
        workers,
        fault_plan=FaultPlan.uniform(0.3, flap_prob=0.1),
        scan_timeout_hours=10.0,
    )
    censuses = faulted.run(2)
    for census in censuses:
        assert_census_accounted(census)
    assert any(census.health.n_vps_failed for census in censuses)
    assert any(census.health.n_vps_salvaged for census in censuses)


@pytest.mark.parametrize("workers", WORKERS)
def test_quarantine_over_three_censuses(tiny_internet, tiny_platform, workers):
    flappy = campaign(
        tiny_internet,
        tiny_platform,
        workers,
        fault_plan=FaultPlan(flap_prob=0.5, seed=21),
        quarantine_threshold=1,
    )
    censuses = flappy.run(3, availability=1.0)
    for census in censuses:
        assert_census_accounted(census)
        planned = {vp.name for vp in census.platform.vantage_points}
        assert not planned & set(census.health.quarantined_vps)
    assert all(census.health.quarantined_vps for census in censuses[1:])


@pytest.mark.parametrize("workers", WORKERS)
def test_journal_resume(tiny_internet, tiny_platform, workers, tmp_path):
    journal = str(tmp_path / "census-001.journal")
    plan = FaultPlan.uniform(0.3, flap_prob=0.1)
    with pytest.raises(CensusInterrupted):
        campaign(tiny_internet, tiny_platform, workers, fault_plan=plan).run_census(
            checkpoint=journal, abort_after_vps=7
        )
    resumer = campaign(tiny_internet, tiny_platform, workers, fault_plan=plan)
    resumed = resumer.run_census(checkpoint=journal)
    assert resumed.health.n_vps_resumed == 7
    assert_census_accounted(resumed)


@pytest.mark.parametrize("workers", WORKERS)
def test_breaker_tripped_vp(tiny_internet, tiny_platform, workers, monkeypatch):
    broken = campaign(tiny_internet, tiny_platform, workers)
    scan_vp = broken.scan_vp

    def scan_raising_for_vp_3(platform_index, *args, **kwargs):
        if platform_index == 3:
            raise ValueError("boom")
        return scan_vp(platform_index, *args, **kwargs)

    monkeypatch.setattr(broken, "scan_vp", scan_raising_for_vp_3)
    census = broken.run_census(availability=1.0)
    assert_census_accounted(census)
    name = tiny_platform.vantage_points[3].name
    assert census.health.failed_vps == [name]
    assert census.health.faults_seen == {SCAN_RAISED_FAULT: 1}


@pytest.mark.parametrize("workers", WORKERS)
def test_immediate_deadline_aborts_with_an_accounted_report(
    tiny_internet, tiny_platform, workers
):
    starved = CensusCampaign(
        tiny_internet,
        tiny_platform,
        seed=77,
        workers=workers,
        deadline_s=1e-9,
    )
    with pytest.raises(CensusAborted) as exc:
        starved.run_census()
    assert_report_accounted(exc.value.report)
    assert exc.value.report.n_vps_planned > 0

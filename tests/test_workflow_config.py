"""Tests for StudyConfig propagation through the workflow facade."""

import pytest

from repro.core.igreedy import IGreedyConfig
from repro.geo.disks import LIGHT_SPEED_KM_PER_MS
from repro.internet.topology import InternetConfig
from repro.workflow import CensusStudy, StudyConfig


def tiny_config(**overrides) -> StudyConfig:
    defaults = dict(
        internet=InternetConfig(seed=3, n_unicast_slash24=200, tail_deployments=10),
        n_vantage_points=30,
        n_censuses=1,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


class TestConfigPropagation:
    def test_internet_scale(self):
        study = CensusStudy(tiny_config())
        assert len(study.internet.unicast_hosts) == 200
        assert study.internet.anycast_ases == 110

    def test_platform_size(self):
        study = CensusStudy(tiny_config(n_vantage_points=25))
        assert len(study.platform) == 25

    def test_census_count(self):
        study = CensusStudy(tiny_config(n_censuses=2))
        assert len(study.censuses) == 2

    def test_rate_propagates(self):
        study = CensusStudy(tiny_config(rate_pps=5000.0))
        assert study.censuses[0].rate_pps == 5000.0

    def test_igreedy_config_propagates(self):
        conservative = CensusStudy(
            tiny_config(igreedy=IGreedyConfig(speed_km_per_ms=LIGHT_SPEED_KM_PER_MS))
        )
        default = CensusStudy(tiny_config())
        # Full-c disks are larger: detection can only shrink.
        assert conservative.analysis.n_anycast <= default.analysis.n_anycast

    def test_platform_seed_changes_vps(self):
        a = CensusStudy(tiny_config(platform_seed=1))
        b = CensusStudy(tiny_config(platform_seed=2))
        assert [vp.name for vp in a.platform] != [vp.name for vp in b.platform]

    def test_same_config_same_results(self):
        a = CensusStudy(tiny_config())
        b = CensusStudy(tiny_config())
        assert set(a.analysis.anycast_prefixes) == set(b.analysis.anycast_prefixes)
        assert a.analysis.total_replicas == b.analysis.total_replicas

    def test_availability_bounds_vps(self):
        study = CensusStudy(tiny_config(availability=0.5, n_censuses=1))
        census = study.censuses[0]
        assert census.n_vps <= len(study.platform)

    def test_fault_plan_propagates(self):
        from repro.measurement.faults import FaultPlan

        study = CensusStudy(tiny_config(fault_plan=FaultPlan.uniform(0.3, seed=4)))
        assert study.campaign.fault_plan.crash_prob == pytest.approx(0.1)
        # health_reports is lazy: nothing materialized means no reports ...
        assert study.health_reports == []
        # ... and accessing the censuses surfaces them.
        _ = study.censuses
        reports = study.health_reports
        assert len(reports) == 1
        assert reports[0].n_faults > 0

    def test_default_plan_yields_clean_reports(self):
        study = CensusStudy(tiny_config(n_censuses=2))
        _ = study.censuses
        assert len(study.health_reports) == 2
        assert all(not r.degraded for r in study.health_reports)
        assert all(r.faults_seen == {} for r in study.health_reports)

    def test_quorum_propagates(self):
        from repro.measurement.campaign import CensusAborted
        from repro.measurement.faults import FaultPlan

        study = CensusStudy(
            tiny_config(
                fault_plan=FaultPlan(flap_prob=1.0, seed=1), min_vp_quorum=5
            )
        )
        with pytest.raises(CensusAborted):
            _ = study.censuses

    def test_checkpoint_dir_is_gone(self):
        # An interrupted study re-runs from its start: nothing to point at.
        with pytest.raises(TypeError):
            tiny_config(checkpoint_dir="journals")


class TestExecutionKnobs:
    """StudyConfig.workers/deadline -> the campaign's scan driver."""

    @pytest.mark.parametrize("field", ["trust_policy", "manifest_path"])
    def test_fields_nobody_set_are_gone(self, field):
        with pytest.raises(TypeError):
            tiny_config(**{field: None})

    def test_default_is_serial(self):
        study = CensusStudy(tiny_config())
        assert study.campaign.executor.workers == 0
        assert study.campaign.executor.deadline_s is None

    def test_workers_builds_pool_policy(self):
        study = CensusStudy(tiny_config(workers=3))
        policy = study.campaign.executor
        assert policy.workers == 3
        assert policy.deadline_s is None

    def test_deadline_alone_runs_engine_in_process(self):
        study = CensusStudy(tiny_config(deadline=120.0))
        policy = study.campaign.executor
        assert policy.workers == 0
        assert policy.deadline_s == 120.0

    def test_pooled_study_output_matches_serial(self):
        serial = CensusStudy(tiny_config())
        pooled = CensusStudy(tiny_config(workers=2))
        assert (
            pooled.censuses[0].records.checksum()
            == serial.censuses[0].records.checksum()
        )
        assert serial.health_reports[0].execution["workers"] == 0
        assert pooled.health_reports[0].execution["workers"] == 2

    def test_manifest_carries_execution_report(self):
        study = CensusStudy(tiny_config(workers=2, metrics=True))
        study.censuses
        doc = study.manifest.to_dict()
        health = doc["health"][0]
        assert health["execution"]["workers"] == 2
        snapshot = study.metrics.snapshot()
        assert snapshot["counters"].get("exec_units_completed", 0) > 0

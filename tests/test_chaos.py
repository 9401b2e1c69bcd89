"""End-to-end chaos tests: poisoned pipelines must degrade, not die.

The resilience contract has two halves, both exercised here:

* **neutrality** — with the resilience layer on and clean inputs, every
  scientific output is byte-identical to the bare baseline;
* **graceful degradation** — under every poison mode of the chaos
  harness the study completes without an unhandled exception, the
  quarantine log is non-empty and reason-coded, the degradation report
  admits the damage, and the manifest validates.
"""

import numpy as np
import pytest

from repro.internet.topology import InternetConfig
from repro.measurement.faults import (
    DistortionKind,
    FaultPlan,
    PoisonKind,
    PoisonPlan,
    VpDistortionPlan,
)
from repro.obs import manifest_problems
from repro.resilience import ResiliencePolicy, StageFailed
from repro.workflow import CensusStudy, StudyConfig


def _study(resilience=None, poison=None, fault_plan=None, seed=3, workers=0):
    return CensusStudy(
        StudyConfig(
            internet=InternetConfig(
                seed=seed, n_unicast_slash24=400, tail_deployments=15
            ),
            n_vantage_points=40,
            n_censuses=2,
            fault_plan=fault_plan or FaultPlan(),
            resilience=resilience,
            poison=poison,
            workers=workers,
        )
    )


def _fingerprint(study):
    """Everything scientific, byte-exact."""
    analysis = study.analysis
    matrix = study.matrix
    return (
        matrix.rtt_ms.tobytes(),
        matrix.sample_count.tobytes(),
        sorted(analysis.anycast_prefixes),
        {p: r.city_names for p, r in analysis.results.items()},
        {p: r.replica_count for p, r in analysis.results.items()},
        [(r.label, r.ip24, r.replicas) for r in study.glance_table()],
    )


@pytest.fixture(scope="module")
def baseline():
    study = _study()
    study.characterization
    return study


class TestNeutrality:
    def test_resilience_on_clean_data_is_byte_identical(self, baseline):
        guarded = _study(resilience=ResiliencePolicy())
        assert _fingerprint(guarded) == _fingerprint(baseline)

    def test_clean_run_quarantines_nothing(self):
        guarded = _study(resilience=ResiliencePolicy())
        guarded.characterization
        assert guarded.quarantine.total == 0
        report = guarded.degradation_report
        assert not report.degraded
        assert all(o.status == "ok" for o in report.stages.values())

    def test_clean_run_confidence_is_all_full(self):
        guarded = _study(resilience=ResiliencePolicy())
        verdicts = set(guarded.analysis.confidence.values())
        assert verdicts == {"full"}

    def test_resilience_off_has_no_supervisor(self, baseline):
        assert baseline.supervisor is None
        assert baseline.degradation_report is None
        assert baseline.quarantine.total == 0


class TestChaosMatrix:
    """Each poison mode: complete, quarantine, degrade, valid manifest."""

    @pytest.mark.parametrize("kind", list(PoisonKind))
    def test_poison_mode_degrades_not_crashes(self, kind):
        study = _study(
            resilience=ResiliencePolicy(), poison=PoisonPlan.single(kind, 0.25)
        )
        study.characterization  # full pipeline, no unhandled exception
        study.hitlist
        assert study.quarantine.total > 0
        report = study.degradation_report
        assert report.degraded
        assert report.quarantined_total == study.quarantine.total
        problems = manifest_problems(study.manifest.to_dict())
        assert problems == []

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_sample_loss_sweep(self, fraction, baseline):
        study = _study(
            resilience=ResiliencePolicy(),
            poison=PoisonPlan.single(PoisonKind.DROP_SAMPLES, fraction),
        )
        study.characterization
        assert study.quarantine.by_reason() == {
            "lost_sample": study.quarantine.total
        }
        assert study.degradation_report.degraded
        # Heavier loss can only shrink the detection set, never grow it.
        assert study.analysis.n_anycast <= baseline.analysis.n_anycast

    def test_quarantine_reasons_match_poison_mode(self):
        reasons = {
            PoisonKind.NAN_RTT: "nan_rtt",
            PoisonKind.SUPERLUMINAL_RTT: "superluminal_rtt",
            PoisonKind.CORRUPT_VP_COORDS: "impossible_vp_coords",
            PoisonKind.DROP_SAMPLES: "lost_sample",
        }
        for kind, reason in reasons.items():
            study = _study(
                resilience=ResiliencePolicy(), poison=PoisonPlan.single(kind, 0.3)
            )
            study.matrix
            assert reason in study.quarantine.by_reason(), kind

    def test_poisoning_is_deterministic(self):
        plan = PoisonPlan.single(PoisonKind.NAN_RTT, 0.3, seed=7)
        one = _study(resilience=ResiliencePolicy(), poison=plan)
        two = _study(resilience=ResiliencePolicy(), poison=plan)
        assert _fingerprint(one) == _fingerprint(two)
        assert one.quarantine.to_dicts() == two.quarantine.to_dicts()


class TestFullyPoisonedStage:
    def test_all_vp_coords_corrupt_degrades_to_insufficient(self):
        study = _study(
            resilience=ResiliencePolicy(),
            poison=PoisonPlan.single(PoisonKind.CORRUPT_VP_COORDS, 1.0),
        )
        study.characterization  # renders empty tables, does not raise
        assert study.matrix.n_vps == 0
        assert study.analysis.n_anycast == 0
        verdicts = set(study.analysis.confidence.values())
        assert verdicts == {"insufficient"}
        report = study.degradation_report
        assert report.degraded
        assert report.confidence["insufficient"] == study.matrix.n_targets
        for row in study.glance_table():
            assert row.ip24 == 0

    def test_all_rtts_nan_yields_empty_but_valid_study(self):
        study = _study(
            resilience=ResiliencePolicy(),
            poison=PoisonPlan.single(PoisonKind.NAN_RTT, 1.0),
        )
        study.characterization
        assert study.matrix.n_targets == 0
        assert study.analysis.n_anycast == 0
        assert study.degradation_report.degraded
        assert manifest_problems(study.manifest.to_dict()) == []


class TestStrictPolicy:
    def test_strict_fails_fast_on_poisoned_hitlist(self):
        study = _study(
            resilience=ResiliencePolicy.strict(),
            poison=PoisonPlan.single(PoisonKind.MALFORMED_HITLIST, 0.25),
        )
        with pytest.raises(StageFailed) as info:
            study.hitlist
        assert info.value.stage == "hitlist"

    def test_strict_fails_fast_on_poisoned_records(self):
        study = _study(
            resilience=ResiliencePolicy.strict(),
            poison=PoisonPlan.single(PoisonKind.NAN_RTT, 0.25),
        )
        with pytest.raises(StageFailed) as info:
            study.matrix
        assert info.value.stage == "combine"

    def test_strict_on_clean_data_is_byte_identical(self, baseline):
        strict = _study(resilience=ResiliencePolicy.strict())
        assert _fingerprint(strict) == _fingerprint(baseline)


class TestChaosWithNodeFaults:
    """Node faults (PR 1) and data poisoning compose under supervision."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(crash_prob=0.3, seed=11),
            FaultPlan(hang_prob=0.3, seed=11),
            FaultPlan(corrupt_prob=0.3, seed=11),
            FaultPlan(flap_prob=0.3, seed=11),
        ],
        ids=["crash", "hang", "corrupt", "flap"],
    )
    def test_fault_modes_complete_under_supervision(self, plan):
        study = _study(resilience=ResiliencePolicy(), fault_plan=plan)
        study.characterization
        report = study.degradation_report
        assert report is not None
        assert manifest_problems(study.manifest.to_dict()) == []

    def test_faults_plus_poison_still_degrade_gracefully(self):
        study = _study(
            resilience=ResiliencePolicy(),
            fault_plan=FaultPlan(crash_prob=0.3, corrupt_prob=0.2, seed=11),
            poison=PoisonPlan.single(PoisonKind.NAN_RTT, 0.3),
        )
        study.characterization
        assert study.quarantine.total > 0
        assert study.degradation_report.degraded


class TestManifestIntegration:
    def test_manifest_carries_quarantine_and_degradation(self):
        study = _study(
            resilience=ResiliencePolicy(),
            poison=PoisonPlan.single(PoisonKind.NAN_RTT, 0.3),
        )
        study.characterization
        doc = study.manifest.to_dict()
        assert manifest_problems(doc) == []
        assert any(b["reason"] == "nan_rtt" for b in doc["quarantine"])
        assert doc["degradation"]["degraded"] is True
        assert doc["degradation"]["quarantined_total"] == study.quarantine.total
        assert doc["degradation"]["stages"]["combine"]["status"] == "degraded"

    def test_resilience_off_manifest_omits_sections(self, baseline):
        doc = baseline.manifest.to_dict()
        assert "quarantine" not in doc
        assert "degradation" not in doc
        assert manifest_problems(doc) == []

    def test_written_manifest_round_trips(self, tmp_path):
        import json

        study = _study(
            resilience=ResiliencePolicy(),
            poison=PoisonPlan.single(PoisonKind.DROP_SAMPLES, 0.5),
        )
        study.characterization
        path = study.manifest.write(tmp_path / "chaos.json")
        doc = json.loads(path.read_text())
        assert manifest_problems(doc) == []
        assert doc["degradation"]["degraded"] is True

    def test_confidence_tally_sums_to_target_count(self):
        study = _study(
            resilience=ResiliencePolicy(),
            poison=PoisonPlan.single(PoisonKind.DROP_SAMPLES, 0.5),
        )
        study.characterization
        tally = study.degradation_report.confidence
        assert sum(tally.values()) == study.matrix.n_targets
        assert tally.get("degraded", 0) + tally.get("insufficient", 0) > 0


_FAULTS = {
    "crash": FaultPlan(crash_prob=0.3, seed=5),
    "hang": FaultPlan(hang_prob=0.3, seed=5),
    "corrupt": FaultPlan(corrupt_prob=0.3, seed=5),
    "flap": FaultPlan(flap_prob=0.3, seed=5),
}


class TestSupervisedMatrix:
    """Every fault and poison mode through the shared stage runner, in
    process and on the supervised pool: identical handling at every
    worker count is part of the determinism contract."""

    @pytest.mark.parametrize(
        "fault_plan,poison,workers",
        [
            pytest.param(plan, None, workers, id=f"fault:{name}:{workers}")
            for workers in (0, 4)
            for name, plan in _FAULTS.items()
        ]
        + [
            pytest.param(
                None,
                PoisonPlan.single(kind, 0.25),
                workers,
                id=f"poison:{kind.value}:{workers}",
            )
            for workers in (0, 4)
            for kind in PoisonKind
        ],
    )
    def test_study_completes_and_admits_the_damage(self, fault_plan, poison, workers):
        study = _study(
            resilience=ResiliencePolicy(),
            fault_plan=fault_plan,
            poison=poison,
            workers=workers,
        )
        study.characterization  # must complete end-to-end
        study.hitlist  # lazy exhibit stage, off the main path
        assert manifest_problems(study.manifest.to_dict()) == []
        report = study.degradation_report
        assert report.stages, "empty degradation report"
        if poison is not None:
            assert report.degraded, "poison left no trace"
            assert study.quarantine.total > 0, "nothing quarantined"


class TestDistortedVpMatrix:
    """Each distortion kind through the one trust gate: exactly the
    injected VPs are excised and no anycast verdict is fabricated."""

    @staticmethod
    def _study(plan):
        return CensusStudy(
            StudyConfig(
                internet=InternetConfig(
                    seed=7, n_unicast_slash24=3000, tail_deployments=5
                ),
                n_vantage_points=30,
                n_censuses=1,
                availability=1.0,
                vp_distortion=plan,
                trust=True,
            )
        )

    @pytest.fixture(scope="class")
    def clean_verdicts(self):
        return set(self._study(None).analysis.anycast_prefixes)

    @pytest.mark.parametrize(
        "kind", list(DistortionKind), ids=lambda kind: f"distort:{kind.value}"
    )
    def test_exactly_the_injected_vps_are_excised(self, kind, clean_verdicts):
        study = self._study(VpDistortionPlan.single(kind, fraction=0.1, seed=777))
        verdicts = set(study.analysis.anycast_prefixes)
        injected = set()
        for census in study.censuses:
            injected |= set(census.health.distorted_vps)
        assert injected, "the plan hit nobody"
        assert set(study.trust_report.untrusted_names) == injected
        assert verdicts <= clean_verdicts, "fabricated anycast"
        assert len(clean_verdicts - verdicts) <= 0.05 * len(clean_verdicts)
        assert manifest_problems(study.manifest.to_dict()) == []

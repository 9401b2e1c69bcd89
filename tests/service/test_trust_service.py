"""VP trust wired through the longitudinal service.

Three contracts:

* **neutrality** — a clean-roster service run with trust scoring on is
  byte-identical to one with it off (the sidecar is the only extra
  file);
* **verdict plumbing** — a distorted roster's convictions reach the
  archive (trust sidecar + manifest section), the outcome, and the
  affected targets' confidence markers;
* **fsck** — a rotten trust sidecar is repairable: quarantined alone,
  the run kept.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.measurement.faults import VpDistortionPlan
from repro.obs import Tracer, activate
from repro.resilience import CorruptInputError, ResiliencePolicy, StageFailed
from repro.service import CensusService, ServiceConfig
from repro.service.archive import TRUST_FILE
from repro.workflow import small_service

DAYS = 3
#: Files excluded from byte comparisons: observability sidecars, never
#: census data (same contract as the telemetry suite).
SIDECARS = ("telemetry.json", "events.jsonl", TRUST_FILE)


def service_for(root, **kw):
    kw.setdefault("n_vps", 12)
    return CensusService(
        ServiceConfig(
            archive_root=str(root), n_unicast=150, tail_deployments=4, **kw
        )
    )


def census_digest(root):
    """One hash over every committed census byte (sidecars excluded)."""
    h = hashlib.sha256()
    for p in sorted(pathlib.Path(root, "runs").rglob("*")):
        if p.is_file() and p.name not in SIDECARS:
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def trust_off(tmp_path_factory):
    root = tmp_path_factory.mktemp("trust") / "off"
    service = service_for(root)
    outcomes = [service.run_epoch(e) for e in range(DAYS)]
    return service, outcomes, root


@pytest.fixture(scope="module")
def trust_on(tmp_path_factory):
    root = tmp_path_factory.mktemp("trust") / "on"
    service = service_for(root, trust=True)
    outcomes = [service.run_epoch(e) for e in range(DAYS)]
    return service, outcomes, root


@pytest.fixture(scope="module")
def distorted(tmp_path_factory):
    root = tmp_path_factory.mktemp("trust") / "distorted"
    service = service_for(
        root, trust=True, vp_distortion=VpDistortionPlan(fraction=0.25, seed=99)
    )
    outcomes = [service.run_epoch(e) for e in range(2)]
    return service, outcomes, root


class TestCleanNeutrality:
    def test_census_bytes_identical_with_trust_on(self, trust_off, trust_on):
        assert census_digest(trust_off[2]) == census_digest(trust_on[2])

    def test_nobody_convicted(self, trust_on):
        _, outcomes, _ = trust_on
        assert all(not o.untrusted_vps for o in outcomes)

    def test_clean_manifest_has_no_trust_section(self, trust_on):
        service, _, _ = trust_on
        assert "trust" not in service.archive.read_manifest(0)

    def test_sidecar_present_only_when_scoring(self, trust_off, trust_on):
        doc = trust_on[0].archive.read_trust(1)
        assert doc is not None
        assert doc["kind"] == "vp-trust"
        assert doc["n_untrusted"] == 0
        assert trust_off[0].archive.read_trust(1) is None


class TestDistortedService:
    def test_outcome_names_the_untrusted(self, distorted):
        _, outcomes, _ = distorted
        assert outcomes[0].untrusted_vps
        # Distortion is keyed per VP name: identical every epoch.
        assert outcomes[1].untrusted_vps == outcomes[0].untrusted_vps

    def test_manifest_trust_section(self, distorted):
        service, outcomes, _ = distorted
        section = service.archive.read_manifest(0)["trust"]
        assert section["enabled"] is True
        assert section["untrusted"] == outcomes[0].untrusted_vps
        assert set(section["reasons"]) == set(outcomes[0].untrusted_vps)

    def test_sidecar_matches_manifest(self, distorted):
        service, _, _ = distorted
        doc = service.archive.read_trust(0)
        manifest = service.archive.read_manifest(0)
        assert doc["n_untrusted"] == manifest["trust"]["n_untrusted"]
        flagged = [v["name"] for v in doc["verdicts"] if not v["trusted"]]
        assert sorted(flagged) == sorted(manifest["trust"]["untrusted"])

    def test_targets_carry_confidence_markers(self, distorted):
        service, _, _ = distorted
        targets = service.archive.read_results(0)["targets"]
        marked = [e for e in targets.values() if "confidence" in e]
        assert marked
        assert {e["confidence"] for e in marked} <= {"degraded", "insufficient"}

    def test_committed_outcomes_rehydrate_trust(self, distorted):
        """Re-running a committed epoch replays its verdicts off the
        manifest instead of recomputing."""
        service, outcomes, _ = distorted
        replayed = service.run_epoch(0)
        assert replayed.status == "already-present"
        assert replayed.untrusted_vps == outcomes[0].untrusted_vps


class TestTrustSpan:
    def test_epoch_trust_span_reports_the_peel(self, tmp_path):
        """The epoch's ``trust`` span carries the peel's row and round
        counts: violating rows are a subset of the day's targets, and a
        peel that convicts through the solo check runs one round per
        conviction plus the round that finds nobody left."""
        plan = VpDistortionPlan(fraction=0.25, seed=99, kinds=("geo_error",))
        service = small_service(tmp_path, trust=True, vp_distortion=plan)
        tracer = Tracer()
        with activate(tracer=tracer):
            outcome = service.run_epoch(0)
        root = tracer.to_dicts()[0]
        (span,) = [c for c in root["children"] if c["name"] == "trust"]
        attrs = span["attrs"]
        assert 0 < attrs["rows_violating"] < outcome.n_targets
        report = service.archive.read_trust(0)
        solo = [
            v for v in report["verdicts"] if "sol-violation-outlier" in v["reasons"]
        ]
        assert solo and not report["sol_check_aborted"]
        assert attrs["peel_rounds"] == len(solo) + 1


class TestUnfilteredDistortion:
    def test_trust_off_distortion_is_a_typed_refusal(self, tmp_path):
        """Clock-skewed VPs with nothing filtering them put negative RTTs
        in front of the analysis: the epoch ends in a typed error naming
        the damage, commits nothing, and is re-runnable off its journal."""
        plan = VpDistortionPlan(fraction=0.3, seed=4242)
        service = small_service(tmp_path, vp_distortion=plan)
        for _ in range(2):  # the refusal is deterministic, not sticky
            with pytest.raises(
                CorruptInputError, match=r"\d+ negative-RTT cell\(s\) in \d+ of \d+"
            ):
                service.run_epoch(0)
        assert service.archive.epochs() == []
        assert list((tmp_path / "runs").iterdir()) == []
        assert service.fsck().quarantined == []
        # Under a supervisor the same input is a typed stage failure.
        supervised = small_service(
            tmp_path / "supervised",
            vp_distortion=plan,
            resilience=ResiliencePolicy(),
        )
        with pytest.raises(StageFailed, match="negative-RTT") as info:
            supervised.run_epoch(0)
        assert isinstance(info.value.__cause__, CorruptInputError)
        # The journal survived: turning the trust gate on resumes the
        # measured scans and commits the epoch.
        outcome = small_service(
            tmp_path, vp_distortion=plan, trust=True
        ).run_epoch(0)
        assert outcome.status == "committed" and outcome.untrusted_vps


class TestTrustSidecarFsck:
    def test_corrupt_sidecar_is_quarantined_run_kept(self, distorted, tmp_path):
        import dataclasses
        import shutil

        service, _, source = distorted
        root = tmp_path / "archive"
        shutil.copytree(source, root)
        victim = CensusService(
            dataclasses.replace(service.config, archive_root=str(root))
        )
        sidecar = victim.archive.run_dir(0) / TRUST_FILE
        sidecar.write_text("{ not json", encoding="utf-8")
        report = victim.fsck()
        assert report.trust_quarantined
        assert not report.quarantined  # the run itself survived
        assert 0 in report.ok_epochs
        assert victim.archive.read_trust(0) is None
        assert victim.archive.read_results(0)["targets"]  # data intact
        assert any(
            "trust" in line for line in report.summary_lines()
        )

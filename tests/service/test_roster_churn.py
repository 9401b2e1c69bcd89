"""Roster-churn-tolerant incremental recompute, end to end.

A 20-VP service with a 5% keyed per-epoch dropout probability: rosters
shrink and rejoin day over day.  The per-VP column signatures make the
service survive this — an epoch whose roster matches an archived one
recovers those targets' analyses from history instead of going cold —
and whatever path each epoch takes, its committed results must be
byte-equal to a cold recompute of the same epoch.

The scenario (``roster_seed=11``, 8 epochs) is chosen so the timeline
exercises every path: full rosters, dropped VPs, an exact-roster
rejoin recovered via the multi-epoch baseline history.
"""

from __future__ import annotations

import pytest

from repro.service import CensusService, ServiceConfig

EPOCHS = 8


def service_for(root, **kw):
    return CensusService(
        ServiceConfig(
            archive_root=str(root),
            n_unicast=150,
            tail_deployments=4,
            n_vps=20,
            roster_churn_prob=0.05,
            roster_seed=11,
            baseline_depth=4,
            **kw,
        )
    )


@pytest.fixture(scope="module")
def churned(tmp_path_factory):
    root = tmp_path_factory.mktemp("roster") / "churn"
    service = service_for(root)
    outcomes = [service.run_epoch(e) for e in range(EPOCHS)]
    return service, outcomes


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    root = tmp_path_factory.mktemp("roster") / "cold"
    service = service_for(root, incremental=False)
    outcomes = [service.run_epoch(e) for e in range(EPOCHS)]
    return service, outcomes


class TestRosterChurn:
    def test_rosters_actually_move(self, churned):
        service, _ = churned
        rosters = [
            tuple(vp["name"] for vp in service.archive.read_manifest(e)["vantage_points"])
            for e in range(EPOCHS)
        ]
        assert len(set(rosters)) > 1
        assert min(len(r) for r in rosters) < 20  # someone sat a day out

    def test_dropout_is_keyed_not_streamed(self, churned, tmp_path):
        """Re-running the same epoch elsewhere drops the same VPs."""
        service, _ = churned
        twin = service_for(tmp_path / "twin")
        for epoch in range(EPOCHS):
            assert [vp.name for vp in twin.platform_for(epoch).vantage_points] == [
                vp["name"]
                for vp in service.archive.read_manifest(epoch)["vantage_points"]
            ]

    def test_rejoined_roster_goes_incremental_with_recovery(self, churned):
        _, outcomes = churned
        incremental = [o for o in outcomes[1:] if o.mode == "incremental"]
        assert incremental, "every churned epoch went cold"
        assert any(o.n_copied > 0 for o in incremental)
        assert sum(o.n_recovered for o in outcomes) > 0

    def test_manifest_carries_roster_diff(self, churned):
        service, _ = churned
        blocks = []
        for epoch in range(1, EPOCHS):
            churn = service.archive.read_manifest(epoch).get("churn") or {}
            if "roster" in churn:
                blocks.append(churn["roster"])
        assert blocks, "no manifest recorded the roster motion"
        for block in blocks:
            assert set(block) == {
                "joined", "left", "n_before", "n_after", "n_surviving"
            }
            assert block["n_surviving"] <= min(block["n_before"], block["n_after"])

    def test_incremental_results_byte_equal_to_cold(self, churned, cold):
        """The acceptance bar: whatever mix of copy/recover/recompute an
        epoch used, its results document equals a cold run's."""
        svc_inc, _ = churned
        svc_cold, _ = cold
        for epoch in range(EPOCHS):
            assert svc_inc.archive.read_results(epoch) == svc_cold.archive.read_results(
                epoch
            ), f"epoch {epoch}: incremental != cold under roster churn"

    def test_stable_roster_has_no_roster_block(self, tmp_path):
        """With churn off and identical rosters the manifest keeps its
        classic shape — no roster block appears (byte neutrality)."""
        service = CensusService(
            ServiceConfig(
                archive_root=str(tmp_path / "stable"),
                n_unicast=120,
                tail_deployments=2,
                n_vps=12,
            )
        )
        for epoch in range(2):
            service.run_epoch(epoch)
        churn = service.archive.read_manifest(1).get("churn") or {}
        assert "roster" not in churn


def test_small_service_timeline_stays_incremental_under_roster_churn(tmp_path):
    """The laptop-scale service under trust and a 5% keyed dropout: the
    roster moves, epochs stay incremental, rejoin recovery fires, the
    manifests record the motion, and every committed results document
    equals a cold service's."""
    from repro.workflow import small_service

    epochs = 5
    knobs = dict(roster_churn_prob=0.05, roster_seed=11, baseline_depth=4, trust=True)

    churned = small_service(tmp_path / "churn-archive", **knobs)
    outcomes = [churned.run_epoch(e) for e in range(epochs)]

    rosters = {
        tuple(vp["name"] for vp in churned.archive.read_manifest(e)["vantage_points"])
        for e in range(epochs)
    }
    assert len(rosters) > 1, "roster never moved"
    incremental = [o for o in outcomes[1:] if o.mode == "incremental"]
    assert incremental, "every churned epoch went cold"
    assert sum(o.n_recovered for o in outcomes) > 0, "rejoin recovery never fired"
    blocks = [
        e
        for e in range(1, epochs)
        if "roster" in (churned.archive.read_manifest(e).get("churn") or {})
    ]
    assert blocks, "no manifest recorded the roster motion"

    cold = small_service(tmp_path / "churn-cold", incremental=False, **knobs)
    for epoch in range(epochs):
        cold.run_epoch(epoch)
        assert churned.archive.read_results(epoch) == cold.archive.read_results(
            epoch
        ), f"epoch {epoch}: incremental != cold under roster churn"

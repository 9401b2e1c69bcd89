"""Kill-restart chaos: the service's headline crash-tolerance invariant.

Kill the service at *any* point of a 5-day schedule — mid-census, or at
any instant of the archive commit protocol — then start a fresh service
over the same root and ``catch_up``.  The resulting archive must be
**byte-identical** to the one an uninterrupted timeline produces: same
run payloads, same manifests, same index, no leftover journals, nothing
quarantined.
"""

from __future__ import annotations

import pytest

from repro.measurement.campaign import CensusInterrupted
from repro.workflow import small_service

from .conftest import DAYS, archive_tree


class Kill(Exception):
    """Simulated hard crash inside the commit protocol."""


def run_until_dead(service, through, commit_kill=None, abort_after_vps=None):
    """Drive the schedule until the injected failure fires (or the end)."""
    if commit_kill is not None:
        def hook(point):
            if point == commit_kill:
                raise Kill(point)
        service.archive.crash_hook = hook
    try:
        for epoch in range(through + 1):
            service.run_epoch(epoch, abort_after_vps=abort_after_vps)
    except (Kill, CensusInterrupted):
        return True
    return False


def recover_and_compare(root, reference_tree):
    """Fresh process over the same root: catch up, demand byte-identity."""
    report, outcomes = small_service(root).catch_up(DAYS - 1)
    tree = archive_tree(root)
    assert tree == reference_tree, (
        "recovered archive differs from the uninterrupted timeline: "
        + ", ".join(sorted(set(tree) ^ set(reference_tree))[:5] or ["content"])
    )
    assert not list((root / "journal").iterdir())
    assert not (root / "quarantine").exists()
    return report, outcomes


class TestMidCensusKills:
    @pytest.mark.parametrize("day", [0, 1, 3])
    @pytest.mark.parametrize("after_vps", [1, 7])
    def test_interrupt_then_catch_up(self, tmp_path, reference_tree, day, after_vps):
        root = tmp_path / "archive"
        service = small_service(root)
        for epoch in range(day):
            service.run_epoch(epoch)
        with pytest.raises(CensusInterrupted):
            service.run_epoch(day, abort_after_vps=after_vps)
        assert service.archive.journal_path(day).exists()
        recover_and_compare(root, reference_tree)

    def test_interrupt_resumes_instead_of_restarting(self, tmp_path, reference_tree):
        # The second attempt must *resume* the journal: interrupting it
        # again after one more VP still converges, proving the journal
        # carries the partial progress forward bit-for-bit.
        root = tmp_path / "archive"
        service = small_service(root)
        service.run_epoch(0)
        with pytest.raises(CensusInterrupted):
            service.run_epoch(1, abort_after_vps=5)
        with pytest.raises(CensusInterrupted):
            small_service(root).run_epoch(1, abort_after_vps=1)
        recover_and_compare(root, reference_tree)


class TestCommitPointKills:
    @pytest.mark.parametrize(
        "point", ["commit:staged", "commit:renamed", "commit:indexed"]
    )
    def test_kill_inside_commit(self, tmp_path, reference_tree, point):
        root = tmp_path / "archive"
        service = small_service(root)
        assert run_until_dead(service, DAYS - 1, commit_kill=point)
        recover_and_compare(root, reference_tree)

    def test_kill_on_every_day_at_the_worst_point(self, tmp_path, reference_tree):
        # One timeline, repeatedly crashing right after the rename (the
        # state with the most stale artifacts: journal + old index).
        root = tmp_path / "archive"
        deaths = 0
        while run_until_dead(
            small_service(root), DAYS - 1, commit_kill="commit:renamed"
        ):
            deaths += 1
            assert deaths <= DAYS, "no forward progress between crashes"
        assert deaths == DAYS  # each day died once, and each day advanced
        recover_and_compare(root, reference_tree)


class TestCompoundFailures:
    def test_interrupt_then_commit_crash_then_recover(self, tmp_path, reference_tree):
        root = tmp_path / "archive"
        service = small_service(root)
        service.run_epoch(0)
        with pytest.raises(CensusInterrupted):
            service.run_epoch(1, abort_after_vps=4)
        # Restarted service resumes day 1 but dies inside its commit.
        survivor = small_service(root)
        assert run_until_dead(survivor, 1, commit_kill="commit:staged")
        recover_and_compare(root, reference_tree)

    def test_chaos_recovery_is_itself_killable(self, tmp_path, reference_tree):
        root = tmp_path / "archive"
        assert run_until_dead(small_service(root), DAYS - 1, abort_after_vps=9)
        # The catch-up run is killed too...
        assert run_until_dead(small_service(root), DAYS - 1, abort_after_vps=13)
        # ...and the third attempt still lands on the exact bytes.
        report, outcomes = recover_and_compare(root, reference_tree)
        assert report.clean  # interrupts leave valid journals, not rot

    def test_uninterrupted_catch_up_matches_day_by_day_runs(
        self, tmp_path, reference_tree
    ):
        root = tmp_path / "archive"
        report, outcomes = small_service(root).catch_up(DAYS - 1)
        assert [o.status for o in outcomes] == ["committed"] * DAYS
        assert archive_tree(root) == reference_tree


#: One 5-day schedule per scenario, a fresh process per attempt: each
#: attempt ``catch_up``s through the last day and dies per the next plan
#: entry (``abort_after_vps`` mid-census, or a commit-protocol point).
KILL_PLANS = {
    "mid-census": [
        {"abort_after_vps": 3},
        {"abort_after_vps": 11},
        {"abort_after_vps": 7},
    ],
    "commit-protocol": [
        {"commit": "commit:staged"},
        {"commit": "commit:renamed"},
        {"commit": "commit:indexed"},
    ],
    "mixed": [
        {"abort_after_vps": 2},
        {"commit": "commit:renamed"},
        {"abort_after_vps": 15},
        {"commit": "commit:staged"},
    ],
}


@pytest.mark.parametrize("scenario", list(KILL_PLANS))
def test_kill_restart_schedule_is_byte_identical(tmp_path, reference_tree, scenario):
    """Restarted until the plan runs out, the schedule lands on the
    uninterrupted timeline's bytes with no journal left behind."""
    root = tmp_path / "archive"
    kills = list(KILL_PLANS[scenario])
    deaths = 0
    while True:
        service = small_service(root)
        plan = kills.pop(0) if kills else {}
        if "commit" in plan:

            def hook(point, at=plan["commit"]):
                if point == at:
                    raise Kill(point)

            service.archive.crash_hook = hook
        try:
            service.catch_up(DAYS - 1, abort_after_vps=plan.get("abort_after_vps"))
            break
        except (Kill, CensusInterrupted):
            deaths += 1
    assert archive_tree(root) == reference_tree, f"{scenario}: archive diverged"
    assert not list((root / "journal").iterdir())
    assert deaths >= 1

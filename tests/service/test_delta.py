"""Unit tests for RTT signatures and the incremental-vs-cold planner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.census.combine import RttMatrix
from repro.geo.coords import GeoPoint
from repro.service.delta import (
    REASON_BASELINE_UNREADABLE,
    REASON_CHURN,
    REASON_DELTA,
    REASON_DISABLED,
    REASON_NO_BASELINE,
    plan_delta,
    sign_rows,
    target_signatures,
    vp_context_digest,
)


def make_matrix(seed=0, vp_names=("vp-a", "vp-b", "vp-c"), shift=0.0):
    rng = np.random.default_rng(seed)
    rtt = rng.uniform(5.0, 200.0, size=(4, len(vp_names))).astype(np.float32)
    rtt[1, 0] = np.nan
    rtt += np.float32(shift)
    return RttMatrix(
        prefixes=np.array([10, 20, 30, 40], dtype=np.uint32),
        vp_names=list(vp_names),
        vp_locations=[GeoPoint(lat=10.0 * i, lon=20.0 * i) for i in range(len(vp_names))],
        rtt_ms=rtt,
        sample_count=np.ones_like(rtt, dtype=np.uint8),
    )


#: Cell values of the carry property: collisions, both zeros, NaN.
CELL_VALUES = np.array([1.0, 2.5, 0.0, -0.0, np.nan, np.nan], dtype=np.float32)
NAMES = ("vp-a", "vp-b", "vp-c", "vp-d", "vp-e")


def _location(name, moved):
    return GeoPoint(float(NAMES.index(name)), 1.0 if moved else 0.0)


def _matrix(prefixes, columns, rtt):
    return RttMatrix(
        prefixes=np.asarray(prefixes, dtype=np.uint32),
        vp_names=[name for name, _ in columns],
        vp_locations=[_location(name, moved) for name, moved in columns],
        rtt_ms=rtt,
        sample_count=np.ones(rtt.shape, dtype=np.uint8),
    )


def _day_pair(seed, p_cell, p_row, p_column):
    """Yesterday's matrix and excision counts, and today's derived from
    them: rows and VPs leave and join, VP columns reorder and move, cells
    and counts change."""
    rng = np.random.default_rng(seed)
    universe = np.arange(0, 40, 2)
    y_rows = np.sort(rng.choice(universe, size=int(rng.integers(0, 12)), replace=False))
    y_cols = [(str(n), False) for n in rng.permutation(NAMES)[: int(rng.integers(1, 6))]]
    y_rtt = rng.choice(CELL_VALUES, size=(len(y_rows), len(y_cols)))
    y_excised = rng.integers(0, 3, size=len(y_rows)) * (rng.random(len(y_rows)) < 0.3)

    keep = rng.random(len(y_rows)) >= p_row
    extra = rng.choice(universe, size=int(rng.integers(0, 3)), replace=False)
    t_rows = np.union1d(y_rows[keep], extra)
    t_cols = [
        (name, bool(rng.random() < p_column / 2))
        for name, _ in y_cols
        if rng.random() >= p_column
    ]
    joined = [n for n in NAMES if n not in {name for name, _ in y_cols}]
    t_cols += [(n, False) for n in joined if rng.random() < p_column]
    if not t_cols:
        t_cols = [y_cols[0]]
    t_cols = [t_cols[i] for i in rng.permutation(len(t_cols))]
    t_rtt = rng.choice(CELL_VALUES, size=(len(t_rows), len(t_cols)))
    t_excised = rng.integers(0, 3, size=len(t_rows)) * (rng.random(len(t_rows)) < 0.3)
    y_at = {int(p): i for i, p in enumerate(y_rows)}
    y_col = {col: j for j, col in enumerate(y_cols)}
    for i, prefix in enumerate(t_rows.tolist()):
        if prefix not in y_at:
            continue
        r = y_at[prefix]
        if rng.random() < 0.8:
            t_excised[i] = y_excised[r]
        for j, col in enumerate(t_cols):
            if col in y_col and rng.random() >= p_cell:
                t_rtt[i, j] = y_rtt[r, y_col[col]]
            elif col not in y_col and rng.random() < 0.5:
                t_rtt[i, j] = np.nan
    yesterday = (_matrix(y_rows, y_cols, y_rtt), y_excised)
    today = (_matrix(t_rows, t_cols, t_rtt), t_excised)
    return yesterday, today


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p_cell=st.sampled_from([0.0, 0.02, 0.2]),
    p_row=st.sampled_from([0.0, 0.2]),
    p_column=st.sampled_from([0.0, 0.1, 0.4]),
)
@example(seed=1, p_cell=0.0, p_row=0.0, p_column=0.0)
def test_carried_signatures_equal_cold_hashing(seed, p_cell, p_row, p_column):
    """``sign_rows`` over yesterday's signed matrix gives exactly the
    signatures (and order) of hashing today's matrix cold."""
    (y_matrix, y_excised), (t_matrix, t_excised) = _day_pair(
        seed, p_cell, p_row, p_column
    )
    previous = sign_rows(y_matrix, y_excised)
    signed = sign_rows(t_matrix, t_excised, previous=previous)
    cold = target_signatures(t_matrix, t_excised)
    assert list(signed.signatures.items()) == list(cold.items())
    assert signed.carried + signed.hashed == t_matrix.n_targets
    if p_cell == p_row == p_column == 0.0:
        # Nothing moved but new rows and changed excision counts.
        counts = dict(zip(y_matrix.prefixes.tolist(), y_excised.tolist()))
        moved = zip(t_matrix.prefixes.tolist(), t_excised.tolist())
        assert signed.hashed == sum(counts.get(p) != e for p, e in moved)
    # Carrying twice in a row is still exact.
    again = sign_rows(t_matrix, t_excised, previous=signed)
    assert again.signatures == cold
    assert again.hashed == 0


def test_excision_change_is_rehashed():
    matrix = make_matrix()
    before = sign_rows(matrix, np.array([0, 0, 0, 0]))
    after = sign_rows(matrix, np.array([0, 0, 2, 0]), previous=before)
    assert (after.carried, after.hashed) == (3, 1)
    assert after.signatures == target_signatures(matrix, np.array([0, 0, 2, 0]))


def test_unmoved_rows_are_carried_and_moved_rows_hashed():
    """A VP joining without measuring anything, a reordered roster and one
    changed cell: only that cell's row is hashed."""
    before = make_matrix()
    after = make_matrix(vp_names=("vp-c", "vp-a", "vp-b", "vp-new"))
    after.vp_locations = [before.vp_locations[2], *before.vp_locations[:2], GeoPoint(1, 1)]
    after.rtt_ms[:, :3] = before.rtt_ms[:, [2, 0, 1]]
    after.rtt_ms[:, 3] = np.nan
    after.rtt_ms[3, 1] += np.float32(1.0)
    signed = sign_rows(after, previous=sign_rows(before))
    assert (signed.carried, signed.hashed) == (3, 1)
    assert signed.signatures == target_signatures(after)


class TestSignatures:
    def test_deterministic(self):
        assert target_signatures(make_matrix()) == target_signatures(make_matrix())

    def test_one_cell_changes_only_that_row(self):
        base = target_signatures(make_matrix())
        matrix = make_matrix()
        matrix.rtt_ms[2, 1] += np.float32(0.25)
        after = target_signatures(matrix)
        assert after[30] != base[30]
        assert {p: s for p, s in after.items() if p != 30} == {
            p: s for p, s in base.items() if p != 30
        }

    def test_nan_pattern_is_part_of_the_signature(self):
        matrix = make_matrix()
        matrix.rtt_ms[1, 0] = np.float32(50.0)  # fill the hole
        assert target_signatures(matrix)[20] != target_signatures(make_matrix())[20]

    def test_roster_rename_changes_every_signature(self):
        base = target_signatures(make_matrix())
        renamed = target_signatures(make_matrix(vp_names=("vp-a", "vp-B", "vp-c")))
        assert all(renamed[p] != base[p] for p in base)

    def test_roster_move_changes_every_signature(self):
        matrix = make_matrix()
        matrix.vp_locations[1] = GeoPoint(lat=10.0, lon=20.5)
        moved = target_signatures(matrix)
        assert all(moved[p] != s for p, s in target_signatures(make_matrix()).items())

    def test_context_digest_feels_coordinates(self):
        names = ["a", "b"]
        here = [GeoPoint(0.0, 0.0), GeoPoint(1.0, 1.0)]
        there = [GeoPoint(0.0, 0.0), GeoPoint(1.0, 1.0000001)]
        assert vp_context_digest(names, here) != vp_context_digest(names, there)


class TestPlanDelta:
    CURRENT = {10: "aa", 20: "bb", 30: "cc", 40: "dd"}

    def test_disabled_goes_cold(self):
        plan = plan_delta(self.CURRENT, {10: "aa"}, enabled=False)
        assert (plan.mode, plan.reason) == ("cold", REASON_DISABLED)
        assert plan.recompute == sorted(self.CURRENT)

    def test_no_baseline_goes_cold(self):
        plan = plan_delta(self.CURRENT, None)
        assert (plan.mode, plan.reason) == ("cold", REASON_NO_BASELINE)
        assert plan.churn_fraction == 1.0

    def test_unreadable_baseline_goes_cold_with_reason(self):
        plan = plan_delta(
            self.CURRENT, None, baseline_epoch=3, baseline_problem="CRC mismatch"
        )
        assert plan.mode == "cold"
        assert plan.reason.startswith(REASON_BASELINE_UNREADABLE)
        assert "CRC mismatch" in plan.reason
        assert plan.baseline_epoch == 3

    def test_partition(self):
        baseline = {10: "aa", 20: "OLD", 50: "gone"}
        plan = plan_delta(self.CURRENT, baseline, baseline_epoch=1, churn_threshold=1.0)
        assert (plan.mode, plan.reason) == ("incremental", REASON_DELTA)
        assert plan.unchanged == [10]
        assert plan.changed == [20]
        assert plan.appeared == [30, 40]
        assert plan.disappeared == [50]
        assert plan.recompute == [20, 30, 40]
        assert plan.churn_fraction == pytest.approx(3 / 4)

    def test_churn_at_threshold_stays_incremental(self):
        baseline = {10: "aa", 20: "bb", 30: "cc", 40: "OLD"}
        plan = plan_delta(self.CURRENT, baseline, churn_threshold=0.25)
        assert plan.mode == "incremental"

    def test_churn_above_threshold_goes_cold_keeping_partition(self):
        baseline = {10: "aa", 20: "bb", 30: "OLD", 40: "OLD"}
        plan = plan_delta(self.CURRENT, baseline, churn_threshold=0.25)
        assert (plan.mode, plan.reason) == ("cold", REASON_CHURN)
        assert plan.churn_fraction == pytest.approx(0.5)
        assert plan.changed == [30, 40]  # analytics still see the true delta

    def test_empty_current_set(self):
        plan = plan_delta({}, {10: "aa"})
        assert plan.mode == "incremental"
        assert plan.churn_fraction == 0.0
        assert plan.disappeared == [10]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            plan_delta(self.CURRENT, None, churn_threshold=1.5)


class TestRosterFreeSignatures:
    """A VP joining or leaving only perturbs the targets it measured."""

    def test_all_nan_column_join_changes_nothing(self):
        base = target_signatures(make_matrix())
        joined = make_matrix(vp_names=("vp-a", "vp-b", "vp-c", "vp-new"))
        joined.rtt_ms[:, :3] = make_matrix().rtt_ms
        joined.rtt_ms[:, 3] = np.nan
        assert target_signatures(joined) == base

    def test_partial_coverage_join_only_touches_measured_rows(self):
        base = target_signatures(make_matrix())
        joined = make_matrix(vp_names=("vp-a", "vp-b", "vp-c", "vp-new"))
        joined.rtt_ms[:, :3] = make_matrix().rtt_ms
        joined.rtt_ms[:, 3] = np.nan
        joined.rtt_ms[2, 3] = np.float32(42.0)  # measures one target only
        after = target_signatures(joined)
        assert after[30] != base[30]
        assert {p: s for p, s in after.items() if p != 30} == {
            p: s for p, s in base.items() if p != 30
        }

    def test_leave_only_touches_measured_rows(self):
        """Dropping a VP that measured a strict subset of targets keeps
        every unmeasured target's signature."""
        matrix = make_matrix()
        matrix.rtt_ms[[0, 2, 3], 1] = np.nan  # vp-b only measured row 1
        base = target_signatures(matrix)
        left = make_matrix(vp_names=("vp-a", "vp-c"))
        left.vp_locations = [matrix.vp_locations[0], matrix.vp_locations[2]]
        left.rtt_ms = np.ascontiguousarray(matrix.rtt_ms[:, [0, 2]])
        after = target_signatures(left)
        assert after[20] != base[20]
        assert {p: s for p, s in after.items() if p != 20} == {
            p: s for p, s in base.items() if p != 20
        }

    def test_excised_counts_are_part_of_the_signature(self):
        matrix = make_matrix()
        none = target_signatures(matrix)
        zeros = target_signatures(matrix, excised=np.zeros(4, dtype=np.int64))
        assert zeros == none  # clean trust pass leaves signatures alone
        hit = target_signatures(matrix, excised=np.array([0, 0, 2, 0]))
        assert hit[30] != none[30]
        assert {p: s for p, s in hit.items() if p != 30} == {
            p: s for p, s in none.items() if p != 30
        }

    def test_context_digest_mismatch_reports_both_lengths(self):
        with pytest.raises(ValueError) as exc:
            vp_context_digest(["a", "b", "c"], [GeoPoint(0.0, 0.0)])
        assert "3" in str(exc.value) and "1" in str(exc.value)

    def test_column_digest_distinguishes_name_and_location(self):
        from repro.service.delta import vp_column_digest

        here = GeoPoint(10.0, 20.0)
        assert vp_column_digest("a", here) == vp_column_digest("a", here)
        assert vp_column_digest("a", here) != vp_column_digest("b", here)
        assert vp_column_digest("a", here) != vp_column_digest(
            "a", GeoPoint(10.0, 20.0001)
        )

    @given(
        joined_rows=st.sets(st.integers(min_value=0, max_value=3)),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_pure_vp_join_recomputes_only_measured_targets(
        self, joined_rows, seed
    ):
        """Property: under pure VP-join churn the delta plan recomputes
        exactly the targets the new VP measured — zero unchanged ones."""
        before = make_matrix(seed=seed)
        baseline = target_signatures(before)
        after = make_matrix(seed=seed, vp_names=("vp-a", "vp-b", "vp-c", "vp-new"))
        after.rtt_ms[:, :3] = before.rtt_ms
        after.rtt_ms[:, 3] = np.nan
        for row in joined_rows:
            after.rtt_ms[row, 3] = np.float32(33.0 + row)
        plan = plan_delta(
            target_signatures(after), baseline, baseline_epoch=1,
            churn_threshold=1.0,
        )
        assert plan.mode == "incremental"
        measured = sorted(int(before.prefixes[r]) for r in joined_rows)
        assert plan.recompute == measured
        assert plan.unchanged == [
            int(p) for p in before.prefixes if int(p) not in measured
        ]


class TestPlanDeltaHistory:
    CURRENT = {10: "aa", 20: "bb", 30: "cc", 40: "dd"}

    def test_changed_targets_recover_from_matching_history(self):
        baseline = {10: "aa", 20: "OLD", 30: "OLD", 40: "dd"}
        history = [(3, {20: "bb", 30: "x"}), (2, {30: "cc", 40: "y"})]
        plan = plan_delta(
            self.CURRENT, baseline, baseline_epoch=5,
            churn_threshold=1.0, history=history,
        )
        assert plan.mode == "incremental"
        assert plan.recovered == {20: 3, 30: 2}
        assert plan.recompute == []  # everything changed was recovered
        assert plan.changed == [20, 30]

    def test_newest_history_epoch_wins(self):
        baseline = {10: "aa", 20: "OLD", 30: "cc", 40: "dd"}
        history = [(1, {20: "bb"}), (4, {20: "bb"})]
        plan = plan_delta(
            self.CURRENT, baseline, baseline_epoch=5,
            churn_threshold=1.0, history=history,
        )
        assert plan.recovered == {20: 4}

    def test_recovery_discounts_churn(self):
        """Recovered targets do not count toward the cold-fallback churn."""
        baseline = {10: "aa", 20: "OLD", 30: "OLD", 40: "dd"}
        history = [(3, {20: "bb", 30: "cc"})]
        cold = plan_delta(self.CURRENT, baseline, churn_threshold=0.25)
        assert (cold.mode, cold.reason) == ("cold", REASON_CHURN)
        warm = plan_delta(
            self.CURRENT, baseline, churn_threshold=0.25, history=history
        )
        assert warm.mode == "incremental"
        assert warm.churn_fraction == pytest.approx(0.0)

    def test_cold_plan_clears_recovered(self):
        baseline = {10: "OLD", 20: "OLD", 30: "OLD", 40: "dd"}
        history = [(3, {10: "aa"})]
        plan = plan_delta(
            self.CURRENT, baseline, churn_threshold=0.25, history=history
        )
        assert plan.mode == "cold"
        assert plan.recovered == {}
        # The true partition survives for analytics; the recompute list
        # reverts to the full changed set (recovery is forfeited).
        assert plan.recompute == [10, 20, 30]

"""Unit tests for deterministic work partitioning: one unit per VP."""

from repro.exec.plan import WorkUnit, build_plan

VPS = [
    ("node-a", 3, 0, False),
    ("node-b", 7, 1, True),
    ("node-c", 1, 2, False),
]


class TestBuildPlan:
    def test_unsharded_plan_is_one_unit_per_vp(self):
        units = build_plan(VPS)
        assert len(units) == 3
        assert all(isinstance(u, WorkUnit) for u in units)
        assert [u.vp_name for u in units] == ["node-a", "node-b", "node-c"]

    def test_unit_ids_are_canonical_positions(self):
        assert [u.unit_id for u in build_plan(VPS)] == [0, 1, 2]

    def test_units_carry_vp_identity(self):
        unit = build_plan(VPS)[1]
        assert unit.platform_index == 7
        assert unit.census_vp_index == 1
        assert unit.degraded is True

    def test_same_input_same_plan(self):
        assert build_plan(VPS) == build_plan(VPS)

    def test_vp_names_preserve_census_order(self):
        shuffled = [VPS[2], VPS[0], VPS[1]]
        assert [u.vp_name for u in build_plan(shuffled)] == [
            "node-c", "node-a", "node-b",
        ]

    def test_empty_census_is_an_empty_plan(self):
        assert build_plan([]) == ()

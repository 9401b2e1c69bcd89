"""Tests for BGP-hijack injection and inference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.census.analysis import analyze_matrix
from repro.census.combine import matrix_from_census
from repro.census.hijack import (
    RoutingVerdict,
    classify_routing_changes,
    inject_hijack,
)
from repro.geo.coords import GeoPoint

MOSCOW = GeoPoint(55.76, 37.62)


@pytest.fixture(scope="module")
def matrix(tiny_census):
    return matrix_from_census(tiny_census)


@pytest.fixture(scope="module")
def baseline(matrix, city_db):
    return analyze_matrix(matrix, city_db=city_db)


def pick_unicast_victim(tiny_internet, tiny_platform, baseline):
    """A unicast prefix that replied and was (correctly) not flagged.

    The victim must be well-monitored (some vantage point nearby) so that
    its legitimate origin yields a tight disk: hijacks of prefixes with no
    nearby VP are invisible to the technique, exactly as in the paper.
    """
    detected = set(baseline.anycast_prefixes)
    replying = set(int(p) for p in baseline.prefixes)
    for host in tiny_internet.unicast_hosts:
        if host.prefix not in replying or host.prefix in detected:
            continue
        # Far from the attacker, close to at least one vantage point.
        if host.location.distance_km(MOSCOW) < 4000:
            continue
        nearest_vp = min(
            vp.location.distance_km(host.location) for vp in tiny_platform
        )
        if nearest_vp < 800:
            return host
    raise RuntimeError("no suitable victim found")


class TestInjection:
    def test_injection_only_touches_victim_row(self, matrix, tiny_internet, tiny_platform, baseline):
        victim = pick_unicast_victim(tiny_internet, tiny_platform, baseline)
        hijacked = inject_hijack(matrix, victim.prefix, MOSCOW, seed=3)
        row = matrix.row_of(victim.prefix)
        mask = np.ones(matrix.n_targets, dtype=bool)
        mask[row] = False
        a, b = matrix.rtt_ms[mask], hijacked.rtt_ms[mask]
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.allclose(a[~np.isnan(a)], b[~np.isnan(b)])
        assert not np.allclose(
            np.nan_to_num(matrix.rtt_ms[row]), np.nan_to_num(hijacked.rtt_ms[row])
        )

    def test_captured_fraction_bounds(self, matrix, tiny_internet, tiny_platform, baseline):
        victim = pick_unicast_victim(tiny_internet, tiny_platform, baseline)
        with pytest.raises(ValueError):
            inject_hijack(matrix, victim.prefix, MOSCOW, captured_fraction=0.0)
        with pytest.raises(ValueError):
            inject_hijack(matrix, victim.prefix, MOSCOW, captured_fraction=1.5)

    def test_unknown_victim_rejected(self, matrix):
        with pytest.raises(KeyError):
            inject_hijack(matrix, 123456789 % (1 << 24), MOSCOW)


class TestDetection:
    def test_hijack_raises_alarm(self, matrix, tiny_internet, tiny_platform, baseline, city_db):
        victim = pick_unicast_victim(tiny_internet, tiny_platform, baseline)
        hijacked = inject_hijack(matrix, victim.prefix, MOSCOW, seed=3)
        current = analyze_matrix(hijacked, city_db=city_db)
        alarms = [a for a in classify_routing_changes(baseline, current) if a.is_alarm]
        assert victim.prefix in {a.prefix for a in alarms}
        alarm = next(a for a in alarms if a.prefix == victim.prefix)
        assert alarm.verdict is RoutingVerdict.HIJACK
        assert alarm.replica_count >= 2
        # One observed origin should be near the attacker.
        cities = current.results[victim.prefix].cities
        assert sorted(f"{c.name},{c.country}" for c in cities) == alarm.observed_cities
        nearest = min(cities, key=lambda c: c.location.distance_km(MOSCOW))
        assert nearest.location.distance_km(MOSCOW) < 1500

    def test_no_alarms_without_change(self, baseline):
        assert classify_routing_changes(baseline, baseline) == []

    def test_whitelist_suppresses(self, matrix, tiny_internet, tiny_platform, baseline, city_db):
        victim = pick_unicast_victim(tiny_internet, tiny_platform, baseline)
        hijacked = inject_hijack(matrix, victim.prefix, MOSCOW, seed=3)
        current = analyze_matrix(hijacked, city_db=city_db)
        verdicts = classify_routing_changes(
            baseline, current, known_anycast={victim.prefix}
        )
        hit = [v for v in verdicts if v.prefix == victim.prefix]
        assert [v.verdict for v in hit] == [RoutingVerdict.GROWTH]
        assert not hit[0].is_alarm


class TestEdgeCases:
    """Satellite edges: capture extremes and a co-located attacker."""

    @given(
        fraction=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=20, deadline=None)
    def test_injection_invariants(
        self, matrix, tiny_internet, tiny_platform, baseline, fraction, seed
    ):
        """Any capture fraction: only the victim row moves, at least one
        cell is rewritten, and the injection is deterministic."""
        victim = pick_unicast_victim(tiny_internet, tiny_platform, baseline)
        hijacked = inject_hijack(
            matrix, victim.prefix, MOSCOW,
            captured_fraction=fraction, seed=seed,
        )
        row = matrix.row_of(victim.prefix)
        mask = np.ones(matrix.n_targets, dtype=bool)
        mask[row] = False
        assert np.array_equal(
            matrix.rtt_ms[mask], hijacked.rtt_ms[mask], equal_nan=True
        )
        changed = ~np.isclose(
            matrix.rtt_ms[row], hijacked.rtt_ms[row], equal_nan=True
        )
        # Even a vanishing fraction captures at least one vantage point.
        assert 1 <= int(changed.sum()) <= matrix.n_vps
        assert np.isfinite(hijacked.rtt_ms[row, changed]).all()
        again = inject_hijack(
            matrix, victim.prefix, MOSCOW,
            captured_fraction=fraction, seed=seed,
        )
        assert np.array_equal(
            hijacked.rtt_ms, again.rtt_ms, equal_nan=True
        )

    def test_full_capture_floor_and_relocation_signature(
        self, matrix, tiny_internet, tiny_platform, baseline, city_db
    ):
        """All VPs captured: the row is coherently unicast-at-the-attacker,
        so the anycast-flip detector stays silent (documented floor) while
        the matrix-level classifier catches the re-homing."""
        victim = pick_unicast_victim(tiny_internet, tiny_platform, baseline)
        hijacked = inject_hijack(
            matrix, victim.prefix, MOSCOW, captured_fraction=1.0, seed=3
        )
        current = analyze_matrix(hijacked, city_db=city_db)
        assert victim.prefix not in {
            a.prefix for a in classify_routing_changes(baseline, current)
        }
        verdicts = classify_routing_changes(
            baseline, current,
            baseline_matrix=matrix, current_matrix=hijacked,
        )
        hit = [v for v in verdicts if v.prefix == victim.prefix]
        assert [v.verdict for v in hit] == [RoutingVerdict.HIJACK]
        assert "re-homed" in hit[0].detail
        assert all(v.prefix == victim.prefix for v in verdicts if v.is_alarm)

    def test_co_located_attacker_is_silent(
        self, matrix, tiny_internet, tiny_platform, baseline, city_db
    ):
        """An attacker in the victim's own city moves no geography: no
        alarm from either detector, at any capture fraction."""
        victim = pick_unicast_victim(tiny_internet, tiny_platform, baseline)
        hijacked = inject_hijack(
            matrix, victim.prefix, victim.location,
            captured_fraction=0.5, seed=3,
        )
        current = analyze_matrix(hijacked, city_db=city_db)
        assert victim.prefix not in {
            a.prefix for a in classify_routing_changes(baseline, current)
        }
        verdicts = classify_routing_changes(
            baseline, current,
            baseline_matrix=matrix, current_matrix=hijacked,
        )
        assert [v for v in verdicts if v.is_alarm] == []

"""Routing-chaos injection: inertness, determinism, per-kind semantics,
and the capture edge cases (zero capture, full capture, co-located
attacker)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bgp import (
    RouteEvent,
    RouteEventInjector,
    RouteEventKind,
    RouteEventPlan,
)
from repro.internet.topology import SyntheticInternet

UNICAST_VICTIM = 1572864  # a unicast /24 homed near Kinshasa
ANYCAST_VICTIM = 65536    # a wide catalog deployment (45 sites)
# No vantage point of the 16-VP roster prefers an origin homed here.
NOWHERE_CITY = "Ulaanbaatar"


def plan_for(kind, seed=1, **kw):
    return RouteEventPlan.single(
        RouteEvent(kind=kind, epoch=1, **kw), seed=seed
    )


def rows_equal(a, b):
    return (
        list(a.prefixes) == list(b.prefixes)
        and np.array_equal(a.rtt_ms, b.rtt_ms, equal_nan=True)
    )


def test_empty_plan_is_inert(bgp_internet, bgp_matrix, clone_matrix):
    plan = RouteEventPlan()
    assert not plan.enabled
    m = clone_matrix(bgp_matrix)
    out, records = RouteEventInjector(plan, bgp_internet).perturb(m, epoch=1)
    assert out is m
    assert records == []


def test_inactive_epoch_is_inert(bgp_internet, bgp_matrix, clone_matrix):
    plan = plan_for(RouteEventKind.MOAS_HIJACK, victim_prefix=UNICAST_VICTIM)
    m = clone_matrix(bgp_matrix)
    out, records = RouteEventInjector(plan, bgp_internet).perturb(m, epoch=5)
    assert out is m
    assert records == []
    assert rows_equal(out, bgp_matrix)


def test_injection_is_deterministic(bgp_internet, bgp_matrix, clone_matrix):
    plan = plan_for(RouteEventKind.MOAS_HIJACK, victim_prefix=UNICAST_VICTIM)
    outs = []
    for _ in range(2):
        inj = RouteEventInjector(plan, bgp_internet)
        out, records = inj.perturb(clone_matrix(bgp_matrix), epoch=1)
        outs.append((out, records))
    assert rows_equal(outs[0][0], outs[1][0])
    assert outs[0][1] == outs[1][1]


def test_moas_touches_only_the_victim_row(bgp_internet, bgp_matrix, clone_matrix):
    plan = plan_for(RouteEventKind.MOAS_HIJACK, victim_prefix=UNICAST_VICTIM)
    out, records = RouteEventInjector(plan, bgp_internet).perturb(
        clone_matrix(bgp_matrix), epoch=1
    )
    rec = records[0]
    assert rec["applied"]
    assert rec["prefix"] == UNICAST_VICTIM
    assert 0 < rec["captured_vps"] <= bgp_matrix.n_vps
    row = bgp_matrix.row_of(UNICAST_VICTIM)
    same = np.isclose(out.rtt_ms, bgp_matrix.rtt_ms, equal_nan=True)
    assert same[np.arange(len(same)) != row].all()
    assert not same[row].all()


def test_zero_capture_attacker_applies_nothing(
    bgp_internet, bgp_matrix, clone_matrix
):
    plan = plan_for(
        RouteEventKind.MOAS_HIJACK,
        victim_prefix=UNICAST_VICTIM,
        attacker_city=NOWHERE_CITY,
    )
    out, records = RouteEventInjector(plan, bgp_internet).perturb(
        clone_matrix(bgp_matrix), epoch=1
    )
    rec = records[0]
    assert rec["applied"] is False
    assert rec["captured_vps"] == 0
    assert "captured no vantage points" in rec["reason"]
    assert rows_equal(out, bgp_matrix)


def test_subprefix_captures_every_vantage_point(
    bgp_internet, bgp_matrix, clone_matrix
):
    """A more-specific route wins everywhere it propagates — full roster."""
    plan = plan_for(
        RouteEventKind.SUBPREFIX_HIJACK,
        victim_prefix=ANYCAST_VICTIM,
        attacker_city=NOWHERE_CITY,
    )
    out, records = RouteEventInjector(plan, bgp_internet).perturb(
        clone_matrix(bgp_matrix), epoch=1
    )
    rec = records[0]
    assert rec["applied"]
    assert rec["vp_fraction"] == 1.0
    assert rec["captured_vps"] == bgp_matrix.n_vps
    row = bgp_matrix.row_of(ANYCAST_VICTIM)
    assert not np.isclose(
        out.rtt_ms[row], bgp_matrix.rtt_ms[row], equal_nan=True
    ).all()


def test_explicit_attacker_city_is_honored(
    bgp_internet, bgp_matrix, clone_matrix
):
    """A co-located attacker is accepted verbatim, not re-drawn."""
    plan = plan_for(
        RouteEventKind.MOAS_HIJACK,
        victim_prefix=UNICAST_VICTIM,
        attacker_city="Kinshasa",
    )
    _, records = RouteEventInjector(plan, bgp_internet).perturb(
        clone_matrix(bgp_matrix), epoch=1
    )
    assert records[0]["attacker_city"] == "Kinshasa"
    assert records[0]["applied"]


def test_flap_blanks_a_subset(bgp_internet, bgp_matrix, clone_matrix):
    plan = plan_for(
        RouteEventKind.FLAP, victim_prefix=UNICAST_VICTIM, flap_loss=0.5
    )
    out, records = RouteEventInjector(plan, bgp_internet).perturb(
        clone_matrix(bgp_matrix), epoch=1
    )
    rec = records[0]
    assert rec["applied"]
    row = out.row_of(UNICAST_VICTIM)
    lost = np.isnan(out.rtt_ms[row]) & ~np.isnan(
        bgp_matrix.rtt_ms[bgp_matrix.row_of(UNICAST_VICTIM)]
    )
    assert int(lost.sum()) == rec["lost_vps"] > 0
    assert (out.sample_count[row, lost] == 0).all()


def test_withdrawal_removes_the_row(bgp_internet, bgp_matrix, clone_matrix):
    plan = plan_for(RouteEventKind.WITHDRAWAL, victim_prefix=UNICAST_VICTIM)
    out, records = RouteEventInjector(plan, bgp_internet).perturb(
        clone_matrix(bgp_matrix), epoch=1
    )
    assert records[0]["applied"]
    assert UNICAST_VICTIM not in set(int(p) for p in out.prefixes)
    assert out.rtt_ms.shape[0] == bgp_matrix.rtt_ms.shape[0] - 1


def test_engineering_refuses_unicast_victims(
    bgp_internet, bgp_matrix, clone_matrix
):
    plan = plan_for(
        RouteEventKind.PREPEND, victim_prefix=UNICAST_VICTIM, prepend=4
    )
    out, records = RouteEventInjector(plan, bgp_internet).perturb(
        clone_matrix(bgp_matrix), epoch=1
    )
    rec = records[0]
    assert rec["applied"] is False
    assert "unicast" in rec["reason"]
    assert rows_equal(out, bgp_matrix)


def test_keyed_victim_and_attacker_draws(bgp_internet, bgp_matrix, clone_matrix):
    """Unpinned events resolve victims/attackers from the plan seed."""
    recs = {}
    for seed in (1, 3):
        plan = RouteEventPlan.single(
            RouteEvent(kind=RouteEventKind.MOAS_HIJACK, epoch=1), seed=seed
        )
        _, records = RouteEventInjector(plan, bgp_internet).perturb(
            clone_matrix(bgp_matrix), epoch=1
        )
        recs[seed] = records[0]
    assert recs[1]["applied"] and recs[3]["applied"]
    assert (
        recs[1]["prefix"],
        recs[1]["attacker_city"],
    ) != (
        recs[3]["prefix"],
        recs[3]["attacker_city"],
    )


def test_duration_covers_multiple_epochs(bgp_internet, bgp_matrix, clone_matrix):
    plan = RouteEventPlan.single(
        RouteEvent(
            kind=RouteEventKind.MOAS_HIJACK,
            epoch=1,
            duration=2,
            victim_prefix=UNICAST_VICTIM,
        ),
        seed=1,
    )
    inj = RouteEventInjector(plan, bgp_internet)
    for epoch, active in ((0, False), (1, True), (2, True), (3, False)):
        m = clone_matrix(bgp_matrix)
        out, records = inj.perturb(m, epoch=epoch)
        assert bool(records) is active


def test_unicast_victims_come_from_the_world_columns(bgp_internet, bgp_matrix, clone_matrix):
    """Keyed and pinned hijacks and leaks of unicast victims read the
    per-target columns: a fresh world builds no host objects for them,
    and each victim sits where its host does."""
    fresh = SyntheticInternet(bgp_internet.config, city_db=bgp_internet.city_db)
    for kind, victim in (
        (RouteEventKind.MOAS_HIJACK, None),
        (RouteEventKind.MOAS_HIJACK, UNICAST_VICTIM),
        (RouteEventKind.ROUTE_LEAK, UNICAST_VICTIM),
    ):
        plan = plan_for(kind, victim_prefix=victim)
        mine = RouteEventInjector(plan, fresh).perturb(clone_matrix(bgp_matrix), epoch=1)
        theirs = RouteEventInjector(plan, bgp_internet).perturb(
            clone_matrix(bgp_matrix), epoch=1
        )
        assert rows_equal(mine[0], theirs[0])
        assert mine[1] == theirs[1]
    assert "hosts" not in vars(fresh._unicast)

    injector = RouteEventInjector(RouteEventPlan(), fresh)
    for host in bgp_internet.unicast_hosts:
        assert injector._unicast_location_for(host.prefix) == host.location
    assert injector._unicast_location_for(1) is None

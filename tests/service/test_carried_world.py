"""The carried world: ``CensusService.internet_for`` derives each epoch's
world from the last one it built (``SyntheticInternet.evolved``) instead
of rebuilding it.  A cold build of the same epoch is the oracle — field
by field, deployment by deployment, catchment by catchment — and the
archive a one-process timeline commits must be byte-identical to the one
fresh services commit, interrupted or not.

The carried scan geometry: each epoch's campaign takes catchment rows
and keyed scan outcomes from the previous epoch's
(``CensusCampaign(previous=)``) and the signatures of unmoved rows from
the previous signed matrix (``sign_rows(previous=)``).  A fresh campaign
and cold ``target_signatures`` are the oracles, day by day, under roster
churn: scan bytes and per-VP record slices, drop rates, durations and
health reports.

The archive carries the results documents it read or wrote since its
last commit: every document the service uses must equal ``json.loads``
of its bytes on disk, stay unchanged by later days, and never hide a
rotten baseline.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.service.service as service_module
from repro.census.longitudinal import EvolutionConfig
from repro.internet.topology import RESP_ADMIN_FILTERED, RESP_REPLY
from repro.measurement.campaign import CensusCampaign, CensusInterrupted
from repro.measurement.lfsr import lfsr_permutation
from repro.measurement.platform import VantagePoint, vp_column_digest
from repro.measurement.prober import SAFE_RATE_PPS, ScanTargets
from repro.net.icmp import IcmpOutcome
from repro.obs import Tracer, activate
from repro.service import CensusService
from repro.service.archive import RESULTS_FILE, canonical_json_bytes
from repro.service.delta import (
    REASON_BASELINE_UNREADABLE,
    sign_rows,
    target_signatures,
)
from repro.workflow import small_service

from .conftest import archive_tree, same_json

#: Days of the one-process timelines below: enough for the baseline plus
#: a full ``baseline_depth = 3`` history, and one day beyond it.
DAYS = 6

#: Brisker drift than ``small_service``'s, so a few epochs grow, shrink
#: and add deployments on every example.
CHURNY = EvolutionConfig(growth_prob=0.3, max_new_sites=3, shrink_prob=0.15, new_adopters=2)

ARRAYS = ("prefixes", "is_anycast", "deployment_index", "lats", "lons", "responsiveness")


def assert_same_world(carried, cold, roster) -> None:
    for name in ARRAYS:
        got, want = getattr(carried, name), getattr(cold, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert np.array_equal(carried.target_indices(cold.prefixes), np.arange(cold.n_targets))
    assert carried.unicast_hosts == cold.unicast_hosts
    assert carried.deployments == cold.deployments
    assert vars(carried.registry) == vars(cold.registry)
    if cold.bgp_plane is None:
        return
    lats, lons = roster.lats, roster.lons
    for mine, theirs in zip(carried.deployments, cold.deployments):
        assert np.array_equal(
            carried.bgp_plane.catchment(mine, lats, lons),
            cold.bgp_plane.catchment(theirs, lats, lons),
        ), mine.entry.name


@pytest.mark.parametrize("routing", ["geo", "bgp"])
@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    evolution_seed=st.integers(0, 10_000),
    order=st.lists(st.integers(0, 6), min_size=1, max_size=5),
)
@example(seed=2015, evolution_seed=7, order=[3, 1, 5, 5])
def test_carried_world_equals_cold_build(
    tmp_path_factory, routing, seed, evolution_seed, order
):
    root = tmp_path_factory.mktemp("carried") / "archive"
    config = replace(
        small_service(
            root,
            seed=seed,
            routing=routing,
            roster_churn_prob=0.2,
            evolution_seed=evolution_seed,
        ).config,
        evolution=CHURNY,
    )
    service = CensusService(config)
    for epoch in order:
        # Derived from the last committed day's world (cold before any).
        carried = service.internet_for(epoch)
        cold = CensusService(config, city_db=service.city_db).internet_for(epoch)
        assert_same_world(carried, cold, service.platform_for(epoch))
        if carried.bgp_plane is not None:
            # The shared plane holds one world's routes, not every day's.
            assert len(carried.bgp_plane._routes_cache) <= len(carried.deployments)
        service.run_epoch(epoch)
        assert service.internet_for(epoch) is service._carry.world


def test_world_span_reports_the_path_taken(tmp_path):
    service = small_service(tmp_path / "archive", routing="bgp")
    spans = []
    for epoch in range(2):
        tracer = Tracer()
        with activate(tracer=tracer):
            service.run_epoch(epoch)
        root, commit = tracer.to_dicts()
        assert (root["name"], commit["name"]) == ("service_epoch", "commit")
        spans.append(next(c for c in root["children"] if c["name"] == "world"))
    cold, carried = (span["attrs"] for span in spans)
    day0, day1 = service.internet_for(0), service.internet_for(1)
    n_vps = len(service.platform_for(1))
    # The pre-census scans once more, from the first VP.
    scans = n_vps + 1
    assert cold == {
        "carried": False,
        "deployments_rebuilt": len(day0.deployments),
        "routes_propagated": len(day0.deployments),
        "catchments_carried": 0,
        "outcomes_carried": 0,
        "positions_scanned": scans * day0.n_targets,
    }
    kept = {id(dep) for dep in day0.deployments}
    rebuilt = [dep for dep in day1.deployments if id(dep) not in kept]
    assert carried == {
        "carried": True,
        "deployments_rebuilt": len(rebuilt),
        "routes_propagated": len(rebuilt),
        "catchments_carried": len(day1.deployments) - len(rebuilt),
        "outcomes_carried": scans,
        # Only the rebuilt deployments' /24s are scanned afresh.
        "positions_scanned": scans * sum(len(dep.prefixes) for dep in rebuilt),
    }
    assert len(rebuilt) < len(day1.deployments)


def test_signatures_span_reports_carried_and_hashed_rows(tmp_path):
    """Day 0 hashes every row; a quiet day hashes only the rows whose
    cells moved, and together they cover the matrix."""
    service = small_service(tmp_path / "archive")
    for epoch in range(3):
        tracer = Tracer()
        with activate(tracer=tracer):
            outcome = service.run_epoch(epoch)
        root, _ = tracer.to_dicts()
        attrs = next(c for c in root["children"] if c["name"] == "signatures")["attrs"]
        assert attrs["carried"] + attrs["hashed"] == outcome.n_targets
        if epoch == 0:
            assert attrs == {"carried": 0, "hashed": outcome.n_targets}
        else:
            assert 0 < attrs["hashed"] < outcome.n_targets
            # Every recomputed target moved, so none was carried.
            assert attrs["hashed"] >= outcome.n_recomputed


def test_baseline_and_commit_spans_report_the_carried_work(tmp_path):
    """One process parses no results document after it committed its
    first one, and each commit encodes only the recomputed targets and
    reads only its own manifest."""
    service = small_service(tmp_path / "archive")
    depth = service.config.baseline_depth
    for epoch in range(DAYS):
        tracer = Tracer()
        with activate(tracer=tracer):
            outcome = service.run_epoch(epoch)
        root, commit = tracer.to_dicts()
        children = {c["name"]: c for c in root["children"]}
        assert {"signatures", "baseline", "plan"} <= set(children)
        assert ("churn" in children) == (epoch > 0)
        assert children["baseline"]["attrs"] == {
            "carried": min(epoch, depth + 1),
            "parsed": 0,
        }
        assert outcome.n_recovered == 0
        assert commit["attrs"] == {
            "fragments_reused": outcome.n_targets - outcome.n_recomputed,
            "fragments_encoded": outcome.n_recomputed,
            "index_entries_read": 1,
        }
        if epoch > 0:
            assert outcome.n_recomputed < outcome.n_targets


# ----------------------------------------------------------------------
# Carried scan geometry == cold, day by day
# ----------------------------------------------------------------------


def fresh_campaign(service, epoch):
    cfg = service.config
    return CensusCampaign(
        service.internet_for(epoch),
        service.platform_for(epoch),
        seed=cfg.campaign_seed,
        degraded_fraction=cfg.degraded_fraction,
        noise=cfg.noise,
    )


def same_outcomes(got, want) -> bool:
    return (
        got.conditions == want.conditions
        and got.code.tobytes() == want.code.tobytes()
        and got.rtt_ms.tobytes() == want.rtt_ms.tobytes()
    )


@pytest.mark.parametrize(
    "routing,noise",
    [("geo", "keyed"), ("bgp", "keyed"), ("geo", "stream")],
)
def test_carried_geometry_equals_cold_under_roster_churn(
    tmp_path, monkeypatch, routing, noise
):
    """A one-process timeline whose roster loses and regains VPs: every
    day's catchment table, kept scan outcomes and signatures equal a fresh
    campaign's and cold hashing's, and the archive equals fresh per-day
    services'.  Stream noise is positional, so it carries no outcome."""
    # VPs 10, 13 and 17 sit day 1 out, 7 and 10 day 4; days 2-3 keep
    # the same roster.
    knobs = dict(
        routing=routing,
        noise=noise,
        roster_churn_prob=0.05,
        roster_seed=11,
        trust=True,
    )
    signed_days = []

    def checked_sign_rows(matrix, excised=None, previous=None):
        signed = sign_rows(matrix, excised, previous=previous)
        cold = target_signatures(matrix, excised)
        assert list(signed.signatures.items()) == list(cold.items())
        signed_days.append(signed.carried)
        return signed

    monkeypatch.setattr(service_module, "sign_rows", checked_sign_rows)
    service = small_service(tmp_path / "carried", **knobs)
    rosters, carried_scans = [], []
    for epoch in range(DAYS):
        tracer = Tracer()
        with activate(tracer=tracer):
            service.run_epoch(epoch)
        world = next(
            c for c in tracer.to_dicts()[0]["children"] if c["name"] == "world"
        )["attrs"]
        carried_scans.append(world["outcomes_carried"])
        campaign, fresh = service._carry.campaign, fresh_campaign(service, epoch)
        assert np.array_equal(campaign._catchment, fresh._catchment), epoch
        fresh.run_precensus()
        fresh.run_census(availability=service.config.availability)
        assert campaign._outcomes.keys() == fresh._outcomes.keys()
        for key, outcomes in campaign._outcomes.items():
            assert same_outcomes(outcomes, fresh._outcomes[key]), (epoch, key)
        rosters.append([vp.name for vp in service.platform_for(epoch).vantage_points])
    for epoch in range(DAYS):
        small_service(tmp_path / "fresh", **knobs).run_epoch(epoch)
    assert archive_tree(tmp_path / "carried") == archive_tree(tmp_path / "fresh")

    # The roster moved: some VP sat a day out and came back.
    assert any(
        name in rosters[k - 1] and name not in rosters[k] and name in rosters[k + 1]
        for k in range(1, DAYS - 1)
        for name in rosters[k + 1]
    )
    carried_signatures = signed_days[:DAYS]
    assert carried_signatures[0] == 0
    if noise == "stream":
        assert carried_scans == [0] * DAYS
        return
    assert carried_scans[0] == 0 and all(n > 0 for n in carried_scans[1:])
    quiet = [k for k in range(1, DAYS) if rosters[k] == rosters[k - 1]]
    assert quiet and all(carried_signatures[k] > 0 for k in quiet)
    # A quiet day carries every scan: the census's and the pre-census's.
    assert all(carried_scans[k] == len(rosters[k]) + 1 for k in quiet)


def test_base_rows_are_keyed_on_vp_identity(tmp_path):
    """A VP that keeps its name but moves is measured from where it is
    now: its scan is not taken from the campaign that knew it elsewhere."""
    service = small_service(tmp_path / "archive")
    internet, platform = service.internet_for(0), service.platform_for(0)
    before = CensusCampaign(internet, platform, seed=500, noise="keyed")
    before.run_census(availability=1.0)
    first = platform.vantage_points[0]
    elsewhere = platform.vantage_points[-1].location
    moved = VantagePoint(first.name, first.city, elsewhere, first.host_load)
    roster = replace(platform, vantage_points=[moved, *platform.vantage_points[1:]])
    after = CensusCampaign(internet, roster, seed=500, noise="keyed", previous=before)
    cold = CensusCampaign(internet, roster, seed=500, noise="keyed")
    targets = ScanTargets.build(internet, lfsr_permutation(internet.n_targets, seed=1))
    scans = {}
    for name, campaign in (("after", after), ("cold", cold), ("before", before)):
        # A keyed scan reads the outcomes its census planned for it.
        campaign._prepare_outcomes(1, SAFE_RATE_PPS, [(0, False), (1, False)])
        scans[name] = [campaign.scan_vp(i, 1, targets) for i in (0, 1)]
    for got, want in zip(scans["after"], scans["cold"]):
        assert same_outcomes(got.outcomes, want.outcomes)
        assert got.records.checksum() == want.records.checksum()
    assert not same_outcomes(scans["after"][0].outcomes, scans["before"][0].outcomes)
    # The moved VP was scanned whole; the stayer's scan was carried and
    # taken out of the predecessor's store.
    assert [scan.outcomes.carried for scan in scans["after"]] == [False, True]
    assert scans["after"][0].outcomes.scanned == internet.n_targets
    assert scans["after"][1].outcomes.scanned == 0
    stayer = platform.vantage_points[1]
    assert (1, vp_column_digest(stayer.name, stayer.location)) not in before._outcomes
    assert (1, vp_column_digest(first.name, first.location)) in before._outcomes


# ----------------------------------------------------------------------
# Carried scans == cold scans, per VP, on every day of a keyed timeline
# ----------------------------------------------------------------------


def with_class_flipped(internet, position, code):
    """The same world, but the target at ``position`` answers as ``code``."""
    flipped = copy.copy(internet)
    responsiveness = internet.responsiveness.copy()
    responsiveness[position] = code
    responsiveness.setflags(write=False)
    flipped.responsiveness = responsiveness
    return flipped


def assert_same_scans(carried, cold) -> None:
    """Census bytes, per-VP record slices, durations, drop rates and the
    health report (all but the scan driver's wall-clock dump)."""
    assert [vp.name for vp in carried.platform.vantage_points] == [
        vp.name for vp in cold.platform.vantage_points
    ]
    for column in ("vp_index", "prefix", "timestamp_ms", "rtt_ms", "flag"):
        got, want = getattr(carried.records, column), getattr(cold.records, column)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), column
    assert carried.vp_drop_rate.tobytes() == cold.vp_drop_rate.tobytes()
    assert carried.vp_duration_hours.tobytes() == cold.vp_duration_hours.tobytes()
    assert list(carried.greylist.prefixes) == list(cold.greylist.prefixes)
    for position, vp in enumerate(cold.platform.vantage_points):
        got = carried.records.select(carried.records.vp_index == position)
        want = cold.records.select(cold.records.vp_index == position)
        assert got.checksum() == want.checksum(), vp.name
    got, want = (
        {key: value for key, value in vars(census.health).items() if key != "execution"}
        for census in (carried, cold)
    )
    assert got == want


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("routing", ["geo", "bgp"])
def test_carried_scans_equal_cold_scans(tmp_path, routing, workers):
    """Each day's campaign, built on yesterday's, scans exactly what a
    fresh campaign scans, through roster churn, degraded VPs, a probe
    mask that grows for one day, a target whose class flips, a probing
    rate that changes for one day, and a day interrupted and re-run on
    the interrupted campaign."""
    service = small_service(
        tmp_path / "archive", routing=routing, roster_churn_prob=0.05, roster_seed=11
    )
    seed = service.config.campaign_seed
    previous = world = None
    carried_scans, scanned = [], []
    for epoch in range(DAYS):
        # Each day's world evolved from the day before's, as the service's.
        world = (
            service.internet_for(epoch)
            if world is None
            else world.evolved(service.catalog_for(epoch))
        )
        internet = world
        platform = service.platform_for(epoch)
        if epoch == 3:
            # A replying unicast host turns administratively filtered.
            replying = np.flatnonzero(
                (internet.responsiveness == RESP_REPLY) & ~internet.is_anycast
            )
            internet = with_class_flipped(internet, replying[0], RESP_ADMIN_FILTERED)
        # A probing rate past some VPs' policing threshold, for one day.
        rate = 4 * SAFE_RATE_PPS if epoch == 4 else SAFE_RATE_PPS

        def campaign(previous):
            return CensusCampaign(
                internet,
                platform,
                rate_pps=rate,
                seed=seed,
                degraded_fraction=0.3,
                noise="keyed",
                workers=workers,
                previous=previous,
            )

        def measure(campaign, abort_after_vps=None):
            campaign.run_precensus()
            if epoch == 1:
                # Every fifth target off-limits for the day.
                campaign.blacklist.extend(
                    (int(p), IcmpOutcome.ADMIN_FILTERED) for p in internet.prefixes[::5]
                )
            return campaign.run_census(availability=0.9, abort_after_vps=abort_after_vps)

        carried = campaign(previous)
        if epoch == 2:
            with pytest.raises(CensusInterrupted):
                measure(carried, abort_after_vps=3)
            carried = campaign(carried)
        assert_same_scans(measure(carried), measure(campaign(None)))
        carried_scans.append(carried.counters["outcomes_carried"])
        scanned.append(carried.counters["positions_scanned"] / internet.n_targets)
        previous = carried

    assert carried_scans[0] == 0 and all(n > 0 for n in carried_scans[1:])
    # Carried days scan a fraction of what cold scans would.
    assert all(scanned[k] < len(service.platform_for(k)) for k in range(1, DAYS))


# ----------------------------------------------------------------------
# Archive bytes under the carried world
# ----------------------------------------------------------------------


def bgp_service(root):
    return small_service(root, routing="bgp", trust=True, alarms=True)


@pytest.fixture(scope="module")
def fresh_services_tree(tmp_path_factory):
    """Days 0..4, each committed by a service built for that day alone."""
    root = tmp_path_factory.mktemp("fresh") / "archive"
    for epoch in range(DAYS):
        bgp_service(root).run_epoch(epoch)
    return archive_tree(root)


def test_one_process_timeline_equals_fresh_services(tmp_path, fresh_services_tree):
    """Same bytes as a fresh service per day, and every document the
    service used is parse-identical to its bytes and read-only."""
    service = bgp_service(tmp_path / "archive")
    archive = service.archive
    read_results = archive._read_results
    used = []

    def spy(epoch):
        doc, parsed = read_results(epoch)
        used.append((epoch, doc))
        return doc, parsed

    archive._read_results = spy
    yesterday = []
    for epoch in range(DAYS):
        used.clear()
        service.run_epoch(epoch)
        # Nothing today mutated a document the service used yesterday.
        for doc, data in yesterday:
            assert canonical_json_bytes(doc) == data
        used.append((epoch, archive.read_results(epoch)))  # today's carried commit
        yesterday = []
        for used_epoch, doc in used:
            data = (archive.run_dir(used_epoch) / RESULTS_FILE).read_bytes()
            assert same_json(doc, json.loads(data)), used_epoch
            assert canonical_json_bytes(doc) == data
            yesterday.append((doc, data))
    assert archive.counters["results_parsed"] == 0
    assert archive_tree(tmp_path / "archive") == fresh_services_tree


def test_rotten_baseline_under_a_warm_cache_goes_cold(tmp_path, fresh_services_tree):
    """A baseline the archive carries but whose bytes rotted on disk is
    refused exactly like one read cold: the day runs a cold analysis."""
    service = bgp_service(tmp_path / "archive")
    for epoch in range(3):
        service.run_epoch(epoch)
    assert service.archive.counters["results_parsed"] == 0  # the cache is warm
    path = service.archive.run_dir(2) / RESULTS_FILE
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))

    outcome = service.run_epoch(3)
    assert outcome.mode == "cold"
    assert outcome.reason.startswith(REASON_BASELINE_UNREADABLE)
    results = f"runs/day-000003/{RESULTS_FILE}"
    assert archive_tree(tmp_path / "archive")[results] == fresh_services_tree[results]


@pytest.mark.parametrize("same_service", [True, False], ids=["same-service", "fresh-service"])
def test_interrupted_day_resumes_to_the_same_bytes(
    tmp_path, fresh_services_tree, same_service
):
    """The timeline resumes at the interrupted day, which starts over."""
    root = tmp_path / "archive"
    service = bgp_service(root)
    for epoch in range(2):
        service.run_epoch(epoch)
    with pytest.raises(CensusInterrupted):
        service.run_epoch(2, abort_after_vps=1)
    if not same_service:
        service = bgp_service(root)
    for epoch in range(2, DAYS):
        service.run_epoch(epoch)
    assert archive_tree(root) == fresh_services_tree

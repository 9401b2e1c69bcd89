"""The carried world: ``CensusService.internet_for`` derives each epoch's
world from the last one it built (``SyntheticInternet.evolved``) instead
of rebuilding it.  A cold build of the same epoch is the oracle — field
by field, deployment by deployment, catchment by catchment — and the
archive a one-process timeline commits must be byte-identical to the one
fresh services commit, interrupted or not.

The archive carries the results documents it read or wrote since its
last commit: every document the service uses must equal ``json.loads``
of its bytes on disk, stay unchanged by later days, and never hide a
rotten baseline.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.census.longitudinal import EvolutionConfig
from repro.measurement.campaign import CensusInterrupted
from repro.obs import Tracer, activate
from repro.service import CensusService
from repro.service.archive import RESULTS_FILE, canonical_json_bytes
from repro.service.delta import REASON_BASELINE_UNREADABLE
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
    assert carried._prefix_to_target == cold._prefix_to_target
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
        carried = service.internet_for(epoch)
        cold = CensusService(config, city_db=service.city_db).internet_for(epoch)
        assert_same_world(carried, cold, service.platform_for(epoch))
        if carried.bgp_plane is not None:
            # The shared plane holds one world's routes, not every day's.
            assert len(carried.bgp_plane._routes_cache) <= len(carried.deployments)


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
    n_deployments = len(service.internet_for(1).deployments)
    assert cold == {
        "carried": False,
        "deployments_rebuilt": len(service.internet_for(0).deployments),
        "routes_propagated": len(service.internet_for(0).deployments),
    }
    assert carried["carried"] is True
    assert carried["deployments_rebuilt"] < n_deployments
    assert carried["routes_propagated"] == carried["deployments_rebuilt"]


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
    read_results = archive.read_results
    used = []

    def spy(epoch):
        doc = read_results(epoch)
        used.append((epoch, doc))
        return doc

    archive.read_results = spy
    yesterday = []
    for epoch in range(DAYS):
        used.clear()
        service.run_epoch(epoch)
        # Nothing today mutated a document the service used yesterday.
        for doc, data in yesterday:
            assert canonical_json_bytes(doc) == data
        used.append((epoch, read_results(epoch)))  # today's carried commit
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

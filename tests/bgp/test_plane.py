"""Binding the AS graph to the synthetic internet: attachment,
catchments, route caching."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.bgp import Announcement, BgpRoutingPlane
from repro.bgp.graph import TIER_STUB
from repro.census.longitudinal import EvolutionConfig, evolve_catalog


@pytest.fixture(scope="module")
def plane(bgp_internet) -> BgpRoutingPlane:
    return bgp_internet.bgp_plane


@pytest.fixture(scope="module")
def deployment(bgp_internet):
    return bgp_internet.deployments[0]


def test_clients_attach_to_nearest_stub(plane):
    lats, lons = [48.9, -33.9, 35.7], [2.3, 151.2, 139.7]
    attach = plane.attach_clients(lats, lons)
    assert (plane.graph.tier[attach] == TIER_STUB).all()
    again = plane.attach_clients(lats, lons)
    assert np.array_equal(attach, again)
    with pytest.raises(ValueError):
        attach[0] = 0  # cached attachment arrays are read-only


def test_sites_attach_to_infrastructure(plane, deployment):
    origins = plane.site_attachments(deployment)
    assert len(origins) == deployment.site_count
    assert (plane.graph.tier[origins] != TIER_STUB).all()


def test_catchment_covers_every_client(plane, deployment):
    lats = np.linspace(-50, 60, 40)
    lons = np.linspace(-120, 150, 40)
    sites = plane.catchment(deployment, lats, lons)
    assert sites.shape == (40,)
    assert ((0 <= sites) & (sites < deployment.site_count)).all()
    # A multi-site deployment splits its catchment.
    if deployment.site_count > 1:
        assert len(set(int(s) for s in sites)) > 1


def test_pristine_routes_are_cached(plane, deployment):
    a = plane.deployment_routes(deployment)
    b = plane.deployment_routes(deployment)
    assert a is b
    assert len(a.announcements) == deployment.site_count


def test_cached_routes_are_read_only(plane, deployment):
    routes = plane.deployment_routes(deployment)
    for array in (routes.outcome.site, routes.outcome.announcement):
        with pytest.raises(ValueError):
            array[0] = 0


def test_routes_are_cached_on_the_announcement_set(bgp_internet):
    """A deployment with the same ASN and site count as a cached one but
    another announcement set propagates afresh: its catchment equals a
    fresh plane's, not the cached deployment's."""
    graph = bgp_internet.bgp_plane.graph
    dep = next(d for d in bgp_internet.deployments if d.site_count == 54)
    reversed_sites = dataclasses.replace(dep, replicas=dep.replicas[::-1])
    lats = np.linspace(-50, 60, 40)
    lons = np.linspace(-120, 150, 40)
    warm = BgpRoutingPlane(graph)
    warm.catchment(dep, lats, lons)
    assert np.array_equal(
        warm.catchment(reversed_sites, lats, lons),
        BgpRoutingPlane(graph).catchment(reversed_sites, lats, lons),
    )
    assert warm.routes_propagated == 2


def test_retain_keeps_only_the_given_deployments_routes(bgp_internet):
    plane = BgpRoutingPlane(bgp_internet.bgp_plane.graph)
    kept, dropped = bgp_internet.deployments[:2]
    routes = plane.deployment_routes(kept)
    plane.deployment_routes(dropped)
    plane.retain([kept])
    assert plane.deployment_routes(kept) is routes
    assert plane.routes_propagated == 2
    plane.deployment_routes(dropped)
    assert plane.routes_propagated == 3


class MemoFreePlane(BgpRoutingPlane):
    """The plane with :meth:`site_attachments` recomputed on every call."""

    def site_attachments(self, deployment):
        return self.attach_infrastructure(
            [r.location.lat for r in deployment.replicas],
            [r.location.lon for r in deployment.replicas],
        )


def test_site_origins_memo_is_invisible_across_epochs(bgp_internet, bgp_platform):
    """Over a chain of evolved worlds, ``retain`` keeps the same
    announcement sets and every catchment equals a memo-free plane's;
    the memo holds one world's deployments, and a reused deployment's
    origins are the very array attached the day before."""
    memo = BgpRoutingPlane(bgp_internet.bgp_plane.graph)
    bare = MemoFreePlane(bgp_internet.bgp_plane.graph)
    lats, lons = bgp_platform.lats, bgp_platform.lons
    churny = EvolutionConfig(
        growth_prob=0.3, max_new_sites=3, shrink_prob=0.15, new_adopters=2
    )
    catalog = [dep.entry for dep in bgp_internet.deployments]
    # Evolve a plane-less copy: the session fixture's plane stays as is.
    world = copy.copy(bgp_internet)
    world.bgp_plane = None
    yesterday = {}
    for step in range(4):
        for plane in (memo, bare):
            plane.retain(world.deployments)
        assert set(memo._routes_cache) == set(bare._routes_cache)
        assert len(memo._site_cache) <= len(world.deployments)
        for dep in world.deployments:
            kept, origins = yesterday.get(id(dep), (None, None))
            if kept is dep:
                assert memo.site_attachments(dep) is origins
            assert memo.announcements_for(dep) == bare.announcements_for(dep)
            assert np.array_equal(
                memo.catchment(dep, lats, lons), bare.catchment(dep, lats, lons)
            ), dep.entry.name
        yesterday = {
            id(dep): (dep, memo.site_attachments(dep)) for dep in world.deployments
        }
        catalog = evolve_catalog(catalog, seed=100 + step, config=churny)
        world = world.evolved(catalog)
    assert memo.routes_propagated == bare.routes_propagated


def test_engineered_routes_bypass_the_cache(plane, deployment):
    pristine = plane.deployment_routes(deployment)
    engineered = plane.deployment_routes(deployment, prepend={0: 4})
    assert engineered is not pristine
    assert engineered.announcements[0].prepend == 4
    # And the pristine cache entry is untouched.
    assert plane.deployment_routes(deployment) is pristine


def test_withdrawal_drops_the_site(plane, deployment):
    if deployment.site_count < 2:
        pytest.skip("needs a multi-site deployment")
    routes = plane.deployment_routes(deployment, withdrawn={0})
    assert all(a.site != 0 for a in routes.announcements)
    lats = np.linspace(-50, 60, 25)
    lons = np.linspace(-120, 150, 25)
    sites = plane.catchment(deployment, lats, lons, routes=routes)
    assert 0 not in set(int(s) for s in sites)


def test_extra_announcement_captures_without_reshuffling(plane, deployment):
    base = plane.deployment_routes(deployment)
    origins = set(int(a) for a in plane.site_attachments(deployment))
    attacker = next(
        int(a) for a in plane.graph.infrastructure_indices()
        if int(a) not in origins
    )
    hijack = Announcement(origin_as=attacker, site=deployment.site_count)
    out = plane.deployment_routes(deployment, extra=[hijack])
    captured = out.outcome.captured_by(len(out.announcements) - 1)
    assert captured.any()
    keep = ~captured
    assert np.array_equal(out.outcome.site[keep], base.outcome.site[keep])


def test_internet_exposes_the_plane(bgp_internet):
    assert bgp_internet.bgp_plane is not None
    assert bgp_internet.bgp_plane.graph.n_ases > 0

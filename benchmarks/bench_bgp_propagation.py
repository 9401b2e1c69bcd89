"""BGP propagation throughput — the cost of real catchments.

``routing="bgp"`` replaces the geographic catchment heuristic with
Gao-Rexford propagation over a ~1k-AS graph: one level-synchronous
three-phase BFS over every deployment's announcement set at once
(``BgpRoutingPlane.pristine_routes``, the path a census campaign takes).
This exhibit times graph construction and that batched sweep at catalog
scale, plus the incremental cost of injecting an attacker announcement
(the routing-chaos path: one set re-propagated alone), and records
routes/second so the perf trajectory tracks the routing plane alongside
the census fastpath.

Acceptance: the sweep must finish within
``REPRO_MAX_BGP_PROPAGATION_SECONDS`` (default 30; opt out by exporting
an empty value).  The gate is wall-clock on shared CI runners, so the
default leaves generous headroom — the point is catching accidental
quadratic regressions, not shaving milliseconds.
"""

from __future__ import annotations

import os
import time

from conftest import TINY_SCALE, write_exhibit

from repro.bgp import Announcement, BgpConfig, BgpRoutingPlane, build_as_graph
from repro.internet.topology import InternetConfig, SyntheticInternet

_GATE = os.environ.get("REPRO_MAX_BGP_PROPAGATION_SECONDS", "30")
MAX_SECONDS = float(_GATE) if _GATE else None


def test_bgp_propagation_throughput(results_dir):
    internet = SyntheticInternet(
        InternetConfig(
            seed=2015,
            n_unicast_slash24=400 if TINY_SCALE else 2_000,
            tail_deployments=40 if TINY_SCALE else 260,
            routing="bgp",
        )
    )

    t0 = time.perf_counter()
    graph = build_as_graph(
        BgpConfig(), seed=internet.config.seed, city_db=internet.city_db
    )
    graph_seconds = time.perf_counter() - t0

    plane = BgpRoutingPlane(graph)
    deployments = internet.deployments
    t0 = time.perf_counter()
    swept = plane.pristine_routes(deployments)
    sweep_seconds = time.perf_counter() - t0
    n_sets = plane.routes_propagated
    total_routes = sum(int(routes.outcome.reachable.sum()) for routes in swept)

    # Chaos path: appending an attacker re-propagates one deployment.
    origins = set(int(a) for a in plane.site_attachments(deployments[0]))
    attacker = next(
        int(a)
        for a in graph.infrastructure_indices()
        if int(a) not in origins
    )
    t0 = time.perf_counter()
    plane.deployment_routes(
        deployments[0],
        extra=[
            Announcement(
                origin_as=attacker, site=deployments[0].site_count
            )
        ],
    )
    inject_seconds = time.perf_counter() - t0

    rate = total_routes / sweep_seconds if sweep_seconds else float("inf")
    lines = [
        f"AS graph: {graph.n_ases} ASes, "
        f"{graph.n_provider_edges} provider edges, "
        f"{graph.n_peer_edges} peer edges "
        f"(built in {graph_seconds:.2f}s)",
        f"catchment sweep: {len(deployments)} deployments in one batch "
        f"({n_sets} announcement sets), "
        f"{total_routes} routes in {sweep_seconds:.3f}s "
        f"({rate:,.0f} routes/s)",
        f"attacker injection: one re-propagation in "
        f"{inject_seconds * 1000:.1f}ms",
        f"gate: REPRO_MAX_BGP_PROPAGATION_SECONDS="
        f"{MAX_SECONDS if MAX_SECONDS is not None else 'off'}",
        f"tiny scale: {TINY_SCALE}",
    ]
    write_exhibit(results_dir, "bgp_propagation", lines)

    assert total_routes > 0
    if MAX_SECONDS is not None:
        elapsed = graph_seconds + sweep_seconds
        assert elapsed <= MAX_SECONDS, (
            f"BGP propagation took {elapsed:.1f}s "
            f"(budget {MAX_SECONDS:.0f}s)"
        )

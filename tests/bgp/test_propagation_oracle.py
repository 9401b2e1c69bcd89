"""The batched, level-synchronous engine against the scalar oracle.

``scalar_propagation.propagate_scalar`` is the per-AS bucketed BFS the
engine replaced; every outcome array must match it exactly, dtypes
included, on small generated graphs and announcement sets, and a batch
of sets must equal the same sets propagated one at a time.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import Announcement, BgpConfig, build_as_graph, propagation
from repro.bgp.propagation import SCOPE_CUSTOMER_CONE, SCOPE_GLOBAL, propagate, propagate_batch
from repro.geo.cities import default_city_db

from .scalar_propagation import propagate_scalar

FIELDS = ("site", "path_len", "route_class", "announcement", "via_leak")

_GRAPHS = {}


def _graph(config: BgpConfig, seed: int):
    key = (config, seed)
    if key not in _GRAPHS:
        _GRAPHS[key] = build_as_graph(config, seed=seed, city_db=default_city_db())
    return _GRAPHS[key]


configs = st.builds(
    BgpConfig,
    n_ases=st.integers(16, 96),
    n_tier1=st.integers(2, 5),
    transit_fraction=st.sampled_from([0.1, 0.2, 0.35]),
    mean_providers=st.sampled_from([1.0, 1.8, 2.5, 3.0]),
    peer_degree=st.sampled_from([0.0, 1.0, 2.0, 3.5]),
    provider_candidates=st.integers(1, 6),
)


@st.composite
def announcement_sets(draw, graph, max_sets: int = 1):
    """1..max_sets announcement sets: sites with prepends 0-4 and
    customer-cone scopes, optionally a leak from a multihomed stub and
    appended extra origins."""
    stubs = graph.multihomed_stubs()
    sets = []
    for _ in range(draw(st.integers(1, max_sets))):
        anns = [
            Announcement(
                origin_as=draw(st.integers(0, graph.n_ases - 1)),
                site=s,
                prepend=draw(st.integers(0, 4)),
                scope=draw(st.sampled_from([SCOPE_GLOBAL, SCOPE_GLOBAL, SCOPE_CUSTOMER_CONE])),
            )
            for s in range(draw(st.integers(1, 6)))
        ]
        if len(stubs) and draw(st.booleans()):
            anns.append(
                Announcement(
                    origin_as=int(draw(st.sampled_from(list(stubs)))),
                    site=draw(st.integers(0, len(anns) - 1)),
                    prepend=draw(st.integers(0, 4)),
                    scope=draw(st.sampled_from([SCOPE_GLOBAL, SCOPE_CUSTOMER_CONE])),
                    leak=True,
                )
            )
        for _ in range(draw(st.integers(0, 2))):
            anns.append(
                Announcement(origin_as=draw(st.integers(0, graph.n_ases - 1)), site=len(anns))
            )
        sets.append(anns)
    return sets


def assert_same(got, want) -> None:
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


@settings(max_examples=60, deadline=None)
@given(data=st.data(), config=configs, seed=st.integers(0, 50))
def test_propagate_equals_the_scalar_oracle(data, config, seed):
    graph = _graph(config, seed)
    (anns,) = data.draw(announcement_sets(graph))
    assert_same(propagate(graph, anns), propagate_scalar(graph, anns))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), config=configs, seed=st.integers(0, 50))
def test_a_batch_equals_its_sets_one_at_a_time(data, config, seed):
    graph = _graph(config, seed)
    sets = data.draw(announcement_sets(graph, max_sets=6))
    batch = propagate_batch(graph, sets)
    assert len(batch) == len(sets)
    for anns, outcome in zip(sets, batch):
        assert_same(outcome, propagate(graph, anns))
        assert_same(outcome, propagate_scalar(graph, anns))


def test_an_empty_set_reaches_nobody():
    graph = _graph(BgpConfig(n_ases=32, n_tier1=2), 1)
    (empty, full) = propagate_batch(graph, [[], [Announcement(origin_as=0, site=0)]])
    assert not empty.reachable.any()
    assert full.reachable.all()


def test_a_batch_split_into_node_bounded_passes_is_the_same(monkeypatch):
    graph = _graph(BgpConfig(n_ases=32, n_tier1=2), 3)
    sets = [
        [Announcement(origin_as=a, site=0), Announcement(origin_as=31 - a, site=1, prepend=a % 3)]
        for a in range(7)
    ]
    whole = propagate_batch(graph, sets)
    monkeypatch.setattr(propagation, "_BATCH_NODES", 2 * graph.n_ases)
    for got, want in zip(propagate_batch(graph, sets), whole):
        assert_same(got, want)

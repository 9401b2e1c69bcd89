"""A deterministic BGP routing plane for the synthetic Internet.

The paper's catchments — which client reaches which anycast replica —
are a product of interdomain routing policy, not geography.  The rest of
the repo approximates that with a per-(client, site) lognormal penalty
(``policy_sigma``); this package replaces the heuristic with the real
thing, behind ``InternetConfig(routing="bgp")``:

* :mod:`repro.bgp.graph` — a synthetic CAIDA-style AS-relationship graph
  (customer/provider/peer edges, tiered: clique of tier-1s, regional
  transit, multihomed stubs), every AS homed in a city;
* :mod:`repro.bgp.propagation` — Gao-Rexford route propagation over the
  graph: valley-free export, local-pref (customer > peer > provider)
  before path length before a deterministic tiebreak;
* :mod:`repro.bgp.plane` — the binding to the synthetic Internet: VPs
  and replica sites attach to ASes, per-deployment propagation yields
  per-VP serving sites (the BGP catchment);
* :mod:`repro.bgp.events` — keyed routing chaos: MOAS and subprefix
  hijacks, route leaks, flaps, withdrawals, and the catchment-
  engineering moves (prepend, regional announce), each visible to the
  census only through the RTT matrix it perturbs.

Everything is keyed, never streamed: graphs, attachments, catchments and
chaos draws are pure functions of their seeds, and ``routing="geo"``
(the default) leaves every existing output byte-identical.
"""

from .events import (
    RouteEvent,
    RouteEventInjector,
    RouteEventKind,
    RouteEventPlan,
)
from .graph import AsGraph, BgpConfig, build_as_graph
from .plane import BgpRoutingPlane
from .propagation import (
    CLASS_CUSTOMER,
    CLASS_PEER,
    CLASS_PROVIDER,
    Announcement,
    RoutingOutcome,
    propagate,
    propagate_batch,
)

__all__ = [
    "Announcement",
    "AsGraph",
    "BgpConfig",
    "BgpRoutingPlane",
    "CLASS_CUSTOMER",
    "CLASS_PEER",
    "CLASS_PROVIDER",
    "RouteEvent",
    "RouteEventInjector",
    "RouteEventKind",
    "RouteEventPlan",
    "RoutingOutcome",
    "build_as_graph",
    "propagate",
    "propagate_batch",
]

"""Gao-Rexford route propagation over an AS-relationship graph.

One anycast deployment is a set of *announcements* — (origin AS, site)
pairs, optionally path-prepended or scoped — and propagation answers,
for every AS in the graph, "which site does your best route lead to?"
under the standard policy model:

* **local preference**: routes learned from customers beat routes
  learned from peers beat routes learned from providers (money talks);
* **path length**: within a preference class, shorter AS paths win;
* **deterministic tiebreak**: equal (class, length) routes resolve by a
  keyed per-AS hash of (AS, announcement) — the stand-in for the
  router-ID tiebreak.  A global "lowest announcement wins" rule would
  hand every tie in a short-diameter graph to the same site, collapsing
  anycast catchments to near-unicast; the per-AS hash spreads ties
  across sites the way arbitrary router IDs do, while staying a pure
  function of the inputs;
* **valley-free export**: customer-learned (and self-originated) routes
  are exported to everyone; peer- and provider-learned routes are
  exported to customers only.

The classic consequence is the three-phase structure this module
implements directly: customer routes climb provider edges from the
origins (phase 1), cross at most one peer edge (phase 2), then descend
customer edges (phase 3).  Each phase is a level-synchronous
multi-source BFS over the graph's CSR arrays (prepends start later):
one array step per distance level settles every open AS among the
candidates to its smallest ``(tiebreak, announcement)``.
:func:`propagate_batch` runs many announcement sets at once, set ``k``
on nodes ``k * n_ases + AS`` of a disjoint union of graph copies, with
tiebreaks on each set's own announcement indices: a set's outcome does
not depend on its batch.  :func:`propagate` is a batch of one.

Two policy violations are modelled on purpose, because the chaos layer
injects them:

* a **route leak** (``Announcement.leak=True``) re-exports an already
  learned route as if it were a customer route — seeded into phase 1 at
  the leaker with the leaked path's length, exactly the Gao-Rexford
  violation that makes real leaks attract traffic uphill;
* a **regional announcement** (``scope="customer-cone"``) skips phases
  1 and 2 for that origin: the route exists only at the origin AS and
  inside its customer cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import AsGraph

#: Route preference classes, in decreasing preference order.
CLASS_CUSTOMER = 0  # learned from a customer (or self-originated)
CLASS_PEER = 1      # learned from a peer
CLASS_PROVIDER = 2  # learned from a provider
CLASS_NONE = 3      # no route

SCOPE_GLOBAL = "global"
SCOPE_CUSTOMER_CONE = "customer-cone"


@dataclass(frozen=True)
class Announcement:
    """One origin's announcement of the prefix under propagation."""

    origin_as: int
    #: Site index this origin belongs to (what catchments resolve to).
    site: int
    #: AS-path prepending: the announcement starts ``prepend`` hops
    #: "long", making it uniformly less attractive — the classic
    #: catchment-drain knob (Tangled's "AS-path prepend" experiment).
    prepend: int = 0
    #: ``"global"`` exports normally; ``"customer-cone"`` restricts the
    #: announcement to the origin and its customer cone (a regional /
    #: no-export announcement).
    scope: str = SCOPE_GLOBAL
    #: A leaked route: injected into the customer-route phase although
    #: its real provenance is a peer/provider route at the leaker.
    leak: bool = False

    def __post_init__(self) -> None:
        if self.prepend < 0:
            raise ValueError("prepend must be non-negative")
        if self.scope not in (SCOPE_GLOBAL, SCOPE_CUSTOMER_CONE):
            raise ValueError(f"unknown announcement scope {self.scope!r}")


@dataclass
class RoutingOutcome:
    """Per-AS best-route summary for one propagated prefix."""

    #: Winning site per AS; -1 where the prefix is unreachable.
    site: np.ndarray
    #: AS-path length of the best route (prepends included); large
    #: sentinel where unreachable.
    path_len: np.ndarray
    #: Preference class of the best route (CLASS_* codes).
    route_class: np.ndarray
    #: Index (into the propagated announcement list) of the winner.
    announcement: np.ndarray
    #: True where the best route was learned through a leaked
    #: announcement — the traffic a route leak actually captures.
    via_leak: np.ndarray

    @property
    def reachable(self) -> np.ndarray:
        return self.site >= 0

    def freeze(self) -> None:
        """Make every per-AS array read-only (for outcomes that are shared)."""
        for array in (
            self.site, self.path_len, self.route_class, self.announcement, self.via_leak
        ):
            array.setflags(write=False)

    def captured_by(self, announcement_index: int) -> np.ndarray:
        """Boolean mask of ASes whose best route is one announcement's."""
        return self.announcement == announcement_index


#: Nodes (sets x ASes) per batched propagation, bounding its arrays.
_BATCH_NODES = 1 << 18

_INF = np.iinfo(np.int32).max
_MASK32 = np.uint64(0xFFFFFFFF)
_UNSET = np.iinfo(np.uint64).max


def _tiebreak(a: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Router-ID stand-in: AS ``a``'s preference keys for announcements ``i``.

    A deterministic 32-bit mix, elementwise — equal-(class, length)
    routes at one AS resolve to the announcement minimizing this key.
    Keying on the AS index spreads ties across announcements instead of
    handing them all to a global favourite.  (``uint64`` products wrap;
    the 32-bit mask keeps them exact.)
    """
    x = a.astype(np.uint64) * np.uint64(2_654_435_761)
    x += i.astype(np.uint64) * np.uint64(97_003)
    x &= _MASK32
    x ^= x >> np.uint64(16)
    x *= np.uint64(0x45D9F3B)
    x &= _MASK32
    x ^= x >> np.uint64(16)
    return x


def _expand(
    ptr: np.ndarray, idx: np.ndarray, n: int, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR neighbours of batched ``nodes``: (neighbour, position in
    ``nodes`` it was reached from)."""
    local = nodes % n
    lo = ptr[local]
    counts = ptr[local + 1] - lo
    src = np.repeat(np.arange(len(nodes)), counts)
    pos = np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts, counts)
    return idx[lo[src] + pos] + (nodes - local)[src], src


def _settle(
    n: int, local_ann: np.ndarray, seeds: Tuple[np.ndarray, ...], closed: np.ndarray,
    csr: Optional[Tuple[np.ndarray, np.ndarray]] = None, expands: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Level-synchronous multi-source BFS from ``(node, start level,
    announcement)`` seed arrays.

    At each level every open candidate node settles to its smallest
    ``(tiebreak, announcement)`` and closes; ``closed`` (updated in
    place) starts with the nodes that may never settle.  A settled node
    forwards its announcement along ``csr`` where ``expands`` says so.

    Returns (dist, ann) per node; ``ann`` is -1 where nothing settled.
    """
    dist = np.full(len(closed), _INF, dtype=np.int64)
    ann = np.full(len(closed), -1, dtype=np.int64)
    best = np.full(len(closed), _UNSET, dtype=np.uint64)
    node, at, cand = seeds
    while len(node):
        level = at.min()
        now = at == level
        open_ = now & ~closed[node]
        key = _tiebreak(node[open_] % n, local_ann[cand[open_]]) << np.uint64(32)
        np.minimum.at(best, node[open_], key | cand[open_].astype(np.uint64))
        won = np.flatnonzero(best != _UNSET)
        ann[won] = best[won] & _MASK32
        best[won] = _UNSET
        closed[won] = True
        dist[won] = level
        node, at, cand = node[~now], at[~now], cand[~now]
        if csr is not None:
            grow = won[expands[ann[won]]]
            reached, src = _expand(*csr, n, grow)
            node = np.concatenate([node, reached])
            at = np.concatenate([at, np.full(len(reached), level + 1)])
            cand = np.concatenate([cand, ann[grow][src]])
    return dist, ann


def propagate_batch(
    graph: AsGraph, announcement_sets: Sequence[Sequence[Announcement]]
) -> List[RoutingOutcome]:
    """Best valley-free route per AS for each announcement set, in order.

    A set's outcome does not depend on the rest of its batch: it equals
    :func:`propagate` on that set alone.
    """
    sets = [list(anns) for anns in announcement_sets]
    n = graph.n_ases
    for a in (a for anns in sets for a in anns):
        if not 0 <= a.origin_as < n:
            raise ValueError(f"announcement origin {a.origin_as} out of range")
    step = max(1, _BATCH_NODES // n)
    return [
        outcome
        for start in range(0, len(sets), step)
        for outcome in _propagate_sets(graph, sets[start : start + step])
    ]


def _propagate_sets(
    graph: AsGraph, sets: List[List[Announcement]]
) -> List[RoutingOutcome]:
    """One three-phase propagation over ``len(sets)`` disjoint graph copies."""
    n = graph.n_ases
    total = n * len(sets)
    anns = [a for set_anns in sets for a in set_anns]
    sizes = np.array([len(set_anns) for set_anns in sets], dtype=np.int64)
    local_ann = np.arange(len(anns)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    origin, prepend, site_of = np.array(
        [(a.origin_as, a.prepend, a.site) for a in anns], dtype=np.int64
    ).reshape(-1, 3).T
    origin = origin + np.repeat(np.arange(len(sets), dtype=np.int64) * n, sizes)
    leak_of = np.array([a.leak for a in anns], dtype=bool)
    # Cone-scoped origins hold their route but do not export upward; leak
    # seeds are exactly the violation: a non-customer route entering the
    # customer phase.
    up = np.array([a.scope == SCOPE_GLOBAL for a in anns], dtype=bool) | leak_of

    # ---- Phase 1: customer routes climb provider edges -----------------
    dist1, ann1 = _settle(
        n, local_ann, (origin, prepend, np.arange(len(anns), dtype=np.int64)),
        np.zeros(total, dtype=bool), (graph._up_ptr, graph._up_idx), up,
    )
    has1 = ann1 >= 0

    # ---- Phase 2: one peer hop ----------------------------------------
    # Customer routes (and global origins) cross a single peer edge; the
    # receiver prefers any customer route it already holds.
    src = np.flatnonzero(has1)
    src = src[up[ann1[src]]]
    peer, via = _expand(graph._peer_ptr, graph._peer_idx, n, src)
    via = src[via]
    dist2, ann2 = _settle(n, local_ann, (peer, dist1[via] + 1, ann1[via]), has1.copy())
    has2 = ann2 >= 0

    # ---- Phase 3: provider routes descend customer edges ---------------
    # Every routed AS exports its best route to its customers; customers
    # holding a customer/peer route refuse (local pref), the rest accept
    # and keep descending.  Routed ASes are *seeds only* — they push
    # candidates downhill but can never be resettled, even by a shorter
    # provider route, which is exactly what local preference demands.
    routed = has1 | has2
    down = (graph._down_ptr, graph._down_idx)
    src = np.flatnonzero(routed)
    best_dist = np.where(has1, dist1, dist2)[src]
    best_ann = np.where(has1, ann1, ann2)[src]
    node, via = _expand(*down, n, src)
    dist3, ann3 = _settle(
        n, local_ann, (node, best_dist[via] + 1, best_ann[via]), routed,
        down, np.ones(len(anns), dtype=bool),
    )

    # ---- Merge by preference class ------------------------------------
    site = np.full(total, -1, dtype=np.int32)
    path_len = np.full(total, _INF, dtype=np.int64)
    route_class = np.full(total, CLASS_NONE, dtype=np.int8)
    winner = np.full(total, -1, dtype=np.int64)
    via_leak = np.zeros(total, dtype=bool)
    for dist, ann, cls in (
        (dist1, ann1, CLASS_CUSTOMER),
        (dist2, ann2, CLASS_PEER),
        (dist3, ann3, CLASS_PROVIDER),
    ):
        idx = np.flatnonzero((ann >= 0) & (route_class == CLASS_NONE))
        won = ann[idx]
        winner[idx] = local_ann[won]
        path_len[idx] = dist[idx]
        route_class[idx] = cls
        site[idx] = site_of[won]
        via_leak[idx] = leak_of[won]
    columns = (site, path_len, route_class, winner, via_leak)
    return [
        RoutingOutcome(*(column[k * n : (k + 1) * n].copy() for column in columns))
        for k in range(len(sets))
    ]


def propagate(
    graph: AsGraph, announcements: Sequence[Announcement]
) -> RoutingOutcome:
    """Best valley-free route per AS for one prefix's announcement set.

    Equal (class, length) routes at an AS resolve by the keyed per-AS
    :func:`_tiebreak` — deterministic for a fixed announcement list, and
    stable under *appending* announcements (existing indices keep their
    keys), so injecting an attacker announcement never reshuffles the
    baseline part of the catchment.  A batch of one.
    """
    return propagate_batch(graph, [announcements])[0]

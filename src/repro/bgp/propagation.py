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
customer edges (phase 3).  Each phase is a deterministic bucketed BFS
(Dial's algorithm over unit edge weights, with prepends as longer
starting distances).

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


def _tiebreak(a: int, i: int) -> int:
    """Router-ID stand-in: AS ``a``'s preference key for announcement ``i``.

    A deterministic 32-bit mix — equal-(class, length) routes at one AS
    resolve to the announcement minimizing this key.  Keying on the AS
    index spreads ties across announcements instead of handing them all
    to a global favourite.
    """
    x = (a * 2_654_435_761 + i * 97_003) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x


def _settle_bucketed(
    n: int,
    seeds: Sequence[Tuple[int, int, int]],
    neighbors,
    expandable,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic multi-source BFS with per-seed start distances.

    ``seeds`` are ``(as_index, start_dist, announcement_index)``;
    ``neighbors(a)`` yields the frontier expansion of a settled AS;
    ``expandable(a, ann)`` gates whether a settled AS forwards at all.

    Ties at equal distance settle by the per-AS :func:`_tiebreak` key.

    Returns (dist, ann, settled_mask).
    """
    INF = np.iinfo(np.int32).max
    dist = np.full(n, INF, dtype=np.int64)
    ann = np.full(n, -1, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)
    if not seeds:
        return dist, ann, settled

    buckets: dict = {}
    for a, d, i in seeds:
        buckets.setdefault(int(d), []).append((int(i), int(a)))

    d = min(buckets)
    max_guard = n + max(buckets) + 2
    while buckets and d <= max_guard:
        entries = buckets.pop(d, None)
        if entries is None:
            d += 1
            continue
        # Per-AS keyed tiebreak within a distance bucket: group entries
        # by AS, most-preferred candidate first; first settle wins.
        entries.sort(key=lambda t: (t[1], _tiebreak(t[1], t[0]), t[0]))
        for i, a in entries:
            if settled[a]:
                continue
            settled[a] = True
            dist[a] = d
            ann[a] = i
            if not expandable(a, i):
                continue
            nxt = neighbors(a)
            if len(nxt):
                bucket = buckets.setdefault(d + 1, [])
                for b in nxt:
                    if not settled[b]:
                        bucket.append((i, int(b)))
        d += 1
    return dist, ann, settled


def propagate(
    graph: AsGraph, announcements: Sequence[Announcement]
) -> RoutingOutcome:
    """Best valley-free route per AS for one prefix's announcement set.

    Equal (class, length) routes at an AS resolve by the keyed per-AS
    :func:`_tiebreak` — deterministic for a fixed announcement list, and
    stable under *appending* announcements (existing indices keep their
    keys), so injecting an attacker announcement never reshuffles the
    baseline part of the catchment.
    """
    n = graph.n_ases
    INF = np.iinfo(np.int32).max
    anns = list(announcements)
    for a in anns:
        if not 0 <= a.origin_as < n:
            raise ValueError(f"announcement origin {a.origin_as} out of range")

    # ---- Phase 1: customer routes climb provider edges -----------------
    # Cone-scoped origins hold their route but do not export upward; leak
    # seeds are exactly the violation: a non-customer route entering the
    # customer phase.
    seeds1 = [(a.origin_as, a.prepend, i) for i, a in enumerate(anns)]
    up_expandable = [
        a.scope == SCOPE_GLOBAL or a.leak for a in anns
    ]
    dist1, ann1, has1 = _settle_bucketed(
        n,
        seeds1,
        neighbors=graph.providers_of,
        expandable=lambda a, i: up_expandable[i],
    )

    # ---- Phase 2: one peer hop ----------------------------------------
    # Customer routes (and global origins) cross a single peer edge; the
    # receiver prefers any customer route it already holds.
    dist2 = np.full(n, INF, dtype=np.int64)
    ann2 = np.full(n, -1, dtype=np.int64)
    has2 = np.zeros(n, dtype=bool)
    for a in np.nonzero(has1)[0]:
        i = int(ann1[a])
        if not up_expandable[i]:
            continue
        d = int(dist1[a]) + 1
        for b in graph.peers_of(int(a)):
            if has1[b]:
                continue
            bi = int(b)
            cand = (d, _tiebreak(bi, i), i)
            held = (
                (int(dist2[bi]), _tiebreak(bi, int(ann2[bi])), int(ann2[bi]))
                if has2[bi]
                else (INF, 0, 0)
            )
            if cand < held:
                dist2[bi] = d
                ann2[bi] = i
                has2[bi] = True

    # ---- Phase 3: provider routes descend customer edges ---------------
    # Every routed AS exports its best route to its customers; customers
    # holding a customer/peer route refuse (local pref), the rest accept
    # and keep descending.  Routed ASes are *seeds only* — they push
    # candidates downhill but can never be resettled, even by a shorter
    # provider route, which is exactly what local preference demands.
    best_dist = np.where(has1, dist1, dist2)
    best_ann = np.where(has1, ann1, ann2)
    routed = has1 | has2
    dist3 = np.full(n, INF, dtype=np.int64)
    ann3 = np.full(n, -1, dtype=np.int64)
    has3 = np.zeros(n, dtype=bool)
    buckets: dict = {}
    for a in np.nonzero(routed)[0]:
        d = int(best_dist[a]) + 1
        i = int(best_ann[a])
        for b in graph.customers_of(int(a)):
            if not routed[b]:
                buckets.setdefault(d, []).append((i, int(b)))
    if buckets:
        d = min(buckets)
        max_guard = n + max(buckets) + 2
        while buckets and d <= max_guard:
            entries = buckets.pop(d, None)
            if entries is None:
                d += 1
                continue
            entries.sort(key=lambda t: (t[1], _tiebreak(t[1], t[0]), t[0]))
            for i, a in entries:
                if routed[a] or has3[a]:
                    continue
                has3[a] = True
                dist3[a] = d
                ann3[a] = i
                bucket = buckets.setdefault(d + 1, [])
                for b in graph.customers_of(a):
                    if not routed[b] and not has3[b]:
                        bucket.append((i, int(b)))
            d += 1

    # ---- Merge by preference class ------------------------------------
    site_of = np.array([a.site for a in anns], dtype=np.int64)
    leak_of = np.array([a.leak for a in anns], dtype=bool)

    site = np.full(n, -1, dtype=np.int32)
    path_len = np.full(n, INF, dtype=np.int64)
    route_class = np.full(n, CLASS_NONE, dtype=np.int8)
    winner = np.full(n, -1, dtype=np.int64)
    via_leak = np.zeros(n, dtype=bool)

    for mask, dist, ann, cls in (
        (has1, dist1, ann1, CLASS_CUSTOMER),
        (has2, dist2, ann2, CLASS_PEER),
        (has3, dist3, ann3, CLASS_PROVIDER),
    ):
        take = mask & (route_class == CLASS_NONE)
        idx = np.nonzero(take)[0]
        if len(idx) == 0:
            continue
        winner[idx] = ann[idx]
        path_len[idx] = dist[idx]
        route_class[idx] = cls
        site[idx] = site_of[ann[idx]]
        via_leak[idx] = leak_of[ann[idx]]

    return RoutingOutcome(
        site=site,
        path_len=path_len,
        route_class=route_class,
        announcement=winner,
        via_leak=via_leak,
    )

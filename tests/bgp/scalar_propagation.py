"""The scalar three-phase Gao-Rexford BFS: the oracle of the batched engine.

This is the per-AS reference implementation :mod:`repro.bgp.propagation`
replaced: one bucketed BFS (Dial's algorithm over unit edge weights,
prepends as longer starting distances) per phase, one Python loop
iteration per settled AS.  The property tests in
``test_propagation_oracle.py`` hold the level-synchronous, batched
engine to it array for array, dtypes included.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.bgp.graph import AsGraph
from repro.bgp.propagation import (
    CLASS_CUSTOMER,
    CLASS_NONE,
    CLASS_PEER,
    CLASS_PROVIDER,
    SCOPE_GLOBAL,
    Announcement,
    RoutingOutcome,
)


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


def propagate_scalar(
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

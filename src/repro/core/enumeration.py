"""Replica enumeration: Maximum Independent Set over disks (Fig. 3c).

Pairwise-disjoint disks each contain a *different* replica, so the size of
an independent set in the disk-overlap graph lower-bounds the replica
count.  MIS is NP-hard in general, but on disk graphs the greedy that
scans disks by increasing radius is a 5-approximation — and, as the paper
measured, "in practice yields results that are very close to the optimum
provided by a prohibitively more costly brute force solution".

Both solvers are provided:

* :func:`greedy_mis` — the production path, O(n^2);
* :func:`exact_mis` — branch-and-bound exact solver for small instances,
  used by tests and the MIS-quality benchmark.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..geo.disks import Disk, overlap_matrix
from ..obs import current_metrics, current_tracer


def greedy_mis(
    disks: Sequence[Disk],
    overlaps: Optional[np.ndarray] = None,
    ordering: str = "radius",
) -> List[int]:
    """Greedy maximum-independent-set on disks, smallest radius first.

    Returns indices of the selected (pairwise-disjoint) disks, in selection
    order.  Passing a precomputed ``overlaps`` matrix skips the geometry.

    Ordering by increasing radius (the default) is what makes the
    approximation bound hold: a small disk can conflict with at most five
    mutually-disjoint disks of larger radius.  ``ordering="arbitrary"``
    scans disks in input order instead — no approximation guarantee; kept
    for the MIS-ordering ablation.

    The census engine runs the same greedy on whole blocks of targets at
    once (:func:`repro.census.fastpath.greedy_mis_rounds`); this is the
    single-target reference it is tested against.
    """
    n = len(disks)
    if n == 0:
        return []
    with current_tracer().span("enumeration", disks=n):
        if overlaps is None:
            overlaps = overlap_matrix(disks)
        elif overlaps.shape != (n, n):
            raise ValueError("overlap matrix shape mismatch")
        if ordering == "radius":
            order = sorted(range(n), key=lambda i: (disks[i].radius_km, i))
        elif ordering == "arbitrary":
            order = list(range(n))
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
        excluded = np.zeros(n, dtype=bool)
        selected: List[int] = []
        for i in order:
            if excluded[i]:
                continue
            selected.append(i)
            excluded |= overlaps[i]
    current_metrics().histogram("mis_size").observe(len(selected))
    return selected


def is_independent_set(disks: Sequence[Disk], indices: Sequence[int]) -> bool:
    """Check that the given disks are pairwise disjoint."""
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            if disks[indices[a]].overlaps(disks[indices[b]]):
                return False
    return True


def exact_mis(disks: Sequence[Disk], max_disks: int = 40) -> List[int]:
    """Exact maximum independent set by branch and bound.

    Exponential in the worst case — guarded by ``max_disks``.  Used to
    quantify how close the greedy gets (the paper reports near-optimality
    at ~10,000x lower cost).
    """
    n = len(disks)
    if n == 0:
        return []
    if n > max_disks:
        raise ValueError(f"exact MIS limited to {max_disks} disks, got {n}")
    overlaps = overlap_matrix(disks)
    neighbours = [frozenset(np.nonzero(overlaps[i])[0].tolist()) - {i} for i in range(n)]

    best: List[int] = []

    def search(candidates: List[int], chosen: List[int]) -> None:
        nonlocal best
        if len(chosen) + len(candidates) <= len(best):
            return  # bound: cannot beat the incumbent
        if not candidates:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        head, rest = candidates[0], candidates[1:]
        # Branch 1: take head, drop its neighbours.
        search([c for c in rest if c not in neighbours[head]], chosen + [head])
        # Branch 2: skip head.
        search(rest, chosen)

    # Order candidates by degree (fewest conflicts first) to tighten bounds.
    initial = sorted(range(n), key=lambda i: len(neighbours[i]))
    search(initial, [])
    return sorted(best)


def greedy_approximation_ratio(disks: Sequence[Disk]) -> float:
    """|exact| / |greedy| for one instance (1.0 means greedy was optimal)."""
    greedy = greedy_mis(disks)
    exact = exact_mis(disks)
    if not exact:
        return 1.0
    return len(exact) / max(len(greedy), 1)

"""BGP announcement table: /24 census units vs announced prefixes.

The census probes at /24 granularity, but operators announce aggregates:
"announced BGP prefixes that are smaller [shorter] than /24 are tested
multiple times, one per each /24 they contain: the mapping between /24 and
announced prefixes is still possible a posteriori" (Sec. 3.1).  The paper
also leans on [35]'s observation that "anycast prefixes are dominated by
/24" (88% of announced anycast prefixes).

This module provides the announcement table: generation of realistic
announcements covering a set of owned /24s (mostly exact /24s for anycast,
larger aggregates for unicast space), and the a-posteriori /24 → announced
prefix join.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .addresses import Prefix, slash24_base_address


@dataclass(frozen=True)
class Announcement:
    """One BGP table entry."""

    prefix: Prefix
    origin_asn: int


class AnnouncementTable:
    """A routing-table view supporting longest-prefix /24 lookups."""

    def __init__(self, announcements: Iterable[Announcement]) -> None:
        self._announcements: List[Announcement] = sorted(
            announcements, key=lambda a: (a.prefix.base, -a.prefix.length)
        )
        # Sorted bases for bisect; candidates are scanned backward from the
        # insertion point (a covering prefix must start at or before the
        # target address).
        self._bases = [a.prefix.base for a in self._announcements]

    def __len__(self) -> int:
        return len(self._announcements)

    def __iter__(self):
        return iter(self._announcements)

    def lookup_slash24(self, index: int) -> Optional[Announcement]:
        """Longest-prefix match for a /24 (the a-posteriori join)."""
        address = slash24_base_address(index)
        pos = bisect.bisect_right(self._bases, address) - 1
        best: Optional[Announcement] = None
        # Scan back while candidates could still cover the address: once a
        # candidate's base is below address - max_span, stop.
        scan = pos
        while scan >= 0:
            candidate = self._announcements[scan]
            if candidate.prefix.contains(address):
                if best is None or candidate.prefix.length > best.prefix.length:
                    best = candidate
            if address - candidate.prefix.base >= (1 << 24):
                break  # nothing shorter than /8 exists; stop scanning
            scan -= 1
        return best

    def slash24_share(self) -> float:
        """Share of announcements that are exact /24s (paper: 88%)."""
        if not self._announcements:
            raise ValueError("empty announcement table")
        exact = sum(1 for a in self._announcements if a.prefix.length == 24)
        return exact / len(self._announcements)


def announce_owned_slash24s(
    owned: Sequence[int],
    origin_asn: int,
    rng: np.random.Generator,
    slash24_prob: float = 0.88,
) -> List[Announcement]:
    """Generate announcements covering an AS's owned /24 indices.

    Contiguous runs of /24s are either announced individually (with
    probability ``slash24_prob``, the anycast-typical case) or aggregated
    into the largest aligned covering blocks — the way operators announce
    unicast allocations.
    """
    if not 0.0 <= slash24_prob <= 1.0:
        raise ValueError("slash24_prob must be in [0, 1]")
    announcements: List[Announcement] = []
    for run_start, run_len in _contiguous_runs(sorted(owned)):
        if rng.random() < slash24_prob or run_len == 1:
            for i in range(run_len):
                announcements.append(
                    Announcement(
                        prefix=Prefix(slash24_base_address(run_start + i), 24),
                        origin_asn=origin_asn,
                    )
                )
            continue
        # Aggregate the run into maximal aligned power-of-two blocks.
        index = run_start
        remaining = run_len
        while remaining > 0:
            block = 1
            while (
                block * 2 <= remaining
                and index % (block * 2) == 0
            ):
                block *= 2
            length = 24 - block.bit_length() + 1
            announcements.append(
                Announcement(
                    prefix=Prefix(slash24_base_address(index), length),
                    origin_asn=origin_asn,
                )
            )
            index += block
            remaining -= block
    return announcements


def _contiguous_runs(indices: Sequence[int]) -> List[Tuple[int, int]]:
    """(start, length) of each maximal run of consecutive integers."""
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    previous: Optional[int] = None
    for index in indices:
        if start is None:
            start, previous = index, index
            continue
        if index == previous + 1:
            previous = index
            continue
        runs.append((start, previous - start + 1))
        start, previous = index, index
    if start is not None:
        runs.append((start, previous - start + 1))
    return runs


def table_for_internet(internet, seed: int = 88) -> AnnouncementTable:
    """Build the announcement table of a synthetic Internet.

    Anycast deployments announce /24-dominated prefixes (the [35]
    observation; per-run aggregation probability is tuned so ~88% of the
    resulting anycast announcements are exact /24s); unicast space
    aggregates far more.
    """
    rng = np.random.default_rng(seed)
    announcements: List[Announcement] = []
    for dep in internet.deployments:
        announcements.extend(
            announce_owned_slash24s(dep.prefixes, dep.entry.asn, rng, slash24_prob=0.4)
        )
    # Unicast space: group hosts into synthetic origin ASes of ~32 /24s and
    # aggregate aggressively.
    hosts = sorted(h.prefix for h in internet.unicast_hosts)
    fake_asn = 200_000
    for start in range(0, len(hosts), 32):
        chunk = hosts[start : start + 32]
        announcements.extend(
            announce_owned_slash24s(chunk, fake_asn, rng, slash24_prob=0.15)
        )
        fake_asn += 1
    return AnnouncementTable(announcements)

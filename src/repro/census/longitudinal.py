"""Longitudinal anycast censuses (paper Sec. 5).

"Taking periodic censuses and analyzing the time evolution over longer
timescales would allow to track evolution of IP anycast deployments" — and
indeed the paper notes that later censuses already showed "small but
interesting changes in the anycast landscape".

This module provides the two halves of such a study:

* :func:`evolve_catalog` — advance the deployment catalog by one epoch:
  existing deployments grow (occasionally shrink) their replica sites, and
  new small adopters appear.  Thanks to the per-AS deterministic topology
  builder, an evolved catalog yields a world where *unchanged* entities
  are bit-identical and grown deployments keep their existing sites;
* :func:`compare_epochs` — diff the per-AS census views of two epochs into
  grown / shrunk / new / gone deployments.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..internet.catalog import CatalogEntry
from ..net.asn import BusinessCategory

#: One epoch's per-AS census rows: ``{asn: (name, mean replicas per /24,
#: anycast /24 count)}`` (:meth:`~repro.census.characterize.Characterization.as_rows`,
#: or an archived results document's ``ases`` section).
ASRows = Dict[int, Tuple[str, float, int]]

#: Reserved ASN block for epoch-born anycast adopters.  Hashed allocation
#: inside a private block far above every catalog ASN: identity depends on
#: the evolution seed and adopter ordinal, never on the current catalog
#: contents — so a shrunk catalog can never hand a dead AS's number to a
#: newcomer (which would silently merge two different deployments in any
#: longitudinal diff keyed by ASN).
ADOPTER_ASN_BASE = 4_200_000_000
ADOPTER_ASN_SPAN = 94_967_294  # up to the 32-bit ASN ceiling


def _adopter_asn(seed: int, ordinal: int, used: set) -> int:
    """Collision-free ASN for one new adopter, stable in (seed, ordinal)."""
    h = zlib.crc32(f"adopter:{seed}:{ordinal}".encode())
    asn = ADOPTER_ASN_BASE + h % ADOPTER_ASN_SPAN
    while asn in used:  # linear probing inside the reserved block
        asn = ADOPTER_ASN_BASE + (asn - ADOPTER_ASN_BASE + 1) % ADOPTER_ASN_SPAN
    return asn


@dataclass(frozen=True)
class EvolutionConfig:
    """One epoch of anycast-landscape drift."""

    #: Probability an existing deployment adds sites this epoch.
    growth_prob: float = 0.30
    #: Maximum sites added in one epoch.
    max_new_sites: int = 4
    #: Probability a deployment retires some sites.
    shrink_prob: float = 0.05
    #: New small anycast adopters appearing this epoch.
    new_adopters: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.growth_prob <= 1.0:
            raise ValueError("growth_prob must be in [0, 1]")
        if not 0.0 <= self.shrink_prob <= 1.0:
            raise ValueError("shrink_prob must be in [0, 1]")
        if self.max_new_sites < 1:
            raise ValueError("max_new_sites must be >= 1")
        if self.new_adopters < 0:
            raise ValueError("new_adopters must be >= 0")


def evolve_catalog(
    catalog: Sequence[CatalogEntry],
    seed: int,
    config: Optional[EvolutionConfig] = None,
) -> List[CatalogEntry]:
    """Advance a catalog by one census epoch.

    Existing entries keep their identity (ASN, footprint, services); only
    ``n_sites`` moves.  New adopters are appended, so existing prefix
    allocations are untouched.
    """
    cfg = config or EvolutionConfig()
    rng = np.random.default_rng(seed)
    evolved: List[CatalogEntry] = []
    for entry in catalog:
        n_sites = entry.n_sites
        u = rng.random()
        if u < cfg.growth_prob:
            n_sites += int(rng.integers(1, cfg.max_new_sites + 1))
        elif u < cfg.growth_prob + cfg.shrink_prob:
            n_sites = max(1, n_sites - int(rng.integers(1, 3)))
        evolved.append(replace(entry, n_sites=n_sites) if n_sites != entry.n_sites else entry)

    next_rank = max((e.rank for e in catalog), default=0) + 1
    used_asns = {e.asn for e in catalog}
    categories = [BusinessCategory.DNS, BusinessCategory.CDN, BusinessCategory.CLOUD]
    for i in range(cfg.new_adopters):
        asn = _adopter_asn(seed, i, used_asns)
        used_asns.add(asn)
        evolved.append(
            CatalogEntry(
                rank=next_rank + i,
                asn=asn,
                name=f"NEW-ADOPTER-{asn},US",
                country="US",
                category=categories[int(rng.integers(0, len(categories)))],
                n_slash24=int(rng.integers(1, 4)),
                n_sites=int(rng.integers(2, 6)),
                ports=(53, 80, 443),
                software=("nginx",),
            )
        )
    return evolved


@dataclass
class ASChange:
    """Per-AS delta between two census epochs."""

    asn: int
    name: str
    replicas_before: float
    replicas_after: float
    ip24_before: int
    ip24_after: int

    @property
    def replica_delta(self) -> float:
        return self.replicas_after - self.replicas_before

    @property
    def ip24_delta(self) -> int:
        return self.ip24_after - self.ip24_before


@dataclass
class LongitudinalReport:
    """Census-observed changes between two epochs.

    The lists partition the tracked ASes: replica-count motion wins
    (``grown``/``shrunk``), then /24-footprint-only motion
    (``footprint_grown``/``footprint_shrunk`` — an AS serving the same
    replica count from more or fewer prefixes), then ``stable``.
    """

    grown: List[ASChange] = field(default_factory=list)
    shrunk: List[ASChange] = field(default_factory=list)
    stable: List[ASChange] = field(default_factory=list)
    appeared: List[ASChange] = field(default_factory=list)
    disappeared: List[ASChange] = field(default_factory=list)
    #: Replica-stable ASes whose advertised /24 footprint grew / shrank.
    footprint_grown: List[ASChange] = field(default_factory=list)
    footprint_shrunk: List[ASChange] = field(default_factory=list)

    @property
    def n_tracked(self) -> int:
        return (
            len(self.grown) + len(self.shrunk) + len(self.stable)
            + len(self.appeared) + len(self.disappeared)
            + len(self.footprint_grown) + len(self.footprint_shrunk)
        )


def compare_epochs(
    before: ASRows,
    after: ASRows,
    min_delta: float = 1.0,
    min_ip24_delta: int = 1,
) -> LongitudinalReport:
    """Diff two epochs' per-AS census rows (:data:`ASRows`) by AS.

    ``min_delta`` is the mean-replica change below which an AS counts as
    replica-stable (one replica of slack absorbs enumeration noise);
    ``min_ip24_delta`` plays the same role for the /24 footprint of
    replica-stable ASes.
    """
    if min_delta < 0:
        raise ValueError("min_delta must be non-negative")
    if min_ip24_delta < 0:
        raise ValueError("min_ip24_delta must be non-negative")
    report = LongitudinalReport()
    for asn in sorted(set(before) | set(after)):
        row_before, row_after = before.get(asn), after.get(asn)
        name = (row_after or row_before)[0]
        _, replicas_before, ip24_before = row_before or (name, 0.0, 0)
        _, replicas_after, ip24_after = row_after or (name, 0.0, 0)
        change = ASChange(
            asn, name, replicas_before, replicas_after, ip24_before, ip24_after
        )
        if row_before is None:
            report.appeared.append(change)
        elif row_after is None:
            report.disappeared.append(change)
        elif change.replica_delta >= min_delta:
            report.grown.append(change)
        elif change.replica_delta <= -min_delta:
            report.shrunk.append(change)
        elif change.ip24_delta >= min_ip24_delta:
            report.footprint_grown.append(change)
        elif change.ip24_delta <= -min_ip24_delta:
            report.footprint_shrunk.append(change)
        else:
            report.stable.append(change)
    return report

"""Per-AS characterization of census results (paper Sec. 4).

Aggregates per-/24 iGreedy results into the AS-level views the paper
reports: geographical footprints (Fig. 9 bottom), the at-a-glance summary
table (Fig. 10), the business-category breakdown (Fig. 11), the
replicas-per-/24 CDF (Fig. 12), and the /24-per-AS distribution (Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..internet.topology import SyntheticInternet
from ..net.asn import AutonomousSystem
from .analysis import AnalysisResult


@dataclass
class ASFootprint:
    """Census view of one AS's anycast deployment."""

    autonomous_system: AutonomousSystem
    #: Detected anycast /24s of this AS.
    prefixes: List[int] = field(default_factory=list)
    #: Enumerated replica count per detected /24 (aligned with prefixes).
    replicas_per_prefix: List[int] = field(default_factory=list)
    #: Union of replica city keys observed across the AS's /24s.
    cities: Set[Tuple[str, str]] = field(default_factory=set)

    @property
    def asn(self) -> int:
        return self.autonomous_system.asn

    @property
    def n_ip24(self) -> int:
        return len(self.prefixes)

    @property
    def mean_replicas(self) -> float:
        return float(np.mean(self.replicas_per_prefix)) if self.replicas_per_prefix else 0.0

    @property
    def std_replicas(self) -> float:
        return float(np.std(self.replicas_per_prefix)) if self.replicas_per_prefix else 0.0

    @property
    def max_replicas(self) -> int:
        return max(self.replicas_per_prefix, default=0)

    @property
    def total_replicas(self) -> int:
        return sum(self.replicas_per_prefix)

    @property
    def countries(self) -> Set[str]:
        return {country for _, country in self.cities}


@dataclass(frozen=True)
class GlanceRow:
    """One row of the Fig. 10 summary table."""

    label: str
    ip24: int
    ases: int
    cities: int
    countries: int
    replicas: int


class Characterization:
    """AS-level aggregation of an :class:`AnalysisResult`."""

    def __init__(self, analysis: AnalysisResult, internet: SyntheticInternet) -> None:
        self.analysis = analysis
        self.internet = internet
        self.footprints: Dict[int, ASFootprint] = {}
        for prefix, result in analysis.results.items():
            if not result.is_anycast:
                continue
            owner = internet.registry.owner_of(prefix)
            if owner is None:
                continue  # an anycast /24 outside any registered AS
            fp = self.footprints.get(owner.asn)
            if fp is None:
                fp = ASFootprint(autonomous_system=owner)
                self.footprints[owner.asn] = fp
            fp.prefixes.append(prefix)
            fp.replicas_per_prefix.append(result.replica_count)
            fp.cities.update(c.key for c in result.cities)

    def as_rows(self) -> Dict[int, Tuple[str, float, int]]:
        """Per-AS rows ``{asn: (name, mean replicas, /24s)}``, the form
        :func:`~repro.census.longitudinal.compare_epochs` diffs."""
        return {
            asn: (fp.autonomous_system.name, fp.mean_replicas, fp.n_ip24)
            for asn, fp in self.footprints.items()
        }

    # ------------------------------------------------------------------
    # Confidence (resilience layer): honest labelling of degraded input
    # ------------------------------------------------------------------

    def confidence_counts(self) -> Dict[str, int]:
        """Per-verdict target tally (empty when no verdicts were computed)."""
        counts: Dict[str, int] = {}
        for verdict in self.analysis.confidence.values():
            counts[verdict] = counts.get(verdict, 0) + 1
        return counts

    def footprint_confidence(self, footprint: ASFootprint) -> str:
        """The weakest verdict among a footprint's /24s (default ``full``).

        An AS aggregated from any degraded target is itself degraded —
        tables must not launder partial inputs into full-confidence rows.
        """
        order = {"full": 0, "degraded": 1, "insufficient": 2}
        worst = "full"
        for prefix in footprint.prefixes:
            verdict = self.analysis.confidence_of(prefix)
            if order.get(verdict, 0) > order[worst]:
                worst = verdict
        return worst

    # ------------------------------------------------------------------
    # Fig. 9 — top ASes by geographical footprint
    # ------------------------------------------------------------------

    def top_ases(self, k: int = 100, min_replicas: int = 5) -> List[ASFootprint]:
        """The ``k`` ASes with the largest footprint (≥ ``min_replicas``).

        Ordered by decreasing mean replicas per /24, the paper's Fig. 9
        x-axis ordering.
        """
        qualified = [fp for fp in self.footprints.values() if fp.max_replicas >= min_replicas]
        qualified.sort(key=lambda fp: (-fp.mean_replicas, fp.asn))
        return qualified[:k]

    # ------------------------------------------------------------------
    # Fig. 10 — at-a-glance table
    # ------------------------------------------------------------------

    def glance_table(
        self,
        caida_asns: Optional[Set[int]] = None,
        alexa_prefixes: Optional[Dict[int, Set[int]]] = None,
        min_replicas: int = 5,
    ) -> List[GlanceRow]:
        rows = [self._row("All", list(self.footprints.values()))]

        qualified = [fp for fp in self.footprints.values() if fp.max_replicas >= min_replicas]
        rows.append(self._row(f">= {min_replicas} Replicas", qualified))

        if caida_asns is not None:
            caida = [fp for fp in self.footprints.values() if fp.asn in caida_asns]
            rows.append(self._row("/\\ CAIDA-100", caida))

        if alexa_prefixes is not None:
            restricted = []
            for fp in self.footprints.values():
                hosted = alexa_prefixes.get(fp.asn)
                if not hosted:
                    continue
                sub = ASFootprint(autonomous_system=fp.autonomous_system)
                for prefix, count in zip(fp.prefixes, fp.replicas_per_prefix):
                    if prefix in hosted:
                        sub.prefixes.append(prefix)
                        sub.replicas_per_prefix.append(count)
                        result = self.analysis.results[prefix]
                        sub.cities.update(c.key for c in result.cities)
                if sub.prefixes:
                    restricted.append(sub)
            rows.append(self._row("/\\ Alexa-100k", restricted))
        return rows

    @staticmethod
    def _row(label: str, footprints: Sequence[ASFootprint]) -> GlanceRow:
        cities = set().union(*(fp.cities for fp in footprints)) if footprints else set()
        return GlanceRow(
            label=label,
            ip24=sum(fp.n_ip24 for fp in footprints),
            ases=len(footprints),
            cities=len(cities),
            countries=len({country for _, country in cities}),
            replicas=sum(fp.total_replicas for fp in footprints),
        )

    # ------------------------------------------------------------------
    # Fig. 11 — business-category breakdown
    # ------------------------------------------------------------------

    def category_breakdown(self, min_replicas: int = 5, k: int = 100) -> Dict[str, float]:
        """Share of each coarse business category among the top ASes."""
        top = self.top_ases(k=k, min_replicas=min_replicas)
        if not top:
            return {}
        counts: Dict[str, int] = {}
        for fp in top:
            coarse = fp.autonomous_system.category.coarse
            counts[coarse] = counts.get(coarse, 0) + 1
        total = len(top)
        return {cat: n / total for cat, n in sorted(counts.items(), key=lambda kv: -kv[1])}

    # ------------------------------------------------------------------
    # Fig. 12 — replicas per /24 CDF
    # ------------------------------------------------------------------

    def replicas_per_ip24(self) -> np.ndarray:
        """Replica count of every detected anycast /24 (CDF input)."""
        counts = [
            r.replica_count for r in self.analysis.results.values() if r.is_anycast
        ]
        return np.sort(np.array(counts, dtype=np.int64))

    # ------------------------------------------------------------------
    # Fig. 13 — /24s per AS
    # ------------------------------------------------------------------

    def ip24_per_as(self, min_replicas: int = 0) -> Dict[int, int]:
        """ASN -> number of detected anycast /24s."""
        return {
            fp.asn: fp.n_ip24
            for fp in self.footprints.values()
            if fp.max_replicas >= min_replicas
        }

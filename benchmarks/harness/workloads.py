"""The benchmark's four workloads: scale constants, seeds, pinned outcomes.

A workload's scale constants are part of its name: once a baseline has
been published they never change — tune ``--seconds``/``--reps``, not
scale.  They are sized so that one driver run (three set-ups plus
``run_seconds`` of timed units) fits the ~35 s the driver's run-time cap
leaves per run on a 2-CPU host; README.md records how they relate to the
larger sizes the issue sketched.

Everything random derives from the one ``--seed`` argument through
:func:`derive_seeds`; the program only ever sees the generated world.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

DEFAULT_SEED = 2015

#: Probing rate of the study workloads (the paper's safe rate).
RATE_PPS = 1000.0

#: Gentle day-over-day drift of ``service-daily``: a quiet day re-analyses
#: a few dozen targets and copies the rest forward.
EVOLUTION = dict(growth_prob=0.02, max_new_sites=1, shrink_prob=0.01, new_adopters=1)


class Seeds(NamedTuple):
    internet: int
    platform: int
    campaign: int
    evolution: int


def derive_seeds(seed: int) -> Seeds:
    """Every seed the program takes, as fixed offsets of ``--seed``."""
    return Seeds(seed, seed + 101, seed + 202, seed + 303)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"study"`` — one unit is one full census from a ready world;
    #: ``"service"`` — one unit is one quiet ``CensusService`` day.
    kind: str
    n_unicast: int
    #: ``full_catalog(tail_count=tail)`` ...
    tail: int
    #: ... sliced ``[start:stop:step]`` — the anycast needles.
    catalog: Tuple[Optional[int], Optional[int], Optional[int]]
    n_vps: int
    n_censuses: int = 1
    availability: float = 1.0
    #: Minimum recall over responsive true-anycast /24s, on any seed
    #: (the lowest seen over 20 seeds, less a margin).
    recall_floor: float = 0.0
    #: Expected result digests at :data:`DEFAULT_SEED`, published scale
    #: only: one for a study workload (every unit repeats it); one per
    #: quiet day, in order, for ``service-daily`` (later days are covered
    #: by the end-of-run checks alone).
    pinned: Tuple[str, ...] = ()

    def smoke(self) -> "Workload":
        """The same shape ~20x smaller, for the harness's own test."""
        start, stop, step = self.catalog
        return replace(
            self,
            n_unicast=max(200, self.n_unicast // 20),
            # Below ~30 VPs the trust engine convicts honest nodes.
            n_vps=max(30, self.n_vps // 4),
            catalog=(start, stop, (step or 1) * 5),
            recall_floor=0.0,
            pinned=(),
        )

    def parameters(self) -> Dict[str, object]:
        """The scale constants, as recorded in every output document."""
        return {
            "kind": self.kind,
            "n_unicast": self.n_unicast,
            "tail": self.tail,
            "catalog_slice": list(self.catalog),
            "n_vps": self.n_vps,
            "n_censuses": self.n_censuses,
            "availability": self.availability,
        }


WORKLOADS: List[Workload] = [
    Workload(
        name="paper",
        why=(
            "the paper's configuration in miniature, the balanced case: measurement, "
            "combine, detection and iGreedy each hold a share, so a gain in any layer "
            "shows, but only by its share"
        ),
        kind="study",
        n_unicast=8_000,
        tail=130,
        catalog=(None, None, 2),
        n_vps=125,
        n_censuses=2,
        recall_floor=0.8,
        pinned=("4360/694/6966/47f95aa004923aeb",),
    ),
    Workload(
        name="haystack",
        why=(
            "records-bound: many unicast /24s, few anycast needles, a small roster; "
            "prober, recordio, fold and matrix-store changes show here, iGreedy "
            "changes should not"
        ),
        kind="study",
        n_unicast=60_000,
        tail=0,
        catalog=(1, None, 4),
        n_vps=60,
        n_censuses=1,
        recall_floor=0.9,
        pinned=("27280/218/1022/62d11411bb684a9e",),
    ),
    Workload(
        name="wide-roster",
        why=(
            "the Atlas direction: few targets, a third anycast, a wide roster; the "
            "O(T*V^2) detection kernel and iGreedy dominate, so an O(V) detection "
            "filter shows here and not on haystack"
        ),
        kind="study",
        n_unicast=2_000,
        tail=260,
        catalog=(None, None, 8),
        n_vps=160,
        n_censuses=1,
        recall_floor=0.8,
        pinned=("1349/469/4827/cc7b00ea379e2445",),
    ),
    Workload(
        name="service-daily",
        why=(
            "the daily service (BGP plane, trust, incremental analysis): world rebuild, "
            "journalled measurement, copy-forward, archive commit and read; a study gain "
            "bought at the service's expense shows"
        ),
        kind="service",
        n_unicast=12_000,
        tail=0,
        catalog=(None, None, None),
        n_vps=60,
        recall_floor=0.95,
        pinned=(
            "6326/874/4869/0bd38ee0",
            "6328/876/4873/f1152dd0",
            "6329/876/4872/b89d286c",
            "6332/876/4872/6fc68826",
            "6335/879/4878/b8a3859b",
            "6338/882/4887/69f686d2",
        ),
    ),
]

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

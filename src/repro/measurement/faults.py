"""Fault injection and resilience primitives for census campaigns.

The paper's censuses ran from ~308 shared PlanetLab hosts, of which only
261/255/269/240 were usable per census (Sec. 3.3) and a straggler cohort
took many times the nominal scan duration (Fig. 8).  Shared testbed nodes
crash, hang, and corrupt data mid-scan; a census runner has to survive all
of it.  This module provides the two halves of that story:

* a **seeded fault model** (:class:`FaultPlan`) that makes a simulated
  vantage point misbehave in the four canonical ways — crash mid-scan,
  hang past any reasonable deadline, hand back a corrupted record batch,
  or flap (disappear for a whole census);
* the **supervision primitives** the supervisors use to cope — a
  bounded :class:`RetryPolicy` with exponential backoff and a
  :class:`StrikeCounter` that gives up on repeatedly-failing keys
  (quarantined VPs).

Every fault decision is drawn from an RNG keyed on
``(plan seed, census id, vantage point, attempt)`` rather than from a
sequential stream, so decisions are independent of evaluation order.
That is what makes a re-run bit-for-bit deterministic: re-running an
interrupted census re-derives exactly the same faults for every vantage
point.  The other chaos plans here (:class:`PoisonPlan`,
:class:`VpDistortionPlan`) work the same way:
each plan holds its seed and probabilities and draws and applies its own
faults.

A default-constructed :class:`FaultPlan` injects nothing, and the
campaign skips the fault path entirely in that case — fault-free output
is byte-identical to a campaign without the fault layer.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geo.coords import GeoPoint
from ..internet.hitlist import HitlistEntry
from .prober import VpScanResult
from .recordio import CensusRecords

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (combine -> campaign)
    from ..census.combine import RttMatrix

#: Domain-separation constant mixed into every fault RNG key so fault
#: draws can never collide with the scan RNG streams.
_FAULT_SALT = 0x5FA17

#: Separate salt for the data poisoner: poison draws are independent of
#: node-fault draws even under the same seed.
_POISON_SALT = 0x901507

#: Domain separation for VP-distortion draws (vs faults and poison).
_DISTORT_SALT = 0xD15708


class FaultKind(enum.Enum):
    """The four node-fault archetypes of shared measurement testbeds."""

    #: The scanner process dies mid-scan; records are truncated at a
    #: random probe offset but the partial batch survives on disk.
    CRASH = "crash"
    #: The scan completes but takes far longer than the nominal duration
    #: (swapping host, wedged NIC); a supervisor timeout treats it as dead.
    HANG = "hang"
    #: The record batch arrives but its contents were mangled in storage
    #: or transfer (bad RAM, torn writes); detectable by checksum only.
    CORRUPT = "corrupt"
    #: The node is unreachable for the entire census (reboot, network
    #: partition); no retry within the census can help.
    FLAP = "flap"


@dataclass(frozen=True)
class FaultPlan:
    """Per-fault probabilities for one campaign, plus the fault seed.

    All probabilities are per-(vantage point, census): e.g. with
    ``crash_prob=0.1`` roughly one scan attempt in ten crashes mid-way.
    ``crash_prob + hang_prob + corrupt_prob`` must not exceed 1 (they
    partition a single uniform draw per attempt); ``flap_prob`` is drawn
    separately per (vantage point, census) because a flap outlasts any
    retry.  The default plan injects nothing.
    """

    crash_prob: float = 0.0
    hang_prob: float = 0.0
    corrupt_prob: float = 0.0
    flap_prob: float = 0.0
    #: Seed of the fault RNG — independent from every measurement seed.
    seed: int = 0
    #: Duration multiplier applied by a hang (Fig. 8's far tail).
    hang_factor: float = 100.0
    #: Fraction of a corrupted batch's records that get mangled.
    corrupt_fraction: float = 0.05

    def __post_init__(self) -> None:
        for name in ("crash_prob", "hang_prob", "corrupt_prob", "flap_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.crash_prob + self.hang_prob + self.corrupt_prob > 1.0:
            raise ValueError("crash_prob + hang_prob + corrupt_prob must be <= 1")
        if self.seed < 0:
            raise ValueError("fault seed must be non-negative")
        if self.hang_factor < 1.0:
            raise ValueError("hang_factor must be >= 1")
        if not 0.0 < self.corrupt_fraction <= 1.0:
            raise ValueError("corrupt_fraction must be in (0, 1]")

    @property
    def enabled(self) -> bool:
        """Whether this plan can inject any fault at all."""
        return (
            self.crash_prob > 0.0
            or self.hang_prob > 0.0
            or self.corrupt_prob > 0.0
            or self.flap_prob > 0.0
        )

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, flap_prob: float = 0.0) -> "FaultPlan":
        """A plan spreading ``rate`` evenly over crash, hang and corrupt.

        Convenience for "X% of scans fault somehow" experiments — the
        acceptance scenario (crash+hang+corruption at 20% of VPs) is
        ``FaultPlan.uniform(0.2)``.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        share = rate / 3.0
        return cls(
            crash_prob=share,
            hang_prob=share,
            corrupt_prob=share,
            flap_prob=flap_prob,
            seed=seed,
        )

    def _rng(self, *keys: int) -> np.random.Generator:
        return np.random.default_rng([_FAULT_SALT, self.seed, *keys])

    # -- decisions: keyed, so ``fault_for(c, v, a)`` is the same answer
    # whatever was drawn before it ----------------------------------------

    def flaps(self, census_id: int, platform_index: int) -> bool:
        """Whether this VP is down for the whole of this census."""
        if self.flap_prob <= 0.0:
            return False
        rng = self._rng(census_id, platform_index, 0xF1A9)
        return bool(rng.random() < self.flap_prob)

    def fault_for(
        self, census_id: int, platform_index: int, attempt: int
    ) -> Optional[FaultKind]:
        """The fault (if any) striking one scan attempt: one keyed
        uniform partitioned by the cumulative probabilities, left to
        right, or ``None`` past the last."""
        u = float(self._rng(census_id, platform_index, attempt).random())
        edge = 0.0
        for prob, kind in (
            (self.crash_prob, FaultKind.CRASH),
            (self.hang_prob, FaultKind.HANG),
            (self.corrupt_prob, FaultKind.CORRUPT),
        ):
            edge += prob
            if u < edge:
                return kind
        return None

    # -- effects -----------------------------------------------------------

    def crash(
        self,
        result: VpScanResult,
        rate_pps: float,
        census_id: int,
        platform_index: int,
        attempt: int,
    ) -> VpScanResult:
        """Truncate a scan at a random probe offset, as a mid-scan crash.

        The surviving records are exactly those whose probes were sent
        before the crash instant; the partial batch is internally
        consistent (its checksum still validates) — that is what makes it
        salvageable.
        """
        rng = self._rng(census_id, platform_index, attempt, 0xC8A5)
        fraction = float(rng.uniform(0.1, 0.9))
        span_ms = result.probes_sent / rate_pps * 1000.0
        cutoff_ms = fraction * span_ms
        records = result.records
        kept = records.select(records.timestamp_ms <= cutoff_ms)
        return VpScanResult(
            records=kept,
            duration_hours=result.duration_hours * fraction,
            drop_rate=result.drop_rate,
            probes_sent=int(round(result.probes_sent * fraction)),
        )

    def corrupt(
        self,
        records: CensusRecords,
        census_id: int,
        platform_index: int,
        attempt: int,
    ) -> CensusRecords:
        """Mangle a copy of a record batch (prefixes and flags).

        Models silent storage/transfer corruption: the batch is the right
        shape and parses fine, only a checksum comparison can tell.  An
        empty batch has nothing to corrupt and is returned unchanged.
        """
        n = len(records)
        if n == 0:
            return records
        rng = self._rng(census_id, platform_index, attempt, 0xC0FF)
        n_bad = max(1, int(round(n * self.corrupt_fraction)))
        bad = rng.choice(n, size=min(n_bad, n), replace=False)
        prefix = records.prefix.copy()
        flag = records.flag.copy()
        prefix[bad] = prefix[bad] ^ np.uint32(0x00A5A5A5)
        flag[bad] = np.int8(103)  # an impossible outcome encoding
        return CensusRecords(
            census_id=records.census_id,
            vp_index=records.vp_index.copy(),
            prefix=prefix,
            timestamp_ms=records.timestamp_ms.copy(),
            rtt_ms=records.rtt_ms.copy(),
            flag=flag,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff — one shape for every
    supervisor: a VP scan, a pipeline stage.

    ``backoff_base`` is in the holder's clock: simulated hours for a
    scan (accounted in the campaign health report), wall-clock seconds
    for a stage (actually slept).  A scan's deadline is not part of the
    retry — it is the campaign's ``scan_timeout_hours``.
    """

    #: Total attempts, the first included (1 = no retry).
    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    #: Jitter amplitude as a fraction of the deterministic backoff: the
    #: actual wait is scaled by ``1 + jitter * u`` with ``u`` drawn by
    #: the holder from an RNG keyed on its own identity (the campaign's
    #: (seed, census, VP, attempt)) — decorrelated retry storms without
    #: sacrificing reproducibility.
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, u: float = 0.0) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        ``u`` in [0, 1) is the caller's keyed jitter draw; with the
        default ``jitter=0`` it has no effect and the schedule is the
        classic deterministic exponential.
        """
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return base * (1.0 + self.jitter * u)


class StrikeCounter:
    """Trips a key after ``threshold`` consecutive failures, for good.

    The campaign's quarantine: it drops a VP that failed that many
    censuses in a row (the simulated operator dropping a bad PlanetLab
    host from the slice).  A success resets the streak; a tripped key
    stays tripped.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self._streak: Dict[str, int] = {}
        self._tripped: Set[str] = set()

    def record(self, key: str, ok: bool) -> bool:
        """Count one outcome for ``key``; return whether it is tripped."""
        streak = 0 if ok else self._streak.get(key, 0) + 1
        self._streak[key] = streak
        if streak >= self.threshold:
            self._tripped.add(key)
        return key in self._tripped

    def count(self, key: str) -> int:
        """The key's current run of consecutive failures."""
        return self._streak.get(key, 0)

    @property
    def tripped(self) -> List[str]:
        """Every tripped key, sorted."""
        return sorted(self._tripped)


# ----------------------------------------------------------------------
# Chaos harness: poisoning data *between* stages
# ----------------------------------------------------------------------


class PoisonKind(enum.Enum):
    """The inter-stage data-corruption archetypes the chaos tests drive.

    Where :class:`FaultKind` models *nodes* misbehaving during the
    measurement phase, these model the *data* rotting on its way between
    pipeline stages: storage mangling RTT fields, geolocation feeds
    shipping impossible vantage-point coordinates, archives losing
    sample fractions, hitlist files with malformed rows.
    """

    #: Reply records whose RTT field became NaN.
    NAN_RTT = "nan_rtt"
    #: Reply records whose RTT collapsed below any physical round trip.
    SUPERLUMINAL_RTT = "superluminal_rtt"
    #: Vantage points whose coordinates left the surface of the Earth.
    CORRUPT_VP_COORDS = "corrupt_vp_coords"
    #: Matrix cells that claim a contributing sample but lost the RTT.
    DROP_SAMPLES = "drop_samples"
    #: Hitlist rows with broken prefixes, drifted addresses, duplicates.
    MALFORMED_HITLIST = "malformed_hitlist"


def _impossible_point(lat: float, lon: float) -> GeoPoint:
    """A GeoPoint carrying out-of-range coordinates.

    Bypasses ``GeoPoint.__post_init__`` deliberately: this models
    upstream data that *skipped* validation (a geolocation feed is under
    no obligation to run our constructors), which is exactly what the
    sanitizers must catch.
    """
    point = object.__new__(GeoPoint)
    object.__setattr__(point, "lat", float(lat))
    object.__setattr__(point, "lon", float(lon))
    return point


@dataclass(frozen=True)
class PoisonPlan:
    """Per-mode poisoning fractions for one study, plus the poison seed.

    Each fraction selects what share of the relevant population is
    poisoned: reply *records* for the RTT modes, matrix *VP columns* for
    coordinate corruption, filled matrix *cells* for sample loss, and
    hitlist *rows* for malformation.  The default plan poisons nothing.
    """

    nan_rtt: float = 0.0
    superluminal_rtt: float = 0.0
    corrupt_vp_coords: float = 0.0
    drop_samples: float = 0.0
    malformed_hitlist: float = 0.0
    #: Seed of the poison RNG — independent from fault and scan seeds.
    seed: int = 0

    def __post_init__(self) -> None:
        for kind in PoisonKind:
            value = getattr(self, kind.value)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{kind.value} must be in [0, 1], got {value!r}")
        if self.seed < 0:
            raise ValueError("poison seed must be non-negative")

    @property
    def enabled(self) -> bool:
        return any(getattr(self, kind.value) > 0.0 for kind in PoisonKind)

    @classmethod
    def single(
        cls, kind: "PoisonKind | str", fraction: float, seed: int = 0
    ) -> "PoisonPlan":
        """A plan poisoning exactly one mode — the chaos-matrix building
        block (``PoisonPlan.single(PoisonKind.NAN_RTT, 0.5)``)."""
        key = kind.value if isinstance(kind, PoisonKind) else PoisonKind(kind).value
        return cls(**{key: fraction, "seed": seed})

    def _rng(self, *keys: int) -> np.random.Generator:
        return np.random.default_rng([_POISON_SALT, self.seed, *keys])

    def poison_records(self, records: CensusRecords, key: int = 0) -> CensusRecords:
        """Poison RTT fields of a copy of one census's reply records."""
        if (self.nan_rtt <= 0.0 and self.superluminal_rtt <= 0.0) or not len(records):
            return records
        rtt = records.rtt_ms.copy()
        reply_rows = np.nonzero(records.flag == 0)[0]
        if len(reply_rows) == 0:
            return records
        if self.nan_rtt > 0.0:
            rng = self._rng(key, 0x7A7)
            hit = reply_rows[rng.random(len(reply_rows)) < self.nan_rtt]
            rtt[hit] = np.nan
        if self.superluminal_rtt > 0.0:
            rng = self._rng(key, 0x5C1)
            hit = reply_rows[rng.random(len(reply_rows)) < self.superluminal_rtt]
            rtt[hit] = np.float32(1e-6)
        return CensusRecords(
            census_id=records.census_id,
            vp_index=records.vp_index.copy(),
            prefix=records.prefix.copy(),
            timestamp_ms=records.timestamp_ms.copy(),
            rtt_ms=rtt,
            flag=records.flag.copy(),
        )

    def poison_matrix(self, matrix: "RttMatrix") -> "RttMatrix":
        """Poison a combined RTT matrix (coordinates and sample loss)."""
        if self.corrupt_vp_coords <= 0.0 and self.drop_samples <= 0.0:
            return matrix
        locations = list(matrix.vp_locations)
        rtt = matrix.rtt_ms
        if self.corrupt_vp_coords > 0.0 and matrix.n_vps:
            rng = self._rng(0xC00)
            hit = np.nonzero(rng.random(matrix.n_vps) < self.corrupt_vp_coords)[0]
            for j in hit:
                locations[int(j)] = _impossible_point(
                    lat=float(rng.uniform(91.0, 1000.0)),
                    lon=float(rng.uniform(181.0, 1000.0)),
                )
        if self.drop_samples > 0.0:
            rng = self._rng(0xD09)
            rtt = rtt.copy()
            filled = ~np.isnan(rtt)
            # RTT vanishes, sample_count still claims a contribution:
            # torn data, distinguishable from honest silence.
            lost = filled & (rng.random(rtt.shape) < self.drop_samples)
            rtt[lost] = np.nan
        return replace(matrix, vp_locations=locations, rtt_ms=rtt)

    def poison_hitlist(self, entries: Sequence[HitlistEntry]) -> List[HitlistEntry]:
        """Return a row list with a fraction of entries malformed.

        Poisoned rows rotate through three malformations: an address
        outside its own /24 (repairable), a duplicated /24 (droppable),
        and an out-of-space prefix index (droppable).
        """
        out = list(entries)
        if self.malformed_hitlist <= 0.0 or not out:
            return out
        rng = self._rng(0x417)
        hit = np.nonzero(rng.random(len(out)) < self.malformed_hitlist)[0]
        for i, row in enumerate(hit):
            entry = out[int(row)]
            mode = i % 3
            if mode == 0:
                out[int(row)] = replace(entry, address=(entry.address + 0x4200) & 0xFFFFFFFF)
            elif mode == 1:
                out[int(row)] = replace(entry, prefix=out[0].prefix)
            else:
                out[int(row)] = replace(entry, prefix=-1)
        return out


# ----------------------------------------------------------------------
# Vantage-point distortion: miscalibrated nodes, not crashed ones
# ----------------------------------------------------------------------


class DistortionKind(enum.Enum):
    """How a vantage point's *measurements* can be silently wrong.

    Where :class:`FaultKind` models a node failing loudly (crash, hang,
    corrupt batch), these model a node that keeps answering with data
    that is subtly untrustworthy — the failure modes that can fabricate
    speed-of-light violations and flip a unicast prefix to anycast, or
    hide real violations.  All four are well-documented on shared
    measurement platforms.
    """

    #: A constant offset on every RTT the VP reports (bad clock
    #: discipline / user-space timestamping skew).  Negative offsets
    #: produce physically impossible round trips.
    CLOCK_SKEW = "clock_skew"
    #: Heavy-tailed per-probe inflation (a congested uplink queue): the
    #: VP's RTTs are systematically fatter than propagation allows.
    BUFFERBLOAT = "bufferbloat"
    #: The VP's *reported* coordinates are wrong (stale geolocation
    #: feed); its measurements are physical but its metadata is not.
    GEO_ERROR = "geo_error"
    #: The VP reports one constant RTT for every target (wedged
    #: timestamping path returning a cached value).
    STUCK_RTT = "stuck_rtt"


@dataclass(frozen=True)
class VpDistortionPlan:
    """Keyed per-VP measurement distortion for a whole campaign.

    ``fraction`` of vantage points are distorted; each distorted VP is
    assigned one :class:`DistortionKind` (drawn uniformly from
    ``kinds``) and keeps it for every census — miscalibration is a
    property of the node, not of one scan.  All draws are keyed on
    ``(seed, VP name)``, so the distorted set is independent of census
    order, roster composition, and evaluation order, and identical
    across the epochs of a longitudinal service.

    The default plan distorts nothing, and consumers skip the
    distortion path entirely in that case — clean output is
    byte-identical to a campaign without the distortion layer.
    """

    fraction: float = 0.0
    #: Seed of the distortion RNG — independent of every other seed.
    seed: int = 0
    #: Kinds eligible for assignment (all four by default).
    kinds: Tuple[DistortionKind, ...] = (
        DistortionKind.CLOCK_SKEW,
        DistortionKind.BUFFERBLOAT,
        DistortionKind.GEO_ERROR,
        DistortionKind.STUCK_RTT,
    )
    #: Clock-skew offset magnitude range (ms); the sign is a fair coin.
    #: Sized well above the honest straggler cohort's exponential
    #: inflation (scale ``DEGRADED_SPIKE_MS``): a broken clock discipline
    #: drifts by hundreds of ms, an overloaded host by tens.
    skew_ms: Tuple[float, float] = (200.0, 500.0)
    #: Exponential scale (ms) of per-probe bufferbloat inflation (severe
    #: queueing routinely reaches hundreds of ms to seconds).
    bufferbloat_ms: float = 300.0
    #: Great-circle displacement range (km) of a mis-geolocated VP.
    #: Sized at wrong-continent scale (the classic stale-GeoIP failure):
    #: honest path overhead already pads speed-of-light disks by
    #: ~2000 km of slack, so a sub-continental displacement is largely
    #: absorbed by that padding and neither corrupts the census much nor
    #: leaves a cross-VP signature to detect.
    geo_error_km: Tuple[float, float] = (5000.0, 12000.0)
    #: Constant-RTT range (ms) a stuck VP reports for every target.
    stuck_ms: Tuple[float, float] = (3.0, 40.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction!r}")
        if self.seed < 0:
            raise ValueError("distortion seed must be non-negative")
        if not self.kinds:
            raise ValueError("kinds must not be empty")
        # Accept bare strings ("geo_error") anywhere a kind is listed.
        object.__setattr__(
            self, "kinds", tuple(DistortionKind(k) for k in self.kinds)
        )
        for name in ("skew_ms", "geo_error_km", "stuck_ms"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi:
                raise ValueError(f"{name} must be an increasing positive range")
        if self.bufferbloat_ms <= 0.0:
            raise ValueError("bufferbloat_ms must be positive")

    @property
    def enabled(self) -> bool:
        return self.fraction > 0.0

    @classmethod
    def single(
        cls, kind: "DistortionKind | str", fraction: float, seed: int = 0, **kwargs
    ) -> "VpDistortionPlan":
        """A plan applying exactly one kind — the chaos-matrix building
        block (``VpDistortionPlan.single(DistortionKind.STUCK_RTT, 0.1)``)."""
        member = kind if isinstance(kind, DistortionKind) else DistortionKind(kind)
        return cls(fraction=fraction, seed=seed, kinds=(member,), **kwargs)

    def _rng(self, vp_name: str, *keys: int) -> np.random.Generator:
        return np.random.default_rng(
            [_DISTORT_SALT, self.seed, zlib.crc32(vp_name.encode()), *keys]
        )

    def kind_for(self, vp_name: str) -> Optional[DistortionKind]:
        """The distortion (if any) afflicting one vantage point."""
        if not self.enabled:
            return None
        rng = self._rng(vp_name, 0xA551)
        if float(rng.random()) >= self.fraction:
            return None
        return self.kinds[int(rng.integers(len(self.kinds)))]

    def distorted_names(self, vp_names: Iterable[str]) -> Dict[str, DistortionKind]:
        """The afflicted subset of a roster, with each VP's kind."""
        out: Dict[str, DistortionKind] = {}
        for name in vp_names:
            kind = self.kind_for(name)
            if kind is not None:
                out[name] = kind
        return out

    def distort_result(self, vp_name: str, result: VpScanResult) -> VpScanResult:
        """Distort one VP scan's reply RTTs (geo error leaves them alone).

        Per-probe draws (bufferbloat) are keyed per target prefix, so
        pooled and re-run scans distort identically.
        """
        kind = self.kind_for(vp_name)
        if kind is None or kind is DistortionKind.GEO_ERROR:
            return result
        records = result.records
        replies = records.flag == 0
        if not bool(replies.any()):
            return result
        rng = self._rng(vp_name, 0x9A6A)
        rtt = records.rtt_ms.copy()
        if kind is DistortionKind.CLOCK_SKEW:
            lo, hi = self.skew_ms
            offset = float(rng.uniform(lo, hi))
            if bool(rng.random() < 0.5):
                offset = -offset
            rtt[replies] = rtt[replies] + np.float32(offset)
        elif kind is DistortionKind.STUCK_RTT:
            lo, hi = self.stuck_ms
            rtt[replies] = np.float32(rng.uniform(lo, hi))
        else:  # BUFFERBLOAT: keyed heavy-tailed inflation per target
            from .prober import keyed_uniform

            key = (self.seed * 0x9E3779B1 + zlib.crc32(vp_name.encode())) & (
                2**63 - 1
            )
            u = keyed_uniform(key, "bufferbloat", records.prefix[replies])
            rtt[replies] = rtt[replies] - np.float32(self.bufferbloat_ms) * np.log1p(
                -u
            ).astype(np.float32)
        records = CensusRecords(
            census_id=records.census_id,
            vp_index=records.vp_index.copy(),
            prefix=records.prefix.copy(),
            timestamp_ms=records.timestamp_ms.copy(),
            rtt_ms=rtt,
            flag=records.flag.copy(),
        )
        return VpScanResult(
            records=records,
            duration_hours=result.duration_hours,
            drop_rate=result.drop_rate,
            probes_sent=result.probes_sent,
        )

    def distort_location(self, vp_name: str, location: GeoPoint) -> GeoPoint:
        """A mis-geolocated VP's *reported* coordinates.

        The displacement (keyed distance + bearing) lands the claimed
        position far from where the measurements were really taken —
        the metadata lie the trust engine has to catch.
        """
        if self.kind_for(vp_name) is not DistortionKind.GEO_ERROR:
            return location
        rng = self._rng(vp_name, 0x6E0)
        lo, hi = self.geo_error_km
        distance_km = float(rng.uniform(lo, hi))
        bearing = float(rng.uniform(0.0, 2.0 * np.pi))
        angular = distance_km / 6371.0
        lat1 = np.radians(location.lat)
        lon1 = np.radians(location.lon)
        lat2 = np.arcsin(
            np.sin(lat1) * np.cos(angular)
            + np.cos(lat1) * np.sin(angular) * np.cos(bearing)
        )
        lon2 = lon1 + np.arctan2(
            np.sin(bearing) * np.sin(angular) * np.cos(lat1),
            np.cos(angular) - np.sin(lat1) * np.sin(lat2),
        )
        lon2 = (lon2 + np.pi) % (2.0 * np.pi) - np.pi
        return GeoPoint(lat=float(np.degrees(lat2)), lon=float(np.degrees(lon2)))

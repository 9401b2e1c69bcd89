"""fastping-like prober simulation.

One vantage point scanning the full hitlist over ICMP, reproducing the
operational behaviour Sec. 3.3/3.5 describes:

* targets probed in LFSR-randomized order at a configurable rate;
* replies policed near the VP when the probing rate exceeds what the VP's
  hosting network tolerates (the paper's motivation for slowing fastping
  down by an order of magnitude);
* per-VP scan duration driven by target count, probing rate and host load
  (PlanetLab nodes are shared machines — Fig. 8's completion-time CDF);
* error hosts answer with their ICMP error most of the time (90%), so the
  pre-census blacklist never quite catches them all and per-census
  greylists keep filling up.

The per-path base RTT is deterministic in (internet seed, VP name): paths
persist across censuses, only per-probe jitter and losses are redrawn.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from ..internet.topology import (
    RESP_ADMIN_FILTERED,
    RESP_HOST_PROHIBITED,
    RESP_NET_PROHIBITED,
    RESP_REPLY,
    RESP_SILENT,
    SyntheticInternet,
)
from ..net.icmp import IcmpOutcome
from .platform import VantagePoint
from .recordio import CensusRecords, FLAG_REPLY, flag_for

#: fastping's nominal capacity (probes per second) — "in excess of 10,000
#: hosts per second" before the slow-down.
FULL_RATE_PPS = 10_000.0

#: The production census rate after the one-order-of-magnitude slow-down.
SAFE_RATE_PPS = 1_000.0

#: Probability an error-configured host actually emits its ICMP error for
#: a given probe (the rest of the time it stays silent).
ERROR_EMISSION_PROB = 0.9

#: Baseline probability that a reply is lost in transit (transient loss,
#: ICMP de-prioritization) even from a healthy vantage point.
REPLY_LOSS_PROB = 0.08

#: A *degraded* vantage point (overloaded PlanetLab host) loses this share
#: of its replies for the whole census...
DEGRADED_LOSS_PROB = 0.5

#: ...and inflates the RTTs it does measure by an exponential delay of
#: this scale (ms) — user-space timestamping on a busy machine.
DEGRADED_SPIKE_MS = 50.0

#: Signature embedded in every probe payload (good-citizen practice).
PROBE_SIGNATURE = b"anycast-census see https://example.org/fastping"


def vp_path_seed(internet_seed: int, vp_name: str) -> int:
    """Stable per-(internet, VP) seed for path properties."""
    return (internet_seed * 2654435761 + zlib.crc32(vp_name.encode())) % (2**31)


def _splitmix64(x: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over uint64, in place (returns ``x``).

    uint64 arithmetic wraps modulo 2**64 on its own; ``shifted`` is a
    same-shape uint64 buffer for the shifted terms.
    """
    x += np.uint64(0x9E3779B97F4A7C15)
    np.right_shift(x, np.uint64(30), out=shifted)
    x ^= shifted
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=shifted)
    x ^= shifted
    x *= np.uint64(0x94D049BB133111EB)
    np.right_shift(x, np.uint64(31), out=shifted)
    x ^= shifted
    return x


def keyed_uniform(key: int, salt: str, prefixes: np.ndarray) -> np.ndarray:
    """Per-target uniforms in [0, 1), keyed — not streamed.

    Each target's draw is a pure hash of ``(key, salt, prefix)``: unlike a
    positional ``rng.random(n)`` stream, adding or removing *other*
    targets from the universe cannot shift it.  This is the primitive
    behind the campaign's ``noise="keyed"`` mode, which in turn is what
    lets the longitudinal service prove a target's measurements unchanged
    across epochs and skip its re-analysis.
    """
    words = np.asarray(prefixes).astype(np.uint64)
    return _mixed_uniform(words ^ _key_bases([key], salt)[0])


def _key_bases(keys: Sequence[int], salt: str) -> np.ndarray:
    """The uint64 word each key's draws under ``salt`` start from."""
    salted = zlib.crc32(salt.encode()) * 0xBF58476D1CE4E5B9
    return np.array(
        [(int(key) * 0x9E3779B97F4A7C15 + salted) & 0xFFFFFFFFFFFFFFFF for key in keys],
        dtype=np.uint64,
    )


def _mixed_uniform(x: np.ndarray) -> np.ndarray:
    """:func:`keyed_uniform`'s draws from ``prefix ^ base`` words (any
    shape; ``x`` is mixed in place): one key per element is as good as
    one per array."""
    shifted = np.empty_like(x)
    _splitmix64(_splitmix64(x, shifted), shifted)
    x >>= np.uint64(11)
    out = x.astype(np.float64)
    out *= 2.0**-53
    return out


@dataclass
class VpScanResult:
    """Outcome of one VP's full hitlist scan."""

    records: CensusRecords
    duration_hours: float
    #: Fraction of would-be replies lost to VP-side policing.
    drop_rate: float
    probes_sent: int
    #: The per-position verdicts the records were built from (keyed
    #: noise only; a later campaign may carry them).
    outcomes: Optional["ScanOutcomes"] = None


def base_rtt_row(
    internet: SyntheticInternet,
    vp: VantagePoint,
    distances_km: np.ndarray,
    positions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Base RTT from a VP under stream noise at the target ``positions``
    (every target when ``None``), deterministic across censuses.

    ``distances_km`` are the great-circle distances from the VP to those
    targets as it sees them (anycast targets at the site of its
    catchment).  The per-path stretch and last-mile delay come from the
    VP's positional stream, drawn over every target whatever
    ``positions`` reads, so the row at any positions is bit-equal to the
    whole row there; keyed noise draws them per target instead
    (:func:`keyed_base_rtts`).
    """
    rng = np.random.default_rng(vp_path_seed(internet.config.seed, vp.name))
    latency = internet.config.latency
    if positions is None:
        return latency.path_rtt_ms(distances_km, rng)
    n = internet.n_targets
    stretch = rng.triangular(
        latency.stretch_min, latency.stretch_mode, latency.stretch_max, size=n
    )
    last_mile = rng.exponential(latency.last_mile_ms_mean, size=n)
    return latency.path_rtt_ms_from_draws(
        distances_km, stretch[positions], last_mile[positions]
    )


def keyed_base_rtts(
    internet: SyntheticInternet,
    vps: Sequence[VantagePoint],
    distances_km: np.ndarray,
    positions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Keyed base RTTs from several VPs (one row each) at the target
    ``positions`` (every target when ``None``), ``distances_km`` being
    the distances to them.  The per-path stretch and last-mile delay are
    drawn from target-keyed uniforms: a target's base RTT depends only on
    its own (prefix, path), not on how many other targets the universe
    holds, so any subset of VPs and positions is bit-equal to the whole
    there."""
    seeds = [vp_path_seed(internet.config.seed, vp.name) for vp in vps]
    prefixes = internet.prefixes if positions is None else internet.prefixes[positions]
    words = prefixes.astype(np.uint64)[None, :]
    return internet.config.latency.path_rtt_ms_from_uniforms(
        distances_km,
        _mixed_uniform(words ^ _key_bases(seeds, "path-stretch")[:, None]),
        _mixed_uniform(words ^ _key_bases(seeds, "path-lastmile")[:, None]),
    )


#: ``(responsiveness class, record flag)`` of each ICMP error family, in
#: the order a scan's records list them (after the echo replies).
_ERROR_FAMILIES = tuple(
    (code, flag_for(outcome))
    for code, outcome in (
        (RESP_ADMIN_FILTERED, IcmpOutcome.ADMIN_FILTERED),
        (RESP_HOST_PROHIBITED, IcmpOutcome.HOST_PROHIBITED),
        (RESP_NET_PROHIBITED, IcmpOutcome.NET_PROHIBITED),
    )
)


#: Outcome codes of a keyed scan, one byte per target position
#: (:class:`ScanOutcomes`).  Silent: no record (an unresponsive host, a
#: lost reply, an error left unsent).  Policed: dropped near the VP,
#: which is what ``drop_rate`` counts.  Then the record each
#: responsiveness class emits: an echo reply, or error family ``k`` of
#: :data:`_ERROR_FAMILIES` as ``OUTCOME_REPLY + 1 + k``.
OUTCOME_SILENT = 0
OUTCOME_POLICED = 1
OUTCOME_REPLY = 2

_EMITTED = {
    RESP_REPLY: OUTCOME_REPLY,
    **{code: OUTCOME_REPLY + 1 + k for k, (code, _) in enumerate(_ERROR_FAMILIES)},
}
#: The outcome code of the record each responsiveness class emits.
_EMITTED_CODE = np.full(max(_EMITTED) + 1, OUTCOME_SILENT, dtype=np.uint8)
_EMITTED_CODE[list(_EMITTED)] = list(_EMITTED.values())


@dataclass(frozen=True)
class ScanTargets:
    """The census-invariant half of every VP scan of one census.

    Which targets are probed, which of those can answer at all, and when
    each is probed in the shared LFSR order.  Built once per census and
    shared by all of its scans; a scan then only draws its noise.
    """

    #: Probed targets that answer echo requests, ascending.
    reply_idx: np.ndarray
    #: Rank of each ``reply_idx`` among the world's echo-reply positions:
    #: where a base row over those positions holds its base RTT
    #: (:func:`simulate_vp_scan`).
    reply_rank: np.ndarray
    #: ``(record flag, probed hosts of that family, ascending)`` per ICMP
    #: error family, in record order.
    error_idx: Tuple[Tuple[int, np.ndarray], ...]
    #: Probe slot of each target in the unrotated order (``slot[order[k]]
    #: == k``); a VP rotated by ``shift`` probes target ``t`` at slot
    #: ``(slot[t] + shift) % n``.
    slot: np.ndarray
    probes_sent: int

    @classmethod
    def build(
        cls,
        internet: SyntheticInternet,
        order: np.ndarray,
        probe_mask: Optional[np.ndarray] = None,
    ) -> "ScanTargets":
        """Index sets of one census: ``order`` is its (unrotated) LFSR
        probing order, ``probe_mask`` its blacklist filter (``None``
        probes every target)."""
        n = internet.n_targets
        if len(order) != n:
            raise ValueError("array sizes disagree with target count")
        if probe_mask is None:
            probe_mask = np.ones(n, dtype=bool)
        resp = internet.responsiveness
        slot = np.empty(n, dtype=np.int64)
        slot[order] = np.arange(n, dtype=np.int64)
        replying = np.flatnonzero(resp == RESP_REPLY)
        reply_rank = np.flatnonzero(probe_mask[replying])
        return cls(
            reply_idx=replying[reply_rank],
            reply_rank=reply_rank,
            error_idx=tuple(
                (flag, np.flatnonzero((resp == code) & probe_mask))
                for code, flag in _ERROR_FAMILIES
            ),
            slot=slot,
            probes_sent=int(probe_mask.sum()),
        )

    @property
    def n(self) -> int:
        return len(self.slot)

    @cached_property
    def record_plan(self) -> Tuple[np.ndarray, ...]:
        """Every probed responsive target in record order — the echo
        replies, then each ICMP error family, ascending — as ``(position,
        outcome code, record flag, probe slot)`` columns.  A keyed scan
        records exactly the positions whose outcome is the code listed
        here (:func:`scan_from_outcomes`)."""
        families = [(OUTCOME_REPLY, FLAG_REPLY, self.reply_idx)] + [
            (OUTCOME_REPLY + 1 + k, flag, hosts)
            for k, (flag, hosts) in enumerate(self.error_idx)
        ]
        sizes = [len(idx) for _, _, idx in families]
        positions = np.concatenate([idx for _, _, idx in families])
        return (
            positions,
            np.repeat(np.array([code for code, _, _ in families], np.uint8), sizes),
            np.repeat(np.array([flag for _, flag, _ in families], np.int8), sizes),
            self.slot[positions],
        )


@dataclass
class ScanOutcomes:
    """A keyed scan's verdict at every target position of its world.

    Under keyed noise a position's outcome is a pure function of the
    scan's ``conditions`` (noise key, the VP's keep probability, the
    degraded flag), the position's prefix, responsiveness class and base
    RTT: never of the probe mask, the probing order or the other targets.
    Every responsive position is evaluated, probed or not, so one set of
    outcomes serves any probe mask; records, their timestamps and the
    drop rate follow from it and the census's :class:`ScanTargets`
    (:func:`scan_from_outcomes`).
    """

    #: ``(noise key, keep probability, degraded)`` the outcomes hold under.
    conditions: Tuple[int, float, bool]
    #: ``OUTCOME_*`` code per position (uint8).
    code: np.ndarray
    #: Reply RTT per position (float32; NaN where no reply was recorded).
    rtt_ms: np.ndarray
    #: Positions the kernel evaluated (every one for a cold scan).
    scanned: int
    #: Built on a predecessor campaign's outcomes.
    carried: bool = False


def keyed_outcomes(
    internet: SyntheticInternet,
    conditions: Sequence[Tuple[int, float, bool]],
    base_rtts: np.ndarray,
    positions: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The outcome kernel: ``(code, rtt_ms)`` with one row per scan of
    ``conditions`` and one column per position of ``positions`` (every
    position when ``None``); ``base_rtts`` holds each scan's base RTTs at
    the echo-reply positions among them, in their order (no other
    position's base RTT is ever read).

    Each verdict is a pure function of (conditions, prefix, class, base
    RTT), so evaluating any subset of scans and positions is bit-equal to
    the whole at that subset.
    """
    keys = [key for key, _, _ in conditions]
    keep = np.array([keep for _, keep, _ in conditions], dtype=np.float64)[:, None]
    degraded = np.array([late for _, _, late in conditions], dtype=bool)
    loss = np.where(degraded, DEGRADED_LOSS_PROB, REPLY_LOSS_PROB)[:, None]
    at = slice(None) if positions is None else positions
    resp = internet.responsiveness[at]
    code = np.full((len(conditions), len(resp)), OUTCOME_SILENT, dtype=np.uint8)
    rtt = np.full(code.shape, np.nan, dtype=np.float32)

    def grid(salt: str, words: np.ndarray) -> np.ndarray:
        return _mixed_uniform(words[None, :] ^ _key_bases(keys, salt)[:, None])

    # Error hosts emit their error with high (not certain) probability,
    # and the error packet is subject to the same VP-side policing as a
    # reply.
    responsive = np.flatnonzero(resp != RESP_SILENT)
    classes = resp[responsive]
    words = internet.prefixes[at][responsive].astype(np.uint64)
    kept = grid("police", words) < keep
    sent = kept & (grid("loss", words) >= loss)
    errors = np.flatnonzero(classes != RESP_REPLY)
    sent[:, errors] &= grid("emit", words[errors]) < ERROR_EMISSION_PROB
    code[:, responsive] = np.where(
        sent, _EMITTED_CODE[classes], np.where(kept, OUTCOME_SILENT, OUTCOME_POLICED)
    )

    scan, column = np.nonzero(sent & (classes == RESP_REPLY))
    if len(scan):
        cells = words[column]

        def u(salt: str, sel=slice(None)) -> np.ndarray:
            return _mixed_uniform(cells[sel] ^ _key_bases(keys, salt)[scan[sel]])

        answered = responsive[column]
        # Rank of each responsive column among the echo-reply ones: its
        # column of ``base_rtts``.
        reply_rank = np.cumsum(classes == RESP_REPLY) - 1
        rtts = internet.config.latency.probe_rtt_ms_from_uniforms(
            base_rtts[scan, reply_rank[column]], u("jitter"), u("spike-gate"), u("spike")
        )
        late = np.flatnonzero(degraded[scan])
        if len(late):
            rtts[late] = rtts[late] - DEGRADED_SPIKE_MS * np.log1p(-u("degraded", late))
        rtt[scan, answered] = rtts
    return code, rtt


def scan_from_outcomes(
    internet: SyntheticInternet,
    vp: VantagePoint,
    vp_index: int,
    census_id: int,
    outcomes: ScanOutcomes,
    targets: ScanTargets,
    rate_pps: float,
    shift: int = 0,
) -> VpScanResult:
    """A keyed scan of ``targets``, read off its per-position outcomes:
    records in the order every scan lists them (echo replies ascending,
    then each ICMP error family ascending), send times from the census's
    probing order rotated by ``shift``."""
    if rate_pps <= 0:
        raise ValueError("rate_pps must be positive")
    n = targets.n
    if len(outcomes.code) != n or internet.n_targets != n:
        raise ValueError("array sizes disagree with target count")
    positions, expected, flags, slots = targets.record_plan
    got = outcomes.code[positions]
    # drop_rate accounts for VP-side *policing* only; transient loss is a
    # separate, rate-independent phenomenon.
    n_responders = len(targets.reply_idx)
    dropped = int(np.count_nonzero(got[:n_responders] == OUTCOME_POLICED))
    recorded = np.flatnonzero(got == expected)
    if len(recorded):
        idx = positions[recorded]
        # Send times follow the probing order rotated by ``shift``, at
        # the rate: slot ``(slot + shift) mod n``, both terms below n.
        slot = slots[recorded] + shift
        np.subtract(slot, n, out=slot, where=slot >= n)
        send_ms = slot.astype(np.float64)
        send_ms /= rate_pps
        send_ms *= 1000.0
        records = CensusRecords(
            census_id=census_id,
            vp_index=np.full(len(idx), vp_index, dtype=np.uint16),
            prefix=internet.prefixes[idx].astype(np.uint32),
            timestamp_ms=send_ms,
            rtt_ms=outcomes.rtt_ms[idx],
            flag=flags[recorded],
        )
    else:
        # Nothing answered — empty universe or a fully-masked probe_mask.
        records = CensusRecords.empty(census_id)
    probes_sent = targets.probes_sent
    return VpScanResult(
        records=records,
        duration_hours=probes_sent / rate_pps / 3600.0 * vp.host_load,
        drop_rate=dropped / max(n_responders, 1),
        probes_sent=probes_sent,
        outcomes=outcomes,
    )


def simulate_vp_scan(
    internet: SyntheticInternet,
    vp: VantagePoint,
    vp_index: int,
    census_id: int,
    base_rtts: np.ndarray,
    targets: ScanTargets,
    rate_pps: float,
    rng: np.random.Generator,
    shift: int = 0,
    reply_loss_prob: float = REPLY_LOSS_PROB,
    degraded: bool = False,
) -> VpScanResult:
    """Simulate one VP scanning every target of ``targets`` once, its
    noise drawn from one positional stream (a campaign's ``"stream"``
    noise mode; a keyed scan is :func:`keyed_outcomes` read off by
    :func:`scan_from_outcomes`).

    Parameters
    ----------
    base_rtts:
        Path baseline RTT at each of the world's echo-reply positions,
        ascending (:func:`base_rtt_row` at those positions); the scan
        reads the probed ones through ``targets.reply_rank``.
    targets:
        The census's probed index sets and probing order
        (:meth:`ScanTargets.build`); masked-out targets are skipped
        entirely.
    shift:
        This VP's rotation of the census's LFSR order, in probe slots.
    rng:
        Census-specific randomness (jitter, losses, error emission).
    reply_loss_prob:
        Per-probe transient reply loss for a healthy node.
    degraded:
        An overloaded host for this census: heavy reply loss plus inflated
        user-space RTT timestamps (the paper's Fig. 8 straggler cohort).
    """
    if not 0.0 <= reply_loss_prob <= 1.0:
        raise ValueError("reply_loss_prob must be in [0, 1]")
    if rate_pps <= 0:
        raise ValueError("rate_pps must be positive")
    n = targets.n
    if internet.n_targets != n:
        raise ValueError("array sizes disagree with target count")
    if len(base_rtts) != np.count_nonzero(internet.responsiveness == RESP_REPLY):
        raise ValueError("base_rtts must hold one RTT per echo-reply position")

    # The positional stream is the byte contract: three full-universe
    # draws in this order, then the probe RTTs below.
    streams = {salt: rng.random(n) for salt in ("police", "loss", "emit")}

    def u(salt: str, idx: np.ndarray) -> np.ndarray:
        return streams[salt][idx]

    keep_prob = vp.rate_limit.keep_probability(rate_pps)
    loss = DEGRADED_LOSS_PROB if degraded else reply_loss_prob

    def send_ms(idx: np.ndarray) -> np.ndarray:
        """Send times follow the (rotated) probing order at the rate."""
        return ((targets.slot[idx] + shift) % n).astype(np.float64) / rate_pps * 1000.0

    responders = targets.reply_idx
    policed = u("police", responders) < keep_prob
    answered = policed & (u("loss", responders) >= loss)
    reply_idx = responders[answered]
    # drop_rate accounts for VP-side *policing* only; transient loss is a
    # separate, rate-independent phenomenon.
    dropped = len(responders) - int(policed.sum())
    drop_rate = dropped / max(len(responders), 1)

    columns_vp, columns_prefix, columns_ts, columns_rtt, columns_flag = [], [], [], [], []

    if len(reply_idx):
        rtts = internet.config.latency.probe_rtt_ms(
            base_rtts[targets.reply_rank[answered]], rng
        )
        if degraded:
            rtts = rtts + rng.exponential(DEGRADED_SPIKE_MS, size=rtts.shape)
        columns_vp.append(np.full(len(reply_idx), vp_index, dtype=np.uint16))
        columns_prefix.append(internet.prefixes[reply_idx].astype(np.uint32))
        columns_ts.append(send_ms(reply_idx))
        columns_rtt.append(rtts.astype(np.float32))
        columns_flag.append(np.full(len(reply_idx), FLAG_REPLY, dtype=np.int8))

    # Error hosts emit their error with high (not certain) probability,
    # and the error packet is subject to the same VP-side policing.
    for flag, hosts in targets.error_idx:
        err_idx = hosts[
            (u("police", hosts) < keep_prob)
            & (u("loss", hosts) >= loss)
            & (u("emit", hosts) < ERROR_EMISSION_PROB)
        ]
        if not len(err_idx):
            continue
        columns_vp.append(np.full(len(err_idx), vp_index, dtype=np.uint16))
        columns_prefix.append(internet.prefixes[err_idx].astype(np.uint32))
        columns_ts.append(send_ms(err_idx))
        columns_rtt.append(np.full(len(err_idx), np.nan, dtype=np.float32))
        columns_flag.append(np.full(len(err_idx), flag, dtype=np.int8))

    if columns_vp:
        records = CensusRecords(
            census_id=census_id,
            vp_index=np.concatenate(columns_vp),
            prefix=np.concatenate(columns_prefix),
            timestamp_ms=np.concatenate(columns_ts),
            rtt_ms=np.concatenate(columns_rtt),
            flag=np.concatenate(columns_flag),
        )
    else:
        # Nothing answered — empty universe or a fully-masked probe_mask.
        records = CensusRecords.empty(census_id)

    probes_sent = targets.probes_sent
    nominal_hours = probes_sent / rate_pps / 3600.0
    duration_hours = nominal_hours * vp.host_load
    return VpScanResult(
        records=records,
        duration_hours=duration_hours,
        drop_rate=drop_rate,
        probes_sent=probes_sent,
    )

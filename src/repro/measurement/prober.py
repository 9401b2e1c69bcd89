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
from typing import Optional, Tuple

import numpy as np

from ..internet.topology import (
    RESP_ADMIN_FILTERED,
    RESP_HOST_PROHIBITED,
    RESP_NET_PROHIBITED,
    RESP_REPLY,
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
    base = (
        int(key) * 0x9E3779B97F4A7C15
        + zlib.crc32(salt.encode()) * 0xBF58476D1CE4E5B9
    ) & 0xFFFFFFFFFFFFFFFF
    x = np.asarray(prefixes).astype(np.uint64)
    x ^= np.uint64(base)
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


def base_rtt_row(
    internet: SyntheticInternet,
    vp: VantagePoint,
    distances_km: np.ndarray,
    keyed: bool = False,
    positions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-target base RTT from a VP, deterministic across censuses.

    ``distances_km`` are the great-circle distances from the VP to every
    target as it sees them (anycast targets at the site of its
    catchment).  ``keyed=True`` draws the per-path stretch and last-mile
    delay from target-keyed uniforms instead of the positional stream: a
    target's base RTT then depends only on its own (prefix, path) — not on
    how many other targets the universe holds — at the cost of different
    bytes than stream mode.

    ``positions`` (keyed only) evaluates the row at those target
    positions alone, ``distances_km`` being the distances to them: each
    entry is a pure function of (VP, prefix, distance), so the result is
    bit-equal to the full row at those positions.
    """
    seed = vp_path_seed(internet.config.seed, vp.name)
    if keyed:
        prefixes = internet.prefixes if positions is None else internet.prefixes[positions]
        return internet.config.latency.path_rtt_ms_from_uniforms(
            distances_km,
            keyed_uniform(seed, "path-stretch", prefixes),
            keyed_uniform(seed, "path-lastmile", prefixes),
        )
    if positions is not None:
        raise ValueError("stream noise is positional: a row is built whole")
    rng = np.random.default_rng(seed)
    return internet.config.latency.path_rtt_ms(distances_km, rng)


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


@dataclass(frozen=True)
class ScanTargets:
    """The census-invariant half of every VP scan of one census.

    Which targets are probed, which of those can answer at all, and when
    each is probed in the shared LFSR order.  Built once per census and
    shared by all of its scans; a scan then only draws its noise.
    """

    #: Probed targets that answer echo requests, ascending.
    reply_idx: np.ndarray
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
        return cls(
            reply_idx=np.flatnonzero((resp == RESP_REPLY) & probe_mask),
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
    noise_key: Optional[int] = None,
) -> VpScanResult:
    """Simulate one VP scanning every target of ``targets`` once.

    Parameters
    ----------
    base_rtts:
        Per-target path baseline RTT (from :func:`base_rtt_row`).
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
    noise_key:
        When set, per-probe noise (policing, loss, error emission, jitter)
        is drawn from :func:`keyed_uniform` under this key instead of the
        positional ``rng`` stream: each target's outcome then depends only
        on (key, prefix), so universe growth leaves unchanged targets'
        records identical — the contract of the campaign's ``"keyed"``
        noise mode.  ``rng`` is unused in that case, and keyed draws are
        made only for the targets that use them.
    """
    if not 0.0 <= reply_loss_prob <= 1.0:
        raise ValueError("reply_loss_prob must be in [0, 1]")
    if rate_pps <= 0:
        raise ValueError("rate_pps must be positive")
    n = targets.n
    if len(base_rtts) != n or internet.n_targets != n:
        raise ValueError("array sizes disagree with target count")

    if noise_key is None:
        # The positional stream is the byte contract: three full-universe
        # draws in this order, then the probe RTTs below.
        streams = {salt: rng.random(n) for salt in ("police", "loss", "emit")}

        def u(salt: str, idx: np.ndarray) -> np.ndarray:
            return streams[salt][idx]

    else:

        def u(salt: str, idx: np.ndarray) -> np.ndarray:
            return keyed_uniform(noise_key, salt, internet.prefixes[idx])

    keep_prob = vp.rate_limit.keep_probability(rate_pps)
    loss = DEGRADED_LOSS_PROB if degraded else reply_loss_prob

    def send_ms(idx: np.ndarray) -> np.ndarray:
        """Send times follow the (rotated) probing order at the rate."""
        return ((targets.slot[idx] + shift) % n).astype(np.float64) / rate_pps * 1000.0

    responders = targets.reply_idx
    policed = u("police", responders) < keep_prob
    reply_idx = responders[policed & (u("loss", responders) >= loss)]
    # drop_rate accounts for VP-side *policing* only; transient loss is a
    # separate, rate-independent phenomenon.
    dropped = len(responders) - int(policed.sum())
    drop_rate = dropped / max(len(responders), 1)

    columns_vp, columns_prefix, columns_ts, columns_rtt, columns_flag = [], [], [], [], []

    if len(reply_idx):
        if noise_key is not None:
            rtts = internet.config.latency.probe_rtt_ms_from_uniforms(
                base_rtts[reply_idx],
                u("jitter", reply_idx),
                u("spike-gate", reply_idx),
                u("spike", reply_idx),
            )
            if degraded:
                rtts = rtts - DEGRADED_SPIKE_MS * np.log1p(-u("degraded", reply_idx))
        else:
            rtts = internet.config.latency.probe_rtt_ms(base_rtts[reply_idx], rng)
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

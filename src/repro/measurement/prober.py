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
from typing import Optional

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


_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 (wrapping arithmetic)."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & _U64
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _U64
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _U64
    return x ^ (x >> np.uint64(31))


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
    x = np.asarray(prefixes).astype(np.uint64) ^ np.uint64(base)
    z = _splitmix64(_splitmix64(x))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


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
    eff_lats: np.ndarray,
    eff_lons: np.ndarray,
    keyed: bool = False,
) -> np.ndarray:
    """Per-target base RTT from a VP, deterministic across censuses.

    ``keyed=True`` draws the per-path stretch and last-mile delay from
    target-keyed uniforms instead of the positional stream: a target's
    base RTT then depends only on its own (prefix, path) — not on how
    many other targets the universe holds — at the cost of different
    bytes than stream mode.
    """
    from ..geo.coords import pairwise_distances_km

    distances = pairwise_distances_km(
        [vp.location.lat], [vp.location.lon], eff_lats, eff_lons
    )[0]
    seed = vp_path_seed(internet.config.seed, vp.name)
    if keyed:
        return internet.config.latency.path_rtt_ms_from_uniforms(
            distances,
            keyed_uniform(seed, "path-stretch", internet.prefixes),
            keyed_uniform(seed, "path-lastmile", internet.prefixes),
        )
    rng = np.random.default_rng(seed)
    return internet.config.latency.path_rtt_ms(distances, rng)


def simulate_vp_scan(
    internet: SyntheticInternet,
    vp: VantagePoint,
    vp_index: int,
    census_id: int,
    base_rtts: np.ndarray,
    order: np.ndarray,
    rate_pps: float,
    rng: np.random.Generator,
    probe_mask: Optional[np.ndarray] = None,
    reply_loss_prob: float = REPLY_LOSS_PROB,
    degraded: bool = False,
    noise_key: Optional[int] = None,
) -> VpScanResult:
    """Simulate one VP scanning every target once.

    Parameters
    ----------
    base_rtts:
        Per-target path baseline RTT (from :func:`base_rtt_row`).
    order:
        Probing order as target positions (LFSR permutation, possibly
        rotated per VP).
    probe_mask:
        Optional boolean mask of targets to probe (blacklist filtering);
        masked-out targets are skipped entirely.
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
        noise mode.  ``rng`` is unused in that case.
    """
    if not 0.0 <= reply_loss_prob <= 1.0:
        raise ValueError("reply_loss_prob must be in [0, 1]")
    if rate_pps <= 0:
        raise ValueError("rate_pps must be positive")
    n = internet.n_targets
    if len(base_rtts) != n or len(order) != n:
        raise ValueError("array sizes disagree with target count")

    resp = internet.responsiveness
    if probe_mask is None:
        probe_mask = np.ones(n, dtype=bool)

    # Send times follow the probing order at the configured rate.
    send_ms = np.empty(n, dtype=np.float64)
    send_ms[order] = np.arange(n, dtype=np.float64) / rate_pps * 1000.0

    keep_prob = vp.rate_limit.keep_probability(rate_pps)
    loss = DEGRADED_LOSS_PROB if degraded else reply_loss_prob
    if noise_key is not None:
        u = lambda salt: keyed_uniform(noise_key, salt, internet.prefixes)  # noqa: E731
        policed = u("police") < keep_prob
        survives = policed & (u("loss") >= loss)
    else:
        policed = rng.random(n) < keep_prob
        survives = policed & (rng.random(n) >= loss)

    is_reply = (resp == RESP_REPLY) & probe_mask
    reply_kept = is_reply & survives
    # drop_rate accounts for VP-side *policing* only; transient loss is a
    # separate, rate-independent phenomenon.
    dropped = int((is_reply & ~policed).sum())
    drop_rate = dropped / max(int(is_reply.sum()), 1)

    # Error hosts emit their error with high (not certain) probability,
    # and the error packet is subject to the same VP-side policing.
    error_codes = {
        RESP_ADMIN_FILTERED: IcmpOutcome.ADMIN_FILTERED,
        RESP_HOST_PROHIBITED: IcmpOutcome.HOST_PROHIBITED,
        RESP_NET_PROHIBITED: IcmpOutcome.NET_PROHIBITED,
    }
    if noise_key is not None:
        emits = u("emit") < ERROR_EMISSION_PROB
    else:
        emits = rng.random(n) < ERROR_EMISSION_PROB

    columns_vp, columns_prefix, columns_ts, columns_rtt, columns_flag = [], [], [], [], []

    reply_idx = np.nonzero(reply_kept)[0]
    if len(reply_idx):
        if noise_key is not None:
            rtts = internet.config.latency.probe_rtt_ms_from_uniforms(
                base_rtts[reply_idx],
                u("jitter")[reply_idx],
                u("spike-gate")[reply_idx],
                u("spike")[reply_idx],
            )
            if degraded:
                rtts = rtts - DEGRADED_SPIKE_MS * np.log1p(-u("degraded")[reply_idx])
        else:
            rtts = internet.config.latency.probe_rtt_ms(base_rtts[reply_idx], rng)
            if degraded:
                rtts = rtts + rng.exponential(DEGRADED_SPIKE_MS, size=rtts.shape)
        columns_vp.append(np.full(len(reply_idx), vp_index, dtype=np.uint16))
        columns_prefix.append(internet.prefixes[reply_idx].astype(np.uint32))
        columns_ts.append(send_ms[reply_idx])
        columns_rtt.append(rtts.astype(np.float32))
        columns_flag.append(np.full(len(reply_idx), FLAG_REPLY, dtype=np.int8))

    for code, outcome in error_codes.items():
        err_idx = np.nonzero((resp == code) & probe_mask & emits & survives)[0]
        if not len(err_idx):
            continue
        columns_vp.append(np.full(len(err_idx), vp_index, dtype=np.uint16))
        columns_prefix.append(internet.prefixes[err_idx].astype(np.uint32))
        columns_ts.append(send_ms[err_idx])
        columns_rtt.append(np.full(len(err_idx), np.nan, dtype=np.float32))
        columns_flag.append(np.full(len(err_idx), flag_for(outcome), dtype=np.int8))

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

    probes_sent = int(probe_mask.sum())
    nominal_hours = probes_sent / rate_pps / 3600.0
    duration_hours = nominal_hours * vp.host_load
    return VpScanResult(
        records=records,
        duration_hours=duration_hours,
        drop_rate=drop_rate,
        probes_sent=probes_sent,
    )

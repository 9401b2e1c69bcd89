"""Validators and sanitizers for data crossing stage boundaries.

The paper's own pipeline is built on distrust of its inputs — iGreedy
relies on speed-of-light *violations* rather than raw RTT trust exactly
because latency samples are noisy — but noise is only half the problem:
real measurement platforms also deliver structurally broken data (NaN
RTTs from packet mangling, impossible vantage-point coordinates from bad
geolocation feeds, duplicated or truncated rows from torn writes).  The
functions here sit at the seams between stages and enforce a simple
contract:

* **repair what is repairable** (a hitlist row whose representative
  address drifted out of its /24 gets a fresh one),
* **quarantine what is not** (reason-coded, into a
  :class:`~repro.resilience.quarantine.QuarantineLog`),
* **touch nothing that is clean** — on pristine input every sanitizer
  returns its argument *object* unchanged, which is what keeps a
  resilience-enabled run byte-identical to the baseline.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from ..census.combine import RttMatrix
from ..geo.coords import GeoPoint
from ..internet.hitlist import HitlistEntry
from ..measurement.recordio import CensusRecords
from ..net.addresses import TOTAL_SLASH24, host_in_slash24, slash24_of
from .quarantine import QuarantineLog

#: Record flags the pipeline knows how to interpret (see recordio).
VALID_FLAGS = frozenset({0, 1, -9, -10, -13})

#: An RTT below this cannot be a real network round trip even to a
#: machine in the same rack — the reply would have outrun light through
#: the host's own stack.  Values below are quarantined as superluminal.
MIN_PLAUSIBLE_RTT_MS = 1e-3

#: An RTT above this (100x the worst intercontinental satellite path)
#: is a timer or parser artifact, not a measurement.
MAX_PLAUSIBLE_RTT_MS = 1e5


def _location_ok(point: GeoPoint) -> bool:
    """Whether a (possibly validation-bypassed) GeoPoint is physical."""
    try:
        lat, lon = float(point.lat), float(point.lon)
    except (TypeError, ValueError):
        return False
    return (
        np.isfinite(lat)
        and np.isfinite(lon)
        and -90.0 <= lat <= 90.0
        and -180.0 <= lon <= 180.0
    )


# ----------------------------------------------------------------------
# RTT records (per-census probe batches)
# ----------------------------------------------------------------------


def sanitize_records(
    records: CensusRecords, log: QuarantineLog, stage: str = "combine"
) -> CensusRecords:
    """Validate one census's probe records; quarantine the unusable ones.

    Checks, in order: unknown outcome flags, reply rows with NaN /
    negative / superluminal / implausibly-large RTTs, and duplicate
    (VP, target) pairs (first occurrence wins).  A clean batch is
    returned as the *same object*, so the fast path allocates nothing.
    """
    n = len(records)
    if n == 0:
        return records
    keep = np.ones(n, dtype=bool)
    flag = records.flag
    rtt = records.rtt_ms

    unknown = ~np.isin(flag, list(VALID_FLAGS))
    if unknown.any():
        log.add(
            stage,
            "unknown_flag",
            int(unknown.sum()),
            example=int(flag[unknown][0]),
        )
        keep &= ~unknown

    reply = flag == 0
    nan_rtt = reply & np.isnan(rtt)
    if nan_rtt.any():
        log.add(stage, "nan_rtt", int(nan_rtt.sum()))
        keep &= ~nan_rtt

    with np.errstate(invalid="ignore"):
        negative = reply & (rtt < 0.0)
        superluminal = reply & (rtt >= 0.0) & (rtt < MIN_PLAUSIBLE_RTT_MS)
        implausible = reply & (rtt > MAX_PLAUSIBLE_RTT_MS)
    if negative.any():
        log.add(stage, "negative_rtt", int(negative.sum()),
                example=float(rtt[negative][0]))
        keep &= ~negative
    if superluminal.any():
        log.add(stage, "superluminal_rtt", int(superluminal.sum()),
                example=float(rtt[superluminal][0]))
        keep &= ~superluminal
    if implausible.any():
        log.add(stage, "implausible_rtt", int(implausible.sum()),
                example=float(rtt[implausible][0]))
        keep &= ~implausible

    # Duplicate (VP, target) pairs: a VP probes each /24 once per census,
    # so a duplicate is a replayed or re-appended row.  Keep the first.
    pair_key = records.vp_index.astype(np.uint64) << np.uint64(32)
    pair_key |= records.prefix.astype(np.uint64)
    _, first_idx = np.unique(pair_key, return_index=True)
    unique_mask = np.zeros(n, dtype=bool)
    unique_mask[first_idx] = True
    duplicates = keep & ~unique_mask
    if duplicates.any():
        log.add(stage, "duplicate_record", int(duplicates.sum()))
        keep &= unique_mask

    if keep.all():
        return records
    return records.select(keep)


# ----------------------------------------------------------------------
# RTT matrix (combined censuses)
# ----------------------------------------------------------------------


def sanitize_matrix(
    matrix: RttMatrix, log: QuarantineLog, stage: str = "analysis"
) -> Tuple[RttMatrix, np.ndarray]:
    """Validate a combined RTT matrix; return it plus per-target losses.

    Quarantines vantage points with impossible coordinates (the whole
    column goes — a disk anchored at lat 400 proves nothing), merges
    duplicate VP columns (elementwise minimum, summed sample counts),
    nulls out cells with negative / superluminal / implausible RTTs, and
    nulls cells that *claim* contributing samples but lost their RTT
    (``sample_count > 0`` with NaN — torn data, not honest silence).

    The second return value counts, per target row, how many samples the
    sanitizer removed — the input of the per-target confidence verdicts.
    A clean matrix is returned as the same object with an all-zero loss
    vector.
    """
    removed = np.zeros(matrix.n_targets, dtype=np.int64)
    rtt = matrix.rtt_ms
    counts = matrix.sample_count
    dirty = False

    # -- vantage-point columns -----------------------------------------
    bad_cols: List[int] = []
    for j, point in enumerate(matrix.vp_locations):
        if not _location_ok(point):
            bad_cols.append(j)
    if bad_cols:
        for j in bad_cols:
            log.add(
                stage,
                "impossible_vp_coords",
                1,
                example=(matrix.vp_names[j], getattr(matrix.vp_locations[j], "lat", None)),
            )
        dirty = True

    first_of: dict = {}
    merged_into: List[Tuple[int, int]] = []  # (duplicate col, canonical col)
    for j, name in enumerate(matrix.vp_names):
        if j in bad_cols:
            continue
        if name in first_of:
            merged_into.append((j, first_of[name]))
        else:
            first_of[name] = j
    if merged_into:
        log.add(stage, "duplicate_vp", len(merged_into),
                example=matrix.vp_names[merged_into[0][0]])
        dirty = True

    if dirty:
        rtt = rtt.copy()
        counts = counts.copy()
        with np.errstate(invalid="ignore"):
            for dup, canon in merged_into:
                rtt[:, canon] = np.fmin(rtt[:, canon], rtt[:, dup])
                counts[:, canon] = np.minimum(
                    counts[:, canon].astype(np.int64) + counts[:, dup], 255
                ).astype(np.uint8)
        drop = set(bad_cols) | {dup for dup, _ in merged_into}
        # Samples in a dropped (not merged) column are losses.
        for j in bad_cols:
            removed += (~np.isnan(matrix.rtt_ms[:, j])).astype(np.int64)
        keep_cols = [j for j in range(matrix.n_vps) if j not in drop]
        rtt = rtt[:, keep_cols]
        counts = counts[:, keep_cols]
        vp_names = [matrix.vp_names[j] for j in keep_cols]
        vp_locations = [matrix.vp_locations[j] for j in keep_cols]
    else:
        vp_names = matrix.vp_names
        vp_locations = matrix.vp_locations

    # -- cells ---------------------------------------------------------
    cells_dirty = False
    with np.errstate(invalid="ignore"):
        negative = rtt < 0.0
        superluminal = (rtt >= 0.0) & (rtt < MIN_PLAUSIBLE_RTT_MS)
        implausible = rtt > MAX_PLAUSIBLE_RTT_MS
    lost = np.isnan(rtt) & (counts > 0)
    for mask, reason in (
        (negative, "negative_rtt"),
        (superluminal, "superluminal_rtt"),
        (implausible, "implausible_rtt"),
        (lost, "lost_sample"),
    ):
        n_bad = int(mask.sum())
        if n_bad:
            log.add(stage, reason, n_bad)
            removed += mask.sum(axis=1)
            if not cells_dirty and not dirty:
                rtt = rtt.copy()
                counts = counts.copy()
            cells_dirty = True
            rtt[mask] = np.nan
            counts[mask] = 0

    if not dirty and not cells_dirty:
        return matrix, removed
    return (
        RttMatrix(
            prefixes=matrix.prefixes,
            vp_names=vp_names,
            vp_locations=vp_locations,
            rtt_ms=rtt,
            sample_count=counts,
        ),
        removed,
    )


# ----------------------------------------------------------------------
# Hitlist entries
# ----------------------------------------------------------------------


def sanitize_hitlist(
    entries: Iterable[HitlistEntry], log: QuarantineLog, stage: str = "hitlist"
) -> List[HitlistEntry]:
    """Validate hitlist rows; repair drifted addresses, drop the rest.

    * a prefix index outside the /24 space ⇒ the row is meaningless,
      drop it;
    * a representative address outside its own /24 ⇒ repairable — the
      representative is arbitrary anyway, so re-anchor it at host ``.1``
      (logged as repaired, kept);
    * a duplicate /24 ⇒ keep the first row (``Hitlist`` would refuse the
      set outright otherwise).
    """
    out: List[HitlistEntry] = []
    seen = set()
    for entry in entries:
        prefix = entry.prefix
        if not isinstance(prefix, (int, np.integer)) or not 0 <= prefix < TOTAL_SLASH24:
            log.add(stage, "invalid_prefix", 1, example=prefix)
            continue
        if prefix in seen:
            log.add(stage, "duplicate_prefix", 1, example=int(prefix))
            continue
        seen.add(prefix)
        address = entry.address
        addr_ok = (
            isinstance(address, (int, np.integer))
            and 0 <= address <= 0xFFFFFFFF
            and slash24_of(int(address)) == prefix
        )
        if not addr_ok:
            log.add(stage, "address_repaired", 1, example=address, repaired=True)
            entry = HitlistEntry(
                prefix=int(prefix),
                address=host_in_slash24(int(prefix), 1),
                score=entry.score,
            )
        out.append(entry)
    return out

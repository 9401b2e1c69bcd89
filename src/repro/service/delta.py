"""Per-target RTT signatures and the incremental-vs-cold decision.

The service's incremental recompute stands on one fact about the
analysis pipeline: a target's verdict is a pure function of the set of
``(VP name, VP coordinates, RTT)`` samples that actually measured it,
plus run-wide context that is identical for every row (the gazetteer,
the iGreedy config).  Detection
(:func:`repro.core.detection.detection_mask`) ignores NaN cells by
construction, enumeration/geolocation
(:meth:`FastAnalysisEngine.analyze_rows`) reads only the non-NaN samples
of each row (its witness indices live in RTT-sorted sample order, not
raw column order), and nothing couples two targets.

So a *signature* — a hash over the target's non-NaN cells, each cell
prefixed by a digest of the measuring VP's name and exact coordinates —
certifies: equal signature ⟹ identical analysis-relevant input ⟹
identical analysis output.  Crucially the signature never mentions the
roster as a whole: a vantage point joining or leaving the platform only
perturbs the signatures of targets that VP actually measured.  Under
the old scheme (a whole-roster digest folded into every row hash) one
VP joining forced a full cold census; under this scheme the surviving
targets' entries are copied and provably byte-equal to a cold recompute
on the same roster.

:func:`plan_delta` turns the signature maps into the recompute plan.
Besides the primary baseline (the latest committed epoch) it can
consult a short *history* of older epochs: a probe that disconnects for
a day and returns — the dominant churn mode of a real measurement
platform — produces rows identical to its pre-disconnect epoch (keyed
noise), so the plan copies those targets from the older baseline
instead of re-analyzing them.  The plan falls back to a full cold
census whenever incremental mode is disabled, has no baseline, cannot
read it, or the residual churn fraction exceeds the configured
threshold.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..census.combine import RttMatrix
from ..geo.coords import GeoPoint

#: Cold-census reasons (manifest ``analysis.reason`` vocabulary).
REASON_DISABLED = "incremental-disabled"
REASON_NO_BASELINE = "no-baseline"
REASON_BASELINE_UNREADABLE = "baseline-unreadable"
REASON_CHURN = "churn-exceeds-threshold"
REASON_DELTA = "delta"

#: Row-block budget for :func:`target_signatures` — bounds the reordered
#: float32 scratch copy to ~16 MB regardless of matrix size.
_SIGNATURE_BLOCK_CELLS = 1 << 22


def vp_column_digest(name: str, location: GeoPoint) -> bytes:
    """8-byte digest of one vantage point's identity (name + coordinates).

    The per-cell prefix of every target signature: a row cell is only
    comparable across epochs when it was measured by the same VP from
    the same place.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(name.encode("utf-8"))
    h.update(b"\x00")
    h.update(np.float64(location.lat).tobytes())
    h.update(np.float64(location.lon).tobytes())
    return h.digest()


def vp_context_digest(vp_names: Sequence[str], vp_locations: Sequence[GeoPoint]) -> str:
    """Digest of a whole VP roster (names + exact coordinates), hex.

    No longer part of any target signature (see
    :func:`vp_column_digest`); kept as the results document's roster
    fingerprint so two epochs' analyzed rosters can be compared at a
    glance.
    """
    if len(vp_names) != len(vp_locations):
        raise ValueError(
            "vp_names/vp_locations length mismatch: "
            f"{len(vp_names)} names vs {len(vp_locations)} locations"
        )
    h = hashlib.blake2b(digest_size=8)
    for name, location in zip(vp_names, vp_locations):
        h.update(vp_column_digest(name, location))
    return h.hexdigest()


def target_signatures(
    matrix: RttMatrix, excised: Optional[np.ndarray] = None
) -> Dict[int, str]:
    """Per-target signatures over the non-NaN ``(VP digest, RTT)`` cells.

    Cells are hashed in VP-*name* order (not column order), so the
    signature is invariant to how the roster happens to be arranged —
    and, because NaN cells contribute nothing, invariant to VPs that
    never measured the target at all.

    ``excised`` is the trust layer's per-target count of samples it
    removed from the row (see :func:`repro.resilience.vptrust.apply_trust`);
    a non-zero count is folded into the hash because it changes the
    entry's confidence marker.  Rows with a zero count hash exactly as
    if the argument was never given, preserving byte-identity of
    trust-on runs over clean data.
    """
    n_vps = matrix.n_vps
    order = np.argsort(np.array(matrix.vp_names))
    digests = [
        vp_column_digest(matrix.vp_names[int(j)], matrix.vp_locations[int(j)])
        for j in order
    ]
    cells = np.zeros(n_vps, dtype=[("vp", "S8"), ("rtt", "<f4")])
    cells["vp"] = digests
    signatures: Dict[int, str] = {}
    # Reorder/hash one row block at a time: the full ``[:, order]`` copy
    # is a second dense matrix (40 GB at Atlas scale) for no gain — the
    # per-row bytes fed to blake2b are identical either way.
    block_rows = max(1, _SIGNATURE_BLOCK_CELLS // max(n_vps, 1))
    for lo in range(0, len(matrix.prefixes), block_rows):
        hi = min(lo + block_rows, len(matrix.prefixes))
        rtt = np.ascontiguousarray(matrix.rtt_ms[lo:hi], dtype="<f4")[:, order]
        present = ~np.isnan(rtt)
        for i in range(hi - lo):
            cells["rtt"] = rtt[i]
            h = hashlib.blake2b(digest_size=8)
            h.update(cells[present[i]].tobytes())
            row = lo + i
            if excised is not None and excised[row]:
                h.update(b"\x01" + int(excised[row]).to_bytes(4, "little"))
            signatures[int(matrix.prefixes[row])] = h.hexdigest()
    return signatures


@dataclass
class DeltaPlan:
    """What the analysis stage must recompute this epoch."""

    #: ``"incremental"`` or ``"cold"``.
    mode: str
    #: Why (one of the ``REASON_*`` constants).
    reason: str
    baseline_epoch: Optional[int]
    #: Fraction of current targets that must actually be re-analyzed
    #: (signature new or changed, and not recoverable from history).
    churn_fraction: float
    #: Common targets whose signature changed vs the primary baseline.
    changed: List[int] = field(default_factory=list)
    #: Common targets whose signature is identical — copy from baseline.
    unchanged: List[int] = field(default_factory=list)
    #: Targets present now but not in the primary baseline.
    appeared: List[int] = field(default_factory=list)
    #: Baseline targets that no longer reply.
    disappeared: List[int] = field(default_factory=list)
    #: Targets whose signature misses the primary baseline but matches an
    #: older epoch's (prefix -> that epoch) — copy from there instead of
    #: recomputing.  The roster-rejoin fast path: a VP returning after an
    #: absence reproduces its keyed rows, so its targets match the epoch
    #: before the disconnect.
    recovered: Dict[int, int] = field(default_factory=dict)

    @property
    def recompute(self) -> List[int]:
        """Targets the engine must actually analyze this epoch."""
        return sorted(
            p for p in self.changed + self.appeared if p not in self.recovered
        )


def plan_delta(
    current: Dict[int, str],
    baseline: Optional[Dict[int, str]],
    baseline_epoch: Optional[int] = None,
    churn_threshold: float = 0.25,
    enabled: bool = True,
    baseline_problem: Optional[str] = None,
    history: Sequence[Tuple[int, Dict[int, str]]] = (),
) -> DeltaPlan:
    """Decide incremental vs cold and partition the target set.

    ``baseline_problem`` is set by the caller when the baseline run
    exists but could not be read (corrupt/quarantined) — always a cold
    census, with the manifest recording why.

    ``history`` is a sequence of ``(epoch, signatures)`` pairs for older
    committed epochs; targets missing the primary baseline are matched
    against them (most recent epoch first) and copied when a signature
    agrees — equal signature certifies identical analysis input no
    matter which epoch produced it.
    """
    if not 0.0 <= churn_threshold <= 1.0:
        raise ValueError("churn_threshold must be in [0, 1]")

    def cold(reason: str, epoch: Optional[int] = None, churn: float = 1.0) -> DeltaPlan:
        return DeltaPlan(
            mode="cold",
            reason=reason,
            baseline_epoch=epoch,
            churn_fraction=churn,
            changed=sorted(current),
        )

    if not enabled:
        return cold(REASON_DISABLED)
    if baseline_problem is not None:
        return cold(f"{REASON_BASELINE_UNREADABLE}: {baseline_problem}", baseline_epoch)
    if baseline is None:
        return cold(REASON_NO_BASELINE)

    ordered_history = sorted(history, key=lambda pair: pair[0], reverse=True)

    changed: List[int] = []
    unchanged: List[int] = []
    appeared: List[int] = []
    recovered: Dict[int, int] = {}
    for prefix, signature in current.items():
        previous = baseline.get(prefix)
        if previous == signature:
            unchanged.append(prefix)
            continue
        if previous is None:
            appeared.append(prefix)
        else:
            changed.append(prefix)
        for epoch, signatures in ordered_history:
            if signatures.get(prefix) == signature:
                recovered[prefix] = epoch
                break
    disappeared = sorted(set(baseline) - set(current))
    churn = (len(changed) + len(appeared) - len(recovered)) / max(len(current), 1)

    plan = DeltaPlan(
        mode="incremental",
        reason=REASON_DELTA,
        baseline_epoch=baseline_epoch,
        churn_fraction=churn,
        changed=sorted(changed),
        unchanged=sorted(unchanged),
        appeared=sorted(appeared),
        disappeared=disappeared,
        recovered=recovered,
    )
    if churn > churn_threshold:
        plan.mode = "cold"
        plan.reason = REASON_CHURN
        plan.recovered = {}
    return plan

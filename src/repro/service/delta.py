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
from ..measurement.platform import vp_column_digest

#: Cold-census reasons (manifest ``analysis.reason`` vocabulary).
REASON_DISABLED = "incremental-disabled"
REASON_NO_BASELINE = "no-baseline"
REASON_BASELINE_UNREADABLE = "baseline-unreadable"
REASON_CHURN = "churn-exceeds-threshold"
REASON_DELTA = "delta"

#: Row-block budget for :func:`target_signatures` — bounds the reordered
#: float32 scratch copy to ~16 MB regardless of matrix size.
_SIGNATURE_BLOCK_CELLS = 1 << 22


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
    return sign_rows(matrix, excised).signatures


@dataclass(frozen=True)
class RowSignatures:
    """One matrix's target signatures, and what the next matrix needs to
    carry them (:func:`sign_rows`'s ``previous``)."""

    #: Prefix -> signature, in row order (:func:`target_signatures`).
    signatures: Dict[int, str]
    #: The matrix's row prefixes (sorted), and each row's signature.
    prefixes: np.ndarray
    row_signatures: np.ndarray
    #: :func:`vp_column_digest` per matrix column, in column order.
    columns: np.ndarray
    #: A copy of the matrix's RTT bits (``uint32`` view of ``<f4``).
    bits: np.ndarray
    #: Per-row excision count (zeros without trust).
    excised: np.ndarray
    #: Rows whose signature was taken from ``previous`` / hashed.
    carried: int
    hashed: int


def sign_rows(
    matrix: RttMatrix,
    excised: Optional[np.ndarray] = None,
    previous: Optional[RowSignatures] = None,
) -> RowSignatures:
    """:func:`target_signatures`, carrying what ``previous`` already hashed.

    A row keeps ``previous``'s signature when ``previous`` has the same
    prefix with the same excision count, every VP both matrices share
    (same :func:`vp_column_digest`) holds bit-equal RTTs, and every
    other VP's cell is NaN on its side: the bytes fed to blake2b are then
    identical.  Only the other rows are hashed, by the one loop below;
    with no ``previous`` every row is.
    """
    n_rows, n_vps = matrix.rtt_ms.shape
    names = list(matrix.vp_names)
    order = np.argsort(np.array(names))
    columns = np.array(
        [vp_column_digest(n, loc) for n, loc in zip(names, matrix.vp_locations)],
        dtype="S8",
    )
    bits = np.array(matrix.rtt_ms, dtype="<f4", order="C").view("<u4")
    rtt = bits.view("<f4")
    counts = (
        np.zeros(n_rows, dtype=np.int64)
        if excised is None
        else np.asarray(excised, dtype=np.int64)
    )
    row_signatures = np.empty(n_rows, dtype=object)
    carried = np.zeros(n_rows, dtype=bool)
    if previous is not None and len(previous.prefixes):
        at = np.minimum(
            np.searchsorted(previous.prefixes, matrix.prefixes),
            len(previous.prefixes) - 1,
        )
        rows = np.flatnonzero(
            (previous.prefixes[at] == matrix.prefixes)
            & (previous.excised[at] == counts)
        )
        at = at[rows]
        where = {bytes(d): j for j, d in enumerate(previous.columns)}
        source = np.array([where.get(bytes(d), -1) for d in columns], dtype=np.int64)
        shared = source >= 0
        same = (
            bits[rows][:, shared] == previous.bits[at][:, source[shared]]
        ).all(axis=1)
        same &= np.isnan(rtt[rows][:, ~shared]).all(axis=1)
        gone = np.setdiff1d(np.arange(len(previous.columns)), source[shared])
        same &= np.isnan(previous.bits[at][:, gone].view("<f4")).all(axis=1)
        carried[rows[same]] = True
        row_signatures[rows[same]] = previous.row_signatures[at[same]]

    cells = np.zeros(n_vps, dtype=[("vp", "S8"), ("rtt", "<f4")])
    cells["vp"] = columns[order]
    # Reorder/hash one row block at a time: the reordered copy stays
    # bounded whatever the matrix size — the per-row bytes fed to blake2b
    # are identical either way.
    need = np.flatnonzero(~carried)
    block_rows = max(1, _SIGNATURE_BLOCK_CELLS // max(n_vps, 1))
    for lo in range(0, len(need), block_rows):
        block = need[lo : lo + block_rows]
        reordered = rtt[np.ix_(block, order)]
        present = ~np.isnan(reordered)
        for i, row in enumerate(block.tolist()):
            cells["rtt"] = reordered[i]
            h = hashlib.blake2b(digest_size=8)
            h.update(cells[present[i]].tobytes())
            if counts[row]:
                h.update(b"\x01" + int(counts[row]).to_bytes(4, "little"))
            row_signatures[row] = h.hexdigest()
    return RowSignatures(
        signatures=dict(zip(matrix.prefixes.tolist(), row_signatures.tolist())),
        prefixes=np.array(matrix.prefixes),
        row_signatures=row_signatures,
        columns=columns,
        bits=bits,
        excised=counts,
        carried=int(carried.sum()),
        hashed=len(need),
    )


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

"""Anycast detection via speed-of-light violations (paper Fig. 3b).

A single IP answered two vantage points with RTTs so small that the disks
bounding the responder's position do not intersect: no single machine can
be in both disks, therefore at least two replicas share the address — the
target is anycast.  The test has no false positives (RTTs only ever
*inflate* above propagation delay, so a unicast host always lies inside
every disk) and is conservative: overlap does not prove unicast.

Two interfaces are provided:

* :func:`detect` — object-level, for a handful of samples;
* :func:`detection_mask` / :func:`detection_mask_rtt` — vectorized over a
  whole census: given the VP-to-VP distance matrix and a per-target
  radius (or RTT) matrix, flag every anycast target in one pass (this is
  the O(10^6)-target hot path).  The verdict is the all-pairs test's,
  decided exactly by an O(V)-typical witness / certificate / residue
  filter over row blocks; the dense all-pairs loop lives on only as the
  oracle in ``tests/core/test_detection.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..geo.disks import FIBER_SPEED_KM_PER_MS, any_disjoint_pair
from ..obs import current_metrics, current_tracer
from .samples import LatencySample, min_rtt_samples, samples_to_disks


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of the anycast test for one target."""

    is_anycast: bool
    #: Indices (into the deduplicated sample list) of one witness pair of
    #: disjoint disks, when anycast.
    witness: Optional[Tuple[int, int]] = None
    #: Number of usable samples the decision was based on.
    sample_count: int = 0


def detect(
    samples: Sequence[LatencySample],
    speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS,
) -> DetectionResult:
    """Run the speed-of-light-violation test on one target's samples."""
    with current_tracer().span("detection", samples=len(samples)):
        deduped = min_rtt_samples(samples)
        disks = samples_to_disks(deduped, speed_km_per_ms)
        if len(disks) < 2:
            return DetectionResult(is_anycast=False, sample_count=len(disks))
        pair = any_disjoint_pair(disks)
        return DetectionResult(
            is_anycast=pair is not None,
            witness=pair,
            sample_count=len(disks),
        )


#: Slack (km) by which the certificate point must sit inside every disk.
#: One metre is far above both the float rounding of ``r_i + r_j`` and
#: the triangle defect of a great-circle gap matrix (measured 0.0 on the
#: study rosters; pinned below the slack by ``tests/core/test_detection``).
CERTIFICATE_SLACK_KM = 1e-3

#: Cells per (rows, V) float64 temporary of the filter: 1 MB, cache-sized
#: and far under the allocator's mmap threshold at any roster width.
_BLOCK_CELLS = 1 << 17


def detection_mask(vp_distances_km: np.ndarray, radii_km: np.ndarray) -> np.ndarray:
    """Vectorized anycast detection over many targets.

    Parameters
    ----------
    vp_distances_km:
        (n_vps, n_vps) great-circle distances between vantage points — a
        symmetric metric matrix (the certificate below leans on the
        triangle inequality).
    radii_km:
        (n_targets, n_vps) disk radii, float32 or float64, possibly
        memory-mapped; NaN marks a missing sample (the VP got no reply
        from that target) and never witnesses a violation.

    Returns
    -------
    Boolean array of shape (n_targets,): True where some pair of disks is
    disjoint, i.e. ``distance(v_i, v_j) > r_i + r_j``.

    The verdict is exactly the all-pairs test, decided per row by an
    O(V) two-sided filter around the minimum-radius disk *m*:

    * **witness** — disk *m* is disjoint from some disk *j*: that pair
      is one of the pairs the full test scans, so the row is anycast;
    * **certificate** — VP *m*'s own location lies at least
      :data:`CERTIFICATE_SLACK_KM` inside every disk
      (``D[m, j] + slack <= r_j`` for all *j*, *m* included): then
      ``D[i, j] <= D[m, i] + D[m, j] <= r_i + r_j - 2·slack`` for every
      pair, so no pair is disjoint;
    * **residue** — otherwise some disks leave the certificate point
      *outside*; two disks that both hold it overlap by the same
      argument, so a disjoint pair has an outside member, and only the
      outside disks run the pair test against the row.

    Tolerance seam: this test is ``D > r_i + r_j`` while iGreedy's
    overlap is ``D <= r_i + r_j + 1e-9``, so a row whose only disjoint
    pairs sit inside that 1e-9 km band is flagged here yet comes back
    from iGreedy with ``is_anycast=False`` and no replicas.  Both
    tolerances are part of the archived bytes and stay;
    ``tests/core/test_detection.py`` pins that no such row exists on the
    study rosters.
    """
    return _filter_rows(vp_distances_km, radii_km, None)


def detection_mask_rtt(
    vp_distances_km: np.ndarray,
    rtt_ms: np.ndarray,
    speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS,
) -> np.ndarray:
    """:func:`detection_mask` straight off RTT rows.

    Equal to ``detection_mask(vp_distances_km, radius_matrix(rtt_ms,
    speed_km_per_ms))``, but the float32 (possibly memory-mapped) rows
    become float64 radii one block at a time — the census path never
    holds a whole-matrix float64 copy.
    """
    return _filter_rows(vp_distances_km, rtt_ms, speed_km_per_ms)


def _filter_rows(
    vp_distances_km: np.ndarray, values: np.ndarray, speed_km_per_ms: Optional[float]
) -> np.ndarray:
    """The witness / certificate / residue filter over row blocks.

    ``values`` are radii when ``speed_km_per_ms`` is ``None``, RTTs
    otherwise.
    """
    values = np.asarray(values)
    n_targets, n_vps = values.shape
    if vp_distances_km.shape != (n_vps, n_vps):
        raise ValueError("vp distance matrix shape mismatch")
    out = np.zeros(n_targets, dtype=bool)
    counts = {"witnessed": 0, "certified": 0, "residue": 0}
    step = max(1, _BLOCK_CELLS // max(n_vps, 1))
    with current_tracer().span("detection", targets=n_targets, vectorized=True) as span:
        # An empty roster has no disks, hence no pairs to test.
        for start in range(0, n_targets if n_vps else 0, step):
            block = values[start : start + step]
            if speed_km_per_ms is None:
                radii = np.asarray(block, dtype=np.float64)
            else:
                radii = radius_matrix(block, speed_km_per_ms)
            # Missing samples must never witness a violation: an infinite
            # radius makes every pair sum infinite and every disk contain
            # the certificate point.
            radii = np.where(np.isnan(radii), np.inf, radii)
            witnessed, outside = witness_filter(vp_distances_km, radii)
            outside[witnessed] = False
            residue = np.nonzero(outside.any(axis=1))[0]
            verdict = out[start : start + step]
            verdict[:] = witnessed
            verdict[residue] = _any_disjoint_pair(
                vp_distances_km, radii[residue], outside[residue], step
            )
            counts["witnessed"] += int(witnessed.sum())
            counts["residue"] += len(residue)
        counts["certified"] = n_targets - counts["witnessed"] - counts["residue"]
        for key, value in counts.items():
            span.set(key, value)
    metrics = current_metrics()
    if metrics.enabled:
        metrics.counter("detection_targets_tested").inc(n_targets)
        metrics.counter("detection_targets_flagged").inc(int(out.sum()))
        for key, value in counts.items():
            metrics.counter(f"detection_rows_{key}").inc(value)
    return out


def witness_filter(
    vp_distances_km: np.ndarray, radii_km: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The witness and certificate tests of a block of float64 radius rows.

    ``radii_km`` holds ``+inf`` for every disk that must take no part (a
    missing sample, a silenced VP).  Returns ``(witnessed, outside)``:
    ``witnessed[t]`` when row *t*'s minimum-radius disk *m* is disjoint
    from another of its disks, and ``outside[t, j]`` when disk *j* does
    not hold VP *m*'s location by :data:`CERTIFICATE_SLACK_KM`.  Every
    disjoint pair of a row has a member among its ``outside`` disks (see
    :func:`detection_mask`), so a row with none is certified.  Span-free:
    detection and the trust engine's solo-violation peel both call it.
    """
    nearest = radii_km.argmin(axis=1)
    gaps = vp_distances_km[nearest]
    smallest = radii_km[np.arange(len(radii_km)), nearest]
    witnessed = (gaps > radii_km + smallest[:, None]).any(axis=1)
    outside = gaps + CERTIFICATE_SLACK_KM > radii_km
    return witnessed, outside


def _any_disjoint_pair(
    vp_distances_km: np.ndarray, radii_km: np.ndarray, outside: np.ndarray, step: int
) -> np.ndarray:
    """The pair test on residue rows: any ``D[i, j] > r_i + r_j``.

    Two disks that both hold the certificate point (by the slack) cannot
    be disjoint, so a disjoint pair has a member among the row's
    ``outside`` disks: only those are tested against the whole row, in
    blocks of ``step`` (row, disk) cells — (step, V) temporaries where
    the all-pairs broadcast needs (rows, V, V).
    """
    flagged = np.zeros(len(radii_km), dtype=bool)
    rows, disks = np.nonzero(outside)
    for k in range(0, len(rows), step):
        row, disk = rows[k : k + step], disks[k : k + step]
        sums = radii_km[row] + radii_km[row, disk][:, None]
        flagged[row[(vp_distances_km[disk] > sums).any(axis=1)]] = True
    return flagged


def radius_matrix(
    rtt_ms: np.ndarray,
    speed_km_per_ms: float = FIBER_SPEED_KM_PER_MS,
) -> np.ndarray:
    """Convert an RTT matrix (NaN = missing) to disk radii."""
    return np.asarray(rtt_ms, dtype=np.float64) / 2.0 * speed_km_per_ms

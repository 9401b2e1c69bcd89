"""Memmap backing store for dense census matrices.

At Atlas scale (~10k VPs × 10^6 targets) the combined RTT matrix is
~40 GB of float32 — often too big for RAM outright.
:class:`MatrixStore` materializes the two dense planes of an
:class:`~repro.census.combine.RttMatrix` (``rtt_ms`` float32 and
``sample_count`` uint8) off the heap; the store selector has two
backends:

* ``inline``  — ordinary heap arrays (the classic path; no store object);
* ``memmap``  — :class:`numpy.memmap` over unlinked-on-close temp files,
  so the matrix can exceed RAM and pages spill to disk.

Analysis runs in the process that folded the matrix, so nothing ever
needs to name a store from outside: there are no tokens and no attach.

The hard invariant, enforced by ``tests/census/test_matstore.py``: both
backends produce byte-identical matrices and analysis output.  A store
only changes *where* the bytes live.

Cleanup is belt-and-braces: explicit :meth:`MatrixStore.close`, a
``weakref.finalize`` on the store object, and an ``atexit`` sweep of
everything this process owns — so a parent that simply drops its matrix
on the floor cannot orphan a temp file.
"""

from __future__ import annotations

import atexit
import os
import tempfile
import uuid
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import current_metrics

#: Valid store selectors.
BACKENDS = frozenset({"auto", "inline", "memmap"})

#: ``auto`` keeps matrices below this many cells inline: for small
#: studies the segment bookkeeping costs more than it saves.
AUTO_MIN_CELLS = 1 << 22

#: The two dense planes of an RttMatrix, in canonical order.
MATRIX_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("rtt_ms", "float32"),
    ("sample_count", "uint8"),
)

#: Filename / segment-name prefix of everything this module creates —
#: tests glob for it to prove nothing was orphaned.
SEGMENT_PREFIX = "repro-ms"


def resolve_store(choice: Optional[str] = None, n_cells: int = 0) -> str:
    """The backend to use: ``inline`` or ``memmap``.

    ``auto`` (also what ``None`` means) resolves to ``inline`` below
    :data:`AUTO_MIN_CELLS` and ``memmap`` — the backend that lets a
    matrix exceed RAM — from there up.
    """
    selected = choice or "auto"
    if selected not in BACKENDS:
        raise ValueError(
            f"matrix store must be one of {sorted(BACKENDS)}, got {selected!r}"
        )
    if selected != "auto":
        return selected
    return "inline" if n_cells < AUTO_MIN_CELLS else "memmap"


#: Live stores of this process, by key — read only by the store gauges.
#: Weak-valued: an entry lives exactly as long as something references
#: the store.
_LIVE: "weakref.WeakValueDictionary[str, MatrixStore]" = weakref.WeakValueDictionary()

#: Temp-file paths of every unreleased store, swept at interpreter exit.
#: Keyed by store key; removed on release.
_OWNED: Dict[str, Tuple[str, ...]] = {}


def active_segments() -> List[str]:
    """Keys of the stores this process currently owns (test introspection)."""
    return sorted(_OWNED)


def _set_store_gauges() -> None:
    metrics = current_metrics()
    if not getattr(metrics, "enabled", False):
        return
    live = [store for store in _LIVE.values() if store is not None]
    metrics.gauge("matrix_store_segments").set(len(live))
    metrics.gauge("matrix_store_bytes").set(sum(s.nbytes for s in live))


def _release_segments(key: str, paths: Tuple[str, ...]) -> None:
    """Unlink one store's temp files.

    Static on purpose: this is the ``weakref.finalize`` callback and must
    not hold the store alive.  Unlinking while mappings still exist is
    safe on POSIX — live views stay valid; the kernel reclaims the pages
    when the last mapping dies.
    """
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass
    _OWNED.pop(key, None)


@atexit.register
def _sweep_owned_segments() -> None:  # pragma: no cover - exit-path safety net
    for key, paths in list(_OWNED.items()):
        _release_segments(key, paths)


class MatrixStore:
    """One matrix's temp files plus the arrays memory-mapped onto them."""

    backend = "memmap"

    def __init__(
        self,
        key: str,
        shape: Tuple[int, int],
        arrays: Dict[str, np.ndarray],
        paths: Tuple[str, ...],
    ) -> None:
        self.key = key
        self.shape = tuple(shape)
        self.arrays = arrays
        self._finalizer = weakref.finalize(self, _release_segments, key, paths)
        _LIVE[key] = self
        _OWNED[key] = paths
        _set_store_gauges()

    @classmethod
    def create(cls, shape: Tuple[int, int]) -> "MatrixStore":
        """Allocate fresh zero-filled temp files for ``shape``."""
        key = uuid.uuid4().hex[:12]
        arrays: Dict[str, np.ndarray] = {}
        paths: List[str] = []
        for name, dtype_str in MATRIX_FIELDS:
            fd, path = tempfile.mkstemp(
                prefix=f"{SEGMENT_PREFIX}-{key}-{name}-", suffix=".bin"
            )
            os.close(fd)
            arrays[name] = np.memmap(path, dtype=np.dtype(dtype_str), mode="w+", shape=shape)
            paths.append(path)
        return cls(key, shape, arrays, tuple(paths))

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self.arrays.values())

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Drop the mappings and unlink the temp files now.

        Idempotent, and implied eventually by garbage collection — the
        explicit call just makes teardown deterministic.
        """
        self.arrays = {}
        self._finalizer()
        _set_store_gauges()

    @property
    def released(self) -> bool:
        return not self._finalizer.alive


def allocate_matrix_planes(
    n_targets: int,
    n_vps: int,
    backend: str,
) -> Tuple[np.ndarray, np.ndarray, Optional[MatrixStore]]:
    """The combine fold's output planes, on the requested backend.

    Returns ``(rtt_ms, sample_count, store)`` with ``rtt_ms`` pre-filled
    with ``+inf`` (the fold identity) and counts zeroed; ``store`` is
    ``None`` on the inline path.  The arrays are bit-indistinguishable
    from heap arrays — only their backing differs.
    """
    if backend == "inline" or n_targets * n_vps == 0:
        rtt = np.full((n_targets, n_vps), np.inf, dtype=np.float32)
        counts = np.zeros((n_targets, n_vps), dtype=np.uint8)
        return rtt, counts, None
    if backend != "memmap":
        raise ValueError(f"cannot materialize backend {backend!r}")
    store = MatrixStore.create((n_targets, n_vps))
    rtt = store.arrays["rtt_ms"]
    counts = store.arrays["sample_count"]
    rtt[:] = np.inf
    return rtt, counts, store

"""Longitudinal census service (paper Sec. 5, ROADMAP's LACeS direction).

The one-shot :class:`~repro.workflow.CensusStudy` answers "what does the
anycast landscape look like today"; this package turns that into a
*service* that answers it every day, for months, unattended:

* :mod:`~repro.service.archive` — the append-only on-disk archive of
  dated census runs (schema-validated manifests, checksummed payloads,
  rebuildable index, atomic commits);
* :mod:`~repro.service.fsck` — startup verification and repair:
  quarantine corrupt runs, discard torn commits, rebuild the index;
* :mod:`~repro.service.delta` — per-target RTT signatures and the
  incremental-vs-cold recompute decision;
* :mod:`~repro.service.churn` — epoch-over-epoch analytics (replica
  births/deaths, footprint growth, anycast<->unicast flips) on top of
  :func:`~repro.census.longitudinal.compare_epochs`;
* :mod:`~repro.service.service` — the scheduler tying it together:
  dated runs over an evolving internet, crash tolerance by re-running
  an uncommitted day to the same bytes, catch-up for missed epochs.
"""

from .archive import (  # noqa: F401
    CensusArchive,
    run_manifest_problems,
    validate_run_manifest,
)
from .churn import ChurnSummary, churn_between  # noqa: F401
from .delta import DeltaPlan, plan_delta, target_signatures  # noqa: F401
from .fsck import FsckReport, fsck_archive  # noqa: F401
from .service import CensusService, EpochOutcome, ServiceConfig  # noqa: F401

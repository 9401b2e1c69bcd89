"""Archive verification and repair — run on every service startup.

The archive's commit protocol guarantees that a crash leaves one of a
small set of states; fsck enumerates them and restores the invariant
"every run directory under ``runs/`` is fully valid, and ``index.json``
describes exactly those runs":

* **staging directories** (``.{day}.staging``) are torn commits that
  never renamed — discarded;
* **run directories** failing any check (missing/garbled/mismatched
  manifest, torn or bit-flipped payload, payload not matching the
  manifest's size/CRC) are **quarantined**: moved wholesale into
  ``quarantine/`` under a collision-free name, never deleted — an
  operator can inspect or hand-repair them, and the service treats the
  epoch as missing (catch-up will re-run it);
* **foreign entries** in ``runs/`` (names that are not dated runs) are
  quarantined too;
* **telemetry sidecars** (``telemetry.json``/``events.jsonl``) failing
  their schema or events seal are *repairable*: only the sidecar files
  move to quarantine, the run itself is kept — losing a day's telemetry
  must never cost the day's census;
* the **index** is rebuilt whenever it differs from what the surviving
  manifests imply (missing, unparseable, stale, or trailing a
  quarantine).

``repair=False`` turns all of that into a dry run: every problem is
reported, nothing on disk changes.  Anything else under the root (an
older archive's ``journal/`` directory, say) is left alone.

fsck never raises on corrupt data — refusing to start because one day
of history rotted would be the availability bug; quarantining the day
and continuing is the point.
"""

from __future__ import annotations

import json
import shutil
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..measurement.recordio import CorruptPayloadError
from ..obs import current_metrics
from .archive import (
    MANIFEST_FILE,
    RECORDS_FILE,
    RESULTS_FILE,
    TELEMETRY_FILES,
    TRUST_FILE,
    CensusArchive,
    parse_run_dirname,
)


@dataclass
class FsckReport:
    """Everything one fsck pass saw and did."""

    #: Epochs that passed every check.
    ok_epochs: List[int] = field(default_factory=list)
    #: (entry name, reason) for everything moved to quarantine.
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    #: (run name, reason) for telemetry sidecars quarantined *without*
    #: touching their (still valid) run — the repairable case.
    telemetry_quarantined: List[Tuple[str, str]] = field(default_factory=list)
    #: (run name, reason) for VP trust sidecars quarantined the same
    #: repairable way: losing a day's trust verdicts never costs the day.
    trust_quarantined: List[Tuple[str, str]] = field(default_factory=list)
    #: Torn staging directories that were discarded.
    discarded_staging: List[str] = field(default_factory=list)
    index_rebuilt: bool = False
    #: False when this was a dry run (``repair=False``).
    repaired: bool = True

    @property
    def clean(self) -> bool:
        """Whether the archive needed no intervention at all."""
        return not (
            self.quarantined
            or self.telemetry_quarantined
            or self.trust_quarantined
            or self.discarded_staging
            or self.index_rebuilt
        )

    def summary_lines(self) -> List[str]:
        verb = "" if self.repaired else " (dry run)"
        lines = [
            f"fsck{verb}: {len(self.ok_epochs)} run(s) ok"
            + ("" if self.clean else " — repairs were needed")
        ]
        for name, reason in self.quarantined:
            lines.append(f"  quarantined {name}: {reason}")
        for name, reason in self.telemetry_quarantined:
            lines.append(f"  quarantined telemetry of {name} (run kept): {reason}")
        for name, reason in self.trust_quarantined:
            lines.append(f"  quarantined trust sidecar of {name} (run kept): {reason}")
        for name in self.discarded_staging:
            lines.append(f"  discarded torn commit {name}")
        if self.index_rebuilt:
            lines.append("  index rebuilt")
        return lines


def _verify_run(archive: CensusArchive, epoch: int) -> Optional[str]:
    """The reason one run directory is bad, or ``None`` when it is valid."""
    try:
        manifest = archive.read_manifest(epoch)
    except (CorruptPayloadError, ValueError) as exc:
        return f"manifest: {exc}"
    run_dir = archive.run_dir(epoch)
    for name in (RECORDS_FILE, RESULTS_FILE):
        try:
            data = (run_dir / name).read_bytes()
        except OSError as exc:
            return f"{name}: unreadable ({exc})"
        sealed = manifest["payloads"][name]
        if len(data) != sealed["bytes"]:
            return (
                f"{name}: {len(data)} bytes on disk, "
                f"manifest says {sealed['bytes']} (truncated?)"
            )
        if zlib.crc32(data) & 0xFFFFFFFF != sealed["crc32"]:
            return f"{name}: CRC mismatch against manifest (bit rot?)"
    # The manifest CRCs passed; the records file additionally carries its
    # own seal, and results.json must still parse as JSON.
    try:
        archive.read_records(epoch)
    except CorruptPayloadError as exc:
        return f"{RECORDS_FILE}: {exc}"
    try:
        json.loads((run_dir / RESULTS_FILE).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"{RESULTS_FILE}: not valid JSON ({exc})"
    return None


def _verify_telemetry(archive: CensusArchive, epoch: int) -> Optional[str]:
    """The reason one run's telemetry sidecar is bad, or ``None``.

    A run with no sidecar at all is fine (telemetry was off for that
    epoch — the catch-up tolerance for mixing old and new runs).
    """
    try:
        archive.read_telemetry(epoch)
    except CorruptPayloadError as exc:
        return str(exc)
    return None


def _verify_trust(archive: CensusArchive, epoch: int) -> Optional[str]:
    """The reason one run's trust sidecar is bad, or ``None``.

    A run with no sidecar at all is fine (trust scoring was off for
    that epoch).
    """
    try:
        archive.read_trust(epoch)
    except CorruptPayloadError as exc:
        return str(exc)
    return None


def _quarantine_sidecars(
    archive: CensusArchive, epoch: int, files: Tuple[str, ...], repair: bool
) -> None:
    """Move some of one run's sidecar files (only) into quarantine.

    The census payloads and manifest stay exactly where they are: a
    rotten sidecar costs the epoch its telemetry or trust verdicts,
    never its data.
    """
    if not repair:
        return
    run_dir = archive.run_dir(epoch)
    archive.quarantine_dir.mkdir(parents=True, exist_ok=True)
    for name in files:
        source = run_dir / name
        if not source.exists():
            continue
        destination = archive.quarantine_dir / f"{run_dir.name}.{name}"
        k = 0
        while destination.exists():
            k += 1
            destination = archive.quarantine_dir / f"{run_dir.name}.{name}.{k}"
        shutil.move(str(source), str(destination))


def _quarantine(archive: CensusArchive, name: str, repair: bool) -> None:
    if not repair:
        return
    archive.quarantine_dir.mkdir(parents=True, exist_ok=True)
    destination = archive.quarantine_dir / name
    k = 0
    while destination.exists():  # a repeat offender: keep every copy
        k += 1
        destination = archive.quarantine_dir / f"{name}.{k}"
    shutil.move(str(archive.runs_dir / name), str(destination))


def fsck_archive(archive: CensusArchive, repair: bool = True) -> FsckReport:
    """Verify (and with ``repair=True``, restore) the archive invariant."""
    report = FsckReport(repaired=repair)
    metrics = current_metrics()
    if not archive.root.is_dir():
        return report  # a brand-new service: nothing to check yet

    # 1. Torn commits and foreign entries under runs/.
    if archive.runs_dir.is_dir():
        for entry in sorted(archive.runs_dir.iterdir()):
            epoch = parse_run_dirname(entry.name)
            if epoch is not None and entry.is_dir():
                continue  # a candidate run; verified below
            if entry.name.startswith("."):
                report.discarded_staging.append(entry.name)
                if repair:
                    if entry.is_dir():
                        shutil.rmtree(entry)
                    else:
                        entry.unlink()
            else:
                report.quarantined.append((entry.name, "not a dated run"))
                _quarantine(archive, entry.name, repair)

    # 2. Integrity of every surviving run.
    for epoch in archive.epochs():
        reason = _verify_run(archive, epoch)
        if reason is None:
            report.ok_epochs.append(epoch)
        else:
            name = archive.run_dir(epoch).name
            report.quarantined.append((name, reason))
            _quarantine(archive, name, repair)
            metrics.counter("fsck_runs_quarantined").inc()

    # 2b. Telemetry sidecars of surviving runs: missing/corrupt telemetry
    #     is *repairable* — quarantine the sidecar, keep the run.
    for epoch in list(report.ok_epochs):
        reason = _verify_telemetry(archive, epoch)
        if reason is not None:
            name = archive.run_dir(epoch).name
            report.telemetry_quarantined.append((name, reason))
            _quarantine_sidecars(archive, epoch, TELEMETRY_FILES, repair)
            metrics.counter("fsck_telemetry_quarantined").inc()

    # 2c. VP trust sidecars: same repairable contract as telemetry.
    for epoch in list(report.ok_epochs):
        reason = _verify_trust(archive, epoch)
        if reason is not None:
            name = archive.run_dir(epoch).name
            report.trust_quarantined.append((name, reason))
            _quarantine_sidecars(archive, epoch, (TRUST_FILE,), repair)
            metrics.counter("fsck_trust_quarantined").inc()

    # 3. The index must equal what the surviving manifests imply.  An
    #    archive that never committed a run (its first day interrupted,
    #    say) has no index and needs none: the first commit writes it.
    expected = archive.build_index()
    never_indexed = not expected["runs"] and not archive.index_path.exists()
    if archive.read_index() != expected and not never_indexed:
        report.index_rebuilt = True
        if repair:
            archive.write_index(expected)

    if metrics.enabled and not report.clean:
        metrics.counter("fsck_repairs").inc()
    return report

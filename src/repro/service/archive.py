"""Append-only archive of dated census runs.

Layout (all under one root directory)::

    root/
      index.json                     # rebuildable top-level index
      runs/
        day-000000/
          manifest.json              # schema-validated run manifest
          records.bin                # raw records + CRC-32 integrity seal
          results.json               # per-target analysis + signatures
        day-000001/
          ...
      quarantine/                    # fsck moves corrupt runs here

Design rules, in decreasing order of importance:

* **Crash-anywhere safety.**  A run is committed by staging its three
  files in a dot-prefixed directory (contents fsynced), then a single
  ``os.replace`` into the dated name.  A crash before the rename leaves
  only a staging directory (discarded by fsck); after it, a fully-valid
  run whose index entry is stale (rebuilt by fsck).  There is no window
  in which a reader can observe a half-written run.
* **No wall clock.**  Nothing under the root records when it was
  written: the archive is a pure function of (service config, epoch),
  which is what makes "kill it anywhere, catch up, compare trees"
  byte-exact and testable.
* **Self-describing integrity.**  Payloads carry their own CRC seals
  (:func:`~repro.measurement.recordio.read_raw_checksummed`) *and* the
  manifest records each payload's size and CRC, so fsck can distinguish
  a torn payload from a manifest pointing at the wrong bytes.
* **The index is a cache.**  ``index.json`` exists so ``history`` and
  dashboards need not stat every run directory; it is always rebuildable
  from the surviving manifests and never trusted over them.
* **A quiet day costs what changed.**  Successive results documents
  share almost every target entry, so one archive object keeps what it
  last wrote and read: each committed entry's serialized bytes
  (:class:`ResultsEncoder`), the parsed form of every results document
  it read or wrote since the previous commit (returned again while the
  on-disk bytes hash the same), and each run's index entry keyed on its
  manifest's stat.  Bytes on disk never depend on any of it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import re
import shutil
import zlib
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..measurement.recordio import (
    CensusRecords,
    CorruptPayloadError,
    read_raw_checksummed,
    write_raw_checksummed,
)

RUN_SCHEMA_VERSION = 1
RUN_KIND = "census-run"
INDEX_KIND = "census-archive-index"

MANIFEST_FILE = "manifest.json"
RECORDS_FILE = "records.bin"
RESULTS_FILE = "results.json"
PAYLOAD_FILES = (RECORDS_FILE, RESULTS_FILE)

#: Optional telemetry sidecars, committed in the same atomic rename but
#: *not* sealed in the manifest: the census payloads stay byte-identical
#: whether telemetry is on or off, and fsck treats a rotten sidecar as
#: repairable (quarantine the sidecar, keep the run).
TELEMETRY_FILE = "telemetry.json"
EVENTS_FILE = "events.jsonl"
TELEMETRY_FILES = (TELEMETRY_FILE, EVENTS_FILE)
TELEMETRY_KIND = "census-telemetry"

#: VP trust sidecar (the serialized :class:`~repro.resilience.vptrust.
#: VpTrustReport`), committed with the run when trust scoring ran.
#: Same contract as telemetry: atomic with the run, outside the payload
#: seals, and repairable by fsck (quarantine the sidecar, keep the run).
TRUST_FILE = "trust.json"
TRUST_KIND = "vp-trust"

_RUN_DIR_RE = re.compile(r"^day-(\d{6})$")
_STAGING_PREFIX = "."

#: Analysis modes a run manifest may declare.
ANALYSIS_MODES = ("cold", "incremental")


def run_dirname(epoch: int) -> str:
    """Directory name of one epoch's run (``day-000012``)."""
    if not 0 <= epoch <= 999_999:
        raise ValueError(f"epoch {epoch} outside the dated-run range")
    return f"day-{epoch:06d}"


def parse_run_dirname(name: str) -> Optional[int]:
    """Epoch encoded in a run directory name, or ``None`` if malformed."""
    match = _RUN_DIR_RE.match(name)
    return int(match.group(1)) if match else None


def canonical_json_bytes(doc: Any) -> bytes:
    """The archive's one JSON serialization: sorted keys, stable floats.

    Every JSON file under the root goes through this, so two runs that
    computed the same values produce the same bytes — the foundation of
    the chaos suite's tree comparison.
    """
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


#: The encoder behind :func:`canonical_json_bytes` (``json.dumps`` builds
#: an equal one per call).
_ENCODER = json.JSONEncoder(sort_keys=True, indent=1)

#: Splits an ``indent=1`` JSON array into its items.  With ``ensure_ascii``
#: no raw newline occurs inside a string, so a newline, one space and a
#: non-space only ever start a top-level item.
_ITEM_SEPARATOR = re.compile(r",\n (?! )")


class ResultsEncoder:
    """:func:`canonical_json_bytes` of results documents, from carried
    per-target fragments.

    A results document is a shell (every key but ``targets``) plus one
    entry per target, and from one day to the next almost every entry is
    the same object copied forward.  Each entry sits at a fixed depth, so
    its bytes in the document are its own encoding re-indented by one
    level per newline; the encoder keeps those fragments, keyed on entry
    identity (holding the entry, so the identity stays valid), for the
    entries of the last document it encoded.  A quiet day then encodes
    only its recomputed entries.

    Entries are read-only once encoded: a mutated entry would keep its
    old bytes.
    """

    def __init__(self) -> None:
        #: id(entry) -> (entry, fragment) for the last document's entries.
        self._fragments: Dict[int, Tuple[Any, str]] = {}

    def encode(self, doc: Dict[str, Any]) -> Tuple[bytes, Dict[str, Any], int]:
        """``(canonical_json_bytes(doc), carried, n_encoded)``.

        ``carried`` equals ``json.loads`` of the bytes in key order and
        types (the *parse-identical* form): the shell parsed back, the
        reused entries shared, the encoded ones parsed from their
        fragments.  Its entries seed the next call's fragments.
        ``n_encoded`` counts the targets whose fragment was not reused.
        ``doc["targets"]`` must be keyed by strings.
        """
        targets = doc["targets"]
        keys = sorted(targets)
        missed: Dict[int, Any] = {}
        for key in keys:
            entry = targets[key]
            if id(entry) not in self._fragments:
                missed.setdefault(id(entry), entry)
        encoded: Dict[int, Tuple[Any, str]] = {}
        if missed:
            # One array for every missed entry: one encoder call, and one
            # parse for their carried form.
            text = _ENCODER.encode(list(missed.values()))
            items = _ITEM_SEPARATOR.split(text[3:-2])  # strip "[\n " and "\n]"
            for ident, item, parsed in zip(missed, items, json.loads(text)):
                encoded[ident] = (parsed, item.replace("\n", "\n "))

        fragments: Dict[int, Tuple[Any, str]] = {}
        carried_targets: Dict[str, Any] = {}
        lines: List[str] = []
        n_encoded = 0
        for key in keys:
            ident = id(targets[key])
            hit = self._fragments.get(ident)
            if hit is None:
                hit = encoded[ident]
                n_encoded += 1
            entry, fragment = hit
            fragments[id(entry)] = hit
            carried_targets[key] = entry
            lines.append(f"{encode_basestring_ascii(key)}: {fragment}")
        self._fragments = fragments

        members: List[str] = []
        carried: Dict[str, Any] = {}
        for key in sorted(doc):
            if key == "targets":
                text = "{\n  " + ",\n  ".join(lines) + "\n }" if lines else "{}"
                carried[key] = carried_targets
            else:
                value = _ENCODER.encode(doc[key])
                text = value.replace("\n", "\n ")
                carried[key] = json.loads(value)
            members.append(f" {encode_basestring_ascii(key)}: {text}")
        data = ("{\n" + ",\n".join(members) + "\n}\n").encode("utf-8")
        return data, carried, n_encoded


# ----------------------------------------------------------------------
# Run manifest schema
# ----------------------------------------------------------------------

def run_manifest_problems(doc: Any) -> List[str]:
    """All schema violations of a parsed run manifest (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["run manifest is not a JSON object"]
    if doc.get("kind") != RUN_KIND:
        problems.append(f"kind is {doc.get('kind')!r}, expected {RUN_KIND!r}")
    if not isinstance(doc.get("schema_version"), int):
        problems.append("schema_version must be an integer")
    elif doc["schema_version"] > RUN_SCHEMA_VERSION:
        problems.append(
            f"schema_version {doc['schema_version']} is newer than "
            f"supported {RUN_SCHEMA_VERSION}"
        )
    if not (isinstance(doc.get("epoch"), int) and doc["epoch"] >= 0):
        problems.append("epoch must be an int >= 0")
    census = doc.get("census")
    if not isinstance(census, dict):
        problems.append("census must be an object")
    vps = doc.get("vantage_points")
    if not isinstance(vps, list) or not vps:
        problems.append("vantage_points must be a non-empty list")
    else:
        for i, vp in enumerate(vps):
            if not (
                isinstance(vp, dict)
                and isinstance(vp.get("name"), str)
                and isinstance(vp.get("lat"), (int, float))
                and isinstance(vp.get("lon"), (int, float))
            ):
                problems.append(f"vantage_points[{i}] must carry name/lat/lon")
                break
    payloads = doc.get("payloads")
    if not isinstance(payloads, dict):
        problems.append("payloads must be an object")
    else:
        for name in PAYLOAD_FILES:
            entry = payloads.get(name)
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("bytes"), int)
                and entry["bytes"] >= 0
                and isinstance(entry.get("crc32"), int)
            ):
                problems.append(f"payloads[{name!r}] must carry bytes/crc32")
    analysis = doc.get("analysis")
    if not isinstance(analysis, dict):
        problems.append("analysis must be an object")
    elif analysis.get("mode") not in ANALYSIS_MODES:
        problems.append(
            f"analysis.mode is {analysis.get('mode')!r}, "
            f"expected one of {ANALYSIS_MODES}"
        )
    churn = doc.get("churn", None)
    if churn is not None and not isinstance(churn, dict):
        problems.append("churn must be null or an object")
    return problems


def validate_run_manifest(doc: Any) -> None:
    """Raise ``ValueError`` listing every schema violation in ``doc``."""
    problems = run_manifest_problems(doc)
    if problems:
        raise ValueError(
            "invalid run manifest:\n" + "\n".join(f"  - {p}" for p in problems)
        )


def telemetry_problems(doc: Any) -> List[str]:
    """All schema violations of a parsed telemetry sidecar (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["telemetry is not a JSON object"]
    if doc.get("kind") != TELEMETRY_KIND:
        problems.append(f"kind is {doc.get('kind')!r}, expected {TELEMETRY_KIND!r}")
    if not (isinstance(doc.get("epoch"), int) and doc["epoch"] >= 0):
        problems.append("epoch must be an int >= 0")
    stages = doc.get("stages")
    if not isinstance(stages, dict) or not all(
        isinstance(k, str) and isinstance(v, (int, float))
        for k, v in (stages or {}).items()
    ):
        problems.append("stages must map stage names to numbers")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
    else:
        for family in ("counters", "gauges", "histograms"):
            if not isinstance(metrics.get(family), dict):
                problems.append(f"metrics.{family} must be an object")
    trace = doc.get("trace", None)
    if trace is not None and not isinstance(trace, list):
        problems.append("trace must be null or a list of spans")
    slo = doc.get("slo", None)
    if slo is not None:
        from ..obs.slo import slo_report_problems

        problems.extend(f"slo: {p}" for p in slo_report_problems(slo))
    events = doc.get("events", None)
    if events is not None:
        if not (
            isinstance(events, dict)
            and isinstance(events.get("lines"), int)
            and events["lines"] >= 0
            and isinstance(events.get("bytes"), int)
            and events["bytes"] >= 0
            and isinstance(events.get("crc32"), int)
        ):
            problems.append("events must be null or carry lines/bytes/crc32")
    return problems


def trust_problems(doc: Any) -> List[str]:
    """All schema violations of a parsed trust sidecar (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["trust sidecar is not a JSON object"]
    if doc.get("kind") != TRUST_KIND:
        problems.append(f"kind is {doc.get('kind')!r}, expected {TRUST_KIND!r}")
    if not (isinstance(doc.get("epoch"), int) and doc["epoch"] >= 0):
        problems.append("epoch must be an int >= 0")
    verdicts = doc.get("verdicts")
    if not isinstance(verdicts, list):
        problems.append("verdicts must be a list")
    else:
        for i, verdict in enumerate(verdicts):
            if not (
                isinstance(verdict, dict)
                and isinstance(verdict.get("name"), str)
                and isinstance(verdict.get("trusted"), bool)
                and isinstance(verdict.get("reasons"), list)
            ):
                problems.append(f"verdicts[{i}] must carry name/trusted/reasons")
                break
        if isinstance(doc.get("n_untrusted"), int) and isinstance(verdicts, list):
            actual = sum(1 for v in verdicts if not v.get("trusted", True))
            if actual != doc["n_untrusted"]:
                problems.append(
                    f"n_untrusted says {doc['n_untrusted']}, "
                    f"verdicts contain {actual}"
                )
    return problems


# ----------------------------------------------------------------------
# The archive
# ----------------------------------------------------------------------

class ArchiveError(RuntimeError):
    """The archive refused an operation (duplicate epoch, bad manifest)."""


@dataclass(frozen=True)
class Baseline:
    """What a day plans its analysis against (:meth:`CensusArchive.read_baseline`)."""

    #: The newest committed epoch before the day, and its results document
    #: with its target signature map (``None`` when absent or unreadable).
    epoch: Optional[int] = None
    doc: Optional[Dict[str, Any]] = None
    signatures: Optional[Dict[int, str]] = None
    #: Why the baseline's document is unusable, if it is.
    problem: Optional[str] = None
    #: The readable older documents by epoch, and their signature maps.
    history: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    history_signatures: List[Tuple[int, Dict[int, str]]] = field(default_factory=list)
    #: Documents served carried / parsed by this read.
    counters: Dict[str, int] = field(default_factory=dict)


class CensusArchive:
    """One longitudinal archive rooted at a directory.

    ``crash_hook`` is the chaos-test seam: when set, it is invoked with a
    named commit point (``"commit:staged"``, ``"commit:renamed"``,
    ``"commit:indexed"``) and may raise to simulate a crash exactly
    there.  Production runs leave it ``None``.

    ``counters`` counts the work the carried state saved or did:
    ``results_carried`` / ``results_parsed`` (:meth:`read_results`),
    ``fragments_reused`` / ``fragments_encoded`` (:meth:`commit_run`) and
    ``index_entries_read`` (:meth:`build_index`); ``commit_counters`` holds
    the last commit's share of the last three.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = pathlib.Path(root)
        self.crash_hook: Optional[Callable[[str], None]] = None
        self.counters: Counter = Counter()
        self.commit_counters: Dict[str, int] = {}
        self._results_encoder = ResultsEncoder()
        #: sha256 of results bytes -> their parse-identical document: the
        #: documents read or written before / since the last commit.
        self._carried: Dict[bytes, Dict[str, Any]] = {}
        self._used: Dict[bytes, Dict[str, Any]] = {}
        #: id(results doc) -> (doc, its signature map), for the documents
        #: the last :meth:`read_baseline` used.
        self._signature_maps: Dict[int, Tuple[Dict[str, Any], Dict[int, str]]] = {}
        #: epoch -> (manifest stat key, index entry or None if unusable).
        self._index_entries: Dict[int, Tuple[Tuple[int, int, int], Any]] = {}

    # -- layout --------------------------------------------------------

    @property
    def runs_dir(self) -> pathlib.Path:
        return self.root / "runs"

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.root / "quarantine"

    @property
    def index_path(self) -> pathlib.Path:
        return self.root / "index.json"

    def ensure_layout(self) -> None:
        """Create the fixed directories (quarantine stays lazy)."""
        self.runs_dir.mkdir(parents=True, exist_ok=True)

    def run_dir(self, epoch: int) -> pathlib.Path:
        return self.runs_dir / run_dirname(epoch)

    # -- reading -------------------------------------------------------

    def epochs(self) -> List[int]:
        """Committed epochs, sorted — by directory presence, not index."""
        if not self.runs_dir.is_dir():
            return []
        found = []
        for entry in self.runs_dir.iterdir():
            epoch = parse_run_dirname(entry.name)
            if epoch is not None and entry.is_dir():
                found.append(epoch)
        return sorted(found)

    def has(self, epoch: int) -> bool:
        return self.run_dir(epoch).is_dir()

    def latest_epoch_before(self, epoch: int) -> Optional[int]:
        """The newest committed epoch strictly before ``epoch``."""
        earlier = [e for e in self.epochs() if e < epoch]
        return max(earlier) if earlier else None

    def read_manifest(self, epoch: int) -> Dict[str, Any]:
        """Load and schema-validate one run's manifest."""
        path = self.run_dir(epoch) / MANIFEST_FILE
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CorruptPayloadError(
                f"unreadable manifest for epoch {epoch}: {exc}"
            ) from exc
        validate_run_manifest(doc)
        if doc["epoch"] != epoch:
            raise CorruptPayloadError(
                f"manifest in {path.parent.name} claims epoch {doc['epoch']}"
            )
        return doc

    def read_records(self, epoch: int) -> CensusRecords:
        """Load one run's records, verifying the integrity seal."""
        path = self.run_dir(epoch) / RECORDS_FILE
        try:
            with open(path, "rb") as fp:
                return read_raw_checksummed(fp)
        except OSError as exc:
            raise CorruptPayloadError(
                f"unreadable records for epoch {epoch}: {exc}"
            ) from exc

    def read_results(self, epoch: int) -> Dict[str, Any]:
        """Load one run's results document, verified against the manifest.

        The returned document is **read-only**, and so is every document
        passed to :meth:`commit_run`: when the verified bytes hash the
        same as bytes this archive object committed or read since its
        previous commit, the document it carries for them is returned
        instead of parsing again, and successive documents share their
        unchanged target entries.  A carried document equals
        ``json.loads`` of the bytes in key order and types.
        """
        return self._read_results(epoch)[0]

    def _read_results(self, epoch: int) -> Tuple[Dict[str, Any], bool]:
        """:meth:`read_results`, and whether the document was parsed."""
        manifest = self.read_manifest(epoch)
        path = self.run_dir(epoch) / RESULTS_FILE
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CorruptPayloadError(
                f"unreadable results for epoch {epoch}: {exc}"
            ) from exc
        sealed = manifest["payloads"][RESULTS_FILE]
        if len(data) != sealed["bytes"] or (
            zlib.crc32(data) & 0xFFFFFFFF
        ) != sealed["crc32"]:
            raise CorruptPayloadError(
                f"results payload for epoch {epoch} does not match its manifest"
            )
        digest = hashlib.sha256(data).digest()
        doc = self._used.get(digest) or self._carried.get(digest)
        parsed = doc is None
        if parsed:
            doc = json.loads(data.decode("utf-8"))
        self.counters["results_parsed" if parsed else "results_carried"] += 1
        self._used[digest] = doc
        return doc, parsed

    def read_baseline(self, epoch: int, depth: int) -> Baseline:
        """The :class:`Baseline` of a day at ``epoch``: the newest committed
        epoch before it and up to ``depth`` older ones, whose documents back
        the roster-rejoin recovery.  A rotten baseline is reported as the
        ``problem``; rotten history is merely unavailable.

        Each document's signature map is built once: :meth:`read_results`
        hands back the same read-only document while its bytes are
        unchanged, so the maps of the documents the last call used are
        kept for this one.
        """
        counters = {"carried": 0, "parsed": 0}
        maps: Dict[int, Tuple[Dict[str, Any], Dict[int, str]]] = {}

        def read(at: int) -> Tuple[Dict[str, Any], Dict[int, str]]:
            doc, parsed = self._read_results(at)
            counters["parsed" if parsed else "carried"] += 1
            kept = self._signature_maps.get(id(doc)) or (
                doc,
                {int(p): entry["signature"] for p, entry in doc["targets"].items()},
            )
            maps[id(doc)] = kept
            return kept

        before = self.latest_epoch_before(epoch)
        doc = signatures = problem = None
        history: Dict[int, Dict[str, Any]] = {}
        history_signatures = []
        if before is not None:
            try:
                doc, signatures = read(before)
            except CorruptPayloadError as exc:
                problem = str(exc)
            older = [e for e in self.epochs() if e < before]
            for old in older[-depth:] if depth > 0 else ():
                try:
                    history[old], old_signatures = read(old)
                except CorruptPayloadError:
                    continue
                history_signatures.append((old, old_signatures))
        self._signature_maps = maps
        return Baseline(
            before, doc, signatures, problem, history, history_signatures, counters
        )

    def read_telemetry(self, epoch: int) -> Optional[Dict[str, Any]]:
        """Load one run's telemetry sidecar, or ``None`` when the run has
        none (telemetry was off, or fsck quarantined a rotten sidecar).

        Raises :class:`CorruptPayloadError` when a sidecar is present but
        unreadable, schema-invalid, or its events seal does not match the
        on-disk events file — the condition fsck repairs by quarantining
        the sidecar while keeping the run.
        """
        run = self.run_dir(epoch)
        path = run / TELEMETRY_FILE
        if not path.exists():
            if (run / EVENTS_FILE).exists():
                raise CorruptPayloadError(
                    f"epoch {epoch} has an orphan events file without its "
                    f"telemetry document"
                )
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CorruptPayloadError(
                f"unreadable telemetry for epoch {epoch}: {exc}"
            ) from exc
        problems = telemetry_problems(doc)
        if problems:
            raise CorruptPayloadError(
                f"invalid telemetry for epoch {epoch}: " + "; ".join(problems)
            )
        if doc["epoch"] != epoch:
            raise CorruptPayloadError(
                f"telemetry in {run.name} claims epoch {doc['epoch']}"
            )
        seal = doc.get("events")
        events_path = run / EVENTS_FILE
        if seal is None:
            if events_path.exists():
                raise CorruptPayloadError(
                    f"epoch {epoch} has an events file but no events seal"
                )
        else:
            try:
                data = events_path.read_bytes()
            except OSError as exc:
                raise CorruptPayloadError(
                    f"unreadable events for epoch {epoch}: {exc}"
                ) from exc
            if len(data) != seal["bytes"] or (
                zlib.crc32(data) & 0xFFFFFFFF
            ) != seal["crc32"]:
                raise CorruptPayloadError(
                    f"events payload for epoch {epoch} does not match its seal"
                )
        return doc

    def read_trust(self, epoch: int) -> Optional[Dict[str, Any]]:
        """Load one run's VP trust sidecar, or ``None`` when the run has
        none (trust scoring was off, or fsck quarantined a rotten one).

        Raises :class:`CorruptPayloadError` when a sidecar is present
        but unreadable or schema-invalid — the condition fsck repairs by
        quarantining the sidecar while keeping the run.
        """
        run = self.run_dir(epoch)
        path = run / TRUST_FILE
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CorruptPayloadError(
                f"unreadable trust sidecar for epoch {epoch}: {exc}"
            ) from exc
        problems = trust_problems(doc)
        if problems:
            raise CorruptPayloadError(
                f"invalid trust sidecar for epoch {epoch}: " + "; ".join(problems)
            )
        if doc["epoch"] != epoch:
            raise CorruptPayloadError(
                f"trust sidecar in {run.name} claims epoch {doc['epoch']}"
            )
        return doc

    # -- committing ----------------------------------------------------

    def commit_run(
        self,
        epoch: int,
        manifest_core: Dict[str, Any],
        records: CensusRecords,
        results_doc: Dict[str, Any],
        telemetry_doc: Optional[Dict[str, Any]] = None,
        events_lines: Optional[List[str]] = None,
        trust_doc: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Atomically commit one epoch's run; return the full manifest.

        ``manifest_core`` is everything but ``payloads`` (filled here
        from the serialized bytes) — the caller never has to guess CRCs.

        ``telemetry_doc``/``events_lines`` are the optional telemetry
        sidecars.  They ride in the same staging directory and atomic
        rename — a committed run can never hold a torn events file — but
        are deliberately left out of the manifest's ``payloads`` seals,
        so the manifest/records/results bytes are identical whether
        telemetry is on or off.  The events file's own size/CRC seal is
        embedded in the telemetry document instead.

        ``trust_doc`` is the optional VP trust sidecar (a serialized
        :class:`~repro.resilience.vptrust.VpTrustReport`), committed
        under the same atomic-rename / outside-the-seals contract.

        ``results_doc`` is read-only from here on: its target entries
        keep their serialized bytes for the next commit, and
        :meth:`read_results` returns its parse-identical form.
        """
        if self.has(epoch):
            raise ArchiveError(f"epoch {epoch} is already committed")
        self.ensure_layout()

        records_sink = io.BytesIO()
        write_raw_checksummed(records, records_sink)
        records_bytes = records_sink.getvalue()
        results_bytes, carried, n_encoded = self._results_encoder.encode(results_doc)
        work = {
            "fragments_reused": len(carried["targets"]) - n_encoded,
            "fragments_encoded": n_encoded,
        }

        manifest = dict(manifest_core)
        manifest["kind"] = RUN_KIND
        manifest["schema_version"] = RUN_SCHEMA_VERSION
        manifest["epoch"] = epoch
        manifest["payloads"] = {
            RECORDS_FILE: {
                "bytes": len(records_bytes),
                "crc32": zlib.crc32(records_bytes) & 0xFFFFFFFF,
            },
            RESULTS_FILE: {
                "bytes": len(results_bytes),
                "crc32": zlib.crc32(results_bytes) & 0xFFFFFFFF,
            },
        }
        validate_run_manifest(manifest)

        final = self.run_dir(epoch)
        staging = self.runs_dir / f"{_STAGING_PREFIX}{final.name}.staging"
        if staging.exists():  # a previous crashed commit: start clean
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        self._write_file(staging / RECORDS_FILE, records_bytes)
        self._write_file(staging / RESULTS_FILE, results_bytes)
        self._write_file(staging / MANIFEST_FILE, canonical_json_bytes(manifest))
        sidecars = []
        if telemetry_doc is not None:
            telemetry = {**telemetry_doc, "kind": TELEMETRY_KIND, "epoch": epoch}
            telemetry["events"] = None
            if events_lines is not None:
                events_bytes = "".join(events_lines).encode("utf-8")
                telemetry["events"] = {
                    "lines": len(events_lines),
                    "bytes": len(events_bytes),
                    "crc32": zlib.crc32(events_bytes) & 0xFFFFFFFF,
                }
                self._write_file(staging / EVENTS_FILE, events_bytes)
            sidecars.append(("telemetry", TELEMETRY_FILE, telemetry, telemetry_problems))
        if trust_doc is not None:
            trust = {**trust_doc, "kind": TRUST_KIND, "epoch": epoch}
            sidecars.append(("trust", TRUST_FILE, trust, trust_problems))
        for label, name, doc, problems_of in sidecars:
            problems = problems_of(doc)
            if problems:
                raise ArchiveError(f"invalid {label} document: " + "; ".join(problems))
            self._write_file(staging / name, canonical_json_bytes(doc))
        self._fire("commit:staged")
        os.replace(staging, final)
        # The carried documents from here on: what this day read, plus
        # what it wrote.
        self._used[hashlib.sha256(results_bytes).digest()] = carried
        self._carried, self._used = self._used, {}
        self._fire("commit:renamed")
        index, work["index_entries_read"] = self._index()
        self.write_index(index)
        self.counters.update(work)
        self.commit_counters = work
        self._fire("commit:indexed")
        return manifest

    @staticmethod
    def _write_file(path: pathlib.Path, data: bytes) -> None:
        with open(path, "wb") as fp:
            fp.write(data)
            fp.flush()
            os.fsync(fp.fileno())

    def _fire(self, point: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(point)

    # -- index ---------------------------------------------------------

    def build_index(self) -> Dict[str, Any]:
        """Recompute the index from the on-disk manifests.

        Runs whose manifest does not load/validate are skipped — the
        index only ever advertises what a reader can actually use (fsck
        is the pass that removes the bad run itself).  Each run's entry
        is kept on its manifest's ``(size, mtime_ns, inode)``, and a
        manifest is read again only when that stat changed, so a commit
        reads its own manifest and no older one.
        """
        index, n_read = self._index()
        self.counters["index_entries_read"] += n_read
        return index

    def _index(self) -> Tuple[Dict[str, Any], int]:
        """:meth:`build_index`, and how many manifests it read."""
        n_read = 0
        runs: Dict[str, Any] = {}
        entries: Dict[int, Tuple[Tuple[int, int, int], Any]] = {}
        for epoch in self.epochs():
            try:
                stat = (self.run_dir(epoch) / MANIFEST_FILE).stat()
            except OSError:
                continue
            key = (stat.st_size, stat.st_mtime_ns, stat.st_ino)
            cached = self._index_entries.get(epoch)
            if cached is not None and cached[0] == key:
                entry = cached[1]
            else:
                entry = self._index_entry(epoch)
                n_read += 1
            entries[epoch] = (key, entry)
            if entry is not None:
                runs[run_dirname(epoch)] = dict(entry)
        self._index_entries = entries
        return {
            "kind": INDEX_KIND,
            "schema_version": RUN_SCHEMA_VERSION,
            "runs": runs,
        }, n_read

    def _index_entry(self, epoch: int) -> Optional[Dict[str, Any]]:
        """One run's index entry, or ``None`` when its manifest is unusable."""
        try:
            manifest = self.read_manifest(epoch)
        except (CorruptPayloadError, ValueError):
            return None
        manifest_bytes = canonical_json_bytes(manifest)
        return {
            "epoch": epoch,
            "analysis_mode": manifest["analysis"]["mode"],
            "n_records": manifest["census"].get("n_records"),
            "manifest_crc32": zlib.crc32(manifest_bytes) & 0xFFFFFFFF,
        }

    def write_index(self, index: Dict[str, Any]) -> None:
        """Atomically (re)write ``index.json``."""
        tmp = self.index_path.with_name(self.index_path.name + ".tmp")
        self._write_file(tmp, canonical_json_bytes(index))
        os.replace(tmp, self.index_path)

    def read_index(self) -> Optional[Dict[str, Any]]:
        """The on-disk index, or ``None`` when absent/unparseable."""
        try:
            doc = json.loads(self.index_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) and doc.get("kind") == INDEX_KIND else None

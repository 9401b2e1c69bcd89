"""Byte identity of the census records path, pinned by digest.

Every optimisation of scan -> records -> fold must leave the output
bytes alone.  These tests hash everything one small campaign produces —
per-census records, scan durations and drop rates, greylists (contents
and insertion order), the final blacklist, and the combined matrix
planes — and compare against digests recorded before the scan geometry,
the LFSR, the greylist and the fold were vectorised.  A second test does
the same for the committed payloads of a few service epochs (keyed
noise, BGP-free laptop-scale service).

If a change is *meant* to alter the bytes, the digests below must be
re-derived deliberately, with the reason recorded next to them.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest

from repro.census.combine import combine_censuses
from repro.measurement.campaign import CensusCampaign
from repro.measurement.faults import FaultPlan, RetryPolicy
from repro.service.archive import RECORDS_FILE, RESULTS_FILE
from repro.workflow import small_service

#: A fault plan exercising crash salvage, hang timeouts, corrupt batches
#: and flaps — the paths that cut, retry and drop per-VP batches.
FAULTS = FaultPlan(
    crash_prob=0.2, hang_prob=0.1, corrupt_prob=0.2, flap_prob=0.05, seed=3
)

#: Campaign digests by case; every worker count must reproduce them.
CAMPAIGN_DIGESTS = {
    "stream": "062c20037dbd7184fe92d50c04ef408f7baab56c7ae896b0f8b4b4cff635c8dc",
    "keyed": "cdca20c959e63ac6fba436be6c865365cefa6aa2ff407539ff6afe57e56aad84",
    "stream-faults": "708f8903186d4bbc6d7c70d274394b4b88c211b102922891e7774135bf13fdfb",
}

#: Digest of the committed payloads of service days 0..2.
SERVICE_DIGEST = "e3d6a77cb1a7dcbb150975d866da4dfa15886af4e50b8d660a317611a13077c6"


def campaign_digest(internet, platform, case: str, workers: int) -> str:
    """sha256 over a pre-census + 3 censuses at availability 0.85."""
    campaign = CensusCampaign(
        internet,
        platform,
        seed=99,
        noise=case.split("-")[0],
        fault_plan=FAULTS if case.endswith("-faults") else None,
        scan_timeout_hours=24.0 if case.endswith("-faults") else None,
        workers=workers,
    )
    censuses = campaign.run(n_censuses=3, availability=0.85)
    sha = hashlib.sha256()
    for census in censuses:
        sink = io.BytesIO()
        census.records.write_raw(sink)
        sha.update(sink.getvalue())
        sha.update(np.ascontiguousarray(census.vp_duration_hours).tobytes())
        sha.update(np.ascontiguousarray(census.vp_drop_rate).tobytes())
        for prefix, outcome in census.greylist._members.items():
            sha.update(f"g{prefix}:{outcome.value};".encode())
    for prefix, outcome in campaign.blacklist._members.items():
        sha.update(f"b{prefix}:{outcome.value};".encode())
    matrix = combine_censuses(censuses)
    sha.update(matrix.prefixes.tobytes())
    sha.update(np.ascontiguousarray(matrix.rtt_ms).tobytes())
    sha.update(np.ascontiguousarray(matrix.sample_count).tobytes())
    sha.update("|".join(matrix.vp_names).encode())
    return sha.hexdigest()


def service_digest(root) -> str:
    """sha256 over the sealed payloads of service days 0..2."""
    service = small_service(root)
    sha = hashlib.sha256()
    for epoch in range(3):
        service.run_epoch(epoch)
        run_dir = service.archive.run_dir(epoch)
        for name in (RECORDS_FILE, RESULTS_FILE):
            sha.update((run_dir / name).read_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("case", sorted(CAMPAIGN_DIGESTS))
def test_campaign_bytes_match_pinned_digest(tiny_internet, tiny_platform, case, workers):
    digest = campaign_digest(tiny_internet, tiny_platform, case, workers)
    assert digest == CAMPAIGN_DIGESTS[case]


def test_service_epochs_match_pinned_digest(tmp_path):
    assert service_digest(tmp_path / "archive") == SERVICE_DIGEST


#: Digest of every census's supervision outcome (health report) for a
#: faulted stream campaign with jittered backoff, pinned before the
#: retry and quarantine types were merged.
HEALTH_DIGEST = "28b65cd01e253712f3b7599e3c2addf2883564e4886a57744e3bcc217885b618"


def health_digest(internet, platform, workers: int):
    """sha256 over the health reports of a pre-census + 4 faulted censuses."""
    campaign = CensusCampaign(
        internet,
        platform,
        seed=99,
        fault_plan=FAULTS,
        retry=RetryPolicy(jitter=0.5),
        scan_timeout_hours=24.0,
        workers=workers,
    )
    censuses = campaign.run(n_censuses=4, availability=0.85)
    sha = hashlib.sha256()
    for census in censuses:
        h = census.health
        sha.update(
            repr(
                (
                    h.census_id,
                    h.retries,
                    repr(h.backoff_hours),
                    sorted(h.faults_seen.items()),
                    h.quarantined_vps,
                    sorted(h.vp_reasons.items()),
                    h.failed_vps,
                    h.salvaged_vps,
                )
            ).encode()
        )
    return sha.hexdigest(), censuses


@pytest.mark.parametrize("workers", [0, 2])
def test_health_reports_match_pinned_digest(tiny_internet, tiny_platform, workers):
    digest, censuses = health_digest(tiny_internet, tiny_platform, workers)
    # Not vacuous: the backoff is jittered and quarantine fires.
    assert any(c.health.backoff_hours > 0 for c in censuses)
    assert any(c.health.quarantined_vps for c in censuses)
    assert any(
        "consecutive failures" in reason
        for c in censuses
        for reasons in c.health.vp_reasons.values()
        for reason in reasons
    )
    assert digest == HEALTH_DIGEST

"""Roster churn — a VP sitting out a day must not force a cold run.

Before per-VP column signatures, any roster motion (one node down for
maintenance, one rejoining) changed every target's signature and pushed
the whole epoch through a cold recompute.  With roster-free signatures
plus multi-epoch baseline history, an epoch under mild churn recomputes
only the rows the moving VPs actually measured and recovers
pre-disconnect targets from history.

The benchmark replays the validated churn scenario (20 VPs, 5% keyed
per-epoch dropout, ``roster_seed=11``), picks the committed epoch whose
plan leaned hardest on copy/recovery, and times the *analysis stage* of
that epoch both ways on the identical matrix:

* ``cold``        — every target re-analyzed from scratch;
* ``incremental`` — churn-surviving targets copied or recovered.

Gates:

* the two analysis paths must produce *identical* result documents;
* incremental time <= ``REPRO_MAX_ROSTER_CHURN_RATIO`` (default 0.25)
  of cold time.  The budget is looser than the stable-roster gate
  (``bench_incremental_census``): a joining VP legitimately touches
  every target it measured.

``REPRO_BENCH_TINY=1`` shrinks the world; the relative gate holds.
"""

from __future__ import annotations

import os

from conftest import TINY_SCALE, write_exhibit

from repro.census.combine import matrix_from_census
from repro.measurement.campaign import CensusCampaign
from repro.obs import Stopwatch
from repro.service import CensusService, ServiceConfig, plan_delta, target_signatures

ROUNDS = 3
EPOCHS = 8
MAX_RATIO = float(os.environ.get("REPRO_MAX_ROSTER_CHURN_RATIO", "0.25"))


def build_service(tmp_path) -> CensusService:
    return CensusService(
        ServiceConfig(
            archive_root=str(tmp_path / "archive"),
            n_unicast=150 if TINY_SCALE else 600,
            tail_deployments=4 if TINY_SCALE else 12,
            n_vps=20,
            roster_churn_prob=0.05,
            roster_seed=11,
            baseline_depth=4,
        )
    )


def rebuild_matrix(service: CensusService, epoch: int):
    """The epoch's matrix, bit-identical to what ``run_epoch`` saw
    (everything is keyed: world, roster dropout, campaign noise)."""
    cfg = service.config
    internet = service.internet_for(epoch)
    campaign = CensusCampaign(
        internet,
        service.platform_for(epoch),
        seed=cfg.campaign_seed,
        degraded_fraction=cfg.degraded_fraction,
        noise=cfg.noise,
    )
    campaign.run_precensus()
    census = campaign.run_census(availability=cfg.availability)
    return internet, matrix_from_census(census)


def test_roster_churn_incremental_ratio(tmp_path, results_dir):
    service = build_service(tmp_path)
    outcomes = [service.run_epoch(e) for e in range(EPOCHS)]

    rosters = {
        tuple(
            vp["name"] for vp in service.archive.read_manifest(e)["vantage_points"]
        )
        for e in range(EPOCHS)
    }
    assert len(rosters) > 1, "the churn scenario kept a frozen roster"

    # The epoch that leaned hardest on the churn machinery: incremental
    # despite roster motion, most targets copied or recovered.
    candidates = [
        o for o in outcomes[1:] if o.mode == "incremental" and o.n_copied > 0
    ]
    assert candidates, "no churned epoch stayed incremental"
    target = max(candidates, key=lambda o: o.n_copied + o.n_recovered)
    epoch = target.epoch

    internet, matrix = rebuild_matrix(service, epoch)
    signatures = target_signatures(matrix)

    baseline = service.archive.read_baseline(epoch, service.config.baseline_depth)
    baseline_epoch, baseline_doc = baseline.epoch, baseline.doc
    assert baseline_epoch == epoch - 1
    baseline_signatures = baseline.signatures
    history_docs = baseline.history
    history = baseline.history_signatures

    plan_incremental = plan_delta(
        signatures,
        baseline_signatures,
        baseline_epoch=baseline_epoch,
        churn_threshold=service.config.churn_threshold,
        history=history,
    )
    plan_cold = plan_delta(signatures, None)
    assert plan_incremental.mode == "incremental"

    # Both arms share geolocation's disk tables for the roster, as a
    # service's consecutive days on one roster do.
    tables = {}
    cold_times, incremental_times = [], []
    for _ in range(ROUNDS):  # interleaved so drift hits both arms equally
        with Stopwatch() as sw:
            cold_doc, n_cold, _, _ = service._analyze(
                matrix, internet, signatures, plan_cold, None, epoch, disk_tables=tables
            )
        cold_times.append(sw.elapsed_s)
        with Stopwatch() as sw:
            incremental_doc, n_inc, n_copied, n_recovered = service._analyze(
                matrix,
                internet,
                signatures,
                plan_incremental,
                baseline_doc,
                epoch,
                history_docs=history_docs,
                disk_tables=tables,
            )
        incremental_times.append(sw.elapsed_s)

    # Safety: whatever mix of copy/recover/recompute, byte-identical.
    assert incremental_doc == cold_doc, "incremental analysis diverged from cold"
    assert incremental_doc == service.archive.read_results(epoch)

    t_cold, t_incremental = min(cold_times), min(incremental_times)
    ratio = t_incremental / t_cold

    lines = [
        "metric                              budget          measured",
        f"targets                                             {len(signatures)}",
        f"distinct rosters over {EPOCHS} epochs                        {len(rosters)}",
        f"benchmarked epoch                                   {epoch}",
        f"targets re-analyzed                                 {n_inc}"
        f" (copied {n_copied}, recovered {n_recovered})",
        f"cold analysis (best of {ROUNDS})                          {t_cold * 1000.0:.1f} ms",
        f"incremental analysis (best of {ROUNDS})                   {t_incremental * 1000.0:.1f} ms",
        f"incremental / cold                  <= {MAX_RATIO:.2f}         {ratio:.3f}",
        "identical result documents          required        yes",
    ]
    write_exhibit(results_dir, "vp_churn", lines)
    print()
    print("\n".join(lines))

    assert sum(o.n_recovered for o in outcomes) > 0, "history recovery never fired"
    assert ratio <= MAX_RATIO, (
        f"churned incremental cost {ratio:.3f} of cold, budget {MAX_RATIO}"
    )

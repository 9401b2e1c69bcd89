"""Incremental recompute — a low-churn day must be nearly free.

The longitudinal service's value proposition: on a quiet day (~1-2% of
targets changed), re-analyzing the census must cost a small fraction of
a cold run, because every unchanged target's archived result is copied
verbatim instead of re-entering the iGreedy engine.

This benchmark runs day 0 cold, measures day 1's census once, then
times the *analysis stage* both ways on the identical matrix:

* ``cold``        — every target re-analyzed from scratch;
* ``incremental`` — only signature-changed targets re-analyzed.

Gates:

* the two analysis paths must produce *identical* result documents
  (the safety half of the contract, asserted on every benchmark run);
* incremental time <= ``REPRO_MAX_INCREMENTAL_RATIO`` (default 0.15)
  of cold time (the cheapness half).

``REPRO_BENCH_TINY=1`` shrinks the world to CI scale; the relative gate
is unchanged.
"""

from __future__ import annotations

import os

from conftest import TINY_SCALE, write_exhibit

from repro.census.combine import matrix_from_census
from repro.census.longitudinal import EvolutionConfig
from repro.internet.catalog import full_catalog
from repro.measurement.campaign import CensusCampaign
from repro.obs import Stopwatch
from repro.service import CensusService, ServiceConfig, plan_delta, target_signatures
from repro.service.delta import REASON_DELTA

ROUNDS = 3
MAX_RATIO = float(os.environ.get("REPRO_MAX_INCREMENTAL_RATIO", "0.15"))

#: Gentle day-over-day drift: a percent or two of targets move.
GENTLE = EvolutionConfig(
    growth_prob=0.02, max_new_sites=1, shrink_prob=0.01, new_adopters=1
)


def build_service(tmp_path) -> CensusService:
    n_entries = 12 if TINY_SCALE else 60
    return CensusService(
        ServiceConfig(
            archive_root=str(tmp_path / "archive"),
            n_unicast=120 if TINY_SCALE else 400,
            tail_deployments=0,
            base_catalog=full_catalog(tail_count=40, seed=2015)[:n_entries],
            evolution=GENTLE,
            n_vps=20 if TINY_SCALE else 40,
        )
    )


def test_incremental_census_ratio(tmp_path, results_dir):
    service = build_service(tmp_path)
    cfg = service.config

    with Stopwatch() as sw_day0:
        service.run_epoch(0)

    # Day 1's measurement, once; both analysis arms share the matrix.
    internet = service.internet_for(1)
    campaign = CensusCampaign(
        internet,
        service.platform,
        seed=cfg.campaign_seed,
        degraded_fraction=cfg.degraded_fraction,
        noise=cfg.noise,
    )
    campaign.run_precensus()
    with Stopwatch() as sw_measure:
        census = campaign.run_census(availability=cfg.availability)
    matrix = matrix_from_census(census)

    signatures = target_signatures(matrix)
    baseline_doc = service.archive.read_results(0)
    baseline_signatures = {
        int(prefix): entry["signature"]
        for prefix, entry in baseline_doc["targets"].items()
    }
    plan_incremental = plan_delta(
        signatures, baseline_signatures, baseline_epoch=0, churn_threshold=1.0
    )
    plan_cold = plan_delta(signatures, None)
    assert plan_incremental.reason == REASON_DELTA

    # Both arms share geolocation's disk tables for the roster, as a
    # service's consecutive days on one roster do.
    tables = {}
    cold_times, incremental_times = [], []
    for _ in range(ROUNDS):  # interleaved so drift hits both arms equally
        with Stopwatch() as sw:
            cold_doc, n_cold, _, _ = service._analyze(
                matrix, internet, signatures, plan_cold, None, 1, disk_tables=tables
            )
        cold_times.append(sw.elapsed_s)
        with Stopwatch() as sw:
            incremental_doc, n_inc, n_copied, _ = service._analyze(
                matrix,
                internet,
                signatures,
                plan_incremental,
                baseline_doc,
                1,
                disk_tables=tables,
            )
        incremental_times.append(sw.elapsed_s)

    # Safety: the cheap path must be *identical*, not merely close.
    assert incremental_doc == cold_doc, "incremental analysis diverged from cold"

    t_cold, t_incremental = min(cold_times), min(incremental_times)
    ratio = t_incremental / t_cold
    churn = plan_incremental.churn_fraction

    lines = [
        "metric                              budget          measured",
        f"targets                                             {len(signatures)}",
        f"day-over-day churn                  ~1-2%           {churn * 100.0:.1f}%",
        f"targets re-analyzed                                 {n_inc} (copied {n_copied})",
        f"cold analysis (best of {ROUNDS})                          {t_cold * 1000.0:.1f} ms",
        f"incremental analysis (best of {ROUNDS})                   {t_incremental * 1000.0:.1f} ms",
        f"incremental / cold                  <= {MAX_RATIO:.2f}         {ratio:.3f}",
        f"day-0 end to end                                    {sw_day0.elapsed_s * 1000.0:.0f} ms",
        f"day-1 measurement (not gated)                       {sw_measure.elapsed_s * 1000.0:.0f} ms",
        "identical result documents          required        yes",
    ]
    write_exhibit(results_dir, "incremental_census", lines)
    print()
    print("\n".join(lines))

    assert churn < 0.10, f"evolution drifted too hard for the gate: {churn:.3f}"
    assert ratio <= MAX_RATIO, (
        f"incremental analysis cost {ratio:.3f} of cold, budget {MAX_RATIO}"
    )

"""Fault tolerance — detection recall under injected node faults.

The paper's censuses survived a shared-testbed reality: of ~308
PlanetLab hosts only 261/255/269/240 were usable per census, and Fig. 8
shows a long straggler tail.  This exhibit stresses the supervised
campaign the same way: crash+hang+corruption injected at increasing
per-VP rates, with the supervisor retrying, salvaging partial batches
and dropping corrupt ones.  Anycast detection recall must stay within
tolerance of the fault-free run — redundancy across ~80 VPs means losing
or truncating a few scans barely dents the speed-of-light evidence.
"""

from conftest import write_exhibit

from repro.census.analysis import analyze_matrix
from repro.census.combine import combine_censuses
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.faults import FaultPlan, RetryPolicy
from repro.measurement.platform import planetlab_platform

FAULT_RATES = [0.0, 0.1, 0.2, 0.3]

#: Recall at 20% faults may trail the fault-free recall by at most this.
RECALL_TOLERANCE = 0.05


def _run_study(internet, platform, rate: float):
    nominal_hours = internet.n_targets / 1000.0 / 3600.0
    campaign = CensusCampaign(
        internet,
        platform,
        seed=500,
        fault_plan=FaultPlan.uniform(rate, seed=13, flap_prob=rate / 6.0),
        retry=RetryPolicy(max_attempts=3),
        scan_timeout_hours=nominal_hours * 20.0,
        min_vp_quorum=10,
    )
    censuses = campaign.run(n_censuses=2, availability=0.85)
    analysis = analyze_matrix(combine_censuses(censuses))
    return censuses, analysis


def _recall(analysis, truth: set) -> float:
    detected = set(analysis.anycast_prefixes)
    return len(detected & truth) / len(truth)


def test_fault_tolerance_recall(benchmark, results_dir):
    internet = SyntheticInternet(
        InternetConfig(seed=2015, n_unicast_slash24=1500, tail_deployments=40)
    )
    platform = planetlab_platform(count=80, seed=41)
    truth = {int(p) for dep in internet.deployments for p in dep.prefixes}

    def sweep():
        out = {}
        for rate in FAULT_RATES:
            censuses, analysis = _run_study(internet, platform, rate)
            out[rate] = (censuses, analysis)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        f"{'fault rate':>10s} {'recall':>7s} {'faults':>7s} {'retries':>8s} "
        f"{'salvaged':>9s} {'dropped':>8s} {'failed VPs':>11s} {'degraded':>9s}"
    ]
    recalls = {}
    for rate in FAULT_RATES:
        censuses, analysis = results[rate]
        recalls[rate] = _recall(analysis, truth)
        faults = sum(c.health.n_faults for c in censuses)
        retries = sum(c.health.retries for c in censuses)
        salvaged = sum(c.health.records_salvaged for c in censuses)
        dropped = sum(c.health.records_dropped_corrupt for c in censuses)
        failed = sum(c.health.n_vps_failed for c in censuses)
        degraded = any(c.health.degraded for c in censuses)
        lines.append(
            f"{rate:10.2f} {recalls[rate]:7.3f} {faults:7d} {retries:8d} "
            f"{salvaged:9d} {dropped:8d} {failed:11d} {str(degraded):>9s}"
        )
    write_exhibit(results_dir, "fault_tolerance", lines)

    # Fault-free run must be clean; faulted runs must see faults.
    clean_censuses, _ = results[0.0]
    assert all(not c.health.degraded for c in clean_censuses)
    faulted_censuses, _ = results[0.2]
    assert sum(c.health.n_faults for c in faulted_censuses) > 0
    assert any(c.health.degraded for c in faulted_censuses)

    # Detection recall survives 20% per-VP faults within tolerance.
    assert recalls[0.2] >= recalls[0.0] - RECALL_TOLERANCE, recalls

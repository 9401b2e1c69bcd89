"""Parallel scaling — pool speedup over the serial (``workers=0``) census.

The paper's four censuses each probed ~10.6M /24s from ~250 vantage
points; at that scale the scan phase only makes sense sharded across
workers.  This exhibit runs one census of a mid-size study in-process
(``workers=0``, the engine's serial reference driver) and on the
supervised pool at 1/2/4 workers, checks the hard invariant
(byte-identical output at every worker count), and records the speedup
curve to seed the perf trajectory.

The >=2x-at-4-workers acceptance gate is asserted only where the host
actually has >= 4 CPUs: the pool cannot beat physics on a 1-core
container, but the curve is still measured and written so the numbers
travel with the repo either way.
"""

import os
import pathlib
import subprocess
import time

from conftest import write_exhibit

from repro.exec import ExecutionPolicy
from repro.exec.pool import fork_available
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.platform import planetlab_platform

WORKER_COUNTS = [1, 2, 4]

#: Acceptance: 4 workers must be at least this much faster than serial —
#: enforced only on hosts with >= 4 CPUs.
MIN_SPEEDUP_AT_4 = 2.0


def _campaign(internet, platform, workers):
    policy = ExecutionPolicy(workers=workers, submit_seed=workers or None)
    campaign = CensusCampaign(internet, platform, seed=600, executor=policy)
    campaign.run_precensus()
    return campaign


def _timed_census(campaign):
    start = time.perf_counter()
    census = campaign.run_census(availability=0.85)
    return census, time.perf_counter() - start


def test_parallel_scaling_speedup(benchmark, results_dir):
    # Big enough that one serial census takes ~1s of pure scan compute:
    # fork + IPC overhead must be amortized for the curve to mean anything.
    internet = SyntheticInternet(
        InternetConfig(seed=2015, n_unicast_slash24=12_000, tail_deployments=150)
    )
    platform = planetlab_platform(count=128, seed=23)

    def sweep():
        return {
            workers: _timed_census(_campaign(internet, platform, workers))
            for workers in [0] + WORKER_COUNTS
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    serial_census, serial_s = results[0]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=pathlib.Path(__file__).parent,
        capture_output=True,
        text=True,
    ).stdout.strip()
    lines = [
        f"# scale: one census, {internet.n_targets} targets x {len(platform)} VPs "
        f"(availability 0.85); commit {commit or 'unknown'} + working tree",
        f"# host CPUs: {os.cpu_count()}   fork: {fork_available()}   "
        "(serial = workers=0, the engine's in-process driver)",
        f"{'engine':>10s} {'wall s':>8s} {'speedup':>8s} {'checksum match':>15s}",
        f"{'serial':>10s} {serial_s:8.2f} {1.0:8.2f}x {'—':>15s}",
    ]
    speedups = {}
    for workers in WORKER_COUNTS:
        census, wall_s = results[workers]
        speedups[workers] = serial_s / wall_s
        identical = census.records.checksum() == serial_census.records.checksum()
        lines.append(
            f"{workers:9d}w {wall_s:8.2f} {speedups[workers]:8.2f}x "
            f"{str(identical):>15s}"
        )
        # The invariant the whole engine exists to uphold: bytes never
        # depend on the worker count.
        assert identical, f"workers={workers} diverged from serial bytes"
    write_exhibit(results_dir, "parallel_scaling", lines)

    if fork_available() and (os.cpu_count() or 1) >= 4:
        assert speedups[4] >= MIN_SPEEDUP_AT_4, speedups

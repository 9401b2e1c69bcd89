"""Parallel scaling — where scan threads pay, and where they do not.

A work unit is one whole VP scan, run on a thread of the calling
process, so what threads can win is set by how much of a scan runs in
numpy kernels that release the GIL against the per-unit Python work
that does not.  This exhibit runs one census at two scales — short
scans (~1 ms each: 13k targets x 128 VPs, where threads buy nothing:
0.87-1.02x at 1-4 threads) and long scans (~30 ms each: ~400k targets x
48 VPs, where 2 threads ran 1.66x serial, against 1.44x for the forked
pool they replaced) — inline (``workers=0``, the driver's serial
reference path) and on threads, checks the hard invariant
(byte-identical output at every worker count), and records both rows so
the crossover travels with the repo.

The acceptance gate runs wherever the host has >= 2 CPUs: at the
long-scan scale 2 workers must be at least 1.2x faster than serial.
Walls are the best of five interleaved rounds per worker count.
"""

import os
import pathlib
import subprocess
import time

from conftest import write_exhibit

from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.platform import planetlab_platform

#: The scale the acceptance gate reads.
GATED = "long scans"
#: (label, unicast /24s, VPs, thread counts measured next to serial).
SCALES = [
    ("short scans", 12_000, 128, [1, 2, 4]),
    (GATED, 400_000, 48, [1, 2]),
]
ROUNDS = 5

#: Acceptance: at the long-scan scale 2 workers must be at least this
#: much faster than serial — enforced on every host with >= 2 CPUs.
MIN_SPEEDUP_AT_2 = 1.2


def _timed_census(internet, platform, workers):
    campaign = CensusCampaign(internet, platform, seed=600, workers=workers)
    campaign.run_precensus()
    start = time.perf_counter()
    census = campaign.run_census(availability=1.0)
    return census.records.checksum(), time.perf_counter() - start


def _sweep(n_unicast, n_vps, pool_sizes):
    """Best-of-ROUNDS wall per worker count, rounds interleaved so host
    drift hits every count alike; checksums must agree everywhere."""
    internet = SyntheticInternet(
        InternetConfig(seed=2015, n_unicast_slash24=n_unicast, tail_deployments=150)
    )
    platform = planetlab_platform(count=n_vps, seed=23)
    walls, checksums = {}, set()
    for _ in range(ROUNDS):
        for workers in [0] + pool_sizes:
            checksum, wall_s = _timed_census(internet, platform, workers)
            checksums.add(checksum)
            walls[workers] = min(wall_s, walls.get(workers, wall_s))
    return internet.n_targets, walls, checksums


def test_parallel_scaling_speedup(benchmark, results_dir):
    def sweep_all():
        return [_sweep(n, vps, sizes) for _, n, vps, sizes in SCALES]

    results = benchmark.pedantic(sweep_all, rounds=1, iterations=1)

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=pathlib.Path(__file__).parent,
        capture_output=True,
        text=True,
    ).stdout.strip()
    cpus = os.cpu_count() or 1
    lines = [
        f"# commit {commit or 'unknown'} + working tree   host CPUs: {cpus}",
        f"# one census at availability 1.0 after a pre-census; wall = best of "
        f"{ROUNDS} interleaved rounds; serial = workers=0, the driver's "
        "inline path; Nw = N scan threads",
    ]
    speedups = {}
    for (label, _, n_vps, pool_sizes), (n_targets, walls, checksums) in zip(
        SCALES, results
    ):
        # The invariant the whole engine exists to uphold: bytes never
        # depend on the worker count.
        identical = len(checksums) == 1
        assert identical, f"{label}: bytes diverged across worker counts"
        lines += [
            f"# scale: {label} — {n_targets} targets x {n_vps} VPs, "
            f"{walls[0] / n_vps * 1e3:.0f} ms per scan",
            f"{'engine':>10s} {'wall s':>8s} {'speedup':>8s} {'checksum match':>15s}",
            f"{'serial':>10s} {walls[0]:8.2f} {1.0:8.2f}x {'—':>15s}",
        ]
        for workers in pool_sizes:
            speedups[label, workers] = walls[0] / walls[workers]
            lines.append(
                f"{workers:9d}w {walls[workers]:8.2f} "
                f"{speedups[label, workers]:8.2f}x {str(identical):>15s}"
            )
    gated = cpus >= 2
    lines.append(
        f"# gate (2 workers >= {MIN_SPEEDUP_AT_2}x serial on {GATED}): "
        + (f"executed, {speedups[GATED, 2]:.2f}x" if gated else "skipped (< 2 CPUs)")
    )
    write_exhibit(results_dir, "parallel_scaling", lines)

    if gated:
        assert speedups[GATED, 2] >= MIN_SPEEDUP_AT_2, speedups

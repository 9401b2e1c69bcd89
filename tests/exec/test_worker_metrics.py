"""Worker metric shipping: merged totals must equal serial totals.

Forked workers install a fresh registry after fork and ship its snapshot
back on shutdown; the parent merges them.  Because every observation is
an integer or a deterministic simulated quantity, the merged parent
registry must equal what an in-process (serial) run of the same work
records — the satellite contract of the telemetry PR.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.exec import ExecutionPolicy
from repro.exec.pool import MSG_OK, WorkerPool, drain_worker_metrics, fork_available
from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.faults import FaultPlan, WorkerFaultPlan
from repro.measurement.platform import planetlab_platform
from repro.obs import MetricsRegistry, Tracer, current_metrics, use_metrics, use_tracer


@pytest.fixture(scope="module")
def internet():
    return SyntheticInternet(
        InternetConfig(seed=7, n_unicast_slash24=250, tail_deployments=8)
    )


@pytest.fixture(scope="module")
def platform():
    return planetlab_platform(count=10, seed=11)


def _census_metrics(internet, platform, workers, worker_faults=None):
    policy = ExecutionPolicy(workers=workers)
    if worker_faults is not None:
        policy = ExecutionPolicy(
            workers=workers,
            worker_faults=worker_faults,
            liveness_timeout_s=2.0,
            poll_interval_s=0.02,
        )
    registry = MetricsRegistry()
    with use_metrics(registry):
        campaign = CensusCampaign(
            internet, platform, seed=99, executor=policy
        )
        campaign.run_precensus()
        census = campaign.run_census(availability=0.85)
    return registry.snapshot(), census


class TestExecPoolMetrics:
    def test_forked_workers_equal_in_process(self, internet, platform):
        serial, census_serial = _census_metrics(internet, platform, workers=0)
        pooled, census_pooled = _census_metrics(internet, platform, workers=3)
        # Same bytes (the old invariant)...
        assert census_serial.records.checksum() == census_pooled.records.checksum()
        # ...and now the same unit-level metric totals: the in-worker
        # counters came home via shipped snapshots.
        for name in ("exec_unit_scans", "exec_unit_probes"):
            assert serial["counters"][name] > 0
            assert pooled["counters"][name] == serial["counters"][name], name
        # Parent-side campaign metrics agree too (simulated, deterministic).
        assert pooled["counters"]["vps_ok"] == serial["counters"]["vps_ok"]
        assert (
            pooled["histograms"]["vp_scan_duration_hours"]
            == serial["histograms"]["vp_scan_duration_hours"]
        )

    def test_worker_counts_independent_of_pool_size(self, internet, platform):
        base, _ = _census_metrics(internet, platform, workers=2)
        for workers in (1, 4):
            snap, _ = _census_metrics(internet, platform, workers=workers)
            assert (
                snap["counters"]["exec_unit_scans"]
                == base["counters"]["exec_unit_scans"]
            )

    def test_dead_worker_does_not_hang_the_drain(self, internet, platform):
        # A killed worker never ships its snapshot; the drain must prune
        # it instead of blocking, and the census bytes stay identical.
        serial, census_serial = _census_metrics(internet, platform, workers=0)
        faulty, census_faulty = _census_metrics(
            internet,
            platform,
            workers=3,
            worker_faults=WorkerFaultPlan(dead_worker_ids=(0,)),
        )
        assert census_serial.records.checksum() == census_faulty.records.checksum()
        # Units completed by the dead worker were reassigned; the scans
        # that made it into the census are at least the serial count.
        assert (
            faulty["counters"]["exec_unit_scans"]
            >= serial["counters"]["exec_unit_scans"] - 1
        )


#: Instruments that describe the schedule, not the census: pool
#: messages, and the configured pool size.
SCHEDULE_INSTRUMENTS = frozenset({"exec_heartbeats", "exec_workers"})


def _normalised(spans):
    """A span forest without durations or ``worker`` ids, siblings
    sorted: pooled ``vp_scan`` spans close in completion order, each
    naming the worker that ran it."""
    return sorted(
        (
            (
                span["name"],
                sorted((k, v) for k, v in span["attrs"].items() if k != "worker"),
                _normalised(span["children"]),
            )
            for span in spans
        ),
        key=repr,
    )


def _observed_campaign(internet, platform, workers):
    """Metrics and spans of a faulted pre-census plus two censuses."""
    registry, tracer = MetricsRegistry(), Tracer()
    with use_metrics(registry), use_tracer(tracer):
        campaign = CensusCampaign(
            internet,
            platform,
            seed=99,
            fault_plan=FaultPlan.uniform(0.3, flap_prob=0.1),
            executor=ExecutionPolicy(workers=workers),
        )
        campaign.run_precensus()
        for _ in range(2):
            campaign.run_census(availability=0.85)
    snapshot = registry.snapshot()
    schedule = {
        name: snapshot[kind].pop(name)
        for kind in snapshot
        for name in SCHEDULE_INSTRUMENTS & set(snapshot[kind])
    }
    return snapshot, _normalised(tracer.to_dicts()), schedule


class TestObservedCampaign:
    def test_any_pool_size_observes_the_serial_census(self, internet, platform):
        serial, serial_spans, _ = _observed_campaign(internet, platform, workers=0)
        pooled, pooled_spans, schedule = _observed_campaign(
            internet, platform, workers=2
        )
        assert pooled == serial
        assert pooled_spans == serial_spans
        # The run was faulted and traced per VP, and the pool really ran.
        assert serial["counters"]["vps_failed"] > 0
        assert serial["counters"]["exec_unit_scans"] > 0
        assert "vp_scan" in repr(serial_spans)
        if fork_available():
            assert schedule["exec_heartbeats"] > 0


def _counting_execute(unit_id):
    """A unit bumps one counter in the worker's own registry."""
    current_metrics().counter("units_counted").inc()
    return SimpleNamespace(probes_sent=0)


class TestDrainAfterExit:
    def test_snapshot_of_an_already_exited_worker_is_merged(self):
        """A fast worker can drain and exit before the parent asks: its
        snapshot is in the queue, not lost with the process."""
        if not fork_available():
            pytest.skip("fork start method unavailable")
        registry = MetricsRegistry()
        with use_metrics(registry):
            pool = WorkerPool(_counting_execute)
            try:
                handle = pool.spawn()
                handle.dispatch(0)
                handle.task_q.put(None)
                while pool.out_q.get(timeout=10.0)[0] != MSG_OK:
                    pass
                handle.process.join(timeout=10.0)
                assert not handle.process.is_alive()
                merged = drain_worker_metrics(pool, registry)
            finally:
                pool.shutdown()
        assert merged == 1
        assert registry.snapshot()["counters"]["units_counted"] == 1

"""Scan metrics at any worker count equal the serial census's.

The scan driver counts each unit (``exec_unit_scans``,
``exec_unit_probes``) in the calling thread as it takes the unit's
result, in census order, so a census scanned on threads records the same
counters, histograms and span tree as one scanned inline (``workers=0``).
"""

from __future__ import annotations

import pytest

from repro.internet.topology import InternetConfig, SyntheticInternet
from repro.measurement.campaign import CensusCampaign
from repro.measurement.faults import FaultPlan
from repro.measurement.platform import planetlab_platform
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer


@pytest.fixture(scope="module")
def internet():
    return SyntheticInternet(
        InternetConfig(seed=7, n_unicast_slash24=250, tail_deployments=8)
    )


@pytest.fixture(scope="module")
def platform():
    return planetlab_platform(count=10, seed=11)


def _census_metrics(internet, platform, workers):
    registry = MetricsRegistry()
    with use_metrics(registry):
        campaign = CensusCampaign(internet, platform, seed=99, workers=workers)
        campaign.run_precensus()
        census = campaign.run_census(availability=0.85)
    return registry.snapshot(), census


class TestExecPoolMetrics:
    def test_scan_threads_equal_in_process(self, internet, platform):
        serial, census_serial = _census_metrics(internet, platform, workers=0)
        threaded, census_threaded = _census_metrics(internet, platform, workers=3)
        # Same bytes...
        assert census_serial.records.checksum() == census_threaded.records.checksum()
        # ...and the same unit-level metric totals.
        for name in ("exec_unit_scans", "exec_unit_probes"):
            assert serial["counters"][name] > 0
            assert threaded["counters"][name] == serial["counters"][name], name
        # Campaign metrics agree too (simulated, deterministic).
        assert threaded["counters"]["vps_ok"] == serial["counters"]["vps_ok"]
        assert (
            threaded["histograms"]["vp_scan_duration_hours"]
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


#: The one instrument that describes the schedule, not the census: the
#: configured worker count.
SCHEDULE_INSTRUMENTS = frozenset({"exec_workers"})


def _normalised(spans):
    """A span forest without durations (a ``vp_scan`` span's ``scan_s`` is one)."""
    return [
        (
            span["name"],
            sorted((k, v) for k, v in span["attrs"].items() if k != "scan_s"),
            _normalised(span["children"]),
        )
        for span in spans
    ]


def _observed_campaign(internet, platform, workers):
    """Metrics and spans of a faulted pre-census plus two censuses."""
    registry, tracer = MetricsRegistry(), Tracer()
    with use_metrics(registry), use_tracer(tracer):
        campaign = CensusCampaign(
            internet,
            platform,
            seed=99,
            fault_plan=FaultPlan.uniform(0.3, flap_prob=0.1),
            workers=workers,
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
        # The run was faulted and traced per VP, and the threads really ran.
        assert serial["counters"]["vps_failed"] > 0
        assert serial["counters"]["exec_unit_scans"] > 0
        assert "vp_scan" in repr(serial_spans)
        assert schedule["exec_workers"] == 2

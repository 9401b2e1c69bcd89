"""The service's one carry contract: a day runs as ordered stages over
one :class:`~repro.service.service._Carry` record, yesterday's, and the
record is replaced whole once the day commits.

Two properties:

* **carried == cold, per stage**: every stage's output with yesterday's
  carry equals, byte for byte, the same stage's output in a service that
  carries nothing (a fresh process over a copy of the archive as it was
  before the day), on every day of a keyed timeline with roster churn,
  trust, alarms and route events, including a day interrupted and re-run
  in the same process;
* **the alarm replay is read-only**: rebuilding the baseline's routing
  story for the alarm pass must not move the carried world, so the
  ``world`` span of a timeline with alarms equals the one without.
"""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

from repro.census.combine import RttMatrix
from repro.internet.topology import SyntheticInternet
from repro.measurement.campaign import Census, CensusCampaign, CensusInterrupted
from repro.obs import Tracer, activate
from repro.service import CensusService
from repro.service.archive import Baseline, canonical_json_bytes
from repro.workflow import small_service

from .conftest import archive_tree
from .test_carried_world import ARRAYS, assert_same_world
from .test_routing_service import MOAS_PLAN

DAYS = 5

#: The day interrupted mid-census, then re-run by the same process.
INTERRUPTED = 2

RECORDS = ("vp_index", "prefix", "timestamp_ms", "rtt_ms", "flag")


def fingerprint(value):
    """A stage output in comparable form: arrays as (dtype, shape, bytes),
    documents as canonical JSON bytes."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, SyntheticInternet):
        arrays = [fingerprint(getattr(value, name)) for name in ARRAYS]
        return arrays + [value.deployments, vars(value.registry)]
    if isinstance(value, CensusCampaign):
        return fingerprint(value._catchment)
    if isinstance(value, Census):
        return [fingerprint(getattr(value.records, c)) for c in RECORDS] + [
            fingerprint(value.vp_drop_rate),
            fingerprint(value.vp_duration_hours),
            list(value.greylist.prefixes),
            [vp.name for vp in value.platform.vantage_points],
        ]
    if isinstance(value, RttMatrix):
        return [
            fingerprint(value.rtt_ms),
            fingerprint(value.prefixes),
            list(value.vp_names),
            list(value.vp_locations),
        ]
    if isinstance(value, Baseline):
        # Its counters say how the documents were read, carried or parsed.
        return fingerprint(dataclasses.replace(value, counters={}).__dict__)
    if hasattr(value, "to_doc"):
        return canonical_json_bytes(value.to_doc())
    if dataclasses.is_dataclass(value):
        return fingerprint(vars(value))
    if isinstance(value, dict):
        return {key: fingerprint(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [fingerprint(item) for item in value]
    return value


def recording(service, log):
    """Route every stage of ``service`` through a recorder of its output."""
    run = service._stage

    def spy(name, stage, day, yesterday, supervised=False):
        def recorded(day, yesterday):
            output, carry, counters = stage(day, yesterday)
            log.append((name, {k: fingerprint(v) for k, v in output.items()}))
            return output, carry, counters

        return run(name, recorded, day, yesterday, supervised)

    service._stage = spy
    return service


@pytest.mark.parametrize("routing", ["geo", "bgp"])
def test_every_stage_carried_equals_cold(tmp_path, routing):
    knobs = dict(
        routing=routing,
        roster_churn_prob=0.05,
        roster_seed=11,
        trust=True,
        alarms=True,
        route_events=MOAS_PLAN if routing == "bgp" else None,
    )
    root = tmp_path / "carried"
    carried_log, cold_log = [], []
    service = recording(small_service(root, **knobs), carried_log)
    stages_seen = set()
    for epoch in range(DAYS):
        if epoch == INTERRUPTED:
            with pytest.raises(CensusInterrupted):
                service.run_epoch(epoch, abort_after_vps=3)
            assert service._carry.epoch == epoch - 1  # yesterday's, intact
            assert not service.archive.has(epoch)
        # The cold twin: a fresh process over the archive as it is now.
        shadow = tmp_path / f"cold-{epoch}"
        if root.exists():
            shutil.copytree(root, shadow)
        cold = recording(small_service(shadow, **knobs), cold_log)
        carried_log.clear()
        cold_log.clear()
        service.run_epoch(epoch)
        cold.run_epoch(epoch)
        assert [name for name, _ in carried_log] == [name for name, _ in cold_log]
        for (name, got), (_, want) in zip(carried_log, cold_log):
            assert got == want, (epoch, name)
            stages_seen.add(name)
        assert archive_tree(root) == archive_tree(shadow), epoch
        assert service._carry.epoch == epoch
    expected = {
        "world", "measurement", "trust", "signatures", "baseline", "plan",
        "analysis", "churn", "alarms", "commit",
    }
    assert expected | ({"routing"} if routing == "bgp" else set()) == stages_seen


def world_attrs(service, epoch):
    tracer = Tracer()
    with activate(tracer=tracer):
        service.run_epoch(epoch)
    root = tracer.to_dicts()[0]
    return next(c for c in root["children"] if c["name"] == "world")["attrs"]


def test_alarm_replay_leaves_the_carried_world_alone(tmp_path):
    """The alarm pass re-applies the baseline epoch's route events on the
    baseline's world; deriving that world must not replace the carried
    one, or every later day evolves from two days back."""
    knobs = dict(routing="bgp", route_events=MOAS_PLAN)
    quiet = small_service(tmp_path / "quiet", **knobs)
    alarmed = small_service(tmp_path / "alarmed", alarms=True, **knobs)
    for epoch in range(DAYS):
        assert world_attrs(alarmed, epoch) == world_attrs(quiet, epoch), epoch
        carried = alarmed._carry
        assert carried.epoch == epoch
        cold = CensusService(alarmed.config, city_db=alarmed.city_db)
        assert_same_world(carried.world, cold.internet_for(epoch), alarmed.platform)

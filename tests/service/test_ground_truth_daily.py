"""Ground truth on every day of a fixed timeline, not only on its last.

The speed-of-light test has no false positives on an honest roster, and
that must hold on each committed day of the daily service: incremental
days copy yesterday's verdicts forward, trust excises VPs, the BGP plane
moves catchments.  A check on the last day alone would test whichever
day a run happened to reach; this one walks a fixed number of days of a
``small_service`` BGP timeline with trust on and checks each against the
world the service built for it.
"""

from __future__ import annotations

import numpy as np

from repro.workflow import small_service

#: Days walked: past the first cold re-analyses (day 46 on) and the
#: roster's first trust convictions.
DAYS = 60


def ground_truth(service, epoch):
    """``(false positives, recall)`` of a committed day's results."""
    targets = service.archive.read_results(epoch)["targets"]
    world = service.internet_for(epoch)
    prefixes = np.array([int(p) for p in targets], dtype=np.int64)
    detected = np.array([entry["anycast"] for entry in targets.values()], dtype=bool)
    truth = world.is_anycast[world.target_indices(prefixes)]
    recall = (detected & truth).sum() / max(int(truth.sum()), 1)
    return int((detected & ~truth).sum()), float(recall)


def test_no_false_positive_on_any_day(tmp_path):
    service = small_service(tmp_path, trust=True, routing="bgp")
    for epoch in range(DAYS):
        outcome = service.run_epoch(epoch)
        assert outcome.status == "committed", epoch
        false_positives, recall = ground_truth(service, epoch)
        assert false_positives == 0, (
            f"day {epoch}: {false_positives} false positive(s), recall {recall:.3f}, "
            f"{outcome.mode} analysis, untrusted VPs {outcome.untrusted_vps}"
        )

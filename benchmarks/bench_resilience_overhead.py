"""Resilience overhead — guarding clean data must be nearly free.

The resilience layer sits on every stage boundary, so its clean-path
cost is paid by *every* supervised study.  The sanitizers are built for
a zero-copy fast path (a clean batch is returned as the same object), so
the guarded run must stay within a small factor of the bare run: the
median of paired bare/supervised differences is gated.  We also record
the chaos-path cost: a fully supervised run under a 25%
NaN-RTT poison, which exercises quarantine accounting, matrix rebuilds,
and confidence verdicts.
"""

from statistics import median

from conftest import write_exhibit

from repro.measurement.faults import PoisonKind, PoisonPlan
from repro.obs import Stopwatch
from repro.resilience import ResiliencePolicy
from repro.workflow import small_study

#: Bare/supervised pairs behind the gate.  A run takes ~0.3 s, so a
#: best-of-few difference is mostly scheduler noise; the median of
#: paired differences is not.
PAIRS = 15
CHAOS_ROUNDS = 3
MAX_RELATIVE_OVERHEAD = 0.05
ABSOLUTE_SLACK_S = 0.05


def _timed_run(resilience=None, poison=None) -> float:
    study = small_study(seed=2015, resilience=resilience, poison=poison)
    with Stopwatch() as sw:
        study.characterization  # force the full pipeline
    return sw.elapsed_s


def paired_differences(arm_a, arm_b, pairs=PAIRS):
    """``pairs`` back-to-back runs of both arms, the order alternating
    pair by pair so drift and warm-up hit both alike.  Returns the
    ``arm_a`` times and the per-pair differences ``b - a``."""
    a_times, diffs = [], []
    for i in range(pairs):
        if i % 2:
            t_b = arm_b()
            t_a = arm_a()
        else:
            t_a = arm_a()
            t_b = arm_b()
        a_times.append(t_a)
        diffs.append(t_b - t_a)
    return a_times, diffs


def _supervised() -> float:
    return _timed_run(resilience=ResiliencePolicy())


def test_resilience_overhead(results_dir):
    _timed_run()  # warm up imports / allocator before timing anything

    plain, diffs = paired_differences(_timed_run, _supervised)
    chaos = [
        _timed_run(
            resilience=ResiliencePolicy(),
            poison=PoisonPlan.single(PoisonKind.NAN_RTT, 0.25),
        )
        for _ in range(CHAOS_ROUNDS)
    ]

    t_plain, t_chaos = median(plain), median(chaos)
    overhead = median(diffs)
    relative = overhead / t_plain

    probe = small_study(seed=2015, resilience=ResiliencePolicy())
    probe.characterization
    stages = len(probe.degradation_report.stages)

    lines = [
        "metric                              budget         measured",
        f"bare pipeline (median of {PAIRS})                         {t_plain * 1000.0:.1f} ms",
        f"supervised, 25% NaN poison (median of {CHAOS_ROUNDS})            {t_chaos * 1000.0:.1f} ms",
        f"clean-path overhead (median of {PAIRS} pairs)  < 5% + 50 ms  {overhead * 1000.0:+.1f} ms",
        f"clean-path relative overhead                       {relative * 100.0:+.2f}%",
        f"paired differences (ms)                            "
        + " ".join(f"{d * 1000.0:+.0f}" for d in diffs),
        f"stages supervised per run                          {stages}",
        f"items quarantined on clean run      0              {probe.quarantine.total}",
    ]
    write_exhibit(results_dir, "resilience_overhead", lines)

    assert probe.quarantine.total == 0
    assert overhead <= MAX_RELATIVE_OVERHEAD * t_plain + ABSOLUTE_SLACK_S, (
        f"resilience overhead {overhead * 1000.0:.1f} ms "
        f"({relative * 100.0:.1f}%) exceeds the 5% + 50 ms budget"
    )

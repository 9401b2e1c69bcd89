"""Per-layer metrics: their names, and how each is read off a traced unit.

A traced unit leaves two span trees: ``unit`` (the timed unit itself —
harness spans around each public call, program spans nested beneath) and
``replay`` (the untimed re-runs of :mod:`pipeline`).  A layer's time is
the inclusive time of its span; ``unit.unattributed_s`` is what is left
of the unit's wall time once every layer on its path is subtracted, so
nothing is hidden.  A metric whose layer is not on a workload's path
reads 0 there.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple

from repro.obs import Span


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: The end-to-end metric this one should move ...
    moves: str
    #: ... and on which workloads.
    where: str


_WALL = "census_wall_s"

LAYERS: List[Layer] = [
    Layer("internet.build_s", "s", "lower", "setup_s; census_wall_s on service-daily", "all"),
    Layer("internet.targets", "count", "higher", "-", "all"),
    Layer("bgp.plane_build_s", "s", "lower", _WALL, "service-daily"),
    Layer("measurement.platform_s", "s", "lower", "setup_s", "all"),
    Layer("measurement.campaign_init_s", "s", "lower", _WALL, "service-daily (BGP catchments)"),
    Layer("measurement.census_s", "s", "lower", "census_wall_s, probes_per_s", "haystack, paper, service-daily"),
    Layer("measurement.probes", "count", "higher", "-", "all"),
    Layer("measurement.vp_scans", "count", "higher", "-", "all"),
    Layer("measurement.probes_per_s", "1/s", "higher", "probes_per_s", "haystack, paper"),
    Layer("measurement.records_mb", "MB", "lower", "peak_rss_mb", "haystack"),
    Layer("combine.fold_s", "s", "lower", _WALL, "haystack, paper"),
    Layer("combine.records_per_s", "1/s", "higher", "probes_per_s", "haystack, paper"),
    Layer("combine.matrix_cells", "count", "higher", "-", "all"),
    Layer("combine.fill_ratio", "ratio", "higher", "-", "all"),
    Layer("trust.score_s", "s", "lower", _WALL, "service-daily (replayed elsewhere)"),
    Layer("trust.vps_convicted", "count", "lower", "failed (must stay 0)", "all"),
    Layer("detection.mask_s", "s", "lower", "census_wall_s, targets_per_s", "wide-roster, paper, service-daily"),
    Layer("detection.pair_tests", "count", "lower", _WALL, "wide-roster, paper"),
    Layer("detection.pair_tests_per_s", "1/s", "higher", _WALL, "wide-roster, paper"),
    Layer("detection.flagged", "count", "higher", "-", "all"),
    Layer("detection.flag_ratio", "ratio", "higher", "-", "all"),
    Layer("detection.peak_alloc_mb", "MB", "lower", "peak_rss_mb", "wide-roster, paper"),
    Layer("igreedy.analyze_s", "s", "lower", "census_wall_s, targets_per_s", "wide-roster, paper"),
    Layer("igreedy.targets", "count", "higher", "-", "all"),
    Layer("igreedy.targets_per_s", "1/s", "higher", "targets_per_s", "wide-roster, paper"),
    Layer("igreedy.replicas", "count", "higher", "-", "all"),
    Layer("igreedy.iterations_mean", "count", "lower", "igreedy.analyze_s", "wide-roster, paper"),
    Layer("analysis.total_s", "s", "lower", _WALL, "wide-roster, paper"),
    Layer("analysis.recall", "ratio", "higher", "failed (floor per workload)", "all"),
    Layer("analysis.false_positives", "count", "lower", "failed (must stay 0)", "all"),
    Layer("characterize.build_s", "s", "lower", "census_wall_s (a guard, ~0)", "study workloads"),
    Layer("service.world_s", "s", "lower", _WALL, "service-daily"),
    Layer("service.cold_day_s", "s", "lower", "setup_s", "service-daily"),
    Layer("service.analysis_s", "s", "lower", _WALL, "service-daily"),
    Layer("delta.signatures_s", "s", "lower", _WALL, "service-daily"),
    Layer("delta.plan_s", "s", "lower", _WALL, "service-daily"),
    Layer("delta.recomputed", "count", "lower", _WALL, "service-daily"),
    Layer("delta.copied_ratio", "ratio", "higher", _WALL, "service-daily"),
    Layer("churn.between_s", "s", "lower", _WALL, "service-daily"),
    Layer("archive.read_results_s", "s", "lower", _WALL, "service-daily"),
    Layer("archive.commit_s", "s", "lower", _WALL, "service-daily"),
    Layer("archive.mb_per_day", "MB", "lower", "archive.commit_s, archive.read_results_s", "service-daily"),
    Layer("archive.fsck_s", "s", "lower", "- (read-side guard on a commit-side gain)", "service-daily"),
    Layer("unit.unattributed_s", "s", "lower", _WALL, "all"),
    Layer("unit.attributed_frac", "ratio", "higher", "-", "all"),
    Layer("proc.sys_s", "s", "lower", "census_cpu_s", "wide-roster, paper"),
    Layer("obs.trace_overhead_frac", "ratio", "lower", "-", "all"),
    Layer("obs.spans", "count", "lower", "obs.trace_overhead_frac", "all"),
]


def _walk(span: Span) -> Iterator[Span]:
    yield span
    for child in span.children:
        yield from _walk(child)


def _named(span: Span, name: str) -> List[Span]:
    return [s for s in _walk(span) if s.name == name]


def _seconds(span: Span, name: str) -> float:
    """Inclusive seconds of the outermost spans called ``name``."""
    total = 0.0
    stack = list(span.children)
    while stack:
        node = stack.pop()
        if node.name == name:
            total += node.inclusive_s
        else:
            stack.extend(node.children)
    return total


def setup_layers(setup: Span, service: bool) -> Dict[str, float]:
    """Layer times of one traced set-up repetition."""
    if service:
        # The world is rebuilt every day: ``internet.build_s`` is read off
        # the unit's replay, not off the set-up.
        return {
            "measurement.platform_s": _seconds(setup, "service_init"),
            "service.cold_day_s": _seconds(setup, "cold_day"),
        }
    return {
        "internet.build_s": _seconds(setup, "internet"),
        "measurement.platform_s": _seconds(setup, "platform"),
    }


def unit_layers(unit: Span, replay: Span, counts: Dict[str, float], service: bool) -> Dict[str, float]:
    """Layer metrics of one traced unit; ``counts`` are the unit's own
    output counts (probes, pair tests ...), for the throughput ratios."""
    detection = _seconds(unit, "detection")
    analysis = _seconds(unit, "analysis")
    if service:
        campaign_init = _seconds(replay, "campaign_init")
        census = _seconds(unit, "precensus") + _seconds(unit, "census") + campaign_init
        fold = _seconds(replay, "fold")
        trust = _seconds(unit, "trust")
        world = _seconds(replay, "world")
        plane = _seconds(replay, "bgp_plane")
    else:
        campaign_init = _seconds(unit, "campaign_init")
        census = _seconds(unit, "measurement")
        fold = _seconds(unit, "combine")
        trust = _seconds(replay, "trust")
        world = plane = 0.0
    out = {
        "bgp.plane_build_s": plane,
        "measurement.campaign_init_s": campaign_init,
        "measurement.census_s": census,
        "measurement.vp_scans": float(len(_named(unit, "vp_scan"))),
        "combine.fold_s": fold,
        "trust.score_s": trust,
        "detection.mask_s": detection,
        "analysis.total_s": analysis,
        "igreedy.analyze_s": analysis - detection,
        "igreedy.targets": float(len(_named(unit, "igreedy"))),
        "characterize.build_s": _seconds(unit, "characterize"),
        "service.world_s": world,
        "service.analysis_s": analysis if service else 0.0,
        "delta.signatures_s": _seconds(replay, "signatures"),
        "delta.plan_s": _seconds(replay, "plan"),
        "churn.between_s": _seconds(replay, "churn"),
        "archive.read_results_s": _seconds(replay, "read_results"),
        "archive.commit_s": _seconds(replay, "commit"),
        "obs.spans": float(sum(1 for _ in _walk(unit))),
    }
    if service:
        out["internet.build_s"] = world - plane
    on_path = [
        "measurement.census_s", "combine.fold_s", "analysis.total_s",
        "characterize.build_s", "service.world_s", "delta.signatures_s",
        "delta.plan_s", "churn.between_s", "archive.read_results_s", "archive.commit_s",
    ] + (["trust.score_s"] if service else [])
    out["unit.unattributed_s"] = unit.inclusive_s - sum(out[name] for name in on_path)

    def per_second(count: str, seconds: float) -> float:
        return counts.get(count, 0.0) / seconds if seconds > 0 else 0.0

    out["measurement.probes_per_s"] = per_second("measurement.probes", census)
    out["combine.records_per_s"] = per_second("measurement.probes", fold)
    out["detection.pair_tests_per_s"] = per_second("detection.pair_tests", detection)
    out["igreedy.targets_per_s"] = (
        out["igreedy.targets"] / out["igreedy.analyze_s"] if out["igreedy.analyze_s"] > 0 else 0.0
    )
    return out

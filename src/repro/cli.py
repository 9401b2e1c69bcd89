"""Command-line interface: ``repro-anycast``.

Runs scaled-down census studies from the terminal::

    repro-anycast glance --unicast 3000 --vps 150
    repro-anycast top --k 20
    repro-anycast validate "CLOUDFLARENET,US"
    repro-anycast portscan
    repro-anycast funnel
    repro-anycast trace                    # span tree of the whole pipeline
    repro-anycast stats                    # pipeline metrics table
    repro-anycast --manifest run.json glance   # + JSON run manifest
    repro-anycast service catch-up --archive runs/ --through 6
    repro-anycast service fsck --archive runs/
    repro-anycast service timeline --archive runs/   # regression sentinel
    repro-anycast obs export --archive runs/ --epoch 3 --prometheus m.prom

All subcommands share the scale/seed options; results are printed as plain
text tables.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import List, Optional

from .census.report import format_table
from .internet.topology import InternetConfig
from .measurement.campaign import CensusAborted, CensusInterrupted
from .measurement.faults import (
    DistortionKind,
    FaultPlan,
    PoisonKind,
    PoisonPlan,
    VpDistortionPlan,
)
from .obs import render_trace
from .resilience import ResilienceError, ResiliencePolicy
from .workflow import CensusStudy, StudyConfig

#: Exit codes (documented in docs/API_GUIDE.md).  0 = success; 2 is
#: argparse's usage-error code; supervised aborts and unexpected crashes
#: get distinct codes so scripts can tell "the campaign gave up per
#: policy" from "the tool itself broke".  130 (the shell's SIGINT
#: convention) marks a clean operator drain: the checkpoint journal and
#: manifest are valid and the run is resumable.
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ABORTED = 3
EXIT_UNEXPECTED = 4
#: ``service fsck`` found problems.  With repair (the default) they were
#: fixed and the archive is healthy again; with ``--dry-run`` they are
#: merely reported.  Distinct from 0 so cron jobs can alert on rot.
EXIT_REPAIRED = 5
#: ``service timeline`` flagged at least one regression (a per-epoch
#: metric sitting more than k robust deviations above its rolling
#: median).  Distinct from 0 so CI and cron can alert on drift.
EXIT_REGRESSION = 6
#: ``service alarms`` found at least one alarming routing verdict
#: (hijack or route leak) recorded in the archive's manifests.
#: Distinct from 0 so cron can page on routing incidents.
EXIT_ALARMS = 7
EXIT_INTERRUPTED = 130

_POLICIES = {
    "off": None,
    "on": ResiliencePolicy,
    "strict": ResiliencePolicy.strict,
}


def _parse_workers(value: Optional[str]) -> Optional[int]:
    """``--workers`` value: a non-negative integer or ``auto``."""
    if value is None:
        return None
    if value == "auto":
        return max(os.cpu_count() or 1, 1)
    try:
        workers = int(value)
    except ValueError:
        raise ValueError(f"--workers must be an integer or 'auto', got {value!r}")
    if workers < 0:
        raise ValueError("--workers must be >= 0")
    return workers


def _distortion_from_args(args: argparse.Namespace) -> Optional[VpDistortionPlan]:
    """The ``--vp-distortion*`` flags as a plan (``None`` when off)."""
    if args.vp_distortion <= 0.0:
        return None
    if args.vp_distortion_kind is not None:
        return VpDistortionPlan.single(
            args.vp_distortion_kind,
            fraction=args.vp_distortion,
            seed=args.vp_distortion_seed,
        )
    return VpDistortionPlan(
        fraction=args.vp_distortion, seed=args.vp_distortion_seed
    )


def _build_study(args: argparse.Namespace) -> CensusStudy:
    policy_factory = _POLICIES[args.resilience_policy]
    poison = None
    if args.poison is not None:
        poison = PoisonPlan.single(
            args.poison, fraction=args.poison_fraction, seed=args.poison_seed
        )
    # A manifest is only worth writing with observability on; the trace
    # and stats subcommands obviously need their respective layer too.
    want_manifest = args.manifest is not None
    return CensusStudy(
        StudyConfig(
            internet=InternetConfig(
                seed=args.seed,
                n_unicast_slash24=args.unicast,
                tail_deployments=args.tail,
            ),
            n_vantage_points=args.vps,
            n_censuses=args.censuses,
            fault_plan=args.fault_plan,
            scan_timeout_hours=args.scan_timeout,
            min_vp_quorum=args.quorum,
            checkpoint_dir=args.checkpoint_dir,
            workers=_parse_workers(args.workers),
            deadline=args.deadline,
            trace=want_manifest or args.command == "trace",
            metrics=want_manifest or args.command in ("trace", "stats"),
            resilience=policy_factory() if policy_factory is not None else None,
            poison=poison,
            vp_distortion=args.distortion_plan,
            trust=args.trust,
        )
    )


def _cmd_glance(study: CensusStudy, args: argparse.Namespace) -> int:
    rows = [
        (r.label, r.ip24, r.ases, r.cities, r.countries, r.replicas)
        for r in study.glance_table()
    ]
    print(format_table(rows, ["", "IP/24", "ASes", "Cities", "CC", "Replicas"]))
    return 0


def _cmd_top(study: CensusStudy, args: argparse.Namespace) -> int:
    char = study.characterization
    # A confidence column appears only when some verdict is non-full, so
    # clean runs print exactly what they always printed.
    counts = char.confidence_counts()
    marked = any(counts.get(v, 0) for v in ("degraded", "insufficient"))
    rows = []
    for fp in char.top_ases(k=args.k):
        row = (
            fp.autonomous_system.whois_label,
            fp.autonomous_system.category.value,
            fp.n_ip24,
            f"{fp.mean_replicas:.1f}",
            f"{fp.std_replicas:.1f}",
            len(fp.cities),
        )
        if marked:
            row += (char.footprint_confidence(fp),)
        rows.append(row)
    headers = ["AS", "category", "IP/24", "replicas", "std", "cities"]
    if marked:
        headers.append("confidence")
    print(format_table(rows, headers))
    return 0


def _cmd_validate(study: CensusStudy, args: argparse.Namespace) -> int:
    report = study.validate(args.deployment)
    print(f"AS:              {report.as_name}")
    print(f"GT cities:       {len(report.gt_cities)}")
    print(f"PAI cities:      {len(report.pai_cities)}")
    print(f"GT/PAI:          {report.gt_pai:.2f}")
    # The paper's Fig. 7 labels city-level precision "TPR"; keep the
    # historical label alongside the correct name.
    print(f"precision (TPR): {report.precision_mean:.2f} +- {report.precision_std:.2f}")
    print(f"median error km: {report.median_error_km:.0f}")
    return 0


def _cmd_portscan(study: CensusStudy, args: argparse.Namespace) -> int:
    scan = study.portscan
    print(f"hosts scanned:      {scan.n_hosts}")
    print(f"responding ASes:    {scan.n_ases}")
    print(f"total open ports:   {scan.total_open_ports}")
    print(f"well-known services: {len(scan.well_known_services())}")
    print(f"SSL services:       {len(scan.ssl_services())}")
    print(f"software seen:      {len(scan.software_seen())}")
    rows = [(p, n) for p, n in scan.top_ports_by_as(k=10)]
    print(format_table(rows, ["port", "#ASes"]))
    return 0


def _cmd_map(study: CensusStudy, args: argparse.Namespace) -> int:
    from .census.geomap import deployment_map, replica_density_map

    if args.deployment:
        dep = study.deployment(args.deployment)
        observed = []
        for prefix in dep.prefixes:
            result = study.analysis.results.get(prefix)
            if result is not None:
                observed.extend(result.cities)
        print(f"{args.deployment}: O = observed replica, x = unobserved site")
        print(deployment_map(observed, truth_cities=dep.site_cities))
    else:
        grid = replica_density_map(study.analysis)
        print(f"Anycast replica density ({grid.total} replicas):")
        print(grid.render())
    return 0


def _cmd_trace(study: CensusStudy, args: argparse.Namespace) -> int:
    # Force the full pipeline, then render what the tracer saw.
    study.characterization
    print(render_trace(study.tracer))
    return 0


def _cmd_stats(study: CensusStudy, args: argparse.Namespace) -> int:
    study.characterization
    snap = study.metrics.snapshot()
    rows = [(name, "counter", value) for name, value in snap["counters"].items()]
    rows += [(name, "gauge", value) for name, value in snap["gauges"].items()]
    rows += [
        (
            name,
            "histogram",
            f"n={h['count']} mean={h['mean']:.2f} max={h['max']:.0f}",
        )
        for name, h in snap["histograms"].items()
    ]
    print(format_table(rows, ["metric", "kind", "value"]))
    return 0


def _cmd_health(study: CensusStudy, args: argparse.Namespace) -> int:
    study.censuses  # health_reports is lazy: materialize the campaign first
    if study.config.trust:
        # The trust stage runs on the combined matrix; its verdicts are
        # absorbed into the per-census health reports printed below.
        study.matrix
    for report in study.health_reports:
        for line in report.summary_lines():
            print(line)
    quarantined = study.campaign.health.tripped
    print(f"quarantined VPs: {len(quarantined)}")
    for name in quarantined:
        print(f"  {name}")
    if study.trust_report is not None:
        for line in study.trust_report.summary_lines():
            print(line)
    if study.supervisor is not None:
        # With the resilience layer on, surface the data quarantine and
        # the per-stage degradation picture too.  Force the analysis so
        # the report covers the whole pipeline, not just measurement.
        study.analysis
        for line in study.quarantine.summary_lines():
            print(line)
        report = study.degradation_report
        if report is not None:
            for line in report.summary_lines():
                print(line)
    return 0


#: Subcommands that run no study: their handlers take ``args`` alone.
_SERVICE_COMMANDS = ("service", "obs")

#: Global flags that only the study pipeline can honour.  The service
#: commands have nothing to bind them to, so they refuse them instead of
#: running as if they had not been given.
_STUDY_ONLY_FLAGS = (
    "workers", "deadline", "quorum", "scan_timeout", "checkpoint_dir",
    "censuses", "poison", "poison_fraction", "poison_seed", "manifest",
)


def _refuse_study_only_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Usage error (exit 2) naming every study-only flag given to a
    service command."""
    given = [
        "--" + dest.replace("_", "-")
        for dest in _STUDY_ONLY_FLAGS
        if getattr(args, dest) != parser.get_default(dest)
    ]
    if given:
        parser.error(
            f"{args.command} does not take " + ", ".join(given)
            + " (these configure the study pipeline only)"
        )


def _service_from_args(args: argparse.Namespace):
    from .service import CensusService, ServiceConfig

    policy_factory = _POLICIES[args.resilience_policy]
    return CensusService(
        ServiceConfig(
            archive_root=args.archive,
            internet_seed=args.seed,
            n_unicast=args.unicast,
            tail_deployments=args.tail,
            n_vps=args.vps,
            availability=args.availability,
            noise=args.noise,
            incremental=not args.no_incremental,
            churn_threshold=args.churn_threshold,
            resilience=policy_factory() if policy_factory is not None else None,
            telemetry=getattr(args, "telemetry", False),
            # No fault plan at all when both rates are zero, so a flag-free
            # run hands the campaign exactly what it always did.
            fault_plan=args.fault_plan if args.fault_plan.enabled else None,
            roster_churn_prob=args.roster_churn,
            roster_seed=args.roster_seed,
            baseline_depth=args.baseline_depth,
            trust=args.trust,
            vp_distortion=args.distortion_plan,
            routing=getattr(args, "routing", "geo"),
            alarms=getattr(args, "alarms", False),
        )
    )


def _cmd_service(args: argparse.Namespace) -> int:
    # The longitudinal service owns its archive and builds its own
    # pipeline per epoch.
    service = _service_from_args(args)
    if args.verb == "fsck":
        report = service.fsck(repair=not args.dry_run)
        for line in report.summary_lines():
            print(line)
        return EXIT_OK if report.clean else EXIT_REPAIRED
    if args.verb == "run":
        outcome = service.run_epoch(args.epoch)
        for line in outcome.summary_lines():
            print(line)
        return EXIT_OK
    if args.verb == "catch-up":
        through = args.through if args.through is not None else args.epoch
        report, outcomes = service.catch_up(through)
        if not report.clean:
            for line in report.summary_lines():
                print(line)
        for outcome in outcomes:
            for line in outcome.summary_lines():
                print(line)
        return EXIT_OK
    if args.verb == "timeline":
        from .obs import render_timeline

        timeline, regressions = service.timeline(k=args.mad_k)
        for line in render_timeline(timeline, regressions):
            print(line)
        return EXIT_REGRESSION if regressions else EXIT_OK
    if args.verb == "alarms":
        alarm_rows = service.alarm_history()
        if not alarm_rows:
            print("no routing alarms on record")
            return EXIT_OK
        rows = [
            (
                row["epoch"],
                row["prefix"],
                row["verdict"],
                f"{row['confidence']:.2f}",
                row["detail"],
            )
            for row in alarm_rows
        ]
        print(format_table(rows, ["day", "prefix", "verdict", "conf", "detail"]))
        return EXIT_ALARMS
    # history
    rows = [
        (
            row["epoch"],
            row["mode"],
            f"{row['churn_fraction']:.3f}",
            row["n_targets"],
            row["n_anycast"],
            row["total_replicas"],
        )
        for row in service.history()
    ]
    print(format_table(rows, ["day", "mode", "churn", "targets", "anycast", "replicas"]))
    return EXIT_OK


def _cmd_obs(args: argparse.Namespace) -> int:
    """Export one archived epoch's telemetry to standard formats."""
    import json
    import pathlib

    from .obs import (
        chrome_trace_problems,
        prometheus_problems,
        to_chrome_trace,
        to_prometheus,
    )
    from .service.archive import CensusArchive

    archive = CensusArchive(args.archive)
    telemetry = archive.read_telemetry(args.epoch)
    if telemetry is None:
        print(
            f"error: epoch {args.epoch} has no telemetry sidecar "
            f"(run the service with --telemetry)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    prometheus_text = to_prometheus(telemetry.get("metrics", {}))
    chrome_doc = to_chrome_trace(telemetry.get("trace") or [])
    problems = [
        f"prometheus: {p}" for p in prometheus_problems(prometheus_text)
    ] + [f"chrome-trace: {p}" for p in chrome_trace_problems(chrome_doc)]
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_UNEXPECTED
    wrote = False
    if args.prometheus is not None:
        pathlib.Path(args.prometheus).write_text(prometheus_text, encoding="utf-8")
        print(f"prometheus metrics written: {args.prometheus}")
        wrote = True
    if args.chrome_trace is not None:
        pathlib.Path(args.chrome_trace).write_text(
            json.dumps(chrome_doc, indent=2) + "\n", encoding="utf-8"
        )
        print(f"chrome trace written: {args.chrome_trace}")
        wrote = True
    if not wrote:
        print(prometheus_text, end="")
    return EXIT_OK


def _cmd_funnel(study: CensusStudy, args: argparse.Namespace) -> int:
    for i, funnel in enumerate(study.funnels(), start=1):
        print(f"census {i}:")
        for stage, count in funnel.rows():
            print(f"  {stage:30s} {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-anycast",
        description="IPv4 anycast census reproduction (CoNEXT 2015).",
    )
    parser.add_argument("--seed", type=int, default=2015, help="master RNG seed")
    parser.add_argument("--unicast", type=int, default=3000,
                        help="size of the unicast /24 haystack")
    parser.add_argument("--tail", type=int, default=80,
                        help="number of small tail deployments")
    parser.add_argument("--vps", type=int, default=150,
                        help="number of PlanetLab-like vantage points")
    parser.add_argument("--censuses", type=int, default=2,
                        help="number of censuses to combine")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="per-VP node-fault rate, split over "
                             "crash/hang/corrupt (default: no faults)")
    parser.add_argument("--flap-prob", type=float, default=0.0,
                        help="per-census probability a VP disappears entirely")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault injector")
    parser.add_argument("--quorum", type=int, default=1,
                        help="minimum usable VPs per census before aborting")
    parser.add_argument("--scan-timeout", type=float, default=None,
                        help="per-VP scan timeout in hours (default: none)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="journal directory for census checkpoint/resume")
    parser.add_argument("--workers", default="0", metavar="N|auto",
                        help="run census scans on N threads ('auto' = "
                             "CPU count; default 0 = inline, serial).  "
                             "Output bytes are identical for every value")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per census scan phase; on "
                             "expiry unfinished VPs are failed into the "
                             "quorum check instead of hanging the run")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="write a JSON run manifest (config, trace, "
                             "metrics, health) after the command")
    parser.add_argument("--resilience-policy", choices=sorted(_POLICIES),
                        default="off",
                        help="stage supervision + data quarantine: 'on' "
                             "degrades-and-continues on corrupt input, "
                             "'strict' validates but fails instead of "
                             "degrading (default: off)")
    parser.add_argument("--poison", choices=[k.value for k in PoisonKind],
                        default=None, metavar="MODE",
                        help="chaos harness: poison data between pipeline "
                             "stages (testing aid; combine with "
                             "--resilience-policy to exercise degraded mode)")
    parser.add_argument("--poison-fraction", type=float, default=0.25,
                        help="fraction of items the poison mode hits")
    parser.add_argument("--poison-seed", type=int, default=0,
                        help="seed of the data poisoner")
    parser.add_argument("--vp-distortion", type=float, default=0.0,
                        metavar="FRACTION",
                        help="chaos harness: miscalibrate this keyed "
                             "fraction of vantage points for the whole "
                             "campaign (clock skew, bufferbloat, stale "
                             "geolocation, stuck RTTs; combine with "
                             "--trust to exercise the detector)")
    parser.add_argument("--vp-distortion-seed", type=int, default=0,
                        help="seed of the VP distortion plan")
    parser.add_argument("--vp-distortion-kind",
                        choices=[k.value for k in DistortionKind],
                        default=None, metavar="KIND",
                        help="restrict distortion to one kind "
                             "(default: all four)")
    parser.add_argument("--trust", action="store_true",
                        help="cross-VP trust scoring: excise vantage "
                             "points whose columns are self-inconsistent "
                             "before analysis; clean rosters are "
                             "byte-identical with or without this flag")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("glance", help="Fig. 10 summary table").set_defaults(func=_cmd_glance)
    top = sub.add_parser("top", help="top anycast ASes (Fig. 9)")
    top.add_argument("--k", type=int, default=20)
    top.set_defaults(func=_cmd_top)
    val = sub.add_parser("validate", help="validate one deployment (Fig. 7)")
    val.add_argument("deployment", help='catalog AS name, e.g. "CLOUDFLARENET,US"')
    val.set_defaults(func=_cmd_validate)
    sub.add_parser("portscan", help="TCP portscan statistics (Fig. 14)").set_defaults(
        func=_cmd_portscan
    )
    sub.add_parser("funnel", help="census magnitude funnel (Fig. 4)").set_defaults(
        func=_cmd_funnel
    )
    sub.add_parser(
        "health", help="per-census fault/supervision health reports"
    ).set_defaults(func=_cmd_health)
    sub.add_parser(
        "trace", help="run the pipeline and print its stage span tree"
    ).set_defaults(func=_cmd_trace)
    sub.add_parser(
        "stats", help="run the pipeline and print its metrics table"
    ).set_defaults(func=_cmd_stats)
    map_cmd = sub.add_parser("map", help="ASCII replica map (Fig. 10 / Fig. 5)")
    map_cmd.add_argument(
        "--deployment", default=None,
        help='catalog AS name for a per-deployment map (default: world density)',
    )
    map_cmd.set_defaults(func=_cmd_map)
    svc = sub.add_parser(
        "service",
        help="longitudinal census service: dated runs into a crash-"
             "tolerant archive",
    )
    svc.add_argument(
        "verb",
        choices=["run", "catch-up", "fsck", "history", "timeline", "alarms"],
        help="run one day; fsck + run every missing day; verify/repair "
             "the archive; print the per-day summary table; scan the "
             "archive's health series for regressions (exit 6 when one "
             "is flagged); print every recorded routing alarm (exit 7 "
             "when any exist)",
    )
    svc.add_argument("--archive", required=True, metavar="DIR",
                     help="archive root directory")
    svc.add_argument("--epoch", type=int, default=0, metavar="DAY",
                     help="day number for 'run' (default: 0)")
    svc.add_argument("--through", type=int, default=None, metavar="DAY",
                     help="last day for 'catch-up' (default: --epoch)")
    svc.add_argument("--availability", type=float, default=1.0,
                     help="per-census VP availability (default: 1.0)")
    svc.add_argument("--noise", choices=["keyed", "stream"], default="keyed",
                     help="campaign noise mode; 'keyed' gives per-target "
                          "stable RTT rows, enabling incremental recompute "
                          "(default: keyed)")
    svc.add_argument("--no-incremental", action="store_true",
                     help="always run cold censuses")
    svc.add_argument("--churn-threshold", type=float, default=0.25,
                     help="churn fraction above which incremental mode "
                          "falls back to a cold census (default: 0.25)")
    svc.add_argument("--roster-churn", type=float, default=0.0,
                     metavar="PROB",
                     help="per-epoch keyed probability each VP sits the "
                          "day out; an epoch whose roster matches an "
                          "archived one recovers that day's analysis "
                          "instead of going cold (default: 0.0)")
    svc.add_argument("--roster-seed", type=int, default=23,
                     help="seed of the roster-churn draws")
    svc.add_argument("--baseline-depth", type=int, default=3, metavar="N",
                     help="how many archived epochs the delta planner "
                          "may recover unchanged targets from "
                          "(default: 3)")
    svc.add_argument("--dry-run", action="store_true",
                     help="fsck only: report problems without touching "
                          "the archive")
    svc.add_argument("--telemetry", action="store_true",
                     help="archive a telemetry sidecar (trace, metrics, "
                          "SLO report, event log) with each committed "
                          "run; census bytes are identical either way")
    svc.add_argument("--routing", choices=["geo", "bgp"], default="geo",
                     help="latency model: 'geo' is the classic great-"
                          "circle model; 'bgp' routes every probe over a "
                          "synthetic AS graph with Gao-Rexford policies "
                          "(default: geo)")
    svc.add_argument("--alarms", action="store_true",
                     help="after each committed run, diff this epoch's "
                          "routing story against the previous committed "
                          "epoch and record typed hijack/leak verdicts "
                          "in the manifest's routing block")
    svc.add_argument("--mad-k", type=float, default=4.0, metavar="K",
                     help="timeline only: flag points more than K robust "
                          "(median/MAD) scale units above the rolling "
                          "median (default: 4.0)")
    svc.set_defaults(func=_cmd_service)
    obs = sub.add_parser(
        "obs",
        help="export archived telemetry to standard observability formats",
    )
    obs.add_argument(
        "verb", choices=["export"],
        help="export one epoch's telemetry sidecar",
    )
    obs.add_argument("--archive", required=True, metavar="DIR",
                     help="archive root directory")
    obs.add_argument("--epoch", type=int, default=0, metavar="DAY",
                     help="epoch to export (default: 0)")
    obs.add_argument("--prometheus", default=None, metavar="PATH",
                     help="write the metrics snapshot in Prometheus text "
                          "exposition format (default: print to stdout "
                          "when no output is selected)")
    obs.add_argument("--chrome-trace", default=None, metavar="PATH",
                     help="write the span forest as Chrome trace-event "
                          "JSON (load in Perfetto / chrome://tracing)")
    obs.set_defaults(func=_cmd_obs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    study = None
    if args.command in _SERVICE_COMMANDS:
        _refuse_study_only_flags(parser, args)
    try:  # values argparse cannot range-check, e.g. an out-of-range --fault-rate
        args.fault_plan = FaultPlan.uniform(
            args.fault_rate, seed=args.fault_seed, flap_prob=args.flap_prob
        )
        args.distortion_plan = _distortion_from_args(args)
        if args.command not in _SERVICE_COMMANDS:
            study = _build_study(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args) if study is None else args.func(study, args)
    except CensusAborted as exc:
        cause = f" ({exc.__cause__})" if exc.__cause__ is not None else ""
        print(f"error: {exc}{cause}", file=sys.stderr)
        return EXIT_ABORTED
    except CensusInterrupted as exc:
        # Clean drain: the journal holds every finished batch and the
        # finally block below still writes the manifest.
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        # Second signal (forced quit) or an interrupt outside the
        # drain's scope: less graceful, same resumable intent.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ResilienceError as exc:
        if isinstance(exc.__cause__, CensusAborted):
            # Supervised variant of the same policy decision.
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ABORTED
        if isinstance(exc.__cause__, CensusInterrupted):
            print(f"interrupted: {exc}", file=sys.stderr)
            return EXIT_INTERRUPTED
        # A typed refusal (corrupt input, exhausted stage policy) is a
        # diagnosis, not a crash: one line naming the type, no traceback.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    except Exception:  # noqa: BLE001 — last-resort boundary, code 4
        traceback.print_exc(file=sys.stderr)
        return EXIT_UNEXPECTED
    finally:
        # Write the manifest even after an abort: it records what the
        # supervisor saw up to the failure.
        if args.manifest is not None:
            path = study.write_manifest(args.manifest)
            print(f"manifest written: {path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

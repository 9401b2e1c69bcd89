"""The census benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/harness/run.py                      # every workload, untraced
    python3 benchmarks/harness/run.py --traced             # the layer-by-layer run
    python3 benchmarks/harness/run.py --workload paper --seed 7 --seconds 20 --trace 0
    python3 benchmarks/harness/run.py --compare A.json B.json

With ``--workload`` the run happens in this process and the last line of
standard output is the driver's result object (``correct``, ``attempted``,
``failed``, ``metrics``), preceded by the full document on one line.
Without it each workload runs in a subprocess of its own, so that peak
RSS is per workload, and one document covers them all.  Closed loop,
single process, single thread: the system is a batch pipeline, so
throughput is work per second at the workload's stated input size.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import collections
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    raise SystemExit(f"error: the program's source is not at {SRC}")
for path in (str(SRC), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import pipeline  # noqa: E402
import report  # noqa: E402
from repro.obs import NULL_TRACER, Tracer, render_trace, use_tracer  # noqa: E402
from workloads import BY_NAME, DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Seconds from process start to here: the interpreter's share of ``setup_s``.
IMPORT_S = time.perf_counter() - _PROCESS_START

#: Set-up is repeated and its median reported, so that one cold cache
#: does not decide ``setup_s``.
SETUP_REPS = 3
#: A median over fewer units than this is not worth publishing.
MIN_UNITS = 5
#: Metrics sampled once per timed unit; a run reports their better quartile
#: (see ``report.summary``), the others their median.
PER_UNIT = ("census_wall_s", "census_cpu_s", "targets_per_s", "probes_per_s")
#: The first unit is run and checked but kept out of the timing samples:
#: the first touch of fresh memory on a virtualised host costs up to ten
#: times the steady state (detection kernel: 2.1 s against 0.22 s).
WARMUP_UNITS = 1


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(
    workload,
    seed: int,
    seconds: float,
    reps: Optional[int] = None,
    traced: bool = False,
) -> Dict[str, Any]:
    """Run one workload in this process and return its document."""
    spec = benchmark_spec()
    calib = [report.calibrate()]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = pipeline.make_runner(workload, seed, workdir)
        tracer = Tracer() if traced else NULL_TRACER

        setup_samples: List[float] = []
        setup_spans = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            with use_tracer(tracer), tracer.span("setup") as span:
                runner.setup(tracer)
            setup_samples.append(IMPORT_S + time.perf_counter() - start)
            setup_spans.append(span)

        #: (operation, passed) of every timed unit and every output check.
        operations: List[Tuple[str, bool]] = []
        units: List[Dict[str, Any]] = []
        path_taken: Dict[str, str] = {}
        loop_start = time.perf_counter()
        index = 0
        while (
            index < WARMUP_UNITS + reps
            if reps
            else index < WARMUP_UNITS + MIN_UNITS
            or time.perf_counter() - loop_start < seconds
        ):
            if index == WARMUP_UNITS:
                loop_start = time.perf_counter()
            # Every second unit of a traced run is traced; the others are the
            # untraced reference the tracing overhead is measured against.
            trace_unit = traced and index >= WARMUP_UNITS and index % 2 == 0
            unit_tracer = tracer if trace_unit else NULL_TRACER
            wall0, cpu0, sys0 = time.perf_counter(), time.process_time(), os.times().system
            try:
                with use_tracer(unit_tracer), unit_tracer.span("unit", unit=index) as unit_span:
                    output = runner.run_unit(index, unit_tracer)
            except Exception:  # noqa: BLE001 — a failed unit is a counted outcome
                traceback.print_exc()
                operations.append(("unit_raised", False))
                index += 1
                continue
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            sys_s = os.times().system - sys0
            result = runner.check_unit(index, output)
            operations += [("unit", True), *result.checks.items()]
            row: Dict[str, Any] = {
                "traced": trace_unit,
                "warmup": index < WARMUP_UNITS,
                "wall_s": wall,
                "cpu_s": cpu,
                "sys_s": sys_s,
                "targets": result.targets,
                "probes": result.probes,
                "digest": result.digest,
                "counts": result.counts,
            }
            if trace_unit:
                with use_tracer(tracer), tracer.span("replay", unit=index) as replay_span:
                    row["counts"] = {**result.counts, **runner.replay(index, output, tracer)}
                row["layers"] = layers.unit_layers(
                    unit_span, replay_span, row["counts"], workload.kind == "service"
                )
                row["spans"] = [unit_span, replay_span]
            units.append(row)
            path_taken = path_taken or runner.provenance(output)
            # Every unit starts from the same heap: nothing of the last one survives.
            del output, result
            index += 1

        with use_tracer(tracer), tracer.span("finish") as finish_span:
            final = runner.finish(tracer)
        operations += final.checks.items()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass
    calib.append(report.calibrate())

    failed_checks = collections.Counter(name for name, passed in operations if not passed)
    attempted, failed = len(operations), sum(failed_checks.values())
    untraced = [u for u in units if not u["traced"] and not u["warmup"]]
    samples = {
        "setup_s": setup_samples,
        "census_wall_s": [u["wall_s"] for u in untraced],
        "census_cpu_s": [u["cpu_s"] for u in untraced],
        "targets_per_s": [u["targets"] / u["wall_s"] for u in untraced],
        "probes_per_s": [u["probes"] / u["wall_s"] for u in untraced],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    document: Dict[str, Any] = {
        "workload": workload.name,
        "why": workload.why,
        "parameters": workload.parameters(),
        "seed": seed,
        "units": len(units) - WARMUP_UNITS,
        "traced": traced,
        "correct": failed == 0 and bool(untraced),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failed_checks": dict(failed_checks),
        "digests": [u["digest"] for u in units[: WARMUP_UNITS + MIN_UNITS]],
        "recall": final.counts.get("analysis.recall"),
        "percentiles": report.PERCENTILE_NOTE,
        "end_to_end": {
            m["name"]: report.summary(
                samples[m["name"]], m["unit"], m["better"], undisturbed=m["name"] in PER_UNIT
            )
            for m in spec["end_to_end"]
            if samples[m["name"]]
        },
        "provenance": {
            **report.host_provenance(ROOT),
            **path_taken,
            "calib_s": calib,
            "import_s": IMPORT_S,
        },
    }
    traced_units = [u for u in units if u["traced"]]
    if traced_units:
        document["per_layer"] = _per_layer(
            spec, workload.kind == "service", units, setup_spans, finish_span
        )
        document["trace"] = render_trace(traced_units[-1]["spans"]).splitlines()
    return document


def _per_layer(spec, service, units, setup_spans, finish_span):
    """Every per-layer metric of a traced run, summarised over its units."""
    traced_units = [u for u in units if u["traced"]]
    untraced = [u for u in units if not u["traced"] and not u["warmup"]]
    samples: Dict[str, List[float]] = {}
    for layer_values in [layers.setup_layers(span, service) for span in setup_spans] + [
        {**unit["counts"], **unit["layers"]} for unit in traced_units
    ]:
        for name, value in layer_values.items():
            samples.setdefault(name, []).append(value)
    untraced_wall = statistics.median(u["wall_s"] for u in untraced)
    samples["archive.fsck_s"] = [
        sum(s.inclusive_s for s in finish_span.children if s.name == "fsck")
    ]
    samples["proc.sys_s"] = [u["sys_s"] for u in units]
    samples["obs.trace_overhead_frac"] = [
        u["wall_s"] / untraced_wall - 1.0 for u in traced_units
    ]
    samples["unit.attributed_frac"] = [
        (u["wall_s"] - u["layers"]["unit.unattributed_s"]) / u["wall_s"] for u in traced_units
    ]
    return {
        m["name"]: report.summary(samples.get(m["name"]) or [0.0], m["unit"], m["better"])
        for m in spec["per_layer"]
    }


def contract_line(document: Dict[str, Any]) -> str:
    """The driver's result object: the last line of standard output."""
    section = document["per_layer"] if document["traced"] else document["end_to_end"]
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": stat["value"], "unit": stat["unit"]}
                for name, stat in section.items()
            },
        }
    )


def run_all(args) -> Dict[str, Any]:
    """Every workload, one subprocess each, gathered into one document."""
    start = time.perf_counter()
    documents: Dict[str, Any] = {}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale,
        ] + (["--reps", str(args.reps)] if args.reps else [])
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {workload.name} did not finish (exit {done.returncode})")
        documents[workload.name] = json.loads(lines[-2])
    return {
        "benchmark": "census",
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.trace),
        "correct": all(d["correct"] for d in documents.values()),
        "provenance": {
            **report.host_provenance(ROOT),
            "wall_s": time.perf_counter() - start,
        },
        "workloads": documents,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None, help="how long to time units for")
    parser.add_argument("--reps", type=int, default=None, help="time exactly this many units instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    parser.add_argument("--out", help="also write the document to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    spec = benchmark_spec()

    if args.compare:
        base, new = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
        rows, any_worse = report.compare(base, new, spec["end_to_end"])
        print(report.render_compare(rows))
        return 1 if any_worse else 0

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    if args.workload is None:
        document = run_all(args)
        print(json.dumps(document, indent=1))
    else:
        if args.workload not in BY_NAME:
            parser.error(f"unknown workload {args.workload!r}; one of {sorted(BY_NAME)}")
        workload = BY_NAME[args.workload]
        if args.scale == "smoke":
            workload = workload.smoke()
        document = measure(workload, args.seed, args.seconds, args.reps, bool(args.trace))
        document["scale"] = args.scale
        print(json.dumps(document))
        print(contract_line(document))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

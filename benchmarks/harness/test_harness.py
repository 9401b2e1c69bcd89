"""The harness's own test: two smoke-scale passes of every workload.

    PYTHONPATH=src python -m pytest benchmarks/harness -q

Not part of tier-1 (``testpaths`` is ``tests``): it checks the benchmark,
not the program.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import run  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = run.benchmark_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Two timed units per pass: one untraced, one traced.
REPS = 2


def smoke_pass(seed: int = DEFAULT_SEED):
    return {
        w.name: run.measure(w.smoke(), seed, seconds=0.0, reps=REPS, traced=True)
        for w in WORKLOADS
    }


@pytest.fixture(scope="module")
def passes():
    return smoke_pass(), smoke_pass()


def test_spec_names_are_well_formed_and_match_the_code():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in LAYERS
    ]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_metric_is_emitted_finite_and_nothing_fails(passes):
    for document in passes[0].values():
        assert document["failed"] == 0 and document["failed_frac"] == 0.0, document["failed_checks"]
        assert document["correct"]
        for section in ("end_to_end", "per_layer"):
            assert list(document[section]) == [m["name"] for m in SPEC[section]]
            for name, stat in document[section].items():
                assert math.isfinite(stat["median"]), name
        assert all(document["end_to_end"][m["name"]]["median"] > 0 for m in SPEC["end_to_end"])
        assert document["per_layer"]["trust.vps_convicted"]["median"] == 0
        assert document["per_layer"]["analysis.false_positives"]["median"] == 0


def test_counts_repeat_exactly(passes):
    first, second = passes
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"] + ["archive.mb_per_day"]
    for name, document in first.items():
        assert document["digests"] == second[name]["digests"]
        for metric in exact:
            assert document["per_layer"][metric]["median"] == second[name]["per_layer"][metric]["median"], (
                name, metric,
            )


def test_a_corrupted_pin_is_counted_as_a_failure():
    haystack = next(w for w in WORKLOADS if w.name == "haystack").smoke()
    document = run.measure(
        replace(haystack, pinned=("corrupt",)), DEFAULT_SEED, seconds=0.0, reps=REPS
    )
    assert document["failed_frac"] > 0 and not document["correct"]
    assert document["failed_checks"] == {"pinned_digest": run.WARMUP_UNITS + REPS}


def test_compare_of_a_document_with_itself_is_within_bound(passes, tmp_path, capsys):
    document = {"workloads": passes[0]}
    rows, any_worse = report.compare(document, document, SPEC["end_to_end"])
    assert not any_worse
    assert {row["verdict"] for row in rows} == {"within-bound"}
    assert len(rows) == len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert run.main(["--compare", str(path), str(path)]) == 0
    assert "within-bound" in capsys.readouterr().out


def test_compare_flags_a_regression_beyond_the_bound(passes):
    base = passes[0]["haystack"]
    worse = json.loads(json.dumps(base))
    stat = worse["end_to_end"]["census_wall_s"]
    for key in ("value", "median", "q1", "q3", "min", "max"):
        stat[key] *= 2.0
    rows, any_worse = report.compare(base, worse, SPEC["end_to_end"])
    assert any_worse
    assert [r["verdict"] for r in rows if r["metric"] == "census_wall_s"] == ["worse"]


def test_the_command_line_prints_the_drivers_result_object_last():
    done = subprocess.run(
        SPEC["command"] + ["--workload", "haystack", "--seed", "7", "--seconds", "0",
                           "--trace", "0", "--scale", "smoke"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(sorted(v) == ["unit", "value"] for v in result["metrics"].values())
    assert not (run.ROOT / ".bench_work").exists() or not any((run.ROOT / ".bench_work").iterdir())

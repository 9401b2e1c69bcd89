"""Tests for the repro-anycast command-line interface."""

import pytest

from repro.cli import (
    EXIT_ABORTED,
    EXIT_OK,
    EXIT_UNEXPECTED,
    build_parser,
    main,
)

SCALE = ["--unicast", "300", "--tail", "10", "--vps", "40", "--censuses", "1"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["glance"])
        assert args.seed == 2015
        assert args.vps == 150

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_fault_defaults_are_off(self):
        args = build_parser().parse_args(["health"])
        assert args.fault_rate == 0.0
        assert args.flap_prob == 0.0
        assert args.quorum == 1
        assert args.scan_timeout is None

    def test_checkpoint_dir_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--checkpoint-dir=journals", "health"])
        assert exc.value.code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_manifest_defaults_to_none(self):
        args = build_parser().parse_args(["glance"])
        assert args.manifest is None

    def test_trace_and_stats_subcommands_parse(self):
        assert build_parser().parse_args(["trace"]).command == "trace"
        assert build_parser().parse_args(["stats"]).command == "stats"

    def test_resilience_defaults_are_off(self):
        args = build_parser().parse_args(["glance"])
        assert args.resilience_policy == "off"
        assert args.poison is None
        assert args.poison_fraction == 0.25
        assert args.poison_seed == 0

    def test_resilience_policy_choices(self):
        for choice in ("off", "on", "strict"):
            args = build_parser().parse_args(
                ["--resilience-policy", choice, "glance"]
            )
            assert args.resilience_policy == choice
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--resilience-policy", "maybe", "glance"])

    def test_poison_mode_choices(self):
        args = build_parser().parse_args(["--poison", "nan_rtt", "glance"])
        assert args.poison == "nan_rtt"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--poison", "gamma_rays", "glance"])


class TestCommands:
    def test_glance(self, capsys):
        assert main(SCALE + ["glance"]) == 0
        out = capsys.readouterr().out
        assert "All" in out
        assert "IP/24" in out

    def test_top(self, capsys):
        assert main(SCALE + ["top", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "replicas" in out
        # 5 rows + header + separator
        assert len(out.strip().splitlines()) == 7

    def test_funnel(self, capsys):
        assert main(SCALE + ["funnel"]) == 0
        out = capsys.readouterr().out
        assert "census 1:" in out
        assert "anycast /24s detected" in out

    def test_portscan(self, capsys):
        assert main(SCALE + ["portscan"]) == 0
        out = capsys.readouterr().out
        assert "well-known services" in out

    def test_validate(self, capsys):
        assert main(SCALE + ["validate", "CLOUDFLARENET,US"]) == 0
        out = capsys.readouterr().out
        assert "TPR" in out
        assert "GT/PAI" in out

    def test_map_world(self, capsys):
        assert main(SCALE + ["map"]) == 0
        out = capsys.readouterr().out
        assert "replica density" in out
        assert len(out.splitlines()) > 20

    def test_map_deployment(self, capsys):
        assert main(SCALE + ["map", "--deployment", "MICROSOFT,US"]) == 0
        out = capsys.readouterr().out
        assert "O" in out

    def test_health_clean(self, capsys):
        assert main(SCALE + ["health"]) == 0
        out = capsys.readouterr().out
        assert "VPs clean" in out
        assert "faults seen:        none" in out
        assert "quarantined VPs: 0" in out
        assert "[DEGRADED]" not in out

    def test_health_with_faults(self, capsys):
        assert (
            main(
                SCALE
                + ["--fault-rate", "0.3", "--scan-timeout", "10.0", "health"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "faults seen:" in out
        assert "faults seen:        none" not in out

    def test_trace_renders_span_tree(self, capsys):
        assert main(SCALE + ["trace"]) == 0
        out = capsys.readouterr().out
        assert "measurement" in out
        assert "analysis" in out
        assert "vp_scan" in out
        assert "igreedy" in out
        # Hierarchy: child spans are indented under their parent.
        assert "\n  census" in out or "\n  precensus" in out

    def test_stats_prints_metrics_table(self, capsys):
        assert main(SCALE + ["stats"]) == 0
        out = capsys.readouterr().out
        assert "metric" in out
        assert "probes_sent" in out
        assert "disks_per_target" in out

    def test_manifest_flag_writes_valid_json(self, capsys, tmp_path):
        import json

        from repro.obs import CANONICAL_STAGES, validate_manifest

        path = tmp_path / "run.json"
        assert main(SCALE + ["--manifest", str(path), "glance"]) == 0
        err = capsys.readouterr().err
        assert str(path) in err
        doc = json.loads(path.read_text())
        validate_manifest(doc)
        assert doc["pipeline_stages"] == list(CANONICAL_STAGES)
        assert doc["config"]["n_censuses"] == 1

    def test_traced_manifest_has_every_stage_and_probes(self, capsys, tmp_path):
        """A ``trace`` run's manifest names the canonical stages in
        order, carries the span forest and counts the probes sent."""
        import json

        from repro.obs import CANONICAL_STAGES, validate_manifest

        path = tmp_path / "manifest.json"
        assert main(SCALE + ["--manifest", str(path), "trace"]) == EXIT_OK
        doc = json.loads(path.read_text())
        validate_manifest(doc)
        assert doc["pipeline_stages"] == list(CANONICAL_STAGES)
        assert doc["trace"]
        assert doc["metrics"]["counters"]["probes_sent"] > 0

    def test_health_lists_quarantined_vps_with_reason(self, capsys):
        """VPs that flap two censuses in a row sit the third one out."""
        argv = SCALE[:-2] + ["--censuses", "3", "--flap-prob", "0.5", "health"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        reason = ": quarantined (2 consecutive failures)"
        benched = [line.strip()[: -len(reason)] for line in out.splitlines()
                   if line.endswith(reason)]
        assert benched
        listed = out.split("quarantined VPs: ")[1].splitlines()
        assert int(listed[0]) == len(listed) - 1 >= len(benched)
        assert set(benched) <= {name.strip() for name in listed[1:]}

    def test_without_manifest_flag_nothing_is_traced(self, capsys):
        assert main(SCALE + ["glance"]) == 0
        err = capsys.readouterr().err
        assert "manifest" not in err


class TestResilienceCommands:
    def test_resilience_on_clean_output_is_unchanged(self, capsys):
        assert main(SCALE + ["glance"]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(SCALE + ["--resilience-policy", "on", "glance"]) == EXIT_OK
        assert capsys.readouterr().out == plain

    def test_health_shows_quarantine_and_degradation(self, capsys):
        code = main(
            SCALE
            + ["--resilience-policy", "on", "--poison", "nan_rtt", "health"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "quarantine:" in out
        assert "nan_rtt" in out
        assert "degradation: DEGRADED" in out
        assert "combine" in out

    def test_health_clean_resilience_reports_empty_quarantine(self, capsys):
        assert main(SCALE + ["--resilience-policy", "on", "health"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "quarantine: empty" in out
        assert "degradation: clean" in out

    def test_top_gains_confidence_column_only_when_degraded(self, capsys):
        assert main(SCALE + ["--resilience-policy", "on", "top", "--k", "3"]) == EXIT_OK
        assert "confidence" not in capsys.readouterr().out
        code = main(
            SCALE
            + ["--resilience-policy", "on", "--poison", "drop_samples",
               "--poison-fraction", "0.5", "top", "--k", "3"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "confidence" in out

    def test_distorted_vps_surface_trust_verdicts(self, capsys, tmp_path):
        """``--vp-distortion --trust health`` names the untrusted VPs and
        the manifest scores more VPs than it convicts, and some."""
        import json

        from repro.obs import validate_manifest

        path = tmp_path / "distorted.json"
        argv = [
            "--unicast", "400", "--tail", "5", "--vps", "30", "--censuses", "1",
            "--vp-distortion", "0.1", "--vp-distortion-seed", "777",
            "--trust", "--manifest", str(path), "health",
        ]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "untrusted" in out
        assert "vp trust:" in out
        doc = json.loads(path.read_text())
        validate_manifest(doc)
        gauges = doc["metrics"]["gauges"]
        assert gauges["vps_scored"] > gauges["vps_untrusted"] > 0

    def test_poisoned_manifest_records_quarantine(self, capsys, tmp_path):
        import json

        from repro.obs import validate_manifest

        path = tmp_path / "chaos.json"
        code = main(
            SCALE
            + ["--resilience-policy", "on", "--poison", "superluminal_rtt",
               "--manifest", str(path), "glance"]
        )
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        validate_manifest(doc)
        assert doc["degradation"]["degraded"] is True
        assert any(b["reason"] == "superluminal_rtt" for b in doc["quarantine"])


class TestExitCodes:
    def test_aborted_campaign_exits_3(self, capsys):
        assert main(SCALE + ["--quorum", "500", "glance"]) == EXIT_ABORTED
        assert "aborted" in capsys.readouterr().err

    def test_aborted_under_supervision_also_exits_3(self, capsys):
        code = main(
            SCALE + ["--quorum", "500", "--resilience-policy", "on", "glance"]
        )
        assert code == EXIT_ABORTED
        assert "aborted" in capsys.readouterr().err

    def test_strict_policy_refusing_poison_exits_4(self, capsys):
        code = main(
            SCALE
            + ["--resilience-policy", "strict", "--poison", "nan_rtt", "glance"]
        )
        assert code == EXIT_UNEXPECTED
        assert "StageFailed" in capsys.readouterr().err

    def test_typed_refusal_is_one_error_line_not_a_traceback(self, capsys):
        # Distorted VPs, no trust gate: negative RTTs reach the analysis.
        code = main(SCALE + ["--vp-distortion", "0.3", "glance"])
        assert code == EXIT_UNEXPECTED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: CorruptInputError: ")
        assert "negative-RTT" in err[0]

    def test_usage_errors_keep_argparse_code_2(self):
        with pytest.raises(SystemExit) as info:
            main(["--poison", "not-a-mode", "glance"])
        assert info.value.code == 2

    def test_abort_with_manifest_still_writes_manifest(self, capsys, tmp_path):
        import json

        from repro.obs import validate_manifest

        path = tmp_path / "aborted.json"
        code = main(
            SCALE + ["--quorum", "500", "--manifest", str(path), "glance"]
        )
        assert code == EXIT_ABORTED
        validate_manifest(json.loads(path.read_text()))


class TestParallelOptions:
    def test_workers_and_deadline_default_off(self):
        args = build_parser().parse_args(["glance"])
        assert args.workers == "0"
        assert args.deadline is None

    def test_parse_workers_values(self):
        from repro.cli import _parse_workers

        assert _parse_workers(None) is None
        assert _parse_workers("0") == 0
        assert _parse_workers("4") == 4
        assert _parse_workers("auto") >= 1
        with pytest.raises(ValueError):
            _parse_workers("-1")
        with pytest.raises(ValueError):
            _parse_workers("many")

    def test_bad_workers_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(SCALE + ["--workers", "many", "glance"])
        assert info.value.code == 2

    def test_pool_output_matches_serial(self, capsys):
        assert main(SCALE + ["glance"]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(SCALE + ["--workers", "2", "glance"]) == EXIT_OK
        assert capsys.readouterr().out == plain

    def test_health_reports_pool_supervision(self, capsys):
        assert main(SCALE + ["--workers", "2", "health"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pool:" in out
        assert "2 worker(s)" in out

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_manifest_carries_execution_report(self, capsys, tmp_path, workers):
        import json

        from repro.obs import validate_manifest

        path = tmp_path / "manifest.json"
        argv = ["--workers", workers, "--manifest", str(path), "health"]
        assert main(SCALE + argv) == EXIT_OK
        doc = json.loads(path.read_text())
        validate_manifest(doc)
        # Which path ran is on record: the resolved worker count in the
        # config block, the engine's own report in health and counters.
        assert doc["config"]["workers"] == int(workers)
        assert doc["health"][0]["execution"]["workers"] == int(workers)
        counters = doc["metrics"]["counters"]
        assert counters["exec_units_completed"] > 0
        assert counters["exec_unit_scans"] == counters["exec_units_completed"]

    def test_immediate_deadline_aborts_with_3(self, capsys):
        code = main(SCALE + ["--deadline", "0.000001", "glance"])
        assert code == EXIT_ABORTED
        assert "aborted" in capsys.readouterr().err

    def test_interrupt_exits_130_and_writes_manifest(
        self, capsys, tmp_path, monkeypatch
    ):
        import contextlib
        import json

        import repro.exec.signals as signals
        from repro.cli import EXIT_INTERRUPTED
        from repro.obs import validate_manifest

        class CountdownFlag:
            polls = 2
            signum = 2

            def __bool__(self):
                CountdownFlag.polls -= 1
                return CountdownFlag.polls < 0

        @contextlib.contextmanager
        def fake_shutdown(*args, **kwargs):
            yield CountdownFlag()

        monkeypatch.setattr(signals, "graceful_shutdown", fake_shutdown)
        manifest = tmp_path / "drained.json"
        code = main(
            SCALE
            + ["--manifest", str(manifest), "health"]
        )
        assert code == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert "interrupted" in err
        validate_manifest(json.loads(manifest.read_text()))


class TestServiceTelemetryCli:
    """`repro service timeline` and `repro obs export` end to end."""

    @pytest.fixture(scope="class")
    def telemetry_archive(self, tmp_path_factory):
        from repro.workflow import small_service

        root = tmp_path_factory.mktemp("cli-telemetry") / "archive"
        service = small_service(root, telemetry=True)
        for epoch in range(4):
            service.run_epoch(epoch)
        return root

    def test_parser_accepts_new_flags(self):
        args = build_parser().parse_args(
            ["service", "timeline", "--archive", "a", "--telemetry",
             "--mad-k", "6"]
        )
        assert args.verb == "timeline" and args.mad_k == 6.0
        args = build_parser().parse_args(
            ["obs", "export", "--archive", "a", "--epoch", "2"]
        )
        assert args.command == "obs" and args.epoch == 2

    def test_timeline_clean_exits_0(self, telemetry_archive, capsys):
        code = main(["service", "timeline", "--archive", str(telemetry_archive)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("epochs: 4")
        assert "[REGRESSION]" not in out
        assert "slo verdicts" in out

    def test_timeline_seeded_regression_exits_6(self, tmp_path, capsys):
        from repro.cli import EXIT_REGRESSION
        from repro.measurement.faults import FaultPlan
        from repro.workflow import small_service

        root = tmp_path / "archive"
        clean = small_service(root, telemetry=True)
        for epoch in range(4):
            clean.run_epoch(epoch)
        slow = small_service(
            root, telemetry=True, fault_plan=FaultPlan(hang_prob=1.0)
        )
        slow.run_epoch(4)
        code = main(["service", "timeline", "--archive", str(root)])
        out = capsys.readouterr().out
        assert code == EXIT_REGRESSION
        assert "[REGRESSION]" in out
        assert "vp_scan_hours_mean" in out

    def test_obs_export_writes_valid_artifacts(
        self, telemetry_archive, tmp_path, capsys
    ):
        import json

        from repro.obs import chrome_trace_problems, prometheus_problems

        prom = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.json"
        code = main(
            ["obs", "export", "--archive", str(telemetry_archive),
             "--epoch", "1", "--prometheus", str(prom),
             "--chrome-trace", str(trace)]
        )
        assert code == EXIT_OK
        assert prometheus_problems(prom.read_text()) == []
        doc = json.loads(trace.read_text())
        assert chrome_trace_problems(doc) == []
        assert any(
            e.get("name") == "service_epoch" for e in doc["traceEvents"]
        )
        out = capsys.readouterr().out
        assert "metrics.prom" in out and "trace.json" in out

    def test_obs_export_to_stdout_by_default(self, telemetry_archive, capsys):
        code = main(["obs", "export", "--archive", str(telemetry_archive)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "repro_service_epochs_committed_total 1" in out

    def test_obs_export_without_telemetry_is_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE
        from repro.workflow import small_service

        root = tmp_path / "archive"
        small_service(root).run_epoch(0)
        code = main(["obs", "export", "--archive", str(root)])
        assert code == EXIT_USAGE
        assert "no telemetry sidecar" in capsys.readouterr().err


class TestServiceGlobalFlags:
    """`service` honours the fault flags and refuses the global flags it
    has nothing to bind to, instead of silently ignoring both."""

    SCALE = ["--unicast", "150", "--tail", "0", "--vps", "20"]

    def test_study_only_flags_are_a_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE

        argv = self.SCALE + [
            "--workers", "4", "--fault-rate", "0.9", "--flap-prob", "0.5",
            "--quorum", "19", "--deadline", "0.0001", "--poison", "nan_rtt",
            "service", "run", "--archive", str(tmp_path / "B"), "--epoch", "0",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        for flag in ("--workers", "--quorum", "--deadline", "--poison"):
            assert flag in err
        # The fault flags are wired, not refused.
        assert "--fault-rate" not in err.splitlines()[-1]
        assert not (tmp_path / "B").exists()

    def test_fault_rate_reaches_the_service_campaign(self, tmp_path, capsys):
        import json

        root = tmp_path / "archive"
        argv = self.SCALE + [
            "--fault-rate", "0.3", "service", "run", "--archive", str(root),
        ]
        assert main(argv) == EXIT_OK
        manifest = json.loads(
            (root / "runs" / "day-000000" / "manifest.json").read_text()
        )
        assert manifest["census"]["degraded"] is True
        assert manifest["census"]["n_vps"] == 20

    def test_out_of_range_fault_rate_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE

        argv = self.SCALE + [
            "--fault-rate", "2.0", "service", "run", "--archive", str(tmp_path / "B"),
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "rate must be in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "B").exists()

    def test_obs_refuses_study_only_flags(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE

        manifest = tmp_path / "run.json"
        argv = [
            "--manifest", str(manifest), "obs", "export", "--archive", str(tmp_path),
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "obs does not take --manifest" in capsys.readouterr().err
        assert not manifest.exists()


class TestServiceCliRuns:
    """Operator sessions against one archive, through ``main`` in
    ``tmp_path``: the service CLI's flags, exit codes and exports."""

    SCALE = ["--unicast", "120", "--tail", "0", "--vps", "20"]

    def service(self, verb, archive, *flags):
        return main(self.SCALE + ["service", verb, "--archive", str(archive), *flags])

    def test_roster_churn_flags_move_the_archived_roster(self, tmp_path, capsys):
        from repro.service.archive import CensusArchive

        archive = tmp_path / "archive"
        churn = ["--through", "3", "--roster-churn", "0.05", "--roster-seed", "11",
                 "--baseline-depth", "4"]
        assert self.service("catch-up", archive, *churn) == EXIT_OK
        assert self.service("history", archive) == EXIT_OK
        assert self.service("fsck", archive) == EXIT_OK
        capsys.readouterr()
        # Catch-up again: every epoch is already present.
        assert self.service("catch-up", archive, *churn) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("already-present") == 4 and "committed" not in out
        manifests = [CensusArchive(archive).read_manifest(e) for e in range(4)]
        rosters = {tuple(vp["name"] for vp in m["vantage_points"]) for m in manifests}
        assert len(rosters) > 1, "CLI roster churn never moved the roster"

    def test_fsck_repairs_a_truncated_day_and_catch_up_heals_it(self, tmp_path, capsys):
        from repro.cli import EXIT_REPAIRED

        archive = tmp_path / "archive"
        assert self.service("catch-up", archive, "--through", "2") == EXIT_OK
        assert self.service("history", archive) == EXIT_OK
        assert self.service("fsck", archive) == EXIT_OK
        records = archive / "runs" / "day-000001" / "records.bin"
        records.write_bytes(records.read_bytes()[:-10])
        assert self.service("fsck", archive) == EXIT_REPAIRED
        assert self.service("catch-up", archive, "--through", "2") == EXIT_OK
        assert self.service("fsck", archive) == EXIT_OK

    def test_telemetry_exports_validate(self, tmp_path, capsys):
        import json

        from repro.obs import (
            chrome_trace_problems,
            prometheus_problems,
            validate_slo_report,
        )
        from repro.service.archive import CensusArchive, telemetry_problems

        archive = tmp_path / "archive"
        code = self.service("catch-up", archive, "--through", "2", "--telemetry")
        assert code == EXIT_OK
        assert main(["service", "timeline", "--archive", str(archive)]) == EXIT_OK
        prom, trace = tmp_path / "metrics.prom", tmp_path / "trace.json"
        assert main(
            ["obs", "export", "--archive", str(archive), "--epoch", "2",
             "--prometheus", str(prom), "--chrome-trace", str(trace)]
        ) == EXIT_OK
        for epoch in range(3):
            doc = CensusArchive(archive).read_telemetry(epoch)
            assert doc is not None, f"epoch {epoch} missing telemetry"
            assert telemetry_problems(doc) == []
            validate_slo_report(doc["slo"])
        assert prometheus_problems(prom.read_text()) == []
        assert chrome_trace_problems(json.loads(trace.read_text())) == []

"""Tests for the experiment CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])

    def test_fig_flags(self):
        args = build_parser().parse_args(["fig3", "--full", "--seed", "7"])
        assert args.full and args.seed == 7

    def test_audit_level_choices(self):
        args = build_parser().parse_args(["audit", "--level", "sc-fine"])
        assert args.level == "sc-fine"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--level", "bogus"])

    def test_audit_level_accepts_parameterized_policy(self):
        args = build_parser().parse_args(["audit", "--level", "relaxed:2"])
        assert args.level == "relaxed:2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--level", "relaxed:soon"])

    def test_audit_level_rejects_a_negative_bound(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--level", "relaxed:-3"])
        assert "staleness bound must be >= 0" in capsys.readouterr().err

    def test_unknown_level_error_lists_registered_policies(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--level", "bogus"])
        err = capsys.readouterr().err
        assert "unknown consistency policy 'bogus'" in err
        assert "sc-coarse" in err
        assert "relaxed" in err

    def test_observability_flags_accepted_before_or_after_the_command(self):
        parser = build_parser()
        for argv in (
            ["--profile", "table1"],
            ["table1", "--profile"],
            ["fig5", "--trace", "out.json"],
            ["--trace", "out.json", "fig5"],
            ["nemesis", "--stats"],
            ["--stats", "audit"],
            ["fig5", "--trace", "out.json", "--trace-sample-rate", "0.25"],
        ):
            args = parser.parse_args(argv)
            assert args.command in {"table1", "fig5", "nemesis", "audit"}

    def test_every_subcommand_accepts_the_shared_flags(self):
        parser = build_parser()
        for command in ("table1", "fig3", "fig4", "fig5", "fig6", "fig7",
                        "audit", "availability", "saturation", "nemesis",
                        "scrub", "membership", "all", "levels"):
            args = parser.parse_args([command, "--profile", "--stats"])
            assert getattr(args, "profile", False) is True
            assert getattr(args, "stats", False) is True

    def test_flag_defaults_are_suppressed_not_false(self):
        args = build_parser().parse_args(["table1"])
        assert not hasattr(args, "profile")
        assert not hasattr(args, "trace")
        assert not hasattr(args, "stats")


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "SC-FINE V_local >= 1" in out

    def test_levels(self, capsys):
        assert main(["levels"]) == 0
        out = capsys.readouterr().out
        assert "sc-coarse" in out
        assert "strong" in out

    def test_audit_runs_and_reports(self, capsys):
        code = main([
            "audit", "--level", "sc-coarse", "--replicas", "2",
            "--clients", "4", "--duration-ms", "400",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "strong consistency (observational): True" in out
        assert "TPS" in out

    def test_audit_tpcw_workload(self, capsys):
        code = main([
            "audit", "--workload", "tpcw", "--level", "sc-fine",
            "--replicas", "2", "--clients", "6", "--duration-ms", "600",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload=tpcw" in out
        assert "strong consistency (observational): True" in out

    def test_audit_bounded_runs_end_to_end(self, capsys):
        code = main([
            "audit", "--level", "relaxed:2", "--replicas", "2",
            "--clients", "4", "--duration-ms", "400",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "level=RELAXED" in out
        assert "TPS" in out

    def test_audit_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--workload", "tpce"])

    def test_audit_baseline_reports_violation(self, capsys):
        main([
            "audit", "--level", "baseline", "--replicas", "4",
            "--clients", "12", "--duration-ms", "800",
        ])
        out = capsys.readouterr().out
        assert "strong consistency (observational): False" in out


class TestFaultCommands:
    """One short run of each fault command, and the exit code of a failed
    safety audit."""

    @pytest.mark.parametrize("argv, verdict", [
        (["nemesis", "--duration-ms", "600"], "audit: PASS"),
        (["nemesis", "--rolling", "--duration-ms", "600"], "audit: PASS"),
        (["scrub", "--duration-ms", "600"], "audit: PASS"),
        (["membership", "--duration-ms", "600"], "membership: PASS"),
    ])
    def test_short_run_passes(self, argv, verdict, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.rstrip().splitlines()[-1] == verdict

    @pytest.mark.parametrize("command", ["nemesis", "scrub", "membership"])
    def test_failed_audit_exits_one(self, command, monkeypatch, capsys):
        from repro.faults import audit as audit_module

        lost = audit_module.AuditReport(0, (), (7,), (), (), (), (), (), ())
        assert not lost.ok and lost.failures == {"lost": (7,)}
        monkeypatch.setattr(audit_module, "audit", lambda cluster: lost)
        assert main([command, "--duration-ms", "300"]) == 1
        out = capsys.readouterr().out
        assert out.rstrip().endswith(": FAIL")
        assert "lost: 1  (first: 7)" in out


class TestObservability:
    def test_audit_trace_writes_chrome_trace(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        code = main([
            "audit", "--replicas", "2", "--clients", "4",
            "--duration-ms", "300", "--trace", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and str(out_file) in out
        doc = json.loads(out_file.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "proxy.certify" in names
        assert "refresh.apply" in names

    def test_stats_flag_prints_registry_report(self, capsys):
        code = main([
            "audit", "--replicas", "2", "--clients", "4",
            "--duration-ms", "300", "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "V_commit" in out
        assert "commit pipeline" in out
        assert "replica-0" in out

    def test_stats_without_a_cluster_degrades_gracefully(self, capsys):
        from repro.metrics import registry as registry_module

        registry_module._set_latest(None)
        assert main(["levels", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "no cluster was built" in out

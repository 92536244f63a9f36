"""Command-line interface."""

import os

import pytest

from repro.cli import MACHINES, build_parser, main
from tests.analysis.point_faults import raise_at


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "mcf", "RAR", "-n", "500"])
        assert args.command == "run"
        assert args.workload == "mcf"
        assert args.policy == "RAR"
        assert args.instructions == 500

    def test_subcommand_set(self):
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command")
        assert sorted(sub.choices) == [
            "calibrate", "characterize", "golden", "list", "memval",
            "report", "run", "sweep", "top", "trace", "warmval"]

    def test_machine_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "mcf", "-m", "cray-1"])

    def test_machines_registry(self):
        assert "baseline" in MACHINES
        assert MACHINES["core-4"].core.rob_size == 352
        assert MACHINES["baseline+l3pf"].prefetcher is not None

    def test_protocol_machines_registry(self):
        assert MACHINES["baseline-ddr4"].dram.protocol == "ddr4-3200"
        assert MACHINES["baseline-lpddr4"].dram.protocol == "lpddr4-3200"
        assert MACHINES["baseline-hbm2"].dram.channels == 8
        assert MACHINES["baseline-frfcfs"].dram.scheduler == "frfcfs"
        m = MACHINES["baseline-hbm2+l3pf"]
        assert m.dram.protocol == "hbm2" and m.prefetcher is not None
        # Protocol variants must not perturb the core configuration.
        assert MACHINES["baseline-ddr4"].core == MACHINES["baseline"].core


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "RAR" in out and "core-4" in out
        assert "THROTTLE" in out

    def test_run(self, capsys):
        assert main(["run", "x264", "OOO", "-n", "500", "-w", "200"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "AVF" in out


    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "wolfenstein", "-n", "100", "-w", "0"])


class TestMemvalCommand:
    def test_single_preset_passes(self, capsys):
        assert main(["memval", "ddr3-1600"]) == 0
        out = capsys.readouterr().out
        assert "ddr3-1600" in out and "memval OK" in out

    def test_scheduler_flag(self, capsys):
        assert main(["memval", "ddr3-1600", "-s", "frfcfs"]) == 0
        assert "frfcfs" in capsys.readouterr().out

    def test_unknown_preset_rejected(self, capsys):
        assert main(["memval", "ddr9-0"]) == 2
        assert "unknown preset" in capsys.readouterr().out

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["memval", "-s", "lifo"])

    def test_list_shows_protocol_column(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "baseline-hbm2" in out and "dram=hbm2" in out


class TestSweepCommand:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "mcf", "x264", "-j", "4",
                                  "--share-warmup"])
        assert args.command == "sweep"
        assert args.workloads == ["mcf", "x264"]
        assert args.jobs == 4
        assert args.share_warmup is True
        assert args.warmup_policy == "OOO"

    def test_sweep_serial(self, capsys):
        assert main(["sweep", "x264", "-p", "OOO", "RAR",
                     "-n", "500", "-w", "200"]) == 0
        out = capsys.readouterr().out
        assert "RAR" in out and "points in" in out and "jobs=1" in out

    def test_sweep_parallel_share_warmup_artifacts(self, tmp_path, capsys):
        import json
        out_json = str(tmp_path / "sweep.json")
        stats_dir = str(tmp_path / "stats")
        assert main(["sweep", "mcf", "x264", "-p", "OOO", "RAR",
                     "-j", "2", "--share-warmup", "-n", "500", "-w", "200",
                     "--out", out_json, "--stats-dir", stats_dir]) == 0
        out = capsys.readouterr().out
        assert "shared warmup under OOO" in out
        payload = json.load(open(out_json))
        assert payload["share_warmup"] is True
        assert len(payload["results"]) == 4
        files = sorted(f for f in __import__("os").listdir(stats_dir))
        assert files == ["mcf_baseline_OOO.json", "mcf_baseline_RAR.json",
                         "x264_baseline_OOO.json", "x264_baseline_RAR.json"]
        stats = json.load(open(f"{stats_dir}/{files[0]}"))
        assert stats["result"]["policy"] == "OOO"

    @staticmethod
    def _table(out):
        """The sweep table's rows as dicts keyed by its header."""
        lines = out.splitlines()
        head = next(i for i, ln in enumerate(lines)
                    if ln.split()[:2] == ["workload", "machine"])
        header = lines[head].split()
        rows = []
        for ln in lines[head + 2:]:
            if not ln.strip():
                break
            rows.append(dict(zip(header, ln.split())))
        return header, rows

    def test_sweep_relative_to_ooo(self, capsys):
        """`repro sweep W -p OOO RAR` prints each point relative to OOO:
        the numbers of two direct `simulate` calls."""
        from repro.sim import simulate
        assert main(["sweep", "x264", "-p", "OOO", "RAR",
                     "-n", "500", "-w", "200"]) == 0
        header, rows = self._table(capsys.readouterr().out)
        assert header == ["workload", "machine", "policy", "IPC", "IPC_rel",
                          "MTTF_rel", "ABC_rel", "MLP", "MPKI", "ABC", "AVF"]
        base = simulate("x264", MACHINES["baseline"], "OOO",
                        instructions=500, warmup=200)
        rar = simulate("x264", MACHINES["baseline"], "RAR",
                       instructions=500, warmup=200)
        assert [(r["machine"], r["policy"]) for r in rows] == [
            ("baseline", "OOO"), ("baseline", "RAR")]
        for row, r in zip(rows, (base, rar)):
            assert row["IPC"] == f"{r.ipc:.3f}"
            assert row["IPC_rel"] == f"{r.ipc_rel(base):.3f}"
            assert row["MTTF_rel"] == f"{r.mttf_rel(base):.3f}"
            assert row["ABC_rel"] == f"{r.abc_rel(base):.3f}"
            assert row["MLP"] == f"{r.mlp:.3f}"
            assert row["ABC"] == str(r.abc_total)
        assert rows[0]["IPC_rel"] == rows[0]["MTTF_rel"] == "1.000"

    def test_sweep_without_ooo_has_no_relative_columns(self, capsys):
        assert main(["sweep", "x264", "-p", "RAR",
                     "-n", "500", "-w", "200"]) == 0
        header, _ = self._table(capsys.readouterr().out)
        assert "IPC_rel" not in header and "machine" in header

    def test_sweep_across_core_generations(self, tmp_path, capsys):
        """`-m` takes several machines: each point is relative to the OOO
        point of its own machine, and --out joins the machine names."""
        import json
        from repro.sim import simulate
        gens = ["core-1", "core-2", "core-3", "core-4"]
        out_json = str(tmp_path / "sweep.json")
        assert main(["sweep", "x264", "-p", "OOO", "RAR", "-m", *gens,
                     "-n", "300", "-w", "150", "--out", out_json]) == 0
        _, rows = self._table(capsys.readouterr().out)
        rar = {r["machine"]: r for r in rows if r["policy"] == "RAR"}
        assert sorted(rar) == gens
        for name in gens:
            m = MACHINES[name]
            base = simulate("x264", m, "OOO", instructions=300, warmup=150)
            r = simulate("x264", m, "RAR", instructions=300, warmup=150)
            assert rar[name]["MTTF_rel"] == f"{r.mttf_rel(base):.3f}"
            assert rar[name]["IPC_rel"] == f"{r.ipc_rel(base):.3f}"
        payload = json.load(open(out_json))
        assert payload["machine"] == "core-1,core-2,core-3,core-4"
        assert len(payload["results"]) == 8

    def test_multi_machine_ledger_audits_clean(self, tmp_path, capsys):
        from repro.obs.ledger import check_complete, read_ledger
        path = str(tmp_path / "l.jsonl")
        assert main(["sweep", "x264", "-p", "OOO", "-m", "core-1", "core-2",
                     "-n", "300", "-w", "150", "--ledger", path]) == 0
        events = read_ledger(path)
        assert [e["ev"] for e in events].count("sweep_start") == 2
        assert check_complete(events) == []
        capsys.readouterr()
        assert main(["report", path]) == 0

    def test_sweep_matches_single_run(self, tmp_path, capsys):
        """A sweep point equals the same point via `repro run`."""
        import json
        out_json = str(tmp_path / "sweep.json")
        assert main(["sweep", "x264", "-p", "RAR", "-n", "500", "-w", "200",
                     "--out", out_json]) == 0
        from repro.sim import simulate
        from repro.cli import MACHINES
        direct = simulate("x264", MACHINES["baseline"], "RAR",
                          instructions=500, warmup=200)
        (point,) = json.load(open(out_json))["results"]
        assert point == direct.to_dict()


class TestTelemetryFlags:
    def _run(self, tmp_path, *extra):
        s = str(tmp_path / "s.json")
        t = str(tmp_path / "t.json")
        code = main(["run", "mcf", "--policy", "RAR", "-n", "2000",
                     "-w", "1000", "--stats-out", s, "--trace-out", t,
                     "--interval", "200", *extra])
        return code, s, t

    def test_artifacts_are_valid_json(self, tmp_path, capsys):
        import json
        code, s, t = self._run(tmp_path)
        assert code == 0
        with open(s) as f:
            stats = json.load(f)
        with open(t) as f:
            trace = json.load(f)
        assert stats["schema"] == "repro-stats-v1"
        assert stats["result"]["policy"] == "RAR"
        assert len(stats["timeline"]["samples"]) >= 10
        from repro.obs import validate_chrome_trace
        assert validate_chrome_trace(trace) is None
        out = capsys.readouterr().out
        assert "stats" in out and "perfetto" in out

    def test_stats_reconcile_with_printed_result(self, tmp_path, capsys):
        import json
        from repro.obs import flatten_tree
        code, s, _ = self._run(tmp_path)
        assert code == 0
        stats = json.load(open(s))
        flat = flatten_tree(stats["stats"])
        r = stats["result"]
        assert flat["core.commit.committed"] == r["instructions"]
        assert flat["core.clock.cycles"] == r["cycles"]
        assert flat["ace.total"] == r["abc_total"]

    def test_policy_option_overrides_positional(self, tmp_path):
        import json
        s = str(tmp_path / "s.json")
        assert main(["run", "mcf", "OOO", "--policy", "RAR", "-n", "500",
                     "-w", "200", "--stats-out", s]) == 0
        assert json.load(open(s))["result"]["policy"] == "RAR"

    def test_timeline_out_csv(self, tmp_path, capsys):
        tl = str(tmp_path / "tl.csv")
        assert main(["run", "x264", "OOO", "-n", "500", "-w", "200",
                     "--timeline-out", tl, "--interval", "100"]) == 0
        with open(tl) as f:
            header = f.readline().strip().split(",")
        assert "rob_occ" in header and "mode" in header

    def test_profile_prints_kips(self, capsys):
        assert main(["run", "x264", "OOO", "-n", "400", "-w", "100",
                     "--profile"]) == 0
        assert "KIPS" in capsys.readouterr().out


class TestReportCommand:
    def test_report_round_trips_stats_file(self, tmp_path, capsys):
        s = str(tmp_path / "s.json")
        assert main(["run", "mcf", "--policy", "RAR", "-n", "1000",
                     "-w", "500", "--stats-out", s,
                     "--interval", "200"]) == 0
        capsys.readouterr()
        assert main(["report", s]) == 0
        out = capsys.readouterr().out
        assert "core.commit.committed" in out
        assert "ace.total" in out
        assert "timeline" in out
        assert "mcf" in out and "RAR" in out

    def test_report_exits_1_on_ledger_audit_problem(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger
        path = str(tmp_path / "l.jsonl")
        led = RunLedger(path)
        led.sweep_start(total_points=1, manifest={})  # never finishes
        assert main(["report", path]) == 1
        assert "0 distinct points" in capsys.readouterr().out

    def test_report_on_truncated_stats_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{\n "schema": "repro-stats-v1",\n "res')
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: not a JSON stats file" in err

    def test_report_on_unreadable_path_exits_1(self, tmp_path, capsys):
        for path in (str(tmp_path / "nonexistent.json"), str(tmp_path)):
            assert main(["report", path]) == 1
            assert f"report failed: {path}: " in capsys.readouterr().err


class TestCharacterizeCommand:
    def test_characterize_named(self, capsys):
        assert main(["characterize", "x264", "-n", "500", "-w", "400"]) == 0
        out = capsys.readouterr().out
        assert "character" in out and "x264" in out

    def test_trace_dump_and_replay(self, tmp_path, capsys):
        path = str(tmp_path / "t.trace")
        assert main(["trace", "dump", path, "-k", "x264", "-l", "3000"]) == 0
        assert main(["run", f"trace:{path}", "OOO",
                     "-n", "500", "-w", "300"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_trace_replay_action_removed(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "replay", str(tmp_path / "t.trace")])


class TestGoldenCommand:
    def test_parser_requires_mode(self):
        parser = build_parser()
        args = parser.parse_args(["golden", "--check", "--jobs", "2"])
        assert args.command == "golden" and args.check and not args.regen
        assert args.jobs == 2
        with pytest.raises(SystemExit):
            parser.parse_args(["golden"])  # --check or --regen required
        with pytest.raises(SystemExit):
            parser.parse_args(["golden", "--check", "--regen"])
        with pytest.raises(SystemExit):  # the table sets the run sizes
            parser.parse_args(["golden", "--regen", "-n", "300"])

    def test_default_dir_is_the_committed_one(self, tmp_path, monkeypatch):
        """The default ``--dir`` does not depend on the working
        directory: from anywhere it names the committed golden file."""
        monkeypatch.chdir(tmp_path)
        args = build_parser().parse_args(["golden", "--check"])
        committed = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "golden", "golden.json")
        assert os.path.samefile(os.path.join(args.dir, "golden.json"),
                                committed)

    def test_regen_check_roundtrip(self, tmp_path, capsys, monkeypatch):
        from repro.common.params import BASELINE
        from repro.validate import golden
        monkeypatch.setattr(golden, "GOLDEN_ROWS",
                            {"baseline": ("mcf", BASELINE, 300, 200)})
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("RAR",))
        d = str(tmp_path / "golden")
        assert main(["golden", "--regen", "--dir", d]) == 0
        assert "froze" in capsys.readouterr().out
        assert main(["golden", "--check", "--dir", d]) == 0
        assert "OK" in capsys.readouterr().out

    def test_sweep_lines_only_under_verbose(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.common.params import BASELINE
        from repro.obs.ledger import read_ledger
        from repro.validate import golden
        monkeypatch.setattr(golden, "GOLDEN_ROWS",
                            {"baseline": ("mcf", BASELINE, 300, 200)})
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("RAR",))
        d = str(tmp_path / "golden")
        assert main(["golden", "--regen", "--dir", d]) == 0
        capsys.readouterr()
        ledger = str(tmp_path / "g.jsonl")
        assert main(["golden", "--check", "--dir", d,
                     "--ledger", ledger]) == 0
        out, err = capsys.readouterr()
        assert out == "golden check OK: 1 points conformant\n"
        assert "sweep" not in err
        kinds = [e["ev"] for e in read_ledger(ledger)]
        assert kinds.count("sweep_start") == kinds.count("sweep_done") == 2
        assert main(["-v", "golden", "--check", "--dir", d,
                     "--ledger", ledger]) == 0
        err = capsys.readouterr().err
        assert err.count("sweep start") == err.count("sweep done") == 2
        # `sweep` itself keeps its lines at default verbosity.
        assert main(["sweep", "mcf", "-p", "RAR", "-n", "300", "-w", "200",
                     "--ledger", ledger]) == 0
        err = capsys.readouterr().err
        assert err.count("sweep start") == err.count("sweep done") == 1

    def test_regen_refused_while_forks_diverge(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.common.params import BASELINE
        from repro.validate import golden
        from tests.validate.fork_fault import leave_predictor_cold
        monkeypatch.setattr(golden, "GOLDEN_ROWS",
                            {"baseline": ("mcf", BASELINE, 300, 200)})
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("RAR",))
        leave_predictor_cold(monkeypatch)
        d = tmp_path / "golden"
        assert main(["golden", "--regen", "--dir", str(d)]) == 1
        err = capsys.readouterr().err
        assert "golden regen failed" in err and "baseline/RAR: fork" in err
        assert not d.exists()

    def test_check_missing_dir_fails(self, tmp_path, capsys):
        assert main(["golden", "--check",
                     "--dir", str(tmp_path / "nope")]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestOracleFlag:
    def test_run_with_oracle(self, capsys):
        assert main(["run", "x264", "OOO", "-n", "300", "-w", "100",
                     "--oracle", "--validate"]) == 0
        assert "IPC" in capsys.readouterr().out


class TestLedgerFlag:
    def test_parser_accepts_ledger_and_global_log_flags(self):
        parser = build_parser()
        args = parser.parse_args(["--log-json", "--quiet", "sweep", "mcf",
                                  "--ledger", "l.jsonl"])
        assert args.log_json and args.quiet and args.ledger == "l.jsonl"
        args = parser.parse_args(["-v", "top", "l.jsonl", "--once"])
        assert args.verbose and args.command == "top" and args.once

    def test_sweep_writes_auditable_ledger(self, tmp_path, capsys):
        from repro.obs.ledger import check_complete, read_ledger
        path = str(tmp_path / "l.jsonl")
        assert main(["sweep", "x264", "-p", "OOO", "RAR", "-n", "500",
                     "-w", "200", "--ledger", path]) == 0
        assert "run ledger" in capsys.readouterr().out
        events = read_ledger(path)
        assert check_complete(events) == []
        assert events[0]["ev"] == "sweep_start"
        assert events[0]["manifest"]["schema"] == "repro-manifest-v1"
        assert events[-1]["ev"] == "sweep_done"
        done = [e for e in events if e["ev"] == "point_done"]
        assert len(done) == 2
        for e in done:
            assert e["manifest"]["params_digest"]
            assert e["kips"] > 0 and e["wall_s"] > 0

    def test_sweep_cache_hits_ledgered(self, tmp_path, capsys):
        from repro.obs.ledger import read_ledger
        cache = str(tmp_path / "cache")
        path = str(tmp_path / "second.jsonl")
        args = ["sweep", "x264", "-p", "OOO", "-n", "500", "-w", "200",
                "--cache", cache]
        assert main(args) == 0
        assert main(args + ["--ledger", path]) == 0
        capsys.readouterr()
        events = read_ledger(path)
        assert [e["ev"] for e in events if e["ev"].startswith("point")] \
               == ["point_cached"]

    def test_top_once_renders_finished_sweep(self, tmp_path, capsys):
        path = str(tmp_path / "l.jsonl")
        assert main(["sweep", "x264", "-p", "OOO", "-n", "500", "-w", "200",
                     "--ledger", path]) == 0
        capsys.readouterr()
        assert main(["top", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "[done]" in out
        assert "1/1" in out and "workers:" in out

    def test_report_dispatches_ledger_files(self, tmp_path, capsys):
        path = str(tmp_path / "l.jsonl")
        assert main(["sweep", "x264", "-p", "OOO", "-n", "500", "-w", "200",
                     "--ledger", path]) == 0
        capsys.readouterr()
        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "ledger audit: every point has exactly one terminal " \
               "event" in out

    def test_stats_artifacts_carry_manifest(self, tmp_path):
        import json
        stats_dir = str(tmp_path / "stats")
        assert main(["sweep", "x264", "-p", "OOO", "-n", "500", "-w", "200",
                     "--stats-dir", stats_dir]) == 0
        stats = json.load(open(f"{stats_dir}/x264_baseline_OOO.json"))
        mani = stats["manifest"]
        assert mani["schema"] == "repro-manifest-v1"
        assert mani["point"]["policy"] == "OOO"
        assert mani["point"]["params_digest"]


class TestLogFlags:
    def test_log_json_structures_diagnostics(self, tmp_path, capsys):
        import json
        from repro.obs import log as obs_log
        path = str(tmp_path / "l.jsonl")
        try:
            assert main(["--log-json", "sweep", "x264", "-p", "OOO",
                         "-n", "500", "-w", "200", "--ledger", path]) == 0
        finally:
            obs_log.reset()
        err = capsys.readouterr().err
        lines = [json.loads(ln) for ln in err.splitlines() if ln]
        assert any(rec["msg"] == "sweep start" for rec in lines)
        assert any(rec["msg"] == "sweep done" for rec in lines)

    def test_quiet_silences_diagnostics(self, capsys):
        from repro.obs import log as obs_log
        try:
            assert main(["--quiet", "sweep", "x264", "-p", "OOO",
                         "-n", "500", "-w", "200"]) == 0
        finally:
            obs_log.reset()
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "points in" in captured.out  # human output stays on stdout


class TestFarmCommands:
    def test_sweep_exit_code_reports_failures(self, tmp_path, capsys,
                                              monkeypatch):
        message = raise_at(monkeypatch, "mcf", "RAR")
        rc = main(["sweep", "mcf", "-p", "OOO", "RAR",
                   "-n", "800", "-w", "300"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAILED mcf/baseline/RAR" in captured.out
        assert message in captured.out
        assert "1 point(s) failed" in captured.err

    def test_sweep_rejects_a_cache_that_is_not_a_directory(self, tmp_path,
                                                           capsys):
        path = tmp_path / "cache.json"
        path.write_text('{"schema": 3, "data": {}}')
        rc = main(["sweep", "x264", "-p", "OOO", "-n", "500", "-w", "200",
                   "--cache", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (f"sweep failed: result cache {path} is not "
                                f"a directory\n")
        assert captured.out == ""
        assert path.read_text() == '{"schema": 3, "data": {}}'


class TestWarmupMode:
    def test_parser_accepts_and_rejects_modes(self):
        parser = build_parser()
        for cmd in (["run", "mcf"], ["sweep", "mcf"]):
            args = parser.parse_args(cmd + ["--warmup-mode", "fast"])
            assert args.warmup_mode == "fast"
            assert parser.parse_args(cmd).warmup_mode == "detailed"
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "mcf", "--warmup-mode", "warp"])

    def test_run_fast_mode(self, capsys):
        assert main(["run", "mcf", "RAR", "-n", "500", "-w", "400",
                     "--warmup-mode", "fast"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "AVF" in out

    def test_run_fast_mode_stamps_stats_manifest(self, tmp_path, capsys):
        import json
        s = tmp_path / "s.json"
        assert main(["run", "mcf", "RAR", "-n", "500", "-w", "400",
                     "--warmup-mode", "fast", "--stats-out", str(s)]) == 0
        point = json.loads(s.read_text())["manifest"]["point"]
        assert point["warmup_mode"] == "fast"

    def test_sweep_fast_mode_stamps_artifacts(self, tmp_path, capsys):
        import json
        out_file = tmp_path / "sweep.json"
        assert main(["sweep", "mcf", "-p", "OOO", "-n", "500", "-w", "400",
                     "--warmup-mode", "fast", "--out", str(out_file)]) == 0
        assert "fast warmup" in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        assert payload["warmup_mode"] == "fast"

    def test_warmval_tiny_grid(self, tmp_path, capsys):
        report_file = tmp_path / "warmval.json"
        import json
        rc = main(["warmval", "mcf", "-p", "OOO", "RAR",
                   "-n", "800", "-w", "600",
                   "--report", str(report_file)])
        out = capsys.readouterr().out
        assert "dIPC" in out and "warmup wall" in out
        payload = json.loads(report_file.read_text())
        assert payload["schema"] == 1
        assert len(payload["points"]) == 2
        assert rc == (0 if payload["ok"] else 1)

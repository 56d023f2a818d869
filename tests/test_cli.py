"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_defaults(self):
        args = build_parser().parse_args(["experiments"])
        assert args.profile == "quick"
        assert args.only is None

    def test_experiments_only_list(self):
        args = build_parser().parse_args(["experiments", "--only", "fig8", "fig9"])
        assert args.only == ["fig8", "fig9"]
        with pytest.raises(SystemExit, match="^2$"):
            build_parser().parse_args(["experiments", "--only", "fig7"])

    def test_demo_arguments(self):
        args = build_parser().parse_args(["demo", "--hosts", "50", "--reversion", "0.2"])
        assert args.hosts == 50
        assert args.reversion == 0.2

    def test_trace_dataset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--dataset", "9"])


class TestCommands:
    def test_demo_runs_and_prints(self, capsys):
        exit_code = main(["demo", "--hosts", "60", "--rounds", "12", "--failure-round", "5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Push-Sum-Revert demo" in captured.out
        assert "stddev error" in captured.out

    @pytest.mark.parametrize("flags, needle", [
        (["--rounds", "0"], "rounds"), (["--hosts", "0"], "n_hosts"),
        (["--failure-round", "-1"], "round"),
    ])
    def test_demo_rejects_an_impossible_scenario_cleanly(self, capsys, flags, needle):
        assert main(["demo", *flags]) == 2
        assert needle in capsys.readouterr().err

    def test_trace_summary_runs(self, capsys):
        exit_code = main(["trace", "--devices", "6", "--hours", "6", "--seed", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "devices" in captured.out
        assert "avg group size" in captured.out

    def test_trace_csv_output(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        exit_code = main(
            ["trace", "--devices", "5", "--hours", "4", "--seed", "2", "--csv", str(path)]
        )
        capsys.readouterr()
        assert exit_code == 0
        assert path.exists()
        assert path.read_text().startswith("device_a")

    def test_experiments_subset_writes_output(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        exit_code = main(
            [
                "experiments",
                "--only",
                "fig9",
                "--no-ablations",
                "--output",
                str(output),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 9" in captured.out
        assert output.exists()
        assert "Figure 9" in output.read_text()


class TestRunCommand:
    def test_run_from_flags(self, capsys):
        exit_code = main(
            [
                "run",
                "--protocol", "push-sum-revert",
                "--hosts", "80",
                "--rounds", "10",
                "--seed", "3",
                "-P", "reversion=0.1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "push-sum-revert" in captured.out
        assert "stddev error" in captured.out
        assert "final error" in captured.out

    def test_run_from_config_with_flag_override(self, tmp_path, capsys):
        import json

        config = tmp_path / "spec.json"
        config.write_text(
            json.dumps(
                {
                    "protocol": "push-sum-revert",
                    "protocol_params": {"reversion": 0.1},
                    "n_hosts": 60,
                    "rounds": 8,
                    "seed": 1,
                    "events": [
                        {"event": "failure", "round": 4, "model": "uncorrelated",
                         "fraction": 0.5}
                    ],
                }
            )
        )
        exit_code = main(["run", "--config", str(config), "--rounds", "5", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["spec"]["rounds"] == 5  # flag overrode the config
        assert len(payload["result"]["rounds"]) == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_infinite_error_prints_as_inf(self, tmp_path, capsys):
        import json

        # Values near 1e200 overflow the squared errors: the stddev is inf,
        # scored without a warning.
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "protocol": "push-sum-revert", "n_hosts": 50, "rounds": 4, "workload": "uniform",
            "workload_params": {"low": 0, "high": 1e200},
        }))
        assert main(["run", "--config", str(config)]) == 0
        assert "final error inf, plateau error inf" in capsys.readouterr().out

    def test_run_requires_a_protocol(self):
        with pytest.raises(SystemExit):
            main(["run", "--hosts", "10"])

    def test_run_rejects_malformed_param(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "push-sum", "-P", "oops"])


class TestSweepCommand:
    def test_sweep_runs_grid_and_renders_table(self, tmp_path, capsys):
        import json

        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "base": {"protocol": "push-sum-revert", "n_hosts": 50, "rounds": 6},
                    "axes": {
                        "protocol": ["push-sum-revert", "push-sum"],
                        "environment": ["uniform", "ring"],
                        "seed": [0, 1, 2],
                    },
                }
            )
        )
        exit_code = main(["sweep", "--config", str(config), "--workers", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "12 runs (parallel)" in captured.out
        assert "final_error" in captured.out
        assert "push-sum-revert" in captured.out

    def test_sweep_serial_with_output_file(self, tmp_path, capsys):
        import json

        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "base": {"protocol": "push-sum-revert", "n_hosts": 40, "rounds": 5},
                    "axes": {"seed": [0, 1]},
                }
            )
        )
        output = tmp_path / "table.txt"
        exit_code = main(
            ["sweep", "--config", str(config), "--serial", "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "2 runs (serial)" in captured.out
        assert "final_error" in output.read_text()


class TestCacheFlags:
    """The result-store surface: run/sweep --cache-dir and the cache subcommand."""

    def sweep_config(self, tmp_path):
        import json

        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "base": {"protocol": "push-sum-revert", "n_hosts": 40, "rounds": 5},
                    "axes": {"seed": [0, 1, 2]},
                }
            )
        )
        return str(config)

    def test_run_cache_hit_keeps_stdout_identical(self, tmp_path, capsys):
        argv = [
            "run", "--protocol", "push-sum-revert", "--hosts", "40", "--rounds", "5",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "cache miss (stored)" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "cache hit" in warm.err
        assert warm.out == cold.out

    def test_no_cache_overrides_cache_dir(self, tmp_path, capsys):
        argv = [
            "run", "--protocol", "push-sum-revert", "--hosts", "40", "--rounds", "5",
            "--cache-dir", str(tmp_path / "cache"), "--no-cache",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "cache" not in captured.err
        assert not (tmp_path / "cache").exists()

    def test_sweep_warm_rerun_reports_all_cached_and_matches(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path)
        cache_dir = str(tmp_path / "cache")
        cold_out, warm_out = tmp_path / "cold.txt", tmp_path / "warm.txt"
        base = ["sweep", "--config", config, "--serial", "--cache-dir", cache_dir]

        assert main(base + ["--output", str(cold_out)]) == 0
        cold = capsys.readouterr()
        assert "cache: 0/3 cells cached, 3 executed" in cold.out

        assert main(base + ["--output", str(warm_out)]) == 0
        warm = capsys.readouterr()
        assert "cache: 3/3 cells cached, 0 executed" in warm.out
        # The written table is bit-identical between cold and warm runs.
        assert warm_out.read_bytes() == cold_out.read_bytes()

    def test_cache_stats_prune_clear(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--config", config, "--serial", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats = capsys.readouterr().out
        assert "entries" in stats and "push-sum-revert" in stats

        assert main(["cache", "prune", "--cache-dir", cache_dir]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out

        assert main(["cache", "prune", "--cache-dir", cache_dir, "--older-than", "0"]) == 0
        assert "pruned 3 entries" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 0 entries" in capsys.readouterr().out

    def test_cache_prune_rejects_negative_age(self, tmp_path, capsys):
        exit_code = main(
            ["cache", "prune", "--cache-dir", str(tmp_path / "c"), "--older-than", "-1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "older_than_days" in captured.err

    def test_experiments_accept_cache_dir(self, tmp_path, capsys):
        argv = [
            "experiments", "--profile", "quick", "--only", "fig9", "--no-ablations",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        from repro.store import ResultStore

        assert len(ResultStore(str(tmp_path / "cache"))) == 2  # fig9's two variants


class TestListCommand:
    def test_list_prints_registries(self, capsys):
        exit_code = main(["list"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for expected in ("protocol", "environment", "failure", "workload",
                         "push-sum-revert", "count-sketch-reset", "uniform"):
            assert expected in captured.out


class TestCliErrorPaths:
    def test_run_build_time_error_is_clean(self, capsys):
        # Trace device-count mismatch only surfaces at build(); the CLI must
        # still render it as an error line, not a traceback.
        exit_code = main(
            ["run", "--protocol", "push-sum-revert", "--environment", "trace",
             "-E", "dataset=1", "--hosts", "10", "--rounds", "3"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err
        assert "devices" in captured.err

    def test_sweep_axis_typo_is_clean(self, tmp_path, capsys):
        import json

        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "base": {"protocol": "push-sum-revert", "n_hosts": 20, "rounds": 2},
                    "axes": {"host": [10, 20]},
                }
            )
        )
        exit_code = main(["sweep", "--config", str(config)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown axis" in captured.err


class TestBackendFlag:
    def test_backend_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "push-sum-revert",
                                       "--backend", "gpu"])

    @pytest.mark.parametrize("backend", ["agent", "vectorized", "auto"])
    def test_run_with_explicit_backend(self, backend, capsys):
        exit_code = main(
            ["run", "--protocol", "push-sum-revert", "--hosts", "60",
             "--rounds", "6", "--backend", backend, "-P", "reversion=0.1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        resolved = "vectorized" if backend == "auto" else backend
        assert f"backend={resolved}" in captured.out

    def test_vectorized_backend_rejects_unsupported_scenario(self, capsys):
        exit_code = main(
            ["run", "--protocol", "invert-average", "--environment", "uniform",
             "--hosts", "60", "--rounds", "6", "--backend", "vectorized"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no vectorised kernel" in captured.err

    def test_vectorized_backend_runs_topology_scenario(self, capsys):
        exit_code = main(
            ["run", "--protocol", "push-sum-revert", "--environment", "ring",
             "--hosts", "60", "--rounds", "6", "--backend", "vectorized"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "backend: vectorized" in captured.out or "vectorized" in captured.out

    def test_experiments_backend_flag_parses(self):
        args = build_parser().parse_args(["experiments", "--backend", "agent"])
        assert args.backend == "agent"


class TestObsCommands:
    RUN_FLAGS = ["run", "--protocol", "push-sum-revert", "--hosts", "60",
                 "--rounds", "6", "--seed", "3"]

    def test_run_trace_flag_keeps_stdout_identical(self, tmp_path, capsys):
        assert main(list(self.RUN_FLAGS)) == 0
        bare = capsys.readouterr().out
        trace_path = tmp_path / "run.jsonl"
        assert main([*self.RUN_FLAGS, "--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == bare  # all obs output goes to stderr
        assert "trace:" in captured.err
        assert trace_path.exists()

    def test_run_metrics_flag_prints_phase_table_to_stderr(self, capsys):
        assert main([*self.RUN_FLAGS, "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "phase" in captured.err and "total ms" in captured.err
        assert "phase" not in captured.out

    def test_json_run_keeps_its_trace_and_metrics(self, tmp_path, capsys):
        import json

        from repro.obs import read_trace

        trace_path = tmp_path / "run.jsonl"
        assert main([*self.RUN_FLAGS, "--json", "--metrics", "--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["spec"]["protocol"] == "push-sum-revert"
        names = {record["name"] for record in read_trace(str(trace_path))}
        assert {"plan", "round_end"} <= names
        assert captured.err.startswith("trace: ") and "Per-round counters" in captured.err

    def test_metrics_report_is_the_obs_report_of_the_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main([*self.RUN_FLAGS, "--engine", "events", "--backend", "agent",
                     "--trace", str(trace_path), "--metrics"]) == 0
        trace_line, metrics = capsys.readouterr().err.split("\n", 1)
        assert trace_line.startswith("trace: ")
        assert main(["obs", "report", str(trace_path)]) == 0
        assert metrics == capsys.readouterr().out
        assert "Phase-time breakdown" in metrics and "calendar_depth" in metrics

    def test_metrics_alone_records_in_memory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*self.RUN_FLAGS, "--metrics"]) == 0
        err = capsys.readouterr().err
        assert not err.startswith("trace: ") and "Per-round counters" in err
        assert list(tmp_path.iterdir()) == []

    def test_rerun_to_the_same_trace_path_holds_one_run(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        for _ in range(2):
            assert main([*self.RUN_FLAGS, "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace_path)]) == 0
        report = capsys.readouterr().out
        assert report.startswith("plan: ") and "runs)" not in report
        build = [line for line in report.splitlines() if line.split("|")[0].strip() == "build"]
        assert len(build) == 1 and build[0].split("|")[1].strip() == "1"

    def test_a_failed_traced_run_writes_its_own_trace(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace_path = tmp_path / "run.jsonl"
        assert main([*self.RUN_FLAGS, "--trace", str(trace_path)]) == 0
        assert main([*self.RUN_FLAGS, "-P", "reversions=0.1", "--trace", str(trace_path)]) == 2
        assert "reversions" in capsys.readouterr().err
        records = read_trace(str(trace_path))
        assert [record["name"] for record in records] == ["error"]
        assert "reversions" in records[0]["message"]

    def test_a_failed_traced_sweep_writes_its_own_trace(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace_path = tmp_path / "sweep.jsonl"
        assert main([*self.RUN_FLAGS, "--trace", str(trace_path)]) == 0
        missing = tmp_path / "missing.json"
        assert main(["sweep", "--config", str(missing), "--trace", str(trace_path)]) == 2
        records = read_trace(str(trace_path))
        assert [(record["kind"], record["name"]) for record in records] == [("event", "error")]
        assert records[0]["type"] == "FileNotFoundError"

    def test_an_unwritable_trace_path_fails_the_run_before_it_runs(self, tmp_path, capsys):
        trace_path = tmp_path / "no" / "such" / "t.jsonl"
        assert main([*self.RUN_FLAGS, "--trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write trace {trace_path}: No such file or directory"
        ]

    def test_an_unwritable_trace_path_fails_the_sweep_before_it_runs(self, tmp_path, capsys):
        import json as json_module

        config = tmp_path / "sweep.json"
        config.write_text(json_module.dumps({
            "base": {"protocol": "push-sum-revert", "n_hosts": 50, "rounds": 5},
            "axes": {"seed": [0, 1]},
        }))
        trace_path = tmp_path / "no" / "such" / "t.jsonl"
        assert main(["sweep", "--config", str(config), "--serial",
                     "--trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write trace {trace_path}: No such file or directory"
        ]

    def test_sweep_metrics_report_is_the_obs_report_of_the_trace(self, tmp_path, capsys):
        import json as json_module

        config = tmp_path / "sweep.json"
        config.write_text(json_module.dumps({
            "base": {"protocol": "push-sum-revert", "n_hosts": 50, "rounds": 5},
            "axes": {"seed": [0, 1]},
        }))
        trace_path = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--config", str(config), "--serial",
                     "--trace", str(trace_path), "--metrics"]) == 0
        trace_line, metrics = capsys.readouterr().err.split("\n", 1)
        assert trace_line.startswith("trace: ")
        assert main(["obs", "report", str(trace_path)]) == 0
        assert metrics == capsys.readouterr().out
        assert metrics.splitlines()[0].endswith("(2 runs)")

    def test_obs_report_renders_recorded_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main([*self.RUN_FLAGS, "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace_path), "--every", "2"]) == 0
        out = capsys.readouterr().out
        assert "Phase-time breakdown" in out
        assert "Per-round counters" in out
        assert "messages_delivered" in out

    def test_obs_report_missing_file_is_clean(self, capsys):
        assert main(["obs", "report", "/nonexistent/trace.jsonl"]) == 2
        assert "error: cannot read" in capsys.readouterr().err

    def test_sweep_progress_and_trace(self, tmp_path, capsys):
        import json as json_module

        config = tmp_path / "sweep.json"
        config.write_text(json_module.dumps({
            "base": {"protocol": "push-sum-revert", "n_hosts": 50, "rounds": 5},
            "axes": {"seed": [0, 1]},
        }))
        trace_path = tmp_path / "sweep.jsonl"
        exit_code = main(["sweep", "--config", str(config), "--serial",
                          "--progress", "--trace", str(trace_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        heartbeats = [line for line in captured.err.splitlines()
                      if line.startswith("[sweep")]
        assert len(heartbeats) == 2 and "executed" in heartbeats[0]
        assert trace_path.exists()

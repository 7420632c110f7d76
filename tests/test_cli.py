"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestListing3:
    def test_default_reproduces_paper_example(self, capsys):
        assert main(["listing3"]) == 0
        out = capsys.readouterr().out
        assert "1..4" in out and "9..12" in out

    def test_custom_distribution(self, capsys):
        assert main(["listing3", "--lo", "0", "--hi", "6", "--chunk", "2",
                     "--devices", "1,0"]) == 0
        out = capsys.readouterr().out
        assert "0..1" in out and "4..5" in out


class TestCheck:
    def test_valid_pragma(self, capsys):
        rc = main(["check", "omp target spread devices(0,1) nowait"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK: target spread" in out
        assert "normalized:" in out

    def test_sema_error_returns_1(self, capsys):
        rc = main(["check", "omp target data spread devices(0) range(0:4) "
                            "chunk_size(2) nowait"])
        assert rc == 1
        assert "not allowed" in capsys.readouterr().err

    def test_syntax_error_returns_1(self, capsys):
        rc = main(["check", "omp target devices(0,1"])
        assert rc == 1

    def test_extension_flags_unlock_future_work(self, capsys):
        src = ("omp target enter data spread devices(0) range(0:4) "
               "chunk_size(2) map(to: A[omp_spread_start:omp_spread_size]) "
               "depend(out: A[omp_spread_start:omp_spread_size])")
        assert main(["check", src]) == 1
        capsys.readouterr()
        assert main(["check", src, "--extensions", "data_depend"]) == 0

    def test_unknown_extension_returns_2(self, capsys):
        rc = main(["check", "omp target", "--extensions", "warp"])
        assert rc == 2


class TestSomier:
    def test_small_run_with_verification(self, capsys):
        rc = main(["somier", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "2", "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bitwise identical" in out
        assert "virtual" in out

    def test_trace_output(self, capsys):
        rc = main(["somier", "--impl", "target", "--gpus", "1",
                   "--n-functional", "24", "--steps", "1", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "legend" in out  # the ASCII timeline

    def test_runtime_error_becomes_exit_code(self, capsys):
        # two_buffers on one device is infeasible (halo overlap, or the
        # chunk no longer fits once halved) — either way, a clean error
        rc = main(["somier", "--impl", "two_buffers", "--gpus", "1",
                   "--n-functional", "24", "--steps", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "extend" in err or "exceeds" in err

    def test_explicit_device_order(self, capsys):
        rc = main(["somier", "--impl", "one_buffer", "--gpus", "2",
                   "--devices", "1,0", "--n-functional", "24",
                   "--steps", "1"])
        assert rc == 0
        assert "[1, 0]" in capsys.readouterr().out


class TestSomierProfiling:
    def test_profile_flag_prints_report(self, capsys):
        rc = main(["somier", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "2", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Per-directive profile" in out
        assert "Per-device profile" in out
        assert "target spread" in out
        assert "gpu0" in out and "gpu1" in out

    def test_trace_json_written(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        rc = main(["somier", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "2",
                   "--trace-json", str(path)])
        assert rc == 0
        assert f"chrome trace written to {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" and e["pid"] == 0 for e in events)
        assert any(e["ph"] == "X" and e["pid"] == 1 for e in events)
        assert any(e["ph"] == "M" and e["name"] == "thread_name"
                   for e in events)

    def test_metrics_json_written(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        rc = main(["somier", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "2",
                   "--metrics-json", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-profile-1"
        assert payload["directives"] and payload["devices"]


    def test_unwritable_destination_is_clean_error(self, capsys):
        rc = main(["somier", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "1",
                   "--trace-json", "/nonexistent/dir/t.json"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_text_report(self, capsys):
        rc = main(["stats", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "virtual" in out
        assert "Per-directive profile" in out
        assert "makespan:" in out

    def test_json_report(self, capsys):
        import json

        rc = main(["stats", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-profile-1"
        assert payload["spans"]["directives"] > 0

    def test_full_adds_raw_catalogue(self, capsys):
        rc = main(["stats", "--impl", "target", "--gpus", "1",
                   "--n-functional", "24", "--steps", "1", "--full"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bytes_moved{device=0,dir=h2d}" in out


class TestTables:
    def test_table1_tiny(self, capsys):
        rc = main(["table1", "--n-functional", "24", "--steps", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "sim/paper" in out


class TestParser:
    def test_devices_arg_validation(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["somier", "--devices", "a,b"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRemovedFlags:
    def test_workers_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["somier", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestFaultsFlag:
    def test_zero_rate_run_succeeds(self, capsys):
        rc = main(["somier", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "2", "--verify",
                   "--faults", "transfer:0.0"])
        assert rc == 0
        assert "bitwise identical" in capsys.readouterr().out

    def test_bad_spec_is_clean_error(self, capsys):
        rc = main(["somier", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "1",
                   "--faults", "warp:0.1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "unknown op class" in err

    def test_bad_env_spec_is_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "transfer:")
        rc = main(["somier", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "1"])
        assert rc == 1
        assert "invalid REPRO_FAULTS spec" in capsys.readouterr().err

    def test_stats_renders_fault_block(self, capsys):
        import json

        rc = main(["stats", "--impl", "one_buffer", "--gpus", "2",
                   "--n-functional", "24", "--steps", "1", "--json",
                   "--faults", "h2d:#1", "--fault-seed", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults"]["injected"] == 1
        assert payload["faults"]["retries"] == 1

    def test_faults_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["somier", "--help"])
        out = capsys.readouterr().out
        assert "--faults" in out and "--fault-seed" in out

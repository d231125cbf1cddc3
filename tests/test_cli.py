"""Unit tests for the CLI (light targets only; heavy ones are benches)."""

import json

import pytest

from repro import kernels
from repro.cli import build_parser, main


class TestParser:
    def test_hw_defaults(self):
        args = build_parser().parse_args(["table4"])
        assert args.lanes == 512
        assert not args.naive_auto

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_radix_list(self):
        args = build_parser().parse_args(["fig10", "--radix", "2", "3"])
        assert args.radix == [2, 3]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workload == "keyswitch"
        assert args.arrival_rate == 100.0
        assert args.max_batch == 8
        assert args.policy == "fifo"
        assert args.seed == 0
        assert args.instances == 1
        assert args.router == "key-affinity"
        assert args.key_cache == 4
        assert args.autoscale_max is None

    def test_serve_fleet_flags(self):
        args = build_parser().parse_args([
            "serve", "--instances", "4", "--router", "round-robin",
            "--key-cache", "2", "--key-bytes", "1000000",
            "--tenants", "8", "--key-sets", "16", "--key-skew", "0.8",
            "--max-tenant-share", "0.5", "--autoscale-max", "6",
        ])
        assert args.instances == 4
        assert args.router == "round-robin"
        assert args.key_cache == 2
        assert args.key_bytes == 1000000
        assert (args.tenants, args.key_sets) == (8, 16)
        assert args.key_skew == 0.8
        assert args.max_tenant_share == 0.5
        assert args.autoscale_max == 6

    def test_serve_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--router", "coin-flip"]
            )


class TestFlagScoping:
    """Regression: the old single flat parser accepted every flag on
    every command, so ``table9 --validate`` or ``fig7 --radix 4`` were
    silently ignored instead of erroring. Each command now only parses
    the flags it acts on."""

    @pytest.mark.parametrize("argv", [
        ["table9", "--validate"],          # obs flag on a table command
        ["table1", "--benchmark", "lr"],   # obs flag on a table command
        ["table1", "-o", "x.json"],        # obs flag on a table command
        ["trace", "--radix", "4"],         # fig10 flag on an obs command
        ["fig7", "--radix", "4"],          # fig10 flag elsewhere
        ["table4", "--workload", "LR"],    # fig11 flag on a table
        ["fig10", "--lanes", "128"],       # hw flag where hw is unused
        ["table1", "--lanes", "128"],      # hw flag on a static table
        ["serve", "--benchmark", "lr"],    # serve takes --workload
        ["list", "--validate"],
    ])
    def test_out_of_scope_flag_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table4", "--lanes", "256"],
        ["table6", "--naive-auto"],
        ["fig10", "--radix", "2", "3"],
        ["fig11", "--workload", "LR"],
        ["trace", "--benchmark", "lr", "--validate", "-o", "t.json"],
        ["metrics", "--benchmark", "lr", "-o", "m.json", "--lanes", "256"],
        ["serve", "--arrival-rate", "50", "--max-batch", "4"],
        ["table1", "--kernel-backend", "reference"],
    ])
    def test_documented_invocations_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out
        assert "fig10" in out
        assert "serve" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "HAdd" in out and "Rotation" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "W_fused" in out

    def test_table8(self, capsys):
        assert main(["table8"]) == 0
        out = capsys.readouterr().out
        assert "HFAuto" in out

    def test_table11_with_lanes(self, capsys):
        assert main(["table11", "--lanes", "128"]) == 0
        out = capsys.readouterr().out
        assert "MM" in out

    def test_fig10_custom_radices(self, capsys):
        assert main(["fig10", "--radix", "2", "3", "4"]) == 0
        out = capsys.readouterr().out
        assert "optimal k: 3" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Keyswitch" in out

    def test_serve_fleet(self, capsys, tmp_path):
        metrics = tmp_path / "fleet.json"
        trace = tmp_path / "fleet-trace.json"
        assert main([
            "serve", "--workload", "keyswitch",
            "--arrival-rate", "600", "--requests", "12",
            "--instances", "2", "--router", "key-affinity",
            "--key-cache", "2", "--tenants", "4", "--key-sets", "6",
            "--key-skew", "0.8", "--validate",
            "-o", str(metrics), "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 instances router=key-affinity" in out
        assert "schedule invariants OK per instance" in out
        doc = json.loads(metrics.read_text())
        assert doc["metrics"]["cluster.instances"] == 2
        tdoc = json.loads(trace.read_text())
        names = {
            e["args"]["name"] for e in tdoc["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert "poseidon-i1" in names


class TestKernelBackendScoping:
    def test_backend_restored_after_dispatch(self, capsys):
        """Regression: main() used to call kernels.set_backend(), a
        process-global mutation that leaked into everything the caller
        ran afterwards (tests, notebooks embedding the CLI). The
        override must be scoped to the dispatched command."""
        before = kernels.get_backend()
        assert main(["table1", "--kernel-backend", "reference"]) == 0
        assert kernels.get_backend() is before
        capsys.readouterr()

    def test_backend_restored_on_command_failure(self, capsys):
        before = kernels.get_backend()
        with pytest.raises(SystemExit):
            main(["trace", "--benchmark", "nope",
                  "--kernel-backend", "reference"])
        assert kernels.get_backend() is before
        capsys.readouterr()

    def test_unknown_backend_rejected_at_parse(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["table1", "--kernel-backend", "nope"]
            )
        capsys.readouterr()


class TestObservability:
    def test_trace_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "--benchmark", "bootstrapping", "-o", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["label"] == "Packed Bootstrapping"
        assert "perfetto" in capsys.readouterr().out

    def test_metrics_writes_snapshot(self, tmp_path):
        out = tmp_path / "metrics.json"
        assert main([
            "metrics", "--benchmark", "bootstrapping", "-o", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["benchmark"] == "Packed Bootstrapping"
        assert doc["metrics"]["sim.tasks"] > 0

    def test_benchmark_alias_rejected_when_unknown(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["trace", "--benchmark", "nope"])


class TestServe:
    def test_serve_reports_and_validates(self, capsys):
        assert main([
            "serve", "--arrival-rate", "200", "--requests", "24",
            "--seed", "0", "--validate",
        ]) == 0
        out = capsys.readouterr().out
        assert "schedule invariants OK" in out
        assert "throughput:" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "max queue depth:" in out

    def test_serve_metrics_json_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "serve", "--arrival-rate", "200", "--requests", "24",
                "--seed", "3", "-o", str(path),
            ]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        doc = json.loads(paths[0].read_text())
        assert doc["meta"]["requests_completed"] == 24
        assert doc["metrics"]["cluster.requests.completed"] == 24

    def test_serve_trace_has_request_track(self, tmp_path, capsys):
        out = tmp_path / "serve_trace.json"
        assert main([
            "serve", "--arrival-rate", "200", "--requests", "8",
            "--trace", str(out),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "request" in cats
        assert doc["otherData"]["cluster"]["requests_completed"] == 8

    def test_single_instance_honours_fleet_flags(self, capsys):
        # With key caching off, every admitted request uploads its key
        # set, even on one instance.
        assert main([
            "serve", "--arrival-rate", "600", "--requests", "24",
            "--key-cache", "0", "--tenants", "4", "--key-sets", "6",
            "--router", "least-queue",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: 1 instances router=least-queue" in out
        assert "24 admitted" in out
        assert "keys: 0 hits / 24 misses" in out

    def test_serve_unknown_workload_errors(self):
        with pytest.raises(SystemExit, match="unknown request workload"):
            main(["serve", "--workload", "nope"])

    def test_serve_bad_policy_errors(self):
        with pytest.raises(SystemExit, match="max_batch_size"):
            main(["serve", "--max-batch", "0"])

    def test_serve_arrival_trace_replay(self, tmp_path, capsys):
        trace = tmp_path / "arrivals.json"
        trace.write_text(json.dumps([0.0, 0.001, 0.002, 0.05]))
        assert main([
            "serve", "--arrival-trace", str(trace), "--validate",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 arrived, 4 admitted" in out

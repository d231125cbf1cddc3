"""The metric contract, checked on a reduced-size smoke pass.

- ``BENCHMARK.json`` has the declared shape and every metric the
  benchmark prints is declared there with its unit and direction;
- every per-layer metric names the end-to-end metric and the workload
  it should move;
- each workload's output check fails on a corrupted output.

Run with ``python3 -m pytest perfbench/tests``.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, run
from perfbench import workloads as wmod

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
#: Simulated end results every trace-0 run prints beside the metrics.
SIMULATED = ("sim_makespan_ms", "sim_p99_ms", "sim_completed_frac", "ckks_max_err")


def declared(kind):
    return {m["name"]: m for m in SPEC[kind]}


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wmod.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(wmod.WORKLOADS)
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = declared("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert 1 <= SPEC["run_seconds"] <= 60


def test_per_layer_declarations_match_code():
    in_spec = {n: (m["unit"], m["better"]) for n, m in declared("per_layer").items()}
    in_code = {n: (m["unit"], m["better"]) for n, m in layers.PER_LAYER.items()}
    assert in_spec == in_code


def test_every_per_layer_metric_names_what_it_moves():
    end_to_end = set(declared("end_to_end")) | set(SIMULATED)
    for name, spec in layers.PER_LAYER.items():
        if name.startswith("obs."):
            assert spec["moves"] == ()  # tracing is off in timed runs
            continue
        assert spec["moves"], name
        for metric, workload in spec["moves"]:
            assert metric in end_to_end, (name, metric)
            assert workload in wmod.WORKLOADS, (name, workload)


def smoke(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(wmod.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_exactly_the_declared_metrics(workload, trace, tmp_path):
    stdout, result = smoke(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(spec)
    for name, value in result["metrics"].items():
        assert value["unit"] == spec[name]["unit"], name
        assert isinstance(value["value"], (int, float)), name
    if not trace:
        for name in spec:
            assert result["metrics"][name]["value"] > 0, name
        for line in ("run_s", "setup_s", "error_rate", "calibration_s"):
            assert f"#   {line}" in stdout


def test_trace_reports_overhead_and_all_layers(tmp_path):
    stdout, result = smoke("fleet-keyswitch", 1, tmp_path)
    metrics = result["metrics"]
    assert metrics["sim.self_s"]["value"] > 0
    assert metrics["serve.self_s"]["value"] > 0
    assert metrics["compiler.self_s"]["value"] == 0  # request program cached
    assert "obs.trace_overhead_frac" in metrics
    trace = json.loads(next(tmp_path.glob("trace-*.json")).read_text())
    assert trace["traceEvents"] and "layer_self_s" in trace["otherData"]


# ----------------------------------------------------------------------
# Output checks fail on corrupted outputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lstm_run():
    w = wmod.Table6Lstm(0, steps=2)
    w.setup()
    from repro.compiler.program import compile_trace
    from repro.workloads import lstm_trace

    program = compile_trace(lstm_trace(steps=2), passes="default")
    return w, program, w.sim.run(program)


def test_schedule_check_catches_a_removed_task(lstm_run):
    w, program, result = lstm_run
    wmod.check_schedule(result, program, w.sim.config)
    broken = copy.copy(result)
    broken.task_records = result.task_records[:-1]
    with pytest.raises(wmod.CheckFailed):
        wmod.check_schedule(broken, program, w.sim.config)


def test_schedule_check_catches_a_moved_task(lstm_run):
    w, program, result = lstm_run
    broken = copy.copy(result)
    broken.task_records = [copy.copy(r) for r in result.task_records]
    # Start a dependent task before its producer ends.
    i = next(i for i, t in enumerate(program.tasks) if t.depends_on)
    rec = broken.task_records[i]
    rec.start = rec.ready_seconds = 0.0
    with pytest.raises(wmod.CheckFailed):
        wmod.check_schedule(broken, program, w.sim.config)


@pytest.fixture(scope="module")
def fleet_result():
    w = wmod.FleetKeyswitch(0, requests=40)
    w.setup()
    return w.iteration(0)


def test_fleet_check_catches_a_dropped_request(fleet_result):
    wmod.check_fleet(fleet_result)
    rec = fleet_result.records[0]
    saved = rec.outcome
    rec.outcome = None
    try:
        with pytest.raises(wmod.CheckFailed):
            wmod.check_fleet(fleet_result)
    finally:
        rec.outcome = saved


def test_fleet_check_catches_a_removed_task(fleet_result):
    sim = fleet_result.instances[0].sim
    saved = sim.task_records
    sim.task_records = saved[:-1]
    try:
        with pytest.raises(wmod.CheckFailed):
            wmod.check_fleet(fleet_result)
    finally:
        sim.task_records = saved


def test_bootstrap_check_catches_the_wrong_plaintext():
    w = wmod.CkksBootstrap(0, backend="numpy")
    w.setup()
    m = w.message(0)
    from repro import kernels

    with kernels.use_backend("numpy"):
        ct = w.evaluator.drop_to_level(w.encryptor.encrypt(w.encoder.encode(m)), 0)
        out = w.encoder.decode(w.decryptor.decrypt(w.bootstrapper.bootstrap(ct)))
    assert wmod.check_bootstrap(out, m) < wmod.BOOTSTRAP_TOLERANCE
    with pytest.raises(wmod.CheckFailed):
        wmod.check_bootstrap(out, w.message(1))
    # Set-up made every Galois key the bootstrap needs.
    assert len(w.keys._galois_keys) == len(
        wmod.bootstrap_rotation_steps(w.evaluator, w.encoder)
    ) + 1


def test_empty_checkout_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table6-lstm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_nearest_rank_counts_refusals_as_infinite():
    assert wmod.nearest_rank([1.0, 2.0, np.inf], 0.5) == 2.0
    assert wmod.nearest_rank([1.0] * 99 + [np.inf], 0.99) == 1.0
    assert wmod.nearest_rank([1.0] * 98 + [np.inf] * 2, 0.99) == np.inf

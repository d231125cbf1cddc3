"""Host-time benchmark of the Poseidon reproduction.

Runs one named workload for a fixed wall-clock window and prints, as
the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics declared in
``BENCHMARK.json`` (host time, tracing off). With ``--trace 1`` the run
first times untraced iterations, then wraps every layer's entry points
and runs one traced set-up and iteration; the metrics are the
per-layer metrics. Human-readable detail (the end-to-end results by
name, simulated results, the calibration loop, digests) is printed
above the JSON line and written under ``--out``.

Usage, from the repository root::

    python3 perfbench/run.py --workload table6-lstm --seed 1 \\
        --seconds 20 --trace 0

See perfbench/README.md for the metrics and the workloads.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("table6-lstm", "fleet-keyswitch", "ckks-bootstrap")

#: Set-ups measured per run: this process plus fresh child processes.
SETUP_SAMPLES = 3
#: The program's kernel-backend override; unset so the default runs.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory for the report and Chrome trace")
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes (and the numpy backend for "
                        "ckks-bootstrap) for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up sample, as a child
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def make_workload(wmod, args):
    if args.workload == "table6-lstm":
        return wmod.Table6Lstm(args.seed, steps=2 if args.smoke else 50)
    if args.workload == "fleet-keyswitch":
        return wmod.FleetKeyswitch(args.seed, requests=60 if args.smoke else 1000)
    return wmod.CkksBootstrap(args.seed, backend="numpy" if args.smoke else None)


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop (machine speed)."""
    def once():
        t = time.perf_counter()
        x = 0
        for i in range(300_000):
            x = (x * 31 + i) % 1_000_003
        return time.perf_counter() - t
    return statistics.median(once() for _ in range(3))


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process running this workload."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Iterations:
    """Runs iterations, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.seconds: list[float] = []
        self.outcomes = []

    @property
    def digests(self) -> list[str]:
        return [o.digest for o in self.outcomes]

    def run(self, k: int):
        self.attempted += 1
        t = time.perf_counter()
        try:
            raw = self.workload.iteration(k)
        except Exception:  # a raised iteration is a failed run, not a crash
            self.failed += 1
            traceback.print_exc()
            return None
        self.seconds.append(time.perf_counter() - t)
        outcome = self.workload.summarize(raw)
        self.outcomes.append(outcome)
        return outcome

    def run_for(self, seconds: float, index=lambda k: k) -> None:
        """Iterate until ``seconds`` have passed (at least once)."""
        end = time.perf_counter() + seconds
        k = 0
        while True:
            self.run(index(k))
            k += 1
            if time.perf_counter() >= end:
                return


def timed_run(args, workload) -> tuple[dict, dict]:
    setups = [time.perf_counter() - _T0]
    setups += [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    calibration = calibrate()
    it = Iterations(workload)
    # Same inputs every iteration only where the workload has no seed
    # to draw streams from (table6-lstm); then every digest must match.
    it.run_for(args.seconds)
    correct = it.failed == 0
    deterministic = args.workload != "table6-lstm" or len(set(it.digests)) <= 1
    if not deterministic:
        print("error: identical inputs gave different schedules", file=sys.stderr)
        correct = False
    run_s = statistics.median(it.seconds) if it.seconds else None
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    detail = end_to_end_detail(args, workload, it, setups, calibration)
    return {"correct": correct, "attempted": it.attempted,
            "failed": it.failed, "metrics": metrics}, detail


def end_to_end_detail(args, workload, it, setups, calibration) -> dict:
    """Every end-to-end result by name, including the ones that do not
    apply to every workload or are simulated (deterministic)."""
    busy = sum(it.seconds)
    work = {}
    for outcome in it.outcomes:
        for key, value in outcome.work.items():
            work[key] = work.get(key, 0) + value
    # Iteration 0's inputs depend on the seed alone, so its results
    # repeat exactly for the same seed.
    simulated = it.outcomes[0].simulated if it.outcomes else {}
    d = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": {"setup": len(setups), "run": len(it.seconds)},
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(it.seconds) if it.seconds else None,
        "setup_samples_s": setups,
        "run_samples_s": it.seconds,
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": it.failed / it.attempted,
        "calibration_s": calibration,
        "digest": it.digests[0] if it.digests else "",
        **simulated,
    }
    if busy and "tasks" in work:
        d["tasks_per_s"] = work["tasks"] / busy
    if busy and "requests" in work:
        d["requests_per_s"] = work["requests"] / busy
    if args.workload == "ckks-bootstrap":
        d["bootstrap_s"] = d["run_s"]
        d["kernel_backend"] = workload.backend_name
    if args.workload == "table6-lstm":
        d["paper_ms"] = workload.PAPER_MS
    return d


def traced_run(args, workload) -> tuple[dict, dict]:
    """Untraced iterations, then one traced set-up and iteration."""
    from perfbench import layers

    # Same inputs (iteration 0's) untraced and traced, so the overhead
    # compares like with like and the digests must agree. One more
    # untraced iteration after the traced one brackets machine drift.
    it = Iterations(workload)
    it.run_for(args.seconds / 2, index=lambda k: 0)
    failure = {"correct": False, "attempted": it.attempted,
               "failed": it.failed, "metrics": {}}
    if it.failed:
        return failure, {}
    try:
        tracer, raw, counters = layers.trace_once(
            workload, lambda: workload.iteration(0)
        )
    except Exception:  # a raised iteration is a failed run, not a crash
        traceback.print_exc()
        failure.update(attempted=it.attempted + 1, failed=1)
        return failure, {}
    it.attempted += 1
    untraced = list(it.seconds)
    it.run(0)
    untraced += it.seconds[len(untraced):]
    outcome = workload.summarize(raw)
    it.outcomes.append(outcome)
    correct = it.failed == 0 and len(set(it.digests)) <= 1
    if len(set(it.digests)) > 1:
        print("error: tracing changed the simulated output", file=sys.stderr)
    untraced_s = statistics.median(untraced)
    iteration = tracer.summary(1)
    traced_s = iteration[layers.ITERATION_SPAN]["total_s"]
    degree = workload.params.degree if args.workload == "ckks-bootstrap" else 0
    values = layers.layer_metrics(
        iteration=iteration,
        setup=tracer.summary(0),
        counters=counters,
        outcome=outcome,
        degree=degree,
        overhead_frac=traced_s / untraced_s - 1.0,
    )
    metrics = {
        name: {"value": values[name], "unit": spec["unit"]}
        for name, spec in layers.PER_LAYER.items()
    }
    args.out.mkdir(parents=True, exist_ok=True)
    trace_path = args.out / f"trace-{args.workload}-seed{args.seed}.json"
    written = tracer.chrome_trace(trace_path, meta={
        "workload": args.workload, "seed": args.seed,
        "layer_self_s": layers.layer_self_times(iteration),
    })
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_s": untraced_s,
        "untraced_samples": len(untraced),
        "traced_s": traced_s,
        "modelled": outcome.modelled,
        "layer_self_s": layers.layer_self_times(iteration),
        "spans": iteration,
        "chrome_trace": str(trace_path),
        "chrome_trace_spans_written": written,
        "digest": it.digests[0] if it.digests else "",
    }
    return {"correct": correct, "attempted": it.attempted,
            "failed": it.failed, "metrics": metrics}, detail


def print_detail(detail: dict, trace: int) -> None:
    if trace:
        print(f"# {detail['workload']} seed {detail['seed']}: traced "
              f"{detail['traced_s']:.3f} s vs untraced "
              f"{detail['untraced_s']:.3f} s; self time by layer:")
        for layer, seconds in detail["layer_self_s"].items():
            share = seconds / detail["traced_s"] if detail["traced_s"] else 0.0
            print(f"#   {layer:<10} {seconds:10.4f} s  {share:6.1%}")
        if detail["workload"] == "table6-lstm":
            print(f"#   sim.hbm_util {detail['modelled']['sim.hbm_util']:.2%} "
                  "(paper 51.99%; compiler passes are not in the paper)")
        print(f"#   chrome trace: {detail['chrome_trace']}")
        return
    print(f"# {detail['workload']} seed {detail['seed']} "
          f"(set-up samples {detail['samples']['setup']}, "
          f"run samples {detail['samples']['run']})")
    rows = [
        ("setup_s", "s", "lower"), ("run_s", "s", "lower"),
        ("tasks_per_s", "1/s", "higher"), ("requests_per_s", "1/s", "higher"),
        ("bootstrap_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"),
        ("error_rate", "ratio", "lower"),
        ("sim_makespan_ms", "sim_ms", "lower"), ("sim_p99_ms", "sim_ms", "lower"),
        ("sim_completed_frac", "ratio", "higher"),
        ("ckks_max_err", "abs", "lower"),
    ]
    for name, unit, better in rows:
        value = detail.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        note = ""
        if name == "sim_makespan_ms" and "paper_ms" in detail:
            note = (f"  (paper {detail['paper_ms']} ms; compiler passes "
                    "are not in the paper)")
        print(f"#   {name:<19} {shown:>12} {unit:<6} {better}{note}")
    if "kernel_backend" in detail:
        print(f"#   kernel backend      {detail['kernel_backend']}")
    print(f"#   calibration_s       {detail['calibration_s']:.6g} s "
          "(fixed pure-Python loop, informational)")
    if detail["digest"]:
        print(f"#   digest              {detail['digest']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop(BACKEND_ENV_VAR, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import workloads as wmod
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2

    workload = make_workload(wmod, args)
    workload.setup()
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    if args.trace:
        result, detail = traced_run(args, workload)
    else:
        result, detail = timed_run(args, workload)
    if detail:
        print_detail(detail, args.trace)
        args.out.mkdir(parents=True, exist_ok=True)
        report = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(json.dumps({**result, "detail": detail}, indent=1,
                                     default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

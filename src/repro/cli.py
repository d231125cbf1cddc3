"""Command-line interface: regenerate any paper table or figure, and
drive the open-system serving simulator.

Usage::

    python -m repro.cli list
    python -m repro.cli table4
    python -m repro.cli fig10 --radix 2 3 4 5 6
    python -m repro.cli table6 --lanes 256
    python -m repro.cli fig11 --workload LR
    python -m repro.cli trace --benchmark resnet20 -o trace.json
    python -m repro.cli metrics --benchmark lr -o metrics.json
    python -m repro.cli serve --workload keyswitch --arrival-rate 300 \
        --requests 64 --seed 0 --validate

Each command is an argparse *subparser* carrying only the flags it
understands, so out-of-scope flags (``table9 --validate``,
``trace --radix 4``) error out instead of being silently ignored.
``--kernel-backend`` is accepted by every command and is applied as a
scoped override around dispatch — it never leaks into the process
after :func:`main` returns.

Each table/figure command prints the same rows the corresponding bench
target asserts on, so results can be inspected without running pytest.
"""

from __future__ import annotations

import argparse
import sys

from repro import kernels
from repro.analysis import (
    fig7_operator_analysis,
    fig8_benchmark_op_breakdown,
    fig9_operator_breakdown,
    fig10_k_sweep,
    fig11_lane_scaling,
    fig12_energy_breakdown,
    table1_operator_usage,
    table2_ntt_fusion,
    table4_basic_ops,
    table6_full_system,
    table7_bandwidth,
    table8_hfauto_resources,
    table9_hfauto_ablation,
    table10_edp,
    table11_core_resources,
    table12_fpga_comparison,
)
from repro.analysis.report import render_shares, render_table
from repro.serve.router import ROUTER_POLICIES
from repro.sim.config import HardwareConfig
from repro.sim.ntt_cores import DEFAULT_NTT_CORE, available_ntt_cores

#: Canonical workload spellings for fig11/design.
PAPER_WORKLOADS = ("LR", "LSTM", "ResNet-20", "Packed Bootstrapping")


def _config_from_args(args) -> HardwareConfig:
    config = HardwareConfig(use_hfauto=not args.naive_auto)
    if args.lanes != 512:
        config = config.with_lanes(args.lanes)
    ntt_core = getattr(args, "ntt_core", DEFAULT_NTT_CORE)
    if ntt_core != DEFAULT_NTT_CORE:
        config = config.with_ntt_core(ntt_core)
    return config


def _print_table(data: dict, title: str) -> None:
    print(render_table(data["columns"], data["rows"], title=title))


def cmd_table1(args) -> None:
    _print_table(table1_operator_usage(), "Table I — operator usage")


def cmd_table2(args) -> None:
    _print_table(table2_ntt_fusion(), "Table II — NTT-fusion counts")


def cmd_table4(args) -> None:
    _print_table(
        table4_basic_ops(_config_from_args(args)),
        "Table IV — basic-operation throughput (ops/s)",
    )


def cmd_table6(args) -> None:
    _print_table(
        table6_full_system(_config_from_args(args)),
        "Table VI — full-system benchmark times (ms)",
    )


def cmd_table7(args) -> None:
    data = table7_bandwidth(_config_from_args(args))
    print(render_table(
        ["name", "utilization_pct", "paper_pct"], data["operations"],
        title="Table VII — bandwidth utilization per operation",
    ))
    print()
    print(render_table(
        ["name", "utilization_pct", "paper_pct"], data["benchmarks"],
        title="per benchmark:",
    ))


def cmd_table8(args) -> None:
    _print_table(table8_hfauto_resources(), "Table VIII — Auto vs HFAuto")


def cmd_table9(args) -> None:
    _print_table(table9_hfauto_ablation(), "Table IX — HFAuto ablation (ms)")


def cmd_table10(args) -> None:
    _print_table(
        table10_edp(_config_from_args(args)),
        "Table X — energy-delay product (J*s)",
    )


def cmd_table11(args) -> None:
    _print_table(
        table11_core_resources(_config_from_args(args)),
        "Table XI — per-core resources",
    )


def cmd_table12(args) -> None:
    _print_table(
        table12_fpga_comparison(_config_from_args(args)),
        "Table XII — FPGA prototype comparison",
    )


def cmd_fig7(args) -> None:
    fig = fig7_operator_analysis(_config_from_args(args))
    print(render_shares(
        fig["series"], title="Fig. 7 — operator share per basic operation"
    ))


def cmd_fig8(args) -> None:
    fig = fig8_benchmark_op_breakdown(_config_from_args(args))
    print(render_shares(
        fig["series"], title="Fig. 8 — operation share per benchmark"
    ))
    for name, ms in fig["total_ms"].items():
        print(f"  total {name}: {ms:.1f} ms")


def cmd_fig9(args) -> None:
    fig = fig9_operator_breakdown(_config_from_args(args))
    print(render_shares(
        fig["series"], title="Fig. 9 — operator share per benchmark"
    ))


def cmd_fig10(args) -> None:
    fig = fig10_k_sweep(k_values=tuple(args.radix))
    print(render_table(
        ["k", "lut", "ff", "dsp", "bram", "ntt_us"], fig["rows"],
        title="Fig. 10 — NTT-fusion radix sweep",
    ))
    print(f"optimal k: {fig['best_k']}")


def cmd_fig11(args) -> None:
    fig = fig11_lane_scaling(benchmark=args.workload)
    print(render_table(
        ["lanes", "seconds", "edp", "bandwidth_utilization"], fig["rows"],
        title=f"Fig. 11 — lane scaling ({args.workload})",
    ))


def cmd_summary(args) -> None:
    from repro.analysis.summary import render_markdown

    print(render_markdown())


def cmd_design(args) -> None:
    from repro.compiler.program import compile_trace
    from repro.sim.designer import DesignExplorer
    from repro.workloads import PAPER_BENCHMARKS

    program = compile_trace(PAPER_BENCHMARKS[args.workload]())
    base = HardwareConfig()
    if args.ntt_core != DEFAULT_NTT_CORE:
        base = base.with_ntt_core(args.ntt_core)
    explorer = DesignExplorer(program, base_config=base)
    points = explorer.sweep()
    frontier = explorer.pareto(points)
    rows = [
        {
            "lanes": p.lanes,
            "k": p.radix_log2,
            "ms": p.seconds * 1e3,
            "energy_J": p.energy_joules,
            "lut": p.resources.lut,
            "dsp": p.resources.dsp,
            "fits": p.fits,
            "pareto": p in frontier,
        }
        for p in points
    ]
    print(render_table(
        ["lanes", "k", "ms", "energy_J", "lut", "dsp", "fits", "pareto"],
        rows,
        title=f"Design-space exploration — {args.workload} "
              f"[{args.ntt_core}] (U280 budget)",
    ))
    best = explorer.best(objective="seconds")
    print(f"best (time): {best.label}")


def _simulate_benchmark(args, *, validate: bool = False):
    """Shared setup for the observability commands.

    Returns ``(name, result, registry)`` — the canonical benchmark
    name, the simulation result, and the metrics registry that was
    active while it ran. The schedule is validated when ``validate``
    or ``--validate`` asks for it.
    """
    from repro.compiler.program import compile_trace
    from repro.errors import WorkloadError
    from repro.obs import collecting
    from repro.sim.engine import PoseidonSimulator
    from repro.workloads import PAPER_BENCHMARKS, resolve_benchmark

    try:
        name = resolve_benchmark(args.benchmark)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    simulator = PoseidonSimulator(_config_from_args(args))
    # Compile inside the collection scope so the compiler.* counters
    # (per-pass stats, lowering-cache hits/misses) land in the
    # snapshot alongside the sim.* ones.
    with collecting() as registry:
        try:
            program = compile_trace(
                PAPER_BENCHMARKS[name](), passes=args.passes
            )
        except WorkloadError as exc:
            raise SystemExit(f"error: {exc}") from None
        result = simulator.run(program)
    if validate or getattr(args, "validate", False):
        from repro.sim.validate import validate_schedule

        validate_schedule(
            result, program=program, config=simulator.config
        )
        print(f"schedule invariants OK ({name}, {len(program.tasks)} tasks)")
    return name, result, registry


def cmd_trace(args) -> None:
    """Export one benchmark run as Chrome-trace/Perfetto JSON."""
    from repro.obs import write_chrome_trace

    name, result, _ = _simulate_benchmark(args, validate=True)
    out = args.output or "trace.json"
    doc = write_chrome_trace(result, out, label=name)
    print(
        f"wrote {out}: {len(doc['traceEvents'])} events, "
        f"{result.total_seconds * 1e3:.2f} ms simulated ({name}); "
        "open at https://ui.perfetto.dev"
    )


def cmd_metrics(args) -> None:
    """Export one benchmark run's metrics snapshot as flat JSON."""
    from repro.obs import write_metrics_json

    name, result, registry = _simulate_benchmark(args)
    out = args.output or "metrics.json"
    doc = write_metrics_json(
        registry.snapshot(),
        out,
        meta={
            "benchmark": name,
            "lanes": args.lanes,
            "simulated_seconds": result.total_seconds,
            "bandwidth_utilization": result.bandwidth_utilization,
        },
    )
    print(f"wrote {out}: {len(doc['metrics'])} metrics ({name})")


def cmd_serve(args) -> None:
    """Run the open-system serving simulator and report load metrics."""
    import json

    from repro.errors import ParameterError, WorkloadError
    from repro.obs import (
        collecting,
        write_cluster_trace,
        write_metrics_json,
    )
    from repro.serve import (
        AutoscalerPolicy,
        BatchPolicy,
        ClusterPolicy,
        ClusterSimulator,
        FaultPlan,
        HBMDegradation,
        InstanceCrash,
        PoissonArrivals,
        ResiliencePolicy,
        RetryPolicy,
        Straggler,
        TenantPopulation,
        TraceArrivals,
    )

    def _split(spec: str, flag: str, want: tuple[int, ...]) -> list[str]:
        parts = spec.split(":")
        if len(parts) not in want:
            raise SystemExit(
                f"error: {flag} expects "
                f"{' or '.join(str(w) for w in want)} colon-separated "
                f"fields, got {spec!r}"
            )
        return parts

    resilient = (
        args.deadline is not None
        or args.retry_max is not None
        or args.detect_delay > 0
    )
    try:
        events = []
        for spec in args.crash or ():
            parts = _split(spec, "--crash", (2, 3))
            events.append(InstanceCrash(
                instance=int(parts[0]),
                at_seconds=float(parts[1]),
                restart_after=(
                    float(parts[2]) if len(parts) == 3 else None
                ),
            ))
        for spec in args.straggler or ():
            parts = _split(spec, "--straggler", (4,))
            events.append(Straggler(
                instance=int(parts[0]),
                start_seconds=float(parts[1]),
                duration_seconds=float(parts[2]),
                slowdown=float(parts[3]),
            ))
        for spec in args.hbm_derate or ():
            parts = _split(spec, "--hbm-derate", (4,))
            events.append(HBMDegradation(
                instance=int(parts[0]),
                start_seconds=float(parts[1]),
                duration_seconds=float(parts[2]),
                factor=float(parts[3]),
            ))
        plan = FaultPlan(tuple(events)) if events else None
        resilience = None
        if resilient:
            retry = None
            if args.retry_max is not None:
                retry = RetryPolicy(
                    max_attempts=args.retry_max,
                    backoff_seconds=args.retry_backoff,
                    jitter=args.retry_jitter,
                )
            resilience = ResiliencePolicy(
                deadline_seconds=args.deadline,
                retry=retry,
                detection_seconds=args.detect_delay,
            )
        policy = BatchPolicy(
            max_batch_size=args.max_batch,
            max_queue_delay=args.max_queue_delay,
            order=args.policy,
            max_queue_depth=args.max_queue_depth,
            max_inflight_batches=args.max_inflight,
        )
        autoscaler = None
        if args.autoscale_max is not None:
            autoscaler = AutoscalerPolicy(max_instances=args.autoscale_max)
        cluster_policy = ClusterPolicy(
            instances=args.instances,
            router=args.router,
            key_cache_capacity=args.key_cache,
            key_upload_bytes=args.key_bytes,
            max_tenant_share=args.max_tenant_share,
            autoscaler=autoscaler,
        )
        population = TenantPopulation(
            tenants=args.tenants,
            key_sets=args.key_sets,
            skew=args.key_skew,
        )
    except ParameterError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.arrival_trace is not None:
        with open(args.arrival_trace, encoding="utf-8") as fh:
            stamps = json.load(fh)
        arrivals = TraceArrivals(stamps)
        arrival_desc = f"trace({len(stamps)} arrivals)"
    else:
        arrivals = PoissonArrivals(
            rate=args.arrival_rate, count=args.requests, seed=args.seed
        )
        arrival_desc = (
            f"Poisson rate={args.arrival_rate}/s n={args.requests} "
            f"seed={args.seed}"
        )
    config = _config_from_args(args)
    with collecting() as registry:
        try:
            result = ClusterSimulator(config, cluster_policy, policy).run(
                args.workload, arrivals,
                seed=args.seed, population=population,
                passes=args.passes,
                faults=plan, resilience=resilience,
            )
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from None
        except WorkloadError as exc:
            raise SystemExit(f"error: {exc}") from None
    if args.validate:
        result.validate()
        print(
            "schedule invariants OK per instance "
            f"({len({r.index for r in result.instances})} instances, "
            f"{result.admitted} requests)"
        )

    s = result.summary()
    print(f"--- serving: {args.workload} | {arrival_desc} ---")
    print(
        f"policy: batch<={policy.max_batch_size} "
        f"delay={policy.max_queue_delay} order={policy.order} "
        f"depth_bound={policy.max_queue_depth} "
        f"inflight<={policy.max_inflight_batches}"
    )
    print(
        f"fleet: {s['instances']} instances router={s['router']} "
        f"key_cache={cluster_policy.key_cache_capacity} "
        f"tenants={population.tenants} "
        f"key_sets={population.key_sets} skew={population.skew}"
    )
    print(
        f"keys: {s['key_hits']} hits / {s['key_misses']} misses "
        f"(rate {s['key_hit_rate']:.2f}), "
        f"{s['key_upload_bytes'] / 1e9:.2f} GB uploaded, "
        f"{s['scale_events']} scale events"
    )
    if plan is not None or resilience is not None:
        print(
            f"faults: {s['crashes']} crashes, {s['restarts']} "
            f"restarts, {s['lost_events']} lost submissions, "
            f"{s['retries']} retries"
        )
        print(
            f"outcomes: {s['requests_completed']} completed, "
            f"{s['requests_rejected']} rejected, "
            f"{s['requests_abandoned']} abandoned, "
            f"{s['requests_exhausted']} exhausted; "
            f"goodput {s['goodput_rps']:.2f} req/s, "
            f"SLO violations {s['slo_violation_rate']:.3f}"
        )
    print(
        f"requests: {s['requests_arrived']} arrived, "
        f"{s['requests_admitted']} admitted, "
        f"{s['requests_rejected']} rejected, "
        f"{s['requests_completed']} completed "
        f"in {s['batches']} batches"
    )
    print(
        f"throughput: {s['throughput_rps']:.2f} req/s over "
        f"{s['makespan_seconds'] * 1e3:.2f} ms simulated"
    )
    print(
        "latency: "
        f"p50 {s['latency_p50_seconds'] * 1e3:.3f} ms, "
        f"p95 {s['latency_p95_seconds'] * 1e3:.3f} ms, "
        f"p99 {s['latency_p99_seconds'] * 1e3:.3f} ms "
        f"(mean {s['latency_mean_seconds'] * 1e3:.3f} ms)"
    )
    print(f"max queue depth: {s['max_queue_depth']}")

    if args.output is not None:
        doc = write_metrics_json(
            registry.snapshot(),
            args.output,
            meta={
                "workload": args.workload,
                "arrivals": arrival_desc,
                "seed": args.seed,
                "lanes": args.lanes,
                "passes": args.passes or "none",
                "policy": {
                    "max_batch_size": policy.max_batch_size,
                    "max_queue_delay": policy.max_queue_delay,
                    "order": policy.order,
                    "max_queue_depth": policy.max_queue_depth,
                    "max_inflight_batches": policy.max_inflight_batches,
                },
                **s,
            },
        )
        print(f"wrote {args.output}: {len(doc['metrics'])} metrics")
    if args.trace_output is not None:
        doc = write_cluster_trace(
            result, args.trace_output, label=args.workload
        )
        print(
            f"wrote {args.trace_output}: {len(doc['traceEvents'])} "
            "events; open at https://ui.perfetto.dev"
        )


def cmd_fig12(args) -> None:
    fig = fig12_energy_breakdown(_config_from_args(args))
    print("Fig. 12 — energy consumption and breakdown")
    for row in fig["rows"]:
        print(f"\n{row['benchmark']}: {row['total_joules']:.2f} J")
        for key, share in sorted(
            row["shares"].items(), key=lambda kv: -kv[1]
        ):
            print(f"    {key:14s} {100 * share:5.1f}%")


def cmd_list(args) -> None:
    print("available targets:")
    for name in sorted(COMMANDS):
        print(f"  {name}")


#: Command name -> (handler, which option groups it takes).
#: Groups: "hw" = --lanes/--naive-auto; "obs" = --benchmark/--validate/-o;
#: everything takes --kernel-backend.
COMMANDS = {
    "table1": (cmd_table1, ()),
    "table2": (cmd_table2, ()),
    "table4": (cmd_table4, ("hw",)),
    "table6": (cmd_table6, ("hw",)),
    "table7": (cmd_table7, ("hw",)),
    "table8": (cmd_table8, ()),
    "table9": (cmd_table9, ()),
    "table10": (cmd_table10, ("hw",)),
    "table11": (cmd_table11, ("hw",)),
    "table12": (cmd_table12, ("hw",)),
    "fig7": (cmd_fig7, ("hw",)),
    "fig8": (cmd_fig8, ("hw",)),
    "fig9": (cmd_fig9, ("hw",)),
    "fig10": (cmd_fig10, ("radix",)),
    "fig11": (cmd_fig11, ("workload",)),
    "fig12": (cmd_fig12, ("hw",)),
    "summary": (cmd_summary, ()),
    "design": (cmd_design, ("workload", "nttcore")),
    "trace": (cmd_trace, ("hw", "obs")),
    "metrics": (cmd_metrics, ("hw", "obs")),
    "serve": (cmd_serve, ("hw", "serve")),
    "list": (cmd_list, ()),
}


def _add_hw_options(sub) -> None:
    sub.add_argument(
        "--lanes", type=int, default=512,
        help="vector lanes (default 512)",
    )
    sub.add_argument(
        "--naive-auto", action="store_true",
        help="use the naive Auto core instead of HFAuto",
    )
    sub.add_argument(
        "--ntt-core", default=DEFAULT_NTT_CORE,
        choices=available_ntt_cores(),
        help="NTT core microarchitecture variant "
             f"(default '{DEFAULT_NTT_CORE}'; see docs/CORES.md)",
    )


def _add_obs_options(sub) -> None:
    sub.add_argument(
        "--benchmark", default="resnet20",
        help="benchmark to simulate (accepts aliases: resnet20, "
             "lr, lstm, bootstrapping)",
    )
    sub.add_argument(
        "--validate", action="store_true",
        help="check schedule invariants (no overlap per core instance, "
             "HBM channel budget, dependency order, time conservation) "
             "on the simulated run before exporting (trace always does)",
    )
    sub.add_argument(
        "--passes", default=None,
        help="compiler pass pipeline for the benchmark program: 'none' "
             "(default, legacy barriers), 'default' (full pipeline), "
             "or a comma-separated pass list (see docs/COMPILER.md)",
    )
    sub.add_argument(
        "-o", "--output", default=None,
        help="output path for trace/metrics JSON "
             "(default trace.json / metrics.json)",
    )


def _add_serve_options(sub) -> None:
    sub.add_argument(
        "--workload", default="keyswitch",
        help="request job mix: keyswitch, streaming, a comma-separated "
             "combination, or any paper-benchmark alias (resnet20, lr, "
             "lstm, bootstrapping)",
    )
    sub.add_argument(
        "--arrival-rate", type=float, default=100.0,
        help="Poisson arrival rate in requests per simulated second "
             "(default 100)",
    )
    sub.add_argument(
        "--requests", type=int, default=16,
        help="number of requests to generate (default 16; raise it for "
             "tighter percentiles on the light mixes)",
    )
    sub.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for arrivals and job-type choice; equal seeds "
             "give bit-identical metrics (default 0)",
    )
    sub.add_argument(
        "--arrival-trace", default=None,
        help="replay arrivals from a JSON file holding a list of "
             "timestamps in seconds (overrides --arrival-rate/--requests)",
    )
    sub.add_argument(
        "--max-batch", type=int, default=8,
        help="dynamic batcher: max requests admitted per batch "
             "(default 8)",
    )
    sub.add_argument(
        "--max-queue-delay", type=float, default=None,
        help="force a partial batch out once the oldest queued request "
             "has waited this many simulated seconds (default: no timer)",
    )
    sub.add_argument(
        "--policy", choices=("fifo", "sjf"), default="fifo",
        help="queue order: fifo (arrival) or sjf (shortest job first)",
    )
    sub.add_argument(
        "--max-queue-depth", type=int, default=None,
        help="admission control: reject arrivals beyond this queue "
             "depth (default: unbounded)",
    )
    sub.add_argument(
        "--max-inflight", type=int, default=1,
        help="batches allowed in flight concurrently (default 1)",
    )
    sub.add_argument(
        "--instances", type=int, default=1,
        help="accelerator instances active from t=0 behind the router "
             "(default 1)",
    )
    sub.add_argument(
        "--router", default="key-affinity",
        choices=sorted(ROUTER_POLICIES),
        help="fleet dispatch policy (default key-affinity)",
    )
    sub.add_argument(
        "--key-cache", type=int, default=4, metavar="SETS",
        help="rotation/relin key sets resident per instance (LRU); "
             "0 disables caching, every request then uploads "
             "(default 4)",
    )
    sub.add_argument(
        "--key-bytes", type=int, default=None,
        help="modeled key-set upload size in bytes (default: the "
             "mix-shape switch-key size, ~569 MB)",
    )
    sub.add_argument(
        "--tenants", type=int, default=1,
        help="tenant population size for request labeling (default 1)",
    )
    sub.add_argument(
        "--key-sets", type=int, default=1,
        help="distinct rotation/relin key sets across the population "
             "(default 1)",
    )
    sub.add_argument(
        "--key-skew", type=float, default=0.0,
        help="Zipf-like popularity skew of tenant/key-set draws; 0 is "
             "uniform (default 0)",
    )
    sub.add_argument(
        "--max-tenant-share", type=float, default=None,
        help="fair admission: max fraction of an instance's queue one "
             "tenant may hold (default: no cap)",
    )
    sub.add_argument(
        "--autoscale-max", type=int, default=None,
        help="enable autoscaling up to this many instances against "
             "the queue-depth knee (default: fixed fleet)",
    )
    sub.add_argument(
        "--passes", default=None,
        help="compiler pass pipeline for the request programs: 'none' "
             "(default), 'default' (full pipeline), or a "
             "comma-separated pass list (see docs/COMPILER.md)",
    )
    sub.add_argument(
        "--crash", action="append", default=None, metavar="I:AT[:REST]",
        help="inject an instance crash: instance index, crash time in "
             "simulated seconds, and an optional restart delay "
             "(e.g. 0:0.02:0.01); repeatable, forces fleet mode",
    )
    sub.add_argument(
        "--straggler", action="append", default=None,
        metavar="I:START:DUR:SLOW",
        help="inject a straggler window: instance, start, duration, "
             "compute slowdown factor >= 1 (e.g. 1:0.01:0.05:2.0); "
             "repeatable, forces fleet mode",
    )
    sub.add_argument(
        "--hbm-derate", action="append", default=None,
        metavar="I:START:DUR:FACTOR",
        help="inject an HBM-degradation window: instance, start, "
             "duration, bandwidth factor in (0,1] "
             "(e.g. 0:0.0:0.03:0.5); repeatable, forces fleet mode",
    )
    sub.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline in simulated seconds from arrival; "
             "queued requests past it are abandoned, completions past "
             "it count as SLO violations (forces fleet mode)",
    )
    sub.add_argument(
        "--retry-max", type=int, default=None,
        help="client retry budget: total attempts per request after "
             "losses to crashes (default: no retries)",
    )
    sub.add_argument(
        "--retry-backoff", type=float, default=0.0005,
        help="base retry backoff in simulated seconds, doubled per "
             "attempt (default 0.0005)",
    )
    sub.add_argument(
        "--retry-jitter", type=float, default=0.0,
        help="seeded-deterministic jitter fraction added to each retry "
             "delay, in [0,1] (default 0)",
    )
    sub.add_argument(
        "--detect-delay", type=float, default=0.0,
        help="failure-detection delay: the router keeps dispatching to "
             "a crashed instance's last-known view for this many "
             "seconds (default 0: instant detection)",
    )
    sub.add_argument(
        "--validate", action="store_true",
        help="check each instance's served schedule against every "
             "engine invariant before reporting",
    )
    sub.add_argument(
        "-o", "--output", default=None,
        help="write the serving metrics snapshot as JSON "
             "(bit-identical across runs with the same seed)",
    )
    sub.add_argument(
        "--trace", dest="trace_output", default=None,
        help="write a Chrome trace with per-instance core, HBM and "
             "request tracks plus the fleet queue depth to this path",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate Poseidon (HPCA 2023) tables and figures, "
                    "or serve an open-system request stream.",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="command",
        help="which table/figure to regenerate (see 'list'), or 'serve'",
    )
    for name, (handler, groups) in sorted(COMMANDS.items()):
        sub = subparsers.add_parser(
            name, help=(handler.__doc__ or "").split("\n")[0] or None
        )
        sub.set_defaults(func=handler)
        sub.add_argument(
            "--kernel-backend", default=None,
            choices=kernels.available_backends(),
            help="functional-plane kernel backend for this invocation "
                 f"(default: ${kernels.BACKEND_ENV_VAR} or "
                 f"'{kernels.DEFAULT_BACKEND}'); restored afterwards",
        )
        if "hw" in groups:
            _add_hw_options(sub)
        if "obs" in groups:
            _add_obs_options(sub)
        if "serve" in groups:
            _add_serve_options(sub)
        if "radix" in groups:
            sub.add_argument(
                "--radix", type=int, nargs="+", default=[2, 3, 4, 5, 6],
                help="fusion radices to sweep",
            )
        if "workload" in groups:
            sub.add_argument(
                "--workload", default="ResNet-20",
                choices=PAPER_WORKLOADS,
                help="paper workload",
            )
        if "nttcore" in groups:
            sub.add_argument(
                "--ntt-core", default=DEFAULT_NTT_CORE,
                choices=available_ntt_cores(),
                help="NTT core microarchitecture to sweep with "
                     f"(default '{DEFAULT_NTT_CORE}'; see docs/CORES.md)",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Scoped override: the chosen backend applies to this dispatch only
    # and the previous process-wide selection is restored afterwards
    # (in-process callers — tests, notebooks — see no leaked state).
    with kernels.use_backend(args.kernel_backend):
        args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

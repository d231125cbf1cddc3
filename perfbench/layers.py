"""Which calls belong to which layer, and the per-layer metrics.

:func:`install` wraps each layer's public entry points with a
:class:`~perfbench.tracing.Tracer`; a span's name starts with its
layer (``compiler.pass.dce`` belongs to ``compiler``). Each layer's
self time is the time spent in its spans minus the time spent in the
spans they call, so the layers' self times add up to the traced
iteration (``harness`` is the benchmark's own code around the calls).

:data:`PER_LAYER` declares every per-layer metric with its unit, its
direction and the end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import math

from repro import obs
import repro.compiler.passes as passes_mod
import repro.compiler.program as program_mod
import repro.sim.validate as validate_mod
import repro.workloads as wl
from repro import kernels
from repro.ckks import CkksDecryptor, CkksEncoder, CkksEncryptor, KeyChain
from repro.ckks.bootstrap import Bootstrapper
from repro.compiler.passes import PASS_REGISTRY, ProgramDraft
from repro.serve import router as router_mod
from repro.serve.batcher import DynamicBatcher
from repro.serve.cluster import ClusterResult, ClusterSimulator
from repro.serve.estimate import ServiceEstimator
from repro.sim.config import CORE_ARRAYS
from repro.sim.engine import PoseidonSimulator, ScheduleEngine

from perfbench.tracing import Tracer

LAYERS = ("workloads", "compiler", "sim", "serve", "kernels", "ckks", "harness")

#: Span name of the benchmark's own root span per traced iteration.
ITERATION_SPAN = "harness.iteration"
SETUP_SPAN = "harness.setup"

ELEMENTWISE_KERNELS = (
    "mod_add", "mod_sub", "mod_neg", "mod_mul", "mod_scalar_mul",
    "barrett_reduce",
)


def install(tracer) -> None:
    """Wrap every layer's entry points (undo with ``tracer.uninstall``)."""
    tracer.install(wl, "lstm_trace", "workloads.build")

    tracer.install(program_mod, "compile_trace", "compiler.compile")
    tracer.install(ProgramDraft, "from_ops", "compiler.lower")
    tracer.install(passes_mod, "apply_pipeline", "compiler.passes")
    for name in list(PASS_REGISTRY):
        tracer.install_item(PASS_REGISTRY, name, f"compiler.pass.{name}")
    tracer.install(ProgramDraft, "assemble", "compiler.assemble")

    tracer.install(PoseidonSimulator, "run", "sim.run")
    tracer.install(ScheduleEngine, "submit", "sim.submit")
    tracer.install(ScheduleEngine, "advance_until", "sim.event_loop")
    tracer.install(ScheduleEngine, "drain", "sim.event_loop")
    tracer.install(ScheduleEngine, "result", "sim.result")
    tracer.install(validate_mod, "validate_schedule", "sim.validate")

    tracer.install(ClusterSimulator, "run", "serve.run")
    for cls in (router_mod.RoundRobinRouter, router_mod.LeastQueueRouter,
                router_mod.ShortestExpectedJobRouter,
                router_mod.KeyAffinityRouter):
        tracer.install(cls, "route", "serve.route")
    for method in ("offer", "should_launch", "take_batch", "expired"):
        tracer.install(DynamicBatcher, method, "serve.batch")
    tracer.install(ServiceEstimator, "estimate", "serve.estimate")
    tracer.install(ClusterResult, "validate", "serve.validate")

    for name in kernels.available_backends():
        backend = type(kernels.resolve(name))
        tracer.install(backend, "ntt", "kernels.ntt")
        tracer.install(backend, "intt", "kernels.intt")
        for method in ELEMENTWISE_KERNELS:
            tracer.install(backend, method, "kernels.elementwise")
        tracer.install(backend, "lift", "kernels.lift")
        tracer.install(backend, "basis_convert", "kernels.basis_convert")

    tracer.install(KeyChain, "generate", "ckks.keygen")
    tracer.install(KeyChain, "galois_key", "ckks.keygen")
    tracer.install(CkksEncryptor, "encrypt", "ckks.encrypt")
    tracer.install(CkksDecryptor, "decrypt", "ckks.decrypt")
    tracer.install(CkksEncoder, "encode", "ckks.codec")
    tracer.install(CkksEncoder, "decode", "ckks.codec")
    tracer.install(Bootstrapper, "bootstrap", "ckks.bootstrap")
    for stage in ("mod_raise", "coeff_to_slot", "eval_mod", "slot_to_coeff"):
        tracer.install(Bootstrapper, stage, f"ckks.bootstrap.{stage}")


def trace_once(workload, iterate):
    """One traced set-up of ``workload`` (run id 0) and one traced call
    of ``iterate`` (run id 1), with ``repro.obs`` counters collected
    for the iteration only.

    Returns ``(tracer, iterate's result, counter snapshot)``.
    """
    tracer = Tracer()
    install(tracer)
    try:
        with obs.collecting():
            tracer.run_id = 0
            with tracer.span(SETUP_SPAN):
                workload.setup()
        with obs.collecting() as registry:
            tracer.run_id = 1
            with tracer.span(ITERATION_SPAN):
                result = iterate()
    finally:
        tracer.uninstall()
    return tracer, result, registry.snapshot()


# ----------------------------------------------------------------------
# Per-layer metric declarations
# ----------------------------------------------------------------------
LSTM, FLEET, CKKS = "table6-lstm", "fleet-keyswitch", "ckks-bootstrap"
ALL = (LSTM, FLEET, CKKS)


def _m(unit, better, moves):
    return {"unit": unit, "better": better, "moves": moves}


def _run_s(*workloads):
    return tuple(("run_s", w) for w in workloads)


_SIM_TIME = (("sim_makespan_ms", LSTM), ("sim_p99_ms", FLEET))

#: name -> unit, direction, and the (end-to-end metric, workload) pairs
#: it should move. Metrics named in ``moves`` are the declared
#: end-to-end metrics or the simulated results every run prints.
PER_LAYER: dict[str, dict] = {
    "workloads.build_s": _m("s", "lower", _run_s(LSTM)),
    "compiler.lower_s": _m("s", "lower", _run_s(LSTM)),
    "compiler.lower_us_per_op": _m("us", "lower", _run_s(LSTM)),
    "compiler.lowering_cache.hit_ratio": _m("ratio", "higher", _run_s(LSTM)),
    "compiler.passes_s": _m("s", "lower", _run_s(LSTM)),
    **{
        f"compiler.pass.{name}_s": _m("s", "lower", _run_s(LSTM))
        for name in PASS_REGISTRY
    },
    "compiler.assemble_s": _m("s", "lower", _run_s(LSTM)),
    # One LSTM submit: submit work moves the fleet, not LSTM.
    "sim.submit_s": _m("s", "lower", _run_s(FLEET)),
    "sim.submit_us_per_task": _m("us", "lower", _run_s(FLEET)),
    "sim.event_loop_s": _m("s", "lower", _run_s(LSTM, FLEET)),
    "sim.result_s": _m("s", "lower", _run_s(LSTM, FLEET)),
    "sim.validate_s": _m("s", "lower", _run_s(LSTM, FLEET)),
    "sim.validate_us_per_task": _m("us", "lower", _run_s(LSTM, FLEET)),
    "sim.tasks": _m("count", "lower", _run_s(LSTM, FLEET)),
    **{
        f"sim.core_busy_ms.{core}": _m("sim_ms", "lower", _SIM_TIME)
        for core in CORE_ARRAYS
    },
    "sim.hbm_util": _m("ratio", "higher", _SIM_TIME),
    "sim.stall_ms": _m("sim_ms", "lower", _SIM_TIME),
    "sim.core_wait_ms": _m("sim_ms", "lower", _SIM_TIME),
    "sim.hbm_wait_ms": _m("sim_ms", "lower", _SIM_TIME),
    "serve.run_self_s": _m("s", "lower", _run_s(FLEET)),
    "serve.route_s": _m("s", "lower", _run_s(FLEET)),
    "serve.batch_s": _m("s", "lower", _run_s(FLEET)),
    "serve.estimate_s": _m("s", "lower", _run_s(FLEET)),
    "serve.validate_s": _m("s", "lower", _run_s(FLEET)),
    "serve.us_per_request": _m("us", "lower", _run_s(FLEET)),
    "serve.key_hit_rate": _m(
        "ratio", "higher",
        (("sim_p99_ms", FLEET), ("sim_completed_frac", FLEET)),
    ),
    "serve.queue_wait_p99_ms": _m("sim_ms", "lower", (("sim_p99_ms", FLEET),)),
    "serve.rejected": _m("count", "lower", (("sim_completed_frac", FLEET),)),
    "serve.upload_gb": _m("GB", "lower", (("sim_p99_ms", FLEET),)),
    "kernels.ntt_s": _m("s", "lower", _run_s(CKKS)),
    "kernels.ntt_calls": _m("count", "lower", _run_s(CKKS)),
    "kernels.ntt_us_per_call": _m("us", "lower", _run_s(CKKS)),
    "kernels.intt_s": _m("s", "lower", _run_s(CKKS)),
    "kernels.intt_calls": _m("count", "lower", _run_s(CKKS)),
    "kernels.elementwise_s": _m("s", "lower", _run_s(CKKS)),
    "kernels.lift_s": _m("s", "lower", _run_s(CKKS)),
    "kernels.basis_convert_s": _m("s", "lower", _run_s(CKKS)),
    "kernels.ntt_elements": _m("count", "lower", _run_s(CKKS)),
    "kernels.ntt_butterflies": _m("count", "lower", _run_s(CKKS)),
    "ckks.keygen_s": _m("s", "lower", (("setup_s", CKKS),)),
    **{
        f"ckks.bootstrap.{stage}_s": _m("s", "lower", _run_s(CKKS))
        for stage in ("mod_raise", "coeff_to_slot", "eval_mod", "slot_to_coeff")
    },
    "ckks.keyswitch_calls": _m("count", "lower", _run_s(CKKS)),
    # Tracing is off in timed runs: this moves no end-to-end metric,
    # it says how far the traced split can be trusted.
    "obs.trace_overhead_frac": _m("ratio", "lower", ()),
    "workloads.self_s": _m("s", "lower", _run_s(LSTM)),
    "compiler.self_s": _m("s", "lower", _run_s(LSTM)),
    "sim.self_s": _m("s", "lower", _run_s(LSTM, FLEET)),
    "serve.self_s": _m("s", "lower", _run_s(FLEET)),
    "kernels.self_s": _m("s", "lower", _run_s(CKKS)),
    "ckks.self_s": _m("s", "lower", _run_s(CKKS)),
    "harness.self_s": _m("s", "lower", _run_s(*ALL)),
}


def layer_self_times(summary: dict[str, dict]) -> dict[str, float]:
    """Self seconds per layer from a span summary."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        out[name.split(".", 1)[0]] += entry["self_s"]
    return out


def layer_metrics(
    *,
    iteration: dict[str, dict],
    setup: dict[str, dict],
    counters: dict,
    outcome,
    degree: int,
    overhead_frac: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced iteration.

    ``iteration``/``setup`` are span summaries of the traced iteration
    and of the traced set-up before it; ``counters`` is the traced
    iteration's ``repro.obs`` snapshot and ``outcome`` its
    :class:`~perfbench.workloads.Outcome`, whose simulated statistics
    replace the zeros below on the workloads that simulate.
    """
    def total(name, spans=iteration):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return iteration.get(name, {}).get("calls", 0)

    def per(numerator, denominator, scale=1e6):
        return numerator * scale / denominator if denominator else 0.0

    def count(name):
        return counters.get(name, 0)

    tasks = outcome.work.get("tasks", 0)
    ops = outcome.work.get("ops", 0)
    requests = outcome.work.get("requests", 0)
    hits = count("compiler.lowering_cache.hits")
    lookups = hits + count("compiler.lowering_cache.misses")
    ntt_elements = sum(
        count(f"kernels.{name}.{op}.elements")
        for name in kernels.available_backends() for op in ("ntt", "intt")
    )
    selfs = layer_self_times(iteration)
    serve_self = iteration.get("serve.run", {}).get("self_s", 0.0)

    m = {
        "workloads.build_s": total("workloads.build"),
        "compiler.lower_s": total("compiler.lower"),
        "compiler.lower_us_per_op": per(total("compiler.lower"), ops),
        "compiler.lowering_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "compiler.passes_s": total("compiler.passes"),
        **{
            f"compiler.pass.{name}_s": total(f"compiler.pass.{name}")
            for name in PASS_REGISTRY
        },
        "compiler.assemble_s": total("compiler.assemble"),
        "sim.submit_s": total("sim.submit"),
        "sim.submit_us_per_task": per(total("sim.submit"), tasks),
        "sim.event_loop_s": total("sim.event_loop"),
        "sim.result_s": total("sim.result"),
        "sim.validate_s": total("sim.validate"),
        "sim.validate_us_per_task": per(total("sim.validate"), tasks),
        "sim.tasks": tasks,
        **{f"sim.core_busy_ms.{c}": 0.0 for c in CORE_ARRAYS},
        "sim.hbm_util": 0.0,
        "sim.stall_ms": 0.0,
        "sim.core_wait_ms": 0.0,
        "sim.hbm_wait_ms": 0.0,
        "serve.run_self_s": serve_self,
        "serve.route_s": total("serve.route"),
        "serve.batch_s": total("serve.batch"),
        "serve.estimate_s": total("serve.estimate"),
        "serve.validate_s": total("serve.validate"),
        "serve.us_per_request": per(serve_self, requests),
        "serve.key_hit_rate": 0.0,
        "serve.queue_wait_p99_ms": 0.0,
        "serve.rejected": 0,
        "serve.upload_gb": 0.0,
        "kernels.ntt_s": total("kernels.ntt"),
        "kernels.ntt_calls": calls("kernels.ntt"),
        "kernels.ntt_us_per_call": per(total("kernels.ntt"), calls("kernels.ntt")),
        "kernels.intt_s": total("kernels.intt"),
        "kernels.intt_calls": calls("kernels.intt"),
        "kernels.elementwise_s": total("kernels.elementwise"),
        "kernels.lift_s": total("kernels.lift"),
        "kernels.basis_convert_s": total("kernels.basis_convert"),
        "kernels.ntt_elements": ntt_elements,
        # Computed, not counted: a radix-2 transform of N points does
        # N/2 butterflies per stage over log2 N stages.
        "kernels.ntt_butterflies": (
            ntt_elements // 2 * int(math.log2(degree)) if degree else 0
        ),
        "ckks.keygen_s": total("ckks.keygen", setup),
        **{
            f"ckks.bootstrap.{stage}_s": total(f"ckks.bootstrap.{stage}")
            for stage in ("mod_raise", "coeff_to_slot", "eval_mod", "slot_to_coeff")
        },
        "ckks.keyswitch_calls": count("ckks.keyswitch.calls"),
        "obs.trace_overhead_frac": overhead_frac,
        **{f"{layer}.self_s": seconds for layer, seconds in selfs.items()},
    }
    m.update(outcome.modelled)
    return m

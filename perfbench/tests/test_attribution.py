"""Layer attribution from outside the program.

A fixed delay injected into one public function of one layer must
raise that layer's traced self time by about the delay, and no other
layer's. This is the "a deliberate slowdown in any one layer is
caught" gate, run on reduced-size workloads.
"""

import time

import pytest

import repro.workloads as wl
from repro.ckks.bootstrap import Bootstrapper
from repro.compiler.passes import ProgramDraft
from repro.kernels import NumpyBackend
from repro.serve.router import KeyAffinityRouter
from repro.sim.engine import ScheduleEngine

from perfbench import layers
from perfbench import workloads as wmod
from perfbench.tracing import Tracer


def smoke_workload(name):
    if name == "table6-lstm":
        return wmod.Table6Lstm(0, steps=2)
    if name == "fleet-keyswitch":
        return wmod.FleetKeyswitch(0, requests=60)
    return wmod.CkksBootstrap(0, backend="numpy")


def traced_iteration(workload):
    """Span summary of one traced iteration (after a traced set-up)."""
    tracer, _, _ = layers.trace_once(workload, lambda: workload.iteration(0))
    return tracer.summary(1)


def self_times(workload):
    return layers.layer_self_times(traced_iteration(workload))


def busy_wait(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


# (workload, owner, attribute, its span, delay per call in seconds).
# The delays add up to at least three times the self time of the
# layers involved, so host-time noise cannot hide them.
CASES = [
    ("table6-lstm", wl, "lstm_trace", "workloads.build", 0.3),
    ("table6-lstm", ProgramDraft, "from_ops", "compiler.lower", 0.3),
    ("fleet-keyswitch", ScheduleEngine, "submit", "sim.submit", 0.01),
    ("fleet-keyswitch", KeyAffinityRouter, "route", "serve.route", 0.01),
    ("ckks-bootstrap", NumpyBackend, "ntt", "kernels.ntt", 0.001),
    ("ckks-bootstrap", Bootstrapper, "eval_mod", "ckks.bootstrap.eval_mod", 0.6),
]


@pytest.mark.parametrize(
    "workload_name, owner, attr, span, delay", CASES,
    ids=[case[3].split(".")[0] for case in CASES],
)
def test_injected_delay_lands_in_its_layer(
    workload_name, owner, attr, span, delay, monkeypatch
):
    layer = span.split(".")[0]
    workload = smoke_workload(workload_name)
    workload.setup()
    self_times(workload)  # warm caches the first traced run would fill
    baseline = [self_times(workload) for _ in range(2)]

    original = getattr(owner, attr)

    def slowed(*args, **kwargs):
        result = original(*args, **kwargs)
        busy_wait(delay)
        return result

    if isinstance(owner, type) and isinstance(owner.__dict__[attr], classmethod):
        monkeypatch.setattr(owner, attr, staticmethod(slowed))
    else:
        monkeypatch.setattr(owner, attr, slowed)
    summary = traced_iteration(workload)
    slow = layers.layer_self_times(summary)
    injected = summary[span]["calls"] * delay
    assert injected >= 0.1, "too few calls to measure"

    rise = slow[layer] - sum(b[layer] for b in baseline) / len(baseline)
    assert abs(rise - injected) <= 0.25 * injected, (layer, injected, baseline, slow)
    for other in layers.LAYERS:
        if other != layer:
            noise = max(b[other] for b in baseline)
            assert slow[other] - noise <= 0.3 * injected, (other, injected, baseline, slow)


def test_self_times_add_up_to_the_iteration():
    workload = smoke_workload("fleet-keyswitch")
    workload.setup()
    tracer, _, _ = layers.trace_once(workload, lambda: workload.iteration(0))
    summary = tracer.summary(1)
    total = summary[layers.ITERATION_SPAN]["total_s"]
    assert sum(layers.layer_self_times(summary).values()) == pytest.approx(total)


def test_uninstall_restores_every_attribute():
    before = {
        (owner, attr): owner.__dict__.get(attr)
        for owner, attr in [
            (ScheduleEngine, "submit"), (ProgramDraft, "from_ops"),
            (NumpyBackend, "ntt"), (wl, "lstm_trace"),
        ]
    }
    tracer = Tracer()
    layers.install(tracer)
    assert ScheduleEngine.__dict__["submit"] is not before[(ScheduleEngine, "submit")]
    tracer.uninstall()
    for (owner, attr), value in before.items():
        assert owner.__dict__.get(attr) is value


def test_nested_spans_record_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("harness.iteration"):
        with tracer.span("sim.submit"):
            pass
        with tracer.span("serve.run"):
            with tracer.span("sim.event_loop"):
                pass
    summary = tracer.summary()
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert summary["serve.run"]["self_s"] == 2.0
    assert summary["harness.iteration"]["total_s"] == 7.0
    assert sum(e["self_s"] for e in summary.values()) == 7.0

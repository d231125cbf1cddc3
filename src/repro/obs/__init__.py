"""Observability: metrics, trace export, and regression comparison.

The subsystem has three parts, none of which cost anything when unused:

- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, histograms). Disabled by default; instrumented
  call sites throughout the simulator, CKKS evaluator, NTT and Barrett
  kernels check :func:`active` (a single attribute read) and skip all
  recording when no registry is installed.
- :mod:`repro.obs.trace_export` — converts a simulated run's per-task
  spans into Chrome-trace/Perfetto JSON (one track per operator core
  plus an HBM track) and the flat metrics snapshot into JSON.
- :mod:`repro.obs.regression` — the baseline schema and comparator
  behind ``benchmarks/regress.py``: fails a run whose simulated time
  regresses more than a threshold against a checked-in baseline.

Nothing here imports the simulator at module scope, so the sim/ckks/ntt
layers can import ``repro.obs.metrics`` without cycles.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active,
    collecting,
    disable,
    enable,
)
from repro.obs.regression import (
    Regression,
    compare_baselines,
    load_baseline,
    make_baseline,
    save_baseline,
)
from repro.obs.trace_export import (
    chrome_trace,
    chrome_trace_events,
    cluster_chrome_trace,
    cluster_trace_events,
    write_chrome_trace,
    write_cluster_trace,
    write_metrics_json,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Regression",
    "active",
    "chrome_trace",
    "chrome_trace_events",
    "cluster_chrome_trace",
    "cluster_trace_events",
    "collecting",
    "compare_baselines",
    "disable",
    "enable",
    "load_baseline",
    "make_baseline",
    "save_baseline",
    "write_chrome_trace",
    "write_cluster_trace",
    "write_metrics_json",
]

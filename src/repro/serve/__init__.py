"""Open-system serving simulation on top of the warm schedule engine.

Everything under :mod:`repro.sim` answers the closed-system question
"how long does *this one program* take?". A served accelerator instead
faces an *open* system: requests arrive over time, queue, get batched,
and leave — and the numbers that matter are latency percentiles under
load, sustained throughput, and queue depth, not a single makespan.

The subsystem's parts:

- :mod:`repro.serve.arrivals` — deterministic-seeded arrival processes
  (Poisson and trace replay);
- :mod:`repro.serve.requests` — per-request FHE job types (light
  operator mixes plus the paper benchmarks), compiled once and
  submitted per request, and the per-request lifecycle records;
- :mod:`repro.serve.batcher` — the dynamic batching / admission-control
  policy (max batch size, max queue delay, FIFO vs shortest-job-first,
  queue-depth backpressure);
- :mod:`repro.serve.router` — fleet dispatch policies (round-robin,
  least-queue, shortest-expected-job, load-bounded key-affinity) and
  the per-instance LRU :class:`KeyCache` of resident
  rotation/relinearization key sets;
- :mod:`repro.serve.cluster` — the open-system loop itself: arrivals
  are routed to N warm :class:`repro.sim.engine.ScheduleEngine`
  instances on one master clock, feed each instance's batcher, and
  admitted batches are submitted onto its engine; per-request records
  yield p50/p95/p99 latency, throughput and a queue-depth time series.
  It also models key-set uploads on cache misses, per-tenant fair
  admission, and optional autoscaling against the queue-depth knee.
  One instance with ``key_upload_bytes=0`` is the single warm engine;
- :mod:`repro.serve.faults` — seeded, deterministic fault injection
  and recovery: instance crashes (with cold-cache restarts),
  straggler and HBM-degradation windows, client-side deadlines and
  retry policies, and the request-conservation invariant the chaos
  gate (``benchmarks/bench_fault_recovery.py``) enforces in CI.

Results export through the existing :mod:`repro.obs` pipeline: a
``cluster.*`` metrics namespace and request-level Chrome-trace tracks.
The ``serve`` CLI subcommand and the
``benchmarks/bench_serving_sweep.py`` / ``bench_fleet_scaling.py``
sweeps build on this.
"""

from repro.serve.arrivals import PoissonArrivals, TraceArrivals
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.cluster import (
    AutoscalerPolicy,
    ClusterPolicy,
    ClusterResult,
    ClusterSimulator,
    InstanceReport,
)
from repro.serve.estimate import ServiceEstimator
from repro.serve.faults import (
    FaultPlan,
    HBMDegradation,
    InstanceCrash,
    OUTCOMES,
    ResiliencePolicy,
    RetryPolicy,
    Straggler,
    poisson_crashes,
)
from repro.serve.requests import (
    KEY_SET_BYTES,
    REQUEST_MIXES,
    RequestRecord,
    RequestType,
    TenantPopulation,
    request_type,
    resolve_request_mix,
)
from repro.serve.router import (
    KeyCache,
    ROUTER_POLICIES,
    resolve_router,
)

__all__ = [
    "AutoscalerPolicy",
    "BatchPolicy",
    "ClusterPolicy",
    "ClusterResult",
    "ClusterSimulator",
    "DynamicBatcher",
    "FaultPlan",
    "HBMDegradation",
    "InstanceCrash",
    "InstanceReport",
    "KEY_SET_BYTES",
    "KeyCache",
    "OUTCOMES",
    "PoissonArrivals",
    "REQUEST_MIXES",
    "ROUTER_POLICIES",
    "RequestRecord",
    "RequestType",
    "ResiliencePolicy",
    "RetryPolicy",
    "ServiceEstimator",
    "Straggler",
    "TenantPopulation",
    "TraceArrivals",
    "poisson_crashes",
    "request_type",
    "resolve_request_mix",
]

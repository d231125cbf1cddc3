"""The open-system serving loop: N Poseidon instances behind a router.

:class:`ClusterSimulator` is the repo's one serve loop, fully
deterministic per seed. A single warm engine is the one-instance case:
``ClusterPolicy(instances=1, key_upload_bytes=0)`` serves every request
on one engine and charges no key movement. In general:

- each instance is an independent warm
  :class:`~repro.sim.engine.ScheduleEngine` with its own
  :class:`~repro.serve.batcher.DynamicBatcher` queue and an LRU
  :class:`~repro.serve.router.KeyCache` of resident
  rotation/relinearization key sets;
- a pluggable :mod:`router <repro.serve.router>` policy (round-robin,
  least-queue, shortest-expected-job, key-affinity) assigns every
  arrival to an instance;
- a key-cache *miss* charges the modeled key-set upload to that
  instance's HBM timeline — a ``KeyUpload`` task (pure off-chip
  stream) prepended to the request's task chain, so the transfer
  contends for real HBM channels and delays the request;
- optional autoscaling activates standby instances against the
  queue-depth knee (the signal ``bench_serving_sweep.py`` measures);
- optional per-tenant fair admission caps any tenant's share of an
  instance's queue on top of the batcher's depth backpressure;
- optional deterministic fault injection
  (:mod:`repro.serve.faults`): seeded crash/straggler/HBM-degradation
  plans, client-side deadlines and retries, a health-filtered router
  view with a modeled detection delay, and a request-conservation
  guarantee — every arrival ends exactly one of completed / rejected /
  abandoned / exhausted. Crashed instances restart as fresh engine
  epochs with cold key caches, so failover pays real key re-uploads.

All instance engines share one master clock, and the serve loop only
wakes at *serve-visible* instants: the next arrival, retry or fault,
any instance's batcher deadline or request expiry, and any instance's
next submission completion. Between two such instants the engines step
on their own, with no launch/route/completion pass; an engine never
passes an instant at which a submission to it could still arrive (one
with requests queued stops at its first completion, which may free a
batch slot). Each request is admitted as its compiled program, whose
timed form the engine memoizes on the program. Admission reacts to
completions exactly as a real scheduler's would, while every choice
remains a pure function of the seed. Each instance's schedule is
validated independently via ``engine.as_program()`` +
:func:`repro.sim.validate.validate_schedule`.

``benchmarks/bench_fleet_scaling.py`` sweeps instance count x routing
policy and gates near-linear aggregate throughput scaling until the
router or key movement saturates.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, replace

from repro.compiler.program import OperatorProgram
from repro.errors import ParameterError, SimulationError
from repro.obs import metrics
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.estimate import ServiceEstimator
from repro.serve.faults import (
    OUTCOMES,
    FaultPlan,
    ResiliencePolicy,
)
from repro.serve.requests import (
    KEY_SET_BYTES,
    Request,
    RequestRecord,
    RequestType,
    TenantPopulation,
    resolve_request_mix,
)
from repro.serve.router import KeyCache, InstanceView, resolve_router
from repro.sim.config import HardwareConfig
from repro.sim.engine import ScheduleEngine, SimulationResult
from repro.sim.tasks import OperatorKind, OperatorTask


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Scale-out policy against the queue-depth knee.

    When the mean queue depth per active instance exceeds
    ``queue_high`` (the congestion signal of the serving sweep's knee
    curve), one standby instance is activated, at most once per
    ``cooldown_seconds``. Scale-down is deliberately absent: a drained
    instance simply idles, which keeps completed schedules intact.

    Attributes:
        max_instances: hard ceiling on active instances.
        queue_high: mean queued requests per active instance that
            triggers a scale-out.
        cooldown_seconds: minimum simulated time between scale-outs.
    """

    max_instances: int
    queue_high: float = 4.0
    cooldown_seconds: float = 0.002

    def __post_init__(self):
        if self.max_instances < 1:
            raise ParameterError(
                f"max_instances must be >= 1, got {self.max_instances}"
            )
        if self.queue_high <= 0:
            raise ParameterError(
                f"queue_high must be positive, got {self.queue_high}"
            )
        if self.cooldown_seconds < 0:
            raise ParameterError(
                "cooldown_seconds must be >= 0, got "
                f"{self.cooldown_seconds}"
            )


@dataclass(frozen=True)
class ClusterPolicy:
    """Fleet-level knobs (per-instance batching stays in
    :class:`~repro.serve.batcher.BatchPolicy`).

    Attributes:
        instances: instances active from t=0.
        router: dispatch policy name (see
            :data:`repro.serve.router.ROUTER_POLICIES`).
        key_cache_capacity: key sets resident per instance (LRU);
            ``0`` disables caching (every request uploads), ``None``
            is unbounded.
        key_upload_bytes: modeled size of one key-set upload; ``None``
            uses the mix-shape switch-key size
            (:data:`repro.serve.requests.KEY_SET_BYTES`, ~569 MB).
        max_tenant_share: fair admission — a tenant may hold at most
            this fraction of an instance's queue (floor of one slot);
            ``None`` disables the cap.
        autoscaler: optional scale-out policy; its ``max_instances``
            must be >= ``instances``.
    """

    instances: int = 2
    router: str = "key-affinity"
    key_cache_capacity: int | None = 4
    key_upload_bytes: int | None = None
    max_tenant_share: float | None = None
    autoscaler: AutoscalerPolicy | None = None

    def __post_init__(self):
        if self.instances < 1:
            raise ParameterError(
                f"need at least one instance, got {self.instances}"
            )
        if self.key_upload_bytes is not None and self.key_upload_bytes < 0:
            raise ParameterError(
                "key_upload_bytes must be >= 0, got "
                f"{self.key_upload_bytes}"
            )
        if self.max_tenant_share is not None and not (
            0 < self.max_tenant_share <= 1
        ):
            raise ParameterError(
                "max_tenant_share must be in (0, 1], got "
                f"{self.max_tenant_share}"
            )
        if (
            self.autoscaler is not None
            and self.autoscaler.max_instances < self.instances
        ):
            raise ParameterError(
                f"autoscaler max_instances {self.autoscaler.max_instances}"
                f" < initial instances {self.instances}"
            )

    @property
    def max_instances(self) -> int:
        """Largest instance count this policy can reach."""
        if self.autoscaler is None:
            return self.instances
        return self.autoscaler.max_instances

    @property
    def upload_bytes(self) -> int:
        """Effective key-set upload size (default: mix-shape keys)."""
        if self.key_upload_bytes is not None:
            return self.key_upload_bytes
        return KEY_SET_BYTES


#: Label carried by modeled key-set uploads in schedules and traces.
KEY_UPLOAD_LABEL = "KeyUpload"


def _with_key_upload(
    program: OperatorProgram, upload_bytes: int, key_set: int
) -> OperatorProgram:
    """The job program with a key-set upload prepended.

    The upload is a pure off-chip stream (negligible compute on the MA
    array) whose HBM traffic is the key-set size; every root task of
    the request gains a dependency on it, so the request cannot start
    until its keys are resident — and the transfer contends for the
    instance's HBM channels against everything else in flight.

    The variant is built once per ``(upload_bytes, key_set)`` and
    memoized on the job program (so its timed form is too); the
    re-based job tasks are shared by every key set's variant.
    """
    def variant():
        upload = OperatorTask(
            kind=OperatorKind.MA,
            elements=1,
            degree=1,
            limbs=1,
            hbm_read_bytes=upload_bytes,
            op_label=f"{KEY_UPLOAD_LABEL}:k{key_set}",
        )
        job_tasks = program.memo(KEY_UPLOAD_LABEL, lambda: tuple(
            task.shifted(1) if task.depends_on
            else task.with_deps((0,))
            for task in program.tasks
        ))
        # The upload belongs to the first op's span.
        spans = [(s + 1, e + 1) for s, e in program.op_boundaries]
        if spans:
            spans[0] = (0, spans[0][1])
        return OperatorProgram(
            tasks=(upload,) + job_tasks,
            op_boundaries=tuple(spans),
            source_ops=program.source_ops,
        )

    return program.memo((KEY_UPLOAD_LABEL, upload_bytes, key_set), variant)


@dataclass
class _Batch:
    """Members of one admitted batch still in flight."""

    remaining: int


@dataclass
class _Instance:
    """Mutable state of one fleet member during a run.

    ``epoch`` counts rebirths of the same instance index (0 = original
    hardware, +1 per crash restart). A crashed instance stays in the
    fleet list with ``up=False`` until its restart replaces it;
    ``ghost_view`` freezes its last pre-crash state for the router's
    detection-delay window.
    """

    index: int
    engine: ScheduleEngine
    batcher: DynamicBatcher
    cache: KeyCache
    activated_seconds: float = 0.0
    inflight: int = 0
    inflight_estimate: float = 0.0
    completion_ptr: int = 0
    batches: int = 0
    upload_bytes: int = 0
    rejects: int = 0
    epoch: int = 0
    up: bool = True
    down_since: float = 0.0
    ghost_view: InstanceView | None = None
    source_ops: list = field(default_factory=list)
    by_submission: dict = field(default_factory=dict)

    def view(self) -> InstanceView:
        return InstanceView(
            index=self.index,
            queue_depth=self.batcher.depth,
            inflight=self.inflight,
            backlog_seconds=(
                self.batcher.queued_estimate_seconds()
                + self.inflight_estimate
            ),
            key_cache=self.cache,
        )


def _run_engine(inst: _Instance, bound: float) -> float:
    """Run one instance's engine towards ``bound`` and return the
    instance's next serve-visible instant (``bound`` at the latest).

    That is its first completion the serve loop has not observed yet.
    With requests queued, such a completion may free a batch slot and
    launch a submission at its instant, so the engine stops there;
    with an empty queue nothing can be submitted to it before
    ``bound`` (arrivals, retries, deadlines, expiries and faults are
    all in it), so it runs straight to ``bound``.
    """
    engine = inst.engine
    done = engine.completions
    if inst.completion_ptr == len(done):
        if inst.batcher.depth:
            while True:
                t = engine.next_event_time()
                if t is None or t > bound:
                    break
                engine.advance_until(t)
                if inst.completion_ptr < len(done):
                    break
        elif bound == math.inf:
            engine.drain()  # no instant left that could submit here
        else:
            engine.advance_until(bound)
    if inst.completion_ptr < len(done):
        return min(bound, done[inst.completion_ptr].finish_seconds)
    return bound


@dataclass
class InstanceReport:
    """Committed outcome of one instance *epoch* after it drains.

    A crash splits an instance index into several reports: one per
    epoch, each carrying that lifetime's truncated-or-complete
    schedule. ``crashed_seconds`` is when the epoch died (``None`` if
    it survived to the end of the run).
    """

    index: int
    sim: SimulationResult
    program: object
    activated_seconds: float
    batches: int
    admitted: int
    completed: int
    rejected: int
    key_hits: int
    key_misses: int
    key_evictions: int
    upload_bytes: int
    epoch: int = 0
    crashed_seconds: float | None = None

    @property
    def makespan_seconds(self) -> float:
        return self.sim.total_seconds


class ClusterResult:
    """Aggregate outcome of one served run.

    Per-request records yield latency percentiles, throughput and the
    fleet-wide queue-depth time series; per-instance reports carry each
    engine's schedule (``instances[0].sim`` on a one-instance run).
    """

    def __init__(
        self,
        *,
        records: list[RequestRecord],
        instances: list[InstanceReport],
        queue_depth_series: list[tuple[float, int]],
        scale_events: list[tuple[float, int]],
        config: HardwareConfig,
        policy: ClusterPolicy,
        batch_policy: BatchPolicy,
        fault_events: list[tuple[float, str, int]] | None = None,
        availability: dict | None = None,
    ):
        self.records = records
        self.instances = instances
        self.queue_depth_series = queue_depth_series
        self.scale_events = scale_events
        self.config = config
        self.policy = policy
        self.batch_policy = batch_policy
        #: ``(seconds, "crash" | "restart", instance index)`` in firing
        #: order — the trace exporter turns these into instant markers.
        self.fault_events = fault_events or []
        #: Per-instance-index availability timeline: tuples of
        #: ``(up_from, down_at)`` windows, ``down_at=None`` while still
        #: up at the end of the run.
        self.availability = availability or {}

    # -- request accounting -------------------------------------------
    @property
    def makespan_seconds(self) -> float:
        """Latest task end across the fleet (shared master clock)."""
        return max(
            (r.sim.total_seconds for r in self.instances), default=0.0
        )

    @property
    def arrived(self) -> int:
        return len(self.records)

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if r.rejected)

    @property
    def admitted(self) -> int:
        return self.arrived - self.rejected

    @property
    def completed(self) -> int:
        return sum(
            1 for r in self.records if r.finish_seconds is not None
        )

    @property
    def max_queue_depth(self) -> int:
        return max(
            (depth for _, depth in self.queue_depth_series), default=0
        )

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.completed / self.makespan_seconds

    def latencies(self) -> list[float]:
        """Sorted completed-request latencies."""
        return sorted(
            r.latency_seconds
            for r in self.records
            if r.latency_seconds is not None
        )

    def latency_percentile(self, q: float) -> float:
        """Exact nearest-rank latency quantile over completed requests."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile must be in [0, 1], got {q}")
        ordered = self.latencies()
        if not ordered:
            return 0.0
        idx = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[idx]

    @property
    def key_hits(self) -> int:
        return sum(r.key_hits for r in self.instances)

    @property
    def key_misses(self) -> int:
        return sum(r.key_misses for r in self.instances)

    @property
    def key_hit_rate(self) -> float:
        looked = self.key_hits + self.key_misses
        return self.key_hits / looked if looked else 0.0

    @property
    def upload_bytes(self) -> int:
        return sum(r.upload_bytes for r in self.instances)

    def rejected_by_instance(self) -> dict[int, int]:
        """Rejection counts attributed to the routed instance."""
        out: dict[int, int] = {r.index: 0 for r in self.instances}
        for rec in self.records:
            if rec.rejected:
                out[rec.instance] = out.get(rec.instance, 0) + 1
        return out

    # -- fault / resilience surface -----------------------------------
    @property
    def goodput(self) -> int:
        """Completions that met their deadline (every completion when
        no deadline policy was in force)."""
        return sum(1 for r in self.records if r.slo_met)

    @property
    def goodput_rps(self) -> float:
        """Within-deadline completions per simulated second."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.goodput / self.makespan_seconds

    @property
    def abandoned(self) -> int:
        """Requests whose client deadline expired before service."""
        return sum(1 for r in self.records if r.outcome == "abandoned")

    @property
    def exhausted(self) -> int:
        """Requests lost to crashes with no retry attempts left."""
        return sum(1 for r in self.records if r.outcome == "exhausted")

    @property
    def lost_events(self) -> int:
        """Delivery attempts destroyed by crashes (queued or in
        flight); one request can contribute several."""
        return sum(r.lost for r in self.records)

    @property
    def total_retries(self) -> int:
        """Re-deliveries actually scheduled after losses."""
        return sum(r.retries for r in self.records)

    @property
    def crashes(self) -> int:
        return sum(
            1 for _, kind, _ in self.fault_events if kind == "crash"
        )

    @property
    def restarts(self) -> int:
        return sum(
            1 for _, kind, _ in self.fault_events if kind == "restart"
        )

    @property
    def slo_violations(self) -> int:
        """Completions that finished past their deadline."""
        return sum(1 for r in self.records if r.slo_met is False)

    @property
    def slo_violation_rate(self) -> float:
        """Late completions as a fraction of all completions."""
        done = self.completed
        return self.slo_violations / done if done else 0.0

    def check_conservation(self) -> None:
        """Assert the request-conservation invariant.

        Every arrival must have ended in exactly one terminal outcome
        (:data:`repro.serve.faults.OUTCOMES`) and the outcome counts
        must agree with the lifecycle fields — the "no silently
        dropped requests" guarantee the chaos gate enforces.
        """
        counts = dict.fromkeys(OUTCOMES, 0)
        for rec in self.records:
            if rec.outcome not in counts:
                raise SimulationError(
                    f"request {rec.request_id} has no terminal outcome "
                    f"(outcome={rec.outcome!r}, finish="
                    f"{rec.finish_seconds!r}) — a request was silently "
                    "dropped"
                )
            counts[rec.outcome] += 1
        if counts["completed"] != self.completed:
            raise SimulationError(
                f"outcome bookkeeping drifted: {counts['completed']} "
                f"'completed' outcomes vs {self.completed} finished "
                "records"
            )
        if counts["rejected"] != self.rejected:
            raise SimulationError(
                f"outcome bookkeeping drifted: {counts['rejected']} "
                f"'rejected' outcomes vs {self.rejected} rejected "
                "records"
            )
        if sum(counts.values()) != self.arrived:
            raise SimulationError(  # pragma: no cover - defensive
                f"conservation violated: {self.arrived} arrivals != "
                f"{counts}"
            )

    def summary(self) -> dict:
        """Flat, JSON-ready headline numbers (deterministic)."""
        ordered = self.latencies()
        mean = sum(ordered) / len(ordered) if ordered else 0.0
        return {
            "instances": len({r.index for r in self.instances}),
            "router": self.policy.router,
            "requests_arrived": self.arrived,
            "requests_admitted": self.admitted,
            "requests_rejected": self.rejected,
            "requests_completed": self.completed,
            "requests_abandoned": self.abandoned,
            "requests_exhausted": self.exhausted,
            "goodput": self.goodput,
            "goodput_rps": self.goodput_rps,
            "lost_events": self.lost_events,
            "retries": self.total_retries,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "slo_violation_rate": self.slo_violation_rate,
            "batches": sum(r.batches for r in self.instances),
            "throughput_rps": self.throughput_rps,
            "latency_mean_seconds": mean,
            "latency_p50_seconds": self.latency_percentile(0.50),
            "latency_p95_seconds": self.latency_percentile(0.95),
            "latency_p99_seconds": self.latency_percentile(0.99),
            "max_queue_depth": self.max_queue_depth,
            "makespan_seconds": self.makespan_seconds,
            "key_hits": self.key_hits,
            "key_misses": self.key_misses,
            "key_hit_rate": self.key_hit_rate,
            "key_upload_bytes": self.upload_bytes,
            "scale_events": len(self.scale_events),
            "per_instance": [
                {
                    "instance": r.index,
                    "epoch": r.epoch,
                    "activated_seconds": r.activated_seconds,
                    "crashed_seconds": r.crashed_seconds,
                    "admitted": r.admitted,
                    "completed": r.completed,
                    "rejected": r.rejected,
                    "batches": r.batches,
                    "key_hits": r.key_hits,
                    "key_misses": r.key_misses,
                    "upload_bytes": r.upload_bytes,
                    "makespan_seconds": r.sim.total_seconds,
                }
                for r in self.instances
            ],
        }

    def validate(self) -> None:
        """Check every instance epoch's schedule against every engine
        invariant (each is an independent accelerator lifetime — a
        crashed epoch contributes its truncated-at-crash schedule),
        then the request-conservation invariant."""
        from repro.sim.validate import validate_schedule

        for report in self.instances:
            validate_schedule(
                report.sim,
                program=report.program,
                config=self.config,
            )
        self.check_conservation()


class ClusterSimulator:
    """Open-system serving across a routed fleet of instances."""

    def __init__(
        self,
        config: HardwareConfig | None = None,
        policy: ClusterPolicy | None = None,
        batch_policy: BatchPolicy | None = None,
    ):
        self.config = config or HardwareConfig()
        self.policy = policy or ClusterPolicy()
        self.batch_policy = batch_policy or BatchPolicy()
        self._estimator = ServiceEstimator()

    # ------------------------------------------------------------------
    def _fair_rejects(self, inst: _Instance, req: Request) -> bool:
        """Whether fair admission turns this arrival away.

        A tenant may hold at most ``max_tenant_share`` of the
        instance's queue, with a floor of one slot so a lone tenant is
        never locked out of an idle system.
        """
        share = self.policy.max_tenant_share
        if share is None:
            return False
        queued = inst.batcher.queued_count_for(req.tenant)
        cap = max(1, math.ceil(share * (inst.batcher.depth + 1)))
        return queued + 1 > cap

    def _launch(
        self,
        inst: _Instance,
        now: float,
        records: list[RequestRecord],
        arrivals_pending: bool,
        plan: FaultPlan | None = None,
    ) -> int:
        """Launch every batch the instance's policy allows at ``now``;
        returns how many batches launched.

        With a fault plan, straggler / HBM-degradation windows open at
        ``now`` derate the submitted work (admission-time sampling:
        work admitted inside a window runs slow for its whole life,
        work admitted outside runs at full speed).
        """
        compute_scale = hbm_scale = 1.0
        if plan is not None:
            compute_scale = plan.compute_scale(inst.index, now)
            hbm_scale = plan.hbm_scale(inst.index, now)
        launched = 0
        while inst.batcher.should_launch(
            now, inst.inflight, arrivals_pending
        ):
            launched += 1
            members = inst.batcher.take_batch(now)
            batch_index = inst.batches
            batch = _Batch(remaining=len(members))
            inst.batches += 1
            inst.inflight += 1
            for req in members:
                rec = records[req.request_id]
                hit = inst.cache.admit(req.key_set)
                program = req.job.program
                if not hit:
                    upload_bytes = self.policy.upload_bytes
                    if upload_bytes:
                        program = _with_key_upload(
                            program, upload_bytes, req.key_set
                        )
                        inst.upload_bytes += upload_bytes
                sub = inst.engine.submit(
                    program,
                    release=now,
                    label=(
                        f"req{req.request_id}:{req.job.name}"
                        f"@i{inst.index}"
                    ),
                    compute_scale=compute_scale,
                    hbm_scale=hbm_scale,
                )
                rec.admit_seconds = now
                rec.batch_index = batch_index
                rec.key_hit = hit
                inst.inflight_estimate += req.service_estimate
                inst.by_submission[sub.index] = (rec, batch, req)
                inst.source_ops.extend(req.job.program.source_ops)
        return launched

    def _archive(
        self,
        inst: _Instance,
        *,
        crashed_at: float | None = None,
    ) -> InstanceReport:
        """Commit one instance epoch into an :class:`InstanceReport`.

        Live instances are drained first; a crashed instance's engine
        is already truncated-and-dead, so its (validator-clean) partial
        schedule is committed as-is. Per-request start times come from
        each *completed* submission's post-crash ``base``/``count`` —
        a lost submission's surviving prefix stays in the schedule but
        never stamps the request record.
        """
        engine = inst.engine
        if crashed_at is None:
            engine.drain()
        sim = engine.result()
        admitted = 0
        completed = 0
        for sub in engine.submissions:
            entry = inst.by_submission.get(sub.index)
            if entry is None:  # pragma: no cover - defensive
                continue
            rec, _, _ = entry
            admitted += 1
            if sub.done:
                completed += 1
                if sub.count:
                    rec.start_seconds = min(
                        r.start
                        for r in sim.task_records[
                            sub.base:sub.base + sub.count
                        ]
                    )
        return InstanceReport(
            index=inst.index,
            sim=sim,
            program=engine.as_program(inst.source_ops),
            activated_seconds=inst.activated_seconds,
            batches=inst.batches,
            admitted=admitted,
            completed=completed,
            rejected=inst.rejects,
            key_hits=inst.cache.hits,
            key_misses=inst.cache.misses,
            key_evictions=inst.cache.evictions,
            upload_bytes=inst.upload_bytes,
            epoch=inst.epoch,
            crashed_seconds=crashed_at,
        )

    def run(
        self,
        workloads: str | tuple[RequestType, ...],
        arrivals,
        *,
        seed: int = 0,
        population: TenantPopulation | None = None,
        passes=None,
        faults: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> ClusterResult:
        """Serve one arrival stream across the fleet to completion.

        Args:
            workloads: a request-mix spec (``"keyswitch"``,
                ``"keyswitch,streaming"``, a paper-benchmark alias) or
                pre-resolved :class:`RequestType` tuple. With several
                job types, each arrival draws its type from a seeded
                RNG.
            arrivals: an arrival process
                (:class:`~repro.serve.arrivals.PoissonArrivals`,
                :class:`~repro.serve.arrivals.TraceArrivals`, or any
                object with a ``times()`` method).
            seed: drives the job-type and tenant/key-set draws (job
                sequences match across fleet sizes) plus the
                retry-jitter stream; arrival times carry their own
                seed.
            population: tenant/key-set identity of the arrivals;
                defaults to one tenant with one key set.
            passes: compiler pass pipeline applied to each job type's
                program when ``workloads`` is a spec string.
            faults: optional :class:`~repro.serve.faults.FaultPlan`.
                Crashes lose the instance's queued + in-flight
                requests and truncate its schedule; a restart is a
                fresh engine epoch with a cold key cache. Restarts
                only materialize while the run is live — a restart
                falling after the last pending work never happens.
            resilience: optional client-side
                :class:`~repro.serve.faults.ResiliencePolicy`
                (deadlines, retries, failure-detection delay). With
                neither argument no fault or deadline path runs.
        """
        if isinstance(workloads, str):
            jobs = resolve_request_mix(workloads, passes=passes)
        else:
            jobs = tuple(workloads)
        if not jobs:
            raise ParameterError("need at least one request job type")
        population = population or TenantPopulation()
        policy = self.policy
        plan = faults if faults else None
        times = arrivals.times()
        job_rng = random.Random(f"repro.serve.jobs:{seed}")
        identities = population.draw(len(times), seed=seed)

        instances: list[_Instance] = [
            _Instance(
                index=i,
                engine=ScheduleEngine(self.config),
                batcher=DynamicBatcher(self.batch_policy),
                cache=KeyCache(policy.key_cache_capacity),
            )
            for i in range(policy.instances)
        ]
        # Bounded affinity: following a key is worth at most one
        # key-upload of extra backlog on the holding instance.
        router = resolve_router(
            policy.router,
            spill_seconds=(
                policy.upload_bytes / self.config.hbm_bandwidth
            ),
        )

        rel_deadline = (
            resilience.deadline_seconds
            if resilience is not None else None
        )
        requests: list[Request] = []
        records: list[RequestRecord] = []
        for rid, t in enumerate(times):
            job = jobs[0] if len(jobs) == 1 else job_rng.choice(jobs)
            tenant, key_set = identities[rid]
            deadline = (
                None if rel_deadline is None else t + rel_deadline
            )
            requests.append(
                Request(
                    request_id=rid,
                    job=job,
                    arrival_seconds=t,
                    # Identical across instances: one hardware config.
                    service_estimate=self._estimator.estimate(
                        instances[0].engine, job
                    ),
                    tenant=tenant,
                    key_set=key_set,
                    deadline_seconds=deadline,
                )
            )
            records.append(
                RequestRecord(
                    request_id=rid,
                    job=job.name,
                    arrival_seconds=t,
                    tenant=tenant,
                    key_set=key_set,
                    deadline_seconds=deadline,
                )
            )

        depth_series: list[tuple[float, int]] = [(0.0, 0)]
        scale_events: list[tuple[float, int]] = []
        fault_events: list[tuple[float, str, int]] = []
        availability: dict[int, list[list]] = {
            i: [[0.0, None]] for i in range(policy.instances)
        }
        archived: list[InstanceReport] = []
        last_scale = 0.0
        ai = 0
        now = 0.0
        n = len(requests)

        # Fault events as a heap so dynamically scheduled restarts
        # merge deterministically with the plan's crashes.
        fault_heap: list[tuple] = []
        fault_seq = 0
        if plan is not None:
            for ev in plan.crashes:
                fault_heap.append((
                    ev.at_seconds, fault_seq, "crash",
                    ev.instance, ev.restart_after,
                ))
                fault_seq += 1
            heapq.heapify(fault_heap)
        retry_heap: list[tuple[float, int, Request]] = []
        max_attempts = (
            resilience.max_attempts if resilience is not None else 1
        )

        def total_depth() -> int:
            return sum(inst.batcher.depth for inst in instances)

        def lose(req: Request, rec: RequestRecord, t: float) -> None:
            """One delivery attempt destroyed at ``t`` (crash loss or
            routed into a dead instance): reset the admission state
            and retry, abandon, or exhaust."""
            rec.lost += 1
            rec.admit_seconds = None
            rec.batch_index = None
            rec.key_hit = None
            if (
                rec.deadline_seconds is not None
                and t >= rec.deadline_seconds
            ):
                rec.outcome = "abandoned"
                return
            if req.attempt >= max_attempts:
                rec.outcome = "exhausted"
                return
            # max_attempts > 1 implies resilience.retry is set.
            delay = resilience.retry.delay_seconds(
                req.attempt, seed=seed, request_id=req.request_id
            )
            due = t + delay
            if (
                rec.deadline_seconds is not None
                and due >= rec.deadline_seconds
            ):
                rec.outcome = "abandoned"
                return
            rec.retries += 1
            heapq.heappush(retry_heap, (
                due,
                req.request_id,
                replace(
                    req, arrival_seconds=due, attempt=req.attempt + 1
                ),
            ))

        def routable_views(t: float) -> list[InstanceView]:
            """Health-filtered router input: live views of up
            instances, plus frozen pre-crash ghosts of instances that
            are down but not yet detected as such."""
            views = []
            for inst in instances:
                if inst.up:
                    views.append(inst.view())
                elif (
                    inst.ghost_view is not None
                    and resilience is not None
                    and t < inst.down_since
                    + resilience.detection_seconds
                ):
                    views.append(inst.ghost_view)
            return views

        def deliver(
            req: Request, rec: RequestRecord, t: float
        ) -> bool:
            """Route one delivery attempt at ``t``; ``True`` means it
            entered an instance's queue."""
            views = routable_views(t)
            if not views:
                # The whole fleet is dark: the attempt dies in flight.
                lose(req, rec, t)
                return False
            target = router.route(views, req)
            inst = instances[target]
            rec.instance = target
            if not inst.up:
                # A stale (ghost) view routed onto a dead instance.
                lose(req, rec, t)
                return False
            if self._fair_rejects(inst, req):
                rec.rejected = True
                rec.reject_reason = "tenant-share"
                inst.rejects += 1
                return False
            if not inst.batcher.offer(req):
                rec.rejected = True
                rec.reject_reason = "queue-full"
                inst.rejects += 1
                return False
            return True

        while ai < n or retry_heap or any(
            inst.up and (inst.batcher.depth or inst.inflight)
            for inst in instances
        ):
            # Launch pass: every up instance, in index order.
            launched = 0
            for inst in instances:
                if inst.up:
                    launched += self._launch(
                        inst, now, records, ai < n, plan
                    )
            if launched:
                depth_series.append((now, total_depth()))

            # The next serve-visible instant: the earliest arrival,
            # retry, fault, batcher deadline or expiry, or an
            # instance's next submission completion. Engines run up to
            # it without a launch/route/completion pass in between.
            horizon = math.inf
            if ai < n:
                horizon = requests[ai].arrival_seconds
            if retry_heap:
                horizon = min(horizon, retry_heap[0][0])
            if fault_heap:
                horizon = min(horizon, fault_heap[0][0])
            for inst in instances:
                if not inst.up:
                    continue
                if (
                    inst.batcher.depth
                    and inst.inflight
                    < self.batch_policy.max_inflight_batches
                ):
                    deadline = inst.batcher.next_deadline()
                    if deadline is not None:
                        horizon = min(horizon, deadline)
                if rel_deadline is not None:
                    expiry = inst.batcher.next_expiry()
                    if expiry is not None:
                        horizon = min(horizon, expiry)
            for inst in instances:
                if inst.up:
                    horizon = _run_engine(inst, horizon)
            if horizon == math.inf:  # pragma: no cover - loop invariant
                break

            # Completions up to the horizon release batch slots and
            # backlog estimate.
            for inst in instances:
                if not inst.up:
                    continue
                done = inst.engine.completions
                while (
                    inst.completion_ptr < len(done)
                    and done[inst.completion_ptr].finish_seconds
                    <= horizon
                ):
                    sub = done[inst.completion_ptr]
                    inst.completion_ptr += 1
                    rec, batch, req_c = inst.by_submission[sub.index]
                    rec.finish_seconds = sub.finish_seconds
                    inst.inflight_estimate -= req_c.service_estimate
                    batch.remaining -= 1
                    if batch.remaining == 0:
                        inst.inflight -= 1

            # Fault events due at the horizon. A task or submission
            # finishing exactly at the crash instant survived it (its
            # completion was observed above).
            while fault_heap and fault_heap[0][0] <= horizon:
                t_ev, _, kind, idx, restart_after = heapq.heappop(
                    fault_heap
                )
                if kind == "crash":
                    if idx >= len(instances) or not instances[idx].up:
                        continue  # never activated, or already down
                    inst = instances[idx]
                    inst.ghost_view = inst.view()
                    doomed = inst.batcher.drain()
                    crash = inst.engine.crash(t_ev)
                    archived.append(
                        self._archive(inst, crashed_at=t_ev)
                    )
                    fault_events.append((t_ev, "crash", idx))
                    availability[idx][-1][1] = t_ev
                    inst.up = False
                    inst.down_since = t_ev
                    inst.inflight = 0
                    inst.inflight_estimate = 0.0
                    for req_q in doomed:
                        lose(req_q, records[req_q.request_id], t_ev)
                    for sub in crash.lost:
                        entry = inst.by_submission.get(sub.index)
                        if entry is None:  # pragma: no cover
                            continue
                        rec_l, _, req_l = entry
                        lose(req_l, rec_l, t_ev)
                    depth_series.append((t_ev, total_depth()))
                    if restart_after is not None:
                        heapq.heappush(fault_heap, (
                            t_ev + restart_after, fault_seq,
                            "restart", idx, None,
                        ))
                        fault_seq += 1
                else:  # restart: same index, next epoch, cold caches
                    old = instances[idx]
                    if old.up:  # pragma: no cover - defensive
                        continue
                    instances[idx] = _Instance(
                        index=idx,
                        engine=ScheduleEngine(self.config, epoch=t_ev),
                        batcher=DynamicBatcher(self.batch_policy),
                        cache=KeyCache(policy.key_cache_capacity),
                        activated_seconds=t_ev,
                        epoch=old.epoch + 1,
                    )
                    fault_events.append((t_ev, "restart", idx))
                    availability[idx].append([t_ev, None])

            # Queued requests whose client deadline passed are
            # abandoned in place (frees backpressure capacity).
            if rel_deadline is not None:
                expired_any = False
                for inst in instances:
                    if not inst.up:
                        continue
                    for req_x in inst.batcher.expired(horizon):
                        records[req_x.request_id].outcome = "abandoned"
                        expired_any = True
                if expired_any:
                    depth_series.append((horizon, total_depth()))

            # Retries due at the horizon re-enter routing.
            while retry_heap and retry_heap[0][0] <= horizon:
                due, rid, req_r = heapq.heappop(retry_heap)
                if deliver(req_r, records[rid], due):
                    depth_series.append((due, total_depth()))

            # Route arrivals at (or before) the horizon.
            while ai < n and requests[ai].arrival_seconds <= horizon:
                req = requests[ai]
                ai += 1
                if deliver(
                    req, records[req.request_id], req.arrival_seconds
                ):
                    depth_series.append(
                        (req.arrival_seconds, total_depth())
                    )
                # Scale out against the queue-depth knee.
                scaler = policy.autoscaler
                if (
                    scaler is not None
                    and len(instances) < scaler.max_instances
                    and total_depth()
                    > scaler.queue_high * len(instances)
                    and (
                        not scale_events
                        or req.arrival_seconds - last_scale
                        >= scaler.cooldown_seconds
                    )
                ):
                    t_scale = max(now, req.arrival_seconds)
                    new_idx = len(instances)
                    instances.append(
                        _Instance(
                            index=new_idx,
                            engine=ScheduleEngine(
                                self.config, epoch=t_scale
                            ),
                            batcher=DynamicBatcher(self.batch_policy),
                            cache=KeyCache(policy.key_cache_capacity),
                            activated_seconds=t_scale,
                        )
                    )
                    availability[new_idx] = [[t_scale, None]]
                    scale_events.append((t_scale, len(instances)))
                    last_scale = t_scale
            now = max(now, horizon)

        reports: list[InstanceReport] = list(archived)
        for inst in instances:
            if inst.up:
                reports.append(self._archive(inst))
        reports.sort(key=lambda r: (r.index, r.epoch))

        # Terminal outcome per record — the conservation invariant
        # every faulted run is gated on.
        for rec in records:
            if rec.rejected:
                rec.outcome = "rejected"
            elif rec.finish_seconds is not None:
                rec.outcome = "completed"

        result = ClusterResult(
            records=records,
            instances=reports,
            queue_depth_series=depth_series,
            scale_events=scale_events,
            fault_events=fault_events,
            availability={
                idx: tuple(tuple(win) for win in wins)
                for idx, wins in sorted(availability.items())
            },
            config=self.config,
            policy=policy,
            batch_policy=self.batch_policy,
        )
        reg = metrics.active()
        if reg is not None:
            self._record_metrics(reg, result)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _record_metrics(reg, result: ClusterResult) -> None:
        """Publish the served run under the ``cluster.*`` namespace.

        The engines' ``sim.*`` view is not republished: it has no one
        meaning across N instances. Each instance's schedule stays in
        ``InstanceReport.sim`` and in its cluster-trace tracks.
        """
        reg.gauge("cluster.instances").set(
            len({r.index for r in result.instances})
        )
        reg.counter("cluster.requests.arrived").inc(result.arrived)
        reg.counter("cluster.requests.admitted").inc(result.admitted)
        reg.counter("cluster.requests.rejected").inc(result.rejected)
        reg.counter("cluster.requests.completed").inc(result.completed)
        reg.counter("cluster.batches").inc(
            sum(r.batches for r in result.instances)
        )
        reg.counter("cluster.key_cache.hits").inc(result.key_hits)
        reg.counter("cluster.key_cache.misses").inc(result.key_misses)
        reg.counter("cluster.key_upload.bytes").inc(result.upload_bytes)
        reg.counter("cluster.scale_events").inc(len(result.scale_events))
        reg.counter("cluster.faults.crashes").inc(result.crashes)
        reg.counter("cluster.faults.restarts").inc(result.restarts)
        reg.counter("cluster.faults.lost_requests").inc(
            result.lost_events
        )
        reg.counter("cluster.faults.retries").inc(result.total_retries)
        reg.counter("cluster.faults.abandoned").inc(result.abandoned)
        reg.counter("cluster.faults.exhausted").inc(result.exhausted)
        reg.gauge("cluster.goodput_rps").set(result.goodput_rps)
        reg.gauge("cluster.slo_violation_rate").set(
            result.slo_violation_rate
        )
        reg.gauge("cluster.throughput_rps").set(result.throughput_rps)
        reg.gauge("cluster.queue_depth.max").set(result.max_queue_depth)
        reg.gauge("cluster.makespan_seconds").set(result.makespan_seconds)
        for q in (0.50, 0.95, 0.99):
            reg.gauge(f"cluster.latency.p{int(q * 100)}_seconds").set(
                result.latency_percentile(q)
            )
        latency_h = reg.histogram("cluster.request.latency_seconds")
        wait_h = reg.histogram("cluster.request.queue_wait_seconds")
        for rec in result.records:
            if rec.latency_seconds is not None:
                latency_h.observe(rec.latency_seconds)
            if rec.queue_wait_seconds is not None:
                wait_h.observe(rec.queue_wait_seconds)
        depth_h = reg.histogram("cluster.queue.depth")
        for _, depth in result.queue_depth_series:
            depth_h.observe(float(depth))
        for report in result.instances:
            prefix = f"cluster.instance.{report.index}"
            reg.counter(f"{prefix}.admitted").inc(report.admitted)
            reg.counter(f"{prefix}.completed").inc(report.completed)
            reg.counter(f"{prefix}.rejected").inc(report.rejected)
            reg.counter(f"{prefix}.key_hits").inc(report.key_hits)
            reg.counter(f"{prefix}.key_misses").inc(report.key_misses)
            reg.counter(f"{prefix}.upload_bytes").inc(
                report.upload_bytes
            )
            reg.gauge(f"{prefix}.makespan_seconds").set(
                report.sim.total_seconds
            )

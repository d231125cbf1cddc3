"""The benchmark's three workloads, driven through the public APIs.

Each workload has a :meth:`setup` (construction after imports: the
simulators, or keygen plus the bootstrapper) and an :meth:`iteration`
that does one unit of work *and checks its output*; the iteration
raises :class:`CheckFailed` when the output is wrong. Only those two
are timed. :meth:`summarize` then reduces an iteration's raw output to
an :class:`Outcome`: the work done, the simulated (deterministic)
results and a digest of the simulated output.

Callees are looked up through their modules at call time
(``wl.lstm_trace``, ``program_mod.compile_trace``, ``validate_mod``),
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import operator
import random
from dataclasses import dataclass, field, fields

import numpy as np

import repro.compiler as compiler
import repro.compiler.program as program_mod
import repro.sim.validate as validate_mod
import repro.workloads as wl
from repro import kernels
from repro.ckks import (
    CkksDecryptor,
    CkksEncoder,
    CkksEncryptor,
    CkksEvaluator,
    KeyChain,
    presets,
)
from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.linear import LinearTransform
from repro.errors import SimulationError
from repro.serve import (
    KEY_SET_BYTES,
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    PoissonArrivals,
    TenantPopulation,
)
from repro.serve.requests import resolve_request_mix
from repro.sim import PoseidonSimulator
from repro.sim.config import CORE_ARRAYS


class CheckFailed(Exception):
    """A workload iteration produced a wrong output."""


@dataclass
class Outcome:
    """What one iteration did.

    ``work`` counts units done (``tasks``, ``requests``, ``ops``,
    ``bootstraps``); ``simulated`` holds the deterministic end results
    (simulated time, errors) and ``modelled`` the per-layer simulated
    statistics. ``digest`` hashes the simulated output exactly (empty
    for the functional plane).
    """

    work: dict[str, int]
    simulated: dict[str, float] = field(default_factory=dict)
    modelled: dict[str, float] = field(default_factory=dict)
    digest: str = ""


def records_digest(records) -> str:
    """SHA-256 over every public field of every record, exactly."""
    if not records:
        return hashlib.sha256(b"").hexdigest()
    get = operator.attrgetter(
        *(f.name for f in fields(records[0]) if not f.name.startswith("_"))
    )
    return hashlib.sha256(repr([get(r) for r in records]).encode()).hexdigest()


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the ``ceil(q * n)``-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def schedule_stats(results) -> dict[str, float]:
    """Modelled per-layer statistics summed over simulation results."""
    busy = dict.fromkeys(CORE_ARRAYS, 0.0)
    stall = core_wait = hbm_wait = hbm_busy = span = 0.0
    for res in results:
        for core, seconds in res.core_busy_seconds.items():
            busy[core] = busy.get(core, 0.0) + seconds
        stall += res.stall_seconds
        hbm_busy += res.hbm_busy_seconds
        span += res.total_seconds
        for rec in res.task_records:
            core_wait += rec.core_wait_seconds
            hbm_wait += rec.hbm_wait_seconds
    out = {f"sim.core_busy_ms.{c}": busy[c] * 1e3 for c in CORE_ARRAYS}
    out["sim.hbm_util"] = hbm_busy / span if span else 0.0
    out["sim.stall_ms"] = stall * 1e3
    out["sim.core_wait_ms"] = core_wait * 1e3
    out["sim.hbm_wait_ms"] = hbm_wait * 1e3
    return out


# ----------------------------------------------------------------------
# table6-lstm
# ----------------------------------------------------------------------
def check_schedule(result, program, config) -> None:
    """Every schedule invariant, plus one record per compiled task."""
    if len(result.task_records) != program.task_count:
        raise CheckFailed(
            f"schedule has {len(result.task_records)} records for "
            f"{program.task_count} tasks"
        )
    try:
        validate_mod.validate_schedule(result, program=program, config=config)
    except SimulationError as exc:
        raise CheckFailed(f"schedule invalid: {exc}") from exc


class Table6Lstm:
    """The paper's LSTM trace, compiled with the default passes,
    scheduled in one submission and validated.

    The paper trace has no random input, so the seed changes nothing.
    ``steps`` shrinks the trace for smoke runs only.
    """

    name = "table6-lstm"
    #: Table VI, Poseidon's LSTM time (ms); the paper has no passes.
    PAPER_MS = 1846.89
    #: Table VII, LSTM average bandwidth utilization (%).
    PAPER_HBM_UTIL_PCT = 51.99

    def __init__(self, seed: int, *, steps: int = 50):
        self.seed = seed
        self.steps = steps

    def setup(self) -> None:
        self.sim = PoseidonSimulator()

    def iteration(self, k: int):
        # One CLI invocation pays lowering cold, so every run does.
        compiler.clear_lowering_cache()
        trace = wl.lstm_trace(steps=self.steps)
        program = program_mod.compile_trace(trace, passes="default")
        result = self.sim.run(program)
        check_schedule(result, program, self.sim.config)
        return program, result

    @staticmethod
    def summarize(raw) -> Outcome:
        program, result = raw
        return Outcome(
            work={"ops": len(program.source_ops), "tasks": program.task_count},
            simulated={"sim_makespan_ms": result.total_seconds * 1e3},
            modelled=schedule_stats([result]),
            digest=records_digest(result.task_records),
        )


# ----------------------------------------------------------------------
# fleet-keyswitch
# ----------------------------------------------------------------------
#: The bench_fleet_scaling.py scenario at 4 instances, near the knee.
FLEET_INSTANCES = 4
FLEET_RATE_PER_INSTANCE = 240.0
FLEET_POPULATION = TenantPopulation(tenants=8, key_sets=16, skew=0.8)
FLEET_BATCH_POLICY = BatchPolicy(
    max_batch_size=4,
    max_queue_delay=0.0005,
    max_inflight_batches=2,
    max_queue_depth=12,
)


def check_fleet(result) -> None:
    """Every instance schedule is valid and every arrival has exactly
    one terminal outcome."""
    try:
        result.validate()
    except SimulationError as exc:
        raise CheckFailed(f"fleet result invalid: {exc}") from exc


class FleetKeyswitch:
    """Open-loop Poisson keyswitch stream over a 4-instance
    key-affinity fleet.

    Iteration ``k`` serves its own arrival stream, drawn from a seed
    derived from ``(seed, k)``, so one run averages over several
    streams; iteration 0's stream is the one reported and digested.
    """

    name = "fleet-keyswitch"

    def __init__(self, seed: int, *, requests: int = 1000):
        self.seed = seed
        self.requests = requests

    def stream_seed(self, k: int) -> int:
        return random.Random(f"perfbench.fleet:{self.seed}:{k}").getrandbits(31)

    def setup(self) -> None:
        self.sim = ClusterSimulator(
            policy=ClusterPolicy(
                instances=FLEET_INSTANCES,
                router="key-affinity",
                key_cache_capacity=4,
                key_upload_bytes=4 * KEY_SET_BYTES,
            ),
            batch_policy=FLEET_BATCH_POLICY,
        )
        # Compiles the request program once per process.
        self.jobs = resolve_request_mix("keyswitch")

    def iteration(self, k: int):
        seed = self.stream_seed(k)
        arrivals = PoissonArrivals(
            rate=FLEET_RATE_PER_INSTANCE * FLEET_INSTANCES,
            count=self.requests,
            seed=seed,
        )
        result = self.sim.run(
            self.jobs, arrivals, seed=seed, population=FLEET_POPULATION
        )
        check_fleet(result)
        return result

    @staticmethod
    def summarize(result) -> Outcome:
        latencies = [
            math.inf if r.latency_seconds is None else r.latency_seconds
            for r in result.records
        ]
        waits = [
            r.start_seconds - r.arrival_seconds
            for r in result.records if r.start_seconds is not None
        ]
        tasks = sum(len(i.sim.task_records) for i in result.instances)
        modelled = schedule_stats([i.sim for i in result.instances])
        modelled.update({
            "serve.key_hit_rate": result.key_hit_rate,
            "serve.queue_wait_p99_ms": nearest_rank(waits, 0.99) * 1e3,
            "serve.rejected": result.rejected,
            "serve.upload_gb": result.upload_bytes / 1e9,
        })
        return Outcome(
            work={"requests": result.arrived, "tasks": tasks},
            simulated={
                "sim_makespan_ms": result.makespan_seconds * 1e3,
                "sim_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
                "sim_completed_frac": result.completed / result.arrived,
            },
            modelled=modelled,
            digest=records_digest(result.records),
        )


# ----------------------------------------------------------------------
# ckks-bootstrap
# ----------------------------------------------------------------------
#: Slot error a bootstrap may leave: 10% of the message bound.
BOOTSTRAP_TOLERANCE = 5e-3


def check_bootstrap(decoded, message) -> float:
    """Max absolute slot error; raises past the tolerance."""
    err = float(np.max(np.abs(np.asarray(decoded).real - message)))
    if not err <= BOOTSTRAP_TOLERANCE:
        raise CheckFailed(
            f"bootstrap slot error {err:.3e} exceeds {BOOTSTRAP_TOLERANCE}"
        )
    return err


def bootstrap_rotation_steps(evaluator, encoder) -> list[int]:
    """Rotation steps a dense slot-by-slot linear transform uses.

    Bootstrapping's CoeffToSlot/SlotToCoeff matrices are dense, so a
    probe transform of the same size rotates by the same steps.
    """
    slots = encoder.slots
    probe = LinearTransform(evaluator, encoder, np.ones((slots, slots)))
    if not probe.use_bsgs:
        return sorted(d for d in probe.diagonals if d)
    baby = probe.baby
    steps = {d % baby for d in probe.diagonals}
    steps |= {(d // baby) * baby for d in probe.diagonals}
    return sorted(steps - {0})


class CkksBootstrap:
    """encrypt -> drop to level 0 -> bootstrap -> decrypt at the
    bootstrap-capable preset, on the active kernel backend.

    ``backend=None`` keeps the program's own selection (the default
    backend when ``REPRO_KERNEL_BACKEND`` is unset); smoke runs name
    a faster one.
    """

    name = "ckks-bootstrap"

    def __init__(self, seed: int, *, backend: str | None = None):
        self.seed = seed
        self.backend = backend

    def setup(self) -> None:
        with kernels.use_backend(self.backend) as active:
            self.backend_name = active.name
            params, config = presets.bootstrap_capable()
            self.params = params
            self.keys = KeyChain.generate(params, seed=self.seed)
            self.encoder = CkksEncoder(params)
            self.evaluator = CkksEvaluator(params, self.keys)
            self.decryptor = CkksDecryptor(params, self.keys)
            self.encryptor = CkksEncryptor(params, self.keys, seed=self.seed)
            self.bootstrapper = Bootstrapper(
                params, self.evaluator, self.encoder, config
            )
            # Galois keys are made lazily; make the bootstrap's now.
            for step in bootstrap_rotation_steps(self.evaluator, self.encoder):
                self.keys.rotation_key(step)
            self.keys.conjugation_key()
            self.bound = config.message_bound

    def message(self, k: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, k])
        return rng.uniform(-self.bound, self.bound, self.params.slot_count)

    def iteration(self, k: int) -> float:
        m = self.message(k)
        with kernels.use_backend(self.backend):
            ev, enc = self.evaluator, self.encoder
            ct = ev.drop_to_level(self.encryptor.encrypt(enc.encode(m)), 0)
            out = self.bootstrapper.bootstrap(ct)
            decoded = enc.decode(self.decryptor.decrypt(out))
        return check_bootstrap(decoded, m)

    @staticmethod
    def summarize(err) -> Outcome:
        return Outcome(work={"bootstraps": 1}, simulated={"ckks_max_err": err})


WORKLOADS = {
    cls.name: cls for cls in (Table6Lstm, FleetKeyswitch, CkksBootstrap)
}

"""Pinned per-request records of the serve loop.

Each single-engine case serves one configuration on one warm engine
(``ClusterPolicy(instances=1, key_upload_bytes=0)``) and hashes every
request's ``(request_id, job, arrival, admit, start, finish,
batch_index, rejected)`` tuple. The digests were recorded from the
dedicated single-instance serving loop this one replaced, so any drift
in admission, batching, dispatch or backpressure shows up here — not
only in the makespan/throughput that ``test_baseline_differential``
checks.

The faulted case pins a routed fleet through a crash, a cold restart,
client deadlines and retries — the instants (faults, expiries,
retries) around which the serve loop reorders its work.
"""

import hashlib

import pytest

from repro.serve import (
    KEY_SET_BYTES,
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    FaultPlan,
    InstanceCrash,
    PoissonArrivals,
    ResiliencePolicy,
    RetryPolicy,
    TenantPopulation,
    TraceArrivals,
)

#: name -> (workload, arrivals, batch policy, seed, passes, digest)
CASES = {
    "keyswitch-r300-b8": (
        "keyswitch",
        PoissonArrivals(rate=300.0, count=64, seed=0),
        BatchPolicy(max_batch_size=8),
        0, None,
        "adea59deede98c56fa4b3c06c5204e522b4956fe57b2ae5d731ac70c4e989442",
    ),
    "keyswitch+streaming-r8000": (
        "keyswitch,streaming",
        PoissonArrivals(rate=8000.0, count=400, seed=3),
        BatchPolicy(),
        3, None,
        "ceab07b86a8e21ba49ff634367efba67bbae05e85a588c9ed60ad851ffe6fecf",
    ),
    "sjf-mixed": (
        "keyswitch,streaming",
        PoissonArrivals(rate=2000.0, count=48, seed=4),
        BatchPolicy(max_batch_size=2, order="sjf"),
        4, None,
        "d5b120a9817975cde8145f521b7c6df5093d4f795b6badaccee6e47eeec3027c",
    ),
    "trace-backpressure": (
        "keyswitch",
        TraceArrivals([0.0, 1e-5, 2e-5, 3e-5, 4e-5, 5e-5]),
        BatchPolicy(max_batch_size=1, max_queue_depth=2),
        0, None,
        "dea661568f3dc88bcc697479e94205a42855057c7c590a85a2b3f0f85a92fb11",
    ),
    "poisson-backpressure": (
        "keyswitch",
        PoissonArrivals(rate=2000.0, count=48, seed=1),
        BatchPolicy(max_batch_size=2, max_queue_depth=4),
        1, None,
        "5d449d779ed67c005a47f25583f5d74931ebec4707dd196d47f125b69b08f568",
    ),
    "inflight4-queue-delay": (
        "keyswitch",
        PoissonArrivals(rate=900.0, count=32, seed=0),
        BatchPolicy(
            max_batch_size=8, max_queue_delay=0.001,
            max_inflight_batches=4,
        ),
        0, None,
        "57a53bbf6b0c6c2a6111d55d5bc2fcc858183d85ab92864eb0d968fda66f87e6",
    ),
    "passes-default-sjf": (
        "rotations",
        PoissonArrivals(rate=300.0, count=16, seed=3),
        BatchPolicy(max_batch_size=4, order="sjf"),
        3, "default",
        "f246a30c483cb3127ec113d86a4f500d10e74199ca5a0058f3dd984964947661",
    ),
}


def record_digest(records) -> str:
    rows = [
        (
            r.request_id, r.job, r.arrival_seconds, r.admit_seconds,
            r.start_seconds, r.finish_seconds, r.batch_index, r.rejected,
        )
        for r in records
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_single_engine_records_pinned(name):
    workload, arrivals, batch_policy, seed, passes, want = CASES[name]
    result = ClusterSimulator(
        policy=ClusterPolicy(instances=1, key_upload_bytes=0),
        batch_policy=batch_policy,
    ).run(workload, arrivals, seed=seed, passes=passes)
    assert record_digest(result.records) == want


#: Every public field of every record of the faulted fleet run below.
FAULTED_FLEET_DIGEST = (
    "86c2012bf887b16865710f906b8974e5f45c5bd9e867361b493ecb7c9d8435bc"
)


def test_faulted_fleet_records_pinned():
    # The bench_fault_recovery.py smoke scenario on key-affinity: three
    # instances, instance 0 crashes at 80 ms and restarts cold 20 ms
    # later, up to four jittered attempts. The client deadline is 30 ms
    # (the bench's is 100 ms) so queued requests also expire.
    result = ClusterSimulator(
        policy=ClusterPolicy(
            instances=3,
            router="key-affinity",
            key_cache_capacity=4,
            key_upload_bytes=4 * KEY_SET_BYTES,
        ),
        batch_policy=BatchPolicy(
            max_batch_size=4, max_queue_delay=0.0005,
            max_inflight_batches=2,
        ),
    ).run(
        "keyswitch",
        PoissonArrivals(rate=600.0, count=128, seed=7),
        seed=7,
        population=TenantPopulation(tenants=8, key_sets=16, skew=0.8),
        faults=FaultPlan((
            InstanceCrash(instance=0, at_seconds=0.08, restart_after=0.02),
        )),
        resilience=ResiliencePolicy(
            deadline_seconds=0.03,
            retry=RetryPolicy(
                max_attempts=4, backoff_seconds=0.001, jitter=0.5
            ),
            detection_seconds=0.002,
        ),
    )
    result.validate()
    assert (result.crashes, result.restarts) == (1, 1)
    assert result.total_retries and result.abandoned
    rows = [
        tuple(getattr(r, f) for f in r.__dataclass_fields__)
        for r in result.records
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == FAULTED_FLEET_DIGEST

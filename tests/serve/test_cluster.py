"""Fleet-level behavior: routed multi-instance serving.

Rate calibration matches the single-instance serving tests: one
keyswitch request is ~3 ms of serial work (~330 req/s saturation per
instance without key traffic). Key uploads here use the heavy
multi-key bundle (4x the switch-key set, ~5 ms at HBM bandwidth) so
key movement is a first-order cost, as in
``benchmarks/bench_fleet_scaling.py``.
"""

import pytest

from repro.errors import ParameterError
from repro.obs import cluster_trace_events, collecting
from repro.serve import (
    KEY_SET_BYTES,
    AutoscalerPolicy,
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    PoissonArrivals,
    TenantPopulation,
    request_type,
)
from repro.serve.cluster import KEY_UPLOAD_LABEL, _with_key_upload
from repro.sim.validate import validate_program

HEAVY_KEYS = 4 * KEY_SET_BYTES

SKEWED = TenantPopulation(tenants=8, key_sets=16, skew=0.8)

BOUNDED = BatchPolicy(
    max_batch_size=4,
    max_queue_delay=0.0005,
    max_inflight_batches=2,
    max_queue_depth=12,
)


def run_cluster(
    *,
    instances=2,
    router="key-affinity",
    rate=480.0,
    count=48,
    seed=7,
    population=SKEWED,
    key_cache=4,
    key_bytes=HEAVY_KEYS,
    batch_policy=BOUNDED,
    max_tenant_share=None,
    autoscaler=None,
):
    sim = ClusterSimulator(
        policy=ClusterPolicy(
            instances=instances,
            router=router,
            key_cache_capacity=key_cache,
            key_upload_bytes=key_bytes,
            max_tenant_share=max_tenant_share,
            autoscaler=autoscaler,
        ),
        batch_policy=batch_policy,
    )
    return sim.run(
        "keyswitch",
        PoissonArrivals(rate=rate, count=count, seed=seed),
        seed=seed,
        population=population,
    )


class TestPolicyValidation:
    def test_zero_instances_rejected(self):
        with pytest.raises(ParameterError):
            ClusterPolicy(instances=0)

    def test_unknown_router_rejected_at_run(self):
        sim = ClusterSimulator(policy=ClusterPolicy(router="nope"))
        with pytest.raises(ParameterError, match="unknown router"):
            sim.run(
                "keyswitch", PoissonArrivals(rate=100.0, count=4)
            )

    def test_autoscaler_ceiling_below_floor_rejected(self):
        with pytest.raises(ParameterError):
            ClusterPolicy(
                instances=4,
                autoscaler=AutoscalerPolicy(max_instances=2),
            )

    def test_tenant_share_bounds(self):
        with pytest.raises(ParameterError):
            ClusterPolicy(max_tenant_share=0.0)
        with pytest.raises(ParameterError):
            ClusterPolicy(max_tenant_share=1.5)


class TestDeterminism:
    def test_summary_bit_identical_across_runs(self):
        a = run_cluster(seed=5).summary()
        b = run_cluster(seed=5).summary()
        assert a == b  # exact float equality, not approx

    def test_seed_changes_outcome(self):
        a = run_cluster(seed=0).summary()
        b = run_cluster(seed=1).summary()
        assert a != b

    def test_job_and_identity_streams_match_fleet_sizes(self):
        # The same seed must draw the same per-request job/tenant/key
        # sequence regardless of how many instances serve it.
        one = run_cluster(instances=1, count=24)
        four = run_cluster(instances=4, count=24)
        assert [r.job for r in one.records] == [
            r.job for r in four.records
        ]
        assert [(r.tenant, r.key_set) for r in one.records] == [
            (r.tenant, r.key_set) for r in four.records
        ]


class TestSchedulesValid:
    def test_every_instance_passes_validator(self):
        result = run_cluster(instances=3, count=36)
        result.validate()  # raises on any invariant violation

    def test_key_uploads_appear_in_programs(self):
        result = run_cluster(instances=2, count=24)
        assert result.key_misses > 0
        uploads = [
            task
            for report in result.instances
            for task in report.program.tasks
            if task.op_label.startswith(KEY_UPLOAD_LABEL)
        ]
        assert len(uploads) == result.key_misses
        assert all(task.hbm_read_bytes == HEAVY_KEYS for task in uploads)

    def test_key_upload_variant_built_once_per_key_set(self):
        job = request_type("keyswitch")
        variant = _with_key_upload(job.program, HEAVY_KEYS, 3)
        assert _with_key_upload(job.program, HEAVY_KEYS, 3) is variant
        other = _with_key_upload(job.program, HEAVY_KEYS, 4)
        assert other is not variant
        # Every key set's variant shares the re-based job tasks.
        assert all(a is b for a, b in zip(variant.tasks[1:], other.tasks[1:]))
        upload, *rest = variant.tasks
        assert upload.hbm_read_bytes == HEAVY_KEYS
        assert upload.op_label == f"{KEY_UPLOAD_LABEL}:k3"
        for task, orig in zip(rest, job.program.tasks):
            assert task.depends_on == (
                tuple(d + 1 for d in orig.depends_on) or (0,)
            )
        validate_program(variant)

    def test_upload_bytes_accounting(self):
        result = run_cluster(instances=2, count=24)
        assert result.upload_bytes == result.key_misses * HEAVY_KEYS

    def test_cache_disabled_uploads_every_request(self):
        result = run_cluster(key_cache=0, count=24)
        assert result.key_hits == 0
        assert result.key_misses == result.admitted

    def test_unbounded_cache_uploads_once_per_set(self):
        result = run_cluster(
            instances=1, key_cache=None, count=48
        )
        distinct = {
            r.key_set for r in result.records if not r.rejected
        }
        assert result.key_misses == len(distinct)


class TestRoutingOutcomes:
    def test_key_affinity_beats_round_robin_when_skewed(self):
        # The acceptance gate of bench_fleet_scaling.py, at test
        # scale: offered load between the all-hit and low-hit fleet
        # capacity, so the router's hit rate decides throughput.
        affinity = run_cluster(
            instances=4, router="key-affinity", rate=960.0, count=160
        )
        rr = run_cluster(
            instances=4, router="round-robin", rate=960.0, count=160
        )
        assert affinity.key_hit_rate > rr.key_hit_rate
        assert (
            affinity.throughput_rps > rr.throughput_rps
        )

    def test_round_robin_spreads_admissions(self):
        result = run_cluster(
            instances=2, router="round-robin", count=40
        )
        admitted = [r.admitted for r in result.instances]
        assert all(count > 0 for count in admitted)

    def test_all_arrivals_accounted(self):
        result = run_cluster(instances=3, count=60)
        assert result.arrived == 60
        assert result.admitted + result.rejected == 60
        assert result.completed == result.admitted


class TestBackpressure:
    def test_rejections_attributed_to_routed_instance(self):
        result = run_cluster(
            instances=2,
            router="round-robin",
            rate=4000.0,
            count=64,
            batch_policy=BatchPolicy(
                max_batch_size=4,
                max_inflight_batches=1,
                max_queue_depth=2,
            ),
        )
        assert result.rejected > 0
        by_instance = result.rejected_by_instance()
        assert set(by_instance) == {0, 1}
        assert sum(by_instance.values()) == result.rejected
        for rec in result.records:
            if rec.rejected:
                assert rec.reject_reason == "queue-full"
                assert rec.instance in (0, 1)
                assert rec.finish_seconds is None

    def test_tenant_share_cap_rejects_hog(self):
        # One tenant dominates arrivals; with a 50% share cap some of
        # its arrivals must bounce even though the queue has room.
        result = run_cluster(
            instances=1,
            rate=2000.0,
            count=48,
            population=TenantPopulation(
                tenants=2, key_sets=2, skew=3.0
            ),
            max_tenant_share=0.5,
            batch_policy=BatchPolicy(
                max_batch_size=4,
                max_inflight_batches=1,
                max_queue_depth=8,
            ),
        )
        reasons = {
            r.reject_reason for r in result.records if r.rejected
        }
        assert "tenant-share" in reasons


class TestAutoscaler:
    def test_scales_out_under_queue_pressure(self):
        result = run_cluster(
            instances=1,
            rate=2000.0,
            count=64,
            autoscaler=AutoscalerPolicy(
                max_instances=3, queue_high=2.0
            ),
        )
        assert result.scale_events
        assert len(result.instances) > 1
        assert len(result.instances) <= 3
        for report in result.instances[1:]:
            assert report.activated_seconds > 0.0
        result.validate()  # epoch-born engines still validator-clean

    def test_no_scaling_under_light_load(self):
        result = run_cluster(
            instances=1,
            rate=50.0,
            count=16,
            autoscaler=AutoscalerPolicy(max_instances=3),
        )
        assert not result.scale_events
        assert len(result.instances) == 1


class TestObservability:
    def test_cluster_metrics_namespace(self):
        with collecting() as registry:
            run_cluster(instances=2, count=24)
        snapshot = registry.snapshot()
        assert snapshot["cluster.instances"] == 2
        assert snapshot["cluster.requests.arrived"] == 24
        assert "cluster.key_cache.hits" in snapshot
        assert "cluster.instance.0.admitted" in snapshot
        assert "cluster.instance.1.admitted" in snapshot

    def test_trace_has_one_process_per_instance(self):
        result = run_cluster(instances=2, count=24)
        events = cluster_trace_events(result)
        process_names = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "process_name"
        }
        assert process_names == {
            "poseidon-i0", "poseidon-i1", "poseidon-router"
        }
        spans = [e for e in events if e.get("ph") == "b"]
        assert {e["pid"] for e in spans} <= {0, 1}
        assert any(
            e.get("name") == "cluster_queue_depth" for e in events
        )

"""End-to-end serve-loop behavior on one warm engine.

Every case runs :class:`ClusterSimulator` with one instance and no
key-upload bytes — the single-engine serve. Rates here are calibrated
to the keyswitch mix on the default config: one request is ~3 ms of
serial work, so batch=1 saturates near ~330 req/s. "Light load" tests
sit far below that; "overload" tests far above it.
"""

import pytest

from repro.errors import ParameterError
from repro.obs import collecting
from repro.serve import (
    BatchPolicy,
    ClusterPolicy,
    ClusterSimulator,
    PoissonArrivals,
    TraceArrivals,
    request_type,
)


def single_engine(policy=None):
    return ClusterSimulator(
        policy=ClusterPolicy(instances=1, key_upload_bytes=0),
        batch_policy=policy,
    )


def serve(
    *, rate=200.0, count=24, seed=0, workload="keyswitch", policy=None
):
    sim = single_engine(policy)
    return sim.run(
        workload,
        PoissonArrivals(rate=rate, count=count, seed=seed),
        seed=seed,
    )


class TestDeterminism:
    def test_summary_bit_identical_across_runs(self):
        a = serve(seed=5).summary()
        b = serve(seed=5).summary()
        assert a == b  # exact float equality, not approx

    def test_seed_changes_outcome(self):
        a = serve(seed=0).summary()
        b = serve(seed=1).summary()
        assert a != b

    def test_mixed_workload_deterministic(self):
        a = serve(workload="keyswitch,streaming", seed=2)
        b = serve(workload="keyswitch,streaming", seed=2)
        assert a.summary() == b.summary()
        assert [r.job for r in a.records] == [r.job for r in b.records]
        assert len({r.job for r in a.records}) == 2


class TestRequestLifecycle:
    def test_all_requests_complete_and_ordered(self):
        result = serve(count=32)
        assert result.arrived == 32
        assert result.rejected == 0
        assert result.completed == 32
        for rec in result.records:
            assert rec.admit_seconds >= rec.arrival_seconds
            assert rec.start_seconds >= rec.admit_seconds
            assert rec.finish_seconds > rec.start_seconds
            assert rec.latency_seconds > 0
            assert rec.queue_wait_seconds >= 0
            assert rec.batch_index is not None

    def test_schedule_passes_engine_invariants(self):
        result = serve(count=24, policy=BatchPolicy(max_batch_size=4))
        result.validate()  # raises on any invariant violation

    def test_percentiles_monotone(self):
        result = serve(count=48, rate=400.0)
        p50 = result.latency_percentile(0.50)
        p95 = result.latency_percentile(0.95)
        p99 = result.latency_percentile(0.99)
        assert 0 < p50 <= p95 <= p99 <= max(result.latencies())

    def test_percentile_rejects_bad_quantile(self):
        result = serve(count=8)
        with pytest.raises(ParameterError):
            result.latency_percentile(1.5)

    def test_empty_workload_rejected(self):
        sim = single_engine()
        with pytest.raises(ParameterError, match="job type"):
            sim.run((), PoissonArrivals(rate=10.0, count=1))

    def test_unknown_workload_raises_keyerror(self):
        sim = single_engine()
        with pytest.raises(KeyError, match="unknown request workload"):
            sim.run("nope", PoissonArrivals(rate=10.0, count=1))


class TestBackpressure:
    def test_depth_bound_rejects_burst(self):
        # All arrivals land at (nearly) the same instant while a batch
        # of one is in flight: the queue bound must reject the excess.
        policy = BatchPolicy(max_batch_size=1, max_queue_depth=2)
        sim = single_engine(policy)
        arrivals = TraceArrivals([0.0, 1e-5, 2e-5, 3e-5, 4e-5, 5e-5])
        result = sim.run("keyswitch", arrivals, seed=0)
        assert result.rejected > 0
        assert result.admitted + result.rejected == 6
        assert result.completed == result.admitted
        for rec in result.records:
            if rec.rejected:
                assert rec.admit_seconds is None
                assert rec.finish_seconds is None
                assert rec.latency_seconds is None

    def test_unbounded_queue_never_rejects(self):
        result = serve(rate=2000.0, count=40)
        assert result.rejected == 0


class TestBatchingPolicies:
    def test_batching_raises_saturated_throughput(self):
        # Past saturation, batch=8 overlaps independent requests across
        # the operator cores; batch=1 is serial per request.
        b1 = serve(rate=900.0, count=40,
                   policy=BatchPolicy(max_batch_size=1))
        b8 = serve(rate=900.0, count=40,
                   policy=BatchPolicy(max_batch_size=8))
        assert b8.throughput_rps > b1.throughput_rps
        assert b8.latency_percentile(0.99) < b1.latency_percentile(0.99)

    def test_light_load_insensitive_to_batch_size(self):
        # Far below saturation the work-conserving batcher admits each
        # request as it arrives regardless of the batch bound.
        b1 = serve(rate=20.0, count=16,
                   policy=BatchPolicy(max_batch_size=1))
        b8 = serve(rate=20.0, count=16,
                   policy=BatchPolicy(max_batch_size=8))
        assert b1.throughput_rps == pytest.approx(
            b8.throughput_rps, rel=0.05
        )

    def test_sjf_favors_short_jobs_in_mixed_queue(self):
        # Overloaded mixed queue: under SJF the cheap streaming jobs
        # should see lower mean latency than under FIFO.
        def run(order):
            return serve(
                workload="keyswitch,streaming", rate=2000.0, count=48,
                seed=4,
                policy=BatchPolicy(max_batch_size=2, order=order),
            )

        fifo, sjf = run("fifo"), run("sjf")

        def mean_latency(result, job):
            vals = [
                r.latency_seconds for r in result.records
                if r.job == job and r.latency_seconds is not None
            ]
            return sum(vals) / len(vals)

        assert (mean_latency(sjf, "streaming")
                < mean_latency(fifo, "streaming"))

    def test_queue_delay_bounds_partial_batch_wait(self):
        # A tiny delay timer with pipelined admission: queue waits stay
        # near the timer even though batches are not full.
        policy = BatchPolicy(
            max_batch_size=8, max_queue_delay=0.001,
            max_inflight_batches=4,
        )
        result = serve(rate=100.0, count=24, policy=policy)
        waits = [
            r.queue_wait_seconds for r in result.records
            if r.queue_wait_seconds is not None
        ]
        assert max(waits) <= 0.001 + result.summary()["makespan_seconds"]
        result.validate()

    def test_max_inflight_pipelines_admission(self):
        deep = serve(rate=900.0, count=32,
                     policy=BatchPolicy(max_batch_size=4,
                                        max_inflight_batches=4))
        shallow = serve(rate=900.0, count=32,
                        policy=BatchPolicy(max_batch_size=4,
                                           max_inflight_batches=1))
        assert (
            deep.summary()["batches"] >= shallow.summary()["batches"]
            or deep.throughput_rps >= shallow.throughput_rps
        )
        deep.validate()


class TestQueueDepthSeries:
    def test_series_tracks_overload(self):
        light = serve(rate=20.0, count=16)
        heavy = serve(rate=2000.0, count=16)
        assert heavy.max_queue_depth > light.max_queue_depth
        for t, depth in heavy.queue_depth_series:
            assert t >= 0 and depth >= 0


class TestMetricsPublishing:
    def test_serve_namespace_published(self):
        with collecting() as reg:
            result = serve(count=16)
        snap = reg.snapshot()
        assert snap["cluster.requests.arrived"] == 16
        assert snap["cluster.requests.completed"] == 16
        assert snap["cluster.batches"] == result.summary()["batches"]
        assert snap["cluster.throughput_rps"] == result.throughput_rps
        assert snap["cluster.latency.p99_seconds"] == \
            result.latency_percentile(0.99)
        assert snap["cluster.request.latency_seconds"]["count"] == 16
        assert snap["cluster.request.queue_wait_seconds"]["count"] == 16
        assert snap["cluster.queue.depth"]["count"] == \
            len(result.queue_depth_series)
        # The engine's run-level sim.* view stays per instance.
        assert "sim.tasks" not in snap
        assert result.instances[0].sim.task_records

    def test_no_collection_no_cost(self):
        result = serve(count=4)
        assert result.completed == 4  # runs fine with collection off


class TestHeavyRequestTypes:
    def test_paper_benchmark_as_request_body(self):
        # A single LR request served open-system: same task count as
        # the closed-system compile, full lifecycle accounting.
        job = request_type("lr")
        sim = single_engine(BatchPolicy(max_batch_size=1))
        result = sim.run((job,), TraceArrivals([0.0]), seed=0)
        assert result.completed == 1
        assert len(result.instances[0].program.tasks) == job.task_count
        assert result.records[0].latency_seconds > 0
        result.validate()

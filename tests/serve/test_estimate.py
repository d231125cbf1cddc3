"""The shared service estimator and its program-keyed cache.

Regression context: both simulators used to carry private estimate
caches keyed on ``job.name``. Reusing one simulator across ``run()``
calls with different ``passes=`` pipelines kept quoting the first
pipeline's estimate for the second pipeline's program — the job name
does not change when the pass pipeline rewrites the task list. The
pinning tests here fail against any name-keyed cache.
"""

from repro.serve import ServiceEstimator, request_type
from repro.serve.requests import resolve_request_mix
from repro.sim.engine import ScheduleEngine


def serial_sum(engine, program):
    cfg = engine.config
    return sum(
        max(
            engine.cores.task_cycles(t).cycles * cfg.cycle_seconds,
            engine.memory.task_timing(t).spad_seconds,
        )
        for t in program.tasks
    )


class TestEstimator:
    def test_estimate_is_the_serial_execution_sum(self):
        engine = ScheduleEngine()
        job = request_type("keyswitch")
        est = ServiceEstimator().estimate(engine, job)
        assert est == serial_sum(engine, job.program)
        assert est > 0

    def test_cache_hit_returns_identical_float(self):
        engine = ScheduleEngine()
        estimator = ServiceEstimator()
        job = request_type("keyswitch")
        assert estimator.estimate(engine, job) == \
            estimator.estimate(engine, job)

    def test_same_name_different_passes_not_conflated(self):
        # The stale-cache regression: "rotations" compiles to different
        # programs under different pass pipelines while keeping its
        # job name; a name-keyed cache quotes the first estimate for
        # both.
        engine = ScheduleEngine()
        estimator = ServiceEstimator()
        cold = request_type("rotations")
        hoisted = request_type("rotations", passes=("hoist-rotations",))
        assert cold.name == hoisted.name
        assert cold.program is not hoisted.program
        est_cold = estimator.estimate(engine, cold)
        est_hoisted = estimator.estimate(engine, hoisted)
        assert est_cold != est_hoisted
        # Interleaved lookups keep returning each program's own value.
        assert estimator.estimate(engine, cold) == est_cold
        assert estimator.estimate(engine, hoisted) == est_hoisted

    def test_mix_resolution_feeds_distinct_programs(self):
        engine = ScheduleEngine()
        estimator = ServiceEstimator()
        by_pipeline = {}
        for passes in (None, "default"):
            jobs = resolve_request_mix("rotations", passes=passes)
            by_pipeline[passes] = {
                job.name: estimator.estimate(engine, job)
                for job in jobs
            }
        assert by_pipeline[None] != by_pipeline["default"]


class TestSimulatorIntegration:
    def test_simulator_reuse_across_pipelines_not_stale(self):
        # One simulator object, two runs differing only in
        # passes=: the SJF/backlog estimates must track the program
        # actually being served, so the summaries must differ.
        from repro.serve import (
            BatchPolicy,
            ClusterPolicy,
            ClusterSimulator,
            PoissonArrivals,
        )

        sim = ClusterSimulator(
            policy=ClusterPolicy(instances=1, key_upload_bytes=0),
            batch_policy=BatchPolicy(max_batch_size=4, order="sjf"),
        )

        def run(passes):
            return sim.run(
                "rotations",
                PoissonArrivals(rate=300.0, count=16, seed=3),
                seed=3,
                passes=passes,
            )

        no_passes = run(None)
        piped = run("default")
        assert piped.makespan_seconds != no_passes.makespan_seconds
        # Replay of the first configuration still matches itself (the
        # cache did not poison the original program's estimate).
        again = sim.run(
            "rotations",
            PoissonArrivals(rate=300.0, count=16, seed=3),
            seed=3,
            passes=None,
        )
        assert again.makespan_seconds == no_passes.makespan_seconds

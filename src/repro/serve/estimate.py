"""Shared service-time estimation for the serving layer.

The serve loop (:class:`~repro.serve.cluster.ClusterSimulator`) needs
a serial-execution estimate per request: it is the SJF batching key
and the shortest-expected-job / key-affinity routing backlog unit. A
cache keyed on ``job.name`` would silently go stale when one simulator
object is reused across ``run()`` calls with different ``passes=``
pipelines (the pipeline rewrites the job's task list without renaming
the job), so the cache here is keyed on the *resolved program*: two
jobs with the same name but different compiled task lists never share
an estimate.
"""

from __future__ import annotations


class ServiceEstimator:
    """Serial-execution estimates, cached per resolved program.

    The estimate is the sum over the program's tasks of each task's
    core-side occupancy (``max(compute, scratchpad stream)``) — the
    serial lower bound a request adds to an instance's backlog.

    The cache key is the program object itself (by identity, with the
    program kept alive by the cache so ids cannot be recycled), not the
    job name: compiler passes produce *different programs under the
    same job name*, and a name-keyed cache would keep quoting the old
    pipeline's estimate.
    """

    def __init__(self):
        self._cache: dict[int, tuple[object, float]] = {}

    def estimate(self, engine, job) -> float:
        """Serial-execution estimate of ``job`` on ``engine``'s models."""
        program = job.program
        hit = self._cache.get(id(program))
        if hit is not None and hit[0] is program:
            return hit[1]
        cfg = engine.config
        est = sum(
            max(
                engine.cores.task_cycles(t).cycles * cfg.cycle_seconds,
                engine.memory.task_timing(t).spad_seconds,
            )
            for t in program.tasks
        )
        self._cache[id(program)] = (program, est)
        return est

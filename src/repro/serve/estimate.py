"""Shared service-time estimation for the serving layer.

The serve loop (:class:`~repro.serve.cluster.ClusterSimulator`) needs
a serial-execution estimate per request: it is the SJF batching key
and the shortest-expected-job / key-affinity routing backlog unit. A
cache keyed on ``job.name`` would silently go stale when one simulator
object is reused across ``run()`` calls with different ``passes=``
pipelines (the pipeline rewrites the job's task list without renaming
the job), so the estimate is derived from the *resolved program*: it
sums the program's timed form, which the engine memoizes on the
program itself. Two jobs with the same name but different compiled
task lists never share an estimate.
"""

from __future__ import annotations


class ServiceEstimator:
    """Serial-execution estimates of request programs.

    The estimate is the sum over the program's tasks of each task's
    core-side occupancy (``max(compute, scratchpad stream)``) — the
    serial lower bound a request adds to an instance's backlog. Those
    occupancies are the unscaled durations of the program's timed form
    (:meth:`repro.sim.engine.ScheduleEngine.timed_form`), the very
    numbers the engine schedules with, so the estimate and the
    schedule share one cost formula. The form is memoized on the
    program (not on the job name), so compiler passes that produce a
    different program under the same job name get their own estimate.
    """

    def estimate(self, engine, job) -> float:
        """Serial-execution estimate of ``job`` on ``engine``'s models."""
        return sum(engine.timed_form(job.program).durations)

"""Timeline analysis of a simulated run — the scheduler's Gantt view.

Turns the per-task records of a :class:`~repro.sim.engine.
SimulationResult` into per-core occupancy intervals, idle-gap
statistics and a coarse text rendering. Used to debug operator-reuse
behaviour (is the NTT array actually saturated during keyswitch?).
The scheduler's invariants (no overlap on any core instance among
them) are checked by :func:`repro.sim.validate.validate_schedule`.

Occupancy vs. compute: an interval spans the whole time the core
instance was *held* (including the stall tail waiting on the task's
residual HBM stream); :meth:`Timeline.utilization` reports that
occupancy while :meth:`Timeline.compute_utilization` excludes the
stall, matching the stall-free busy attribution of Figs. 7/8/9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.engine import SimulationResult


@dataclass(frozen=True)
class CoreInterval:
    """One occupancy interval on a core array instance.

    ``stall`` is the tail of the interval during which the instance was
    held but idle (waiting on the task's own HBM stream); the
    compute-busy part is ``duration - stall``.
    """

    core: str
    start: float
    end: float
    op_label: str
    instance: int = 0
    stall: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of (start, end) intervals, sorted and coalesced."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start > last_end:
            merged.append((start, end))
        else:
            merged[-1] = (last_start, max(last_end, end))
    return merged


class Timeline:
    """Per-core occupancy extracted from a simulation result."""

    def __init__(self, result: SimulationResult):
        self.result = result
        self.intervals: dict[str, list[CoreInterval]] = {}
        self.instance_counts: dict[str, int] = {}
        for record in result.task_records:
            self.intervals.setdefault(record.core, []).append(
                CoreInterval(
                    core=record.core,
                    start=record.start,
                    end=record.end,
                    op_label=record.op_label,
                    instance=record.instance,
                    stall=record.stall_seconds,
                )
            )
            prev = self.instance_counts.get(record.core, 1)
            self.instance_counts[record.core] = max(prev, record.instance + 1)
        for intervals in self.intervals.values():
            intervals.sort(key=lambda iv: (iv.start, iv.instance))

    # ------------------------------------------------------------------
    def utilization(self, core: str) -> float:
        """Occupancy fraction of one core array over the makespan.

        Normalized by the array's instance count, so a two-instance
        array running one task half the time reports 0.25. Includes
        stall tails; see :meth:`compute_utilization` for the stall-free
        figure.
        """
        total = self.result.total_seconds * self.instance_counts.get(core, 1)
        if total <= 0:
            return 0.0
        held = sum(iv.duration for iv in self.intervals.get(core, []))
        return min(1.0, held / total)

    def compute_utilization(self, core: str) -> float:
        """Stall-free busy fraction of one core array (Fig. 7/8/9 basis)."""
        total = self.result.total_seconds * self.instance_counts.get(core, 1)
        if total <= 0:
            return 0.0
        busy = sum(
            iv.duration - iv.stall for iv in self.intervals.get(core, [])
        )
        return min(1.0, busy / total)

    def idle_gaps(self, core: str) -> list[tuple[float, float]]:
        """Idle intervals of one core between its first and last task.

        Computed over the union across instances: a gap is a span when
        *no* instance of the array held a task.
        """
        merged = _merge(
            [(iv.start, iv.end) for iv in self.intervals.get(core, [])]
        )
        return [
            (prev_end, cur_start)
            for (_, prev_end), (cur_start, _) in zip(merged, merged[1:])
            if cur_start > prev_end
        ]

    def busiest_core(self) -> str:
        """The core with the highest occupancy time."""
        if not self.intervals:
            raise SimulationError("empty timeline")
        return max(
            self.intervals,
            key=lambda core: sum(iv.duration for iv in self.intervals[core]),
        )

    # ------------------------------------------------------------------
    def render(self, *, width: int = 64) -> str:
        """Coarse text Gantt: one row per core, '#' where busy."""
        total = self.result.total_seconds
        if total <= 0:
            return "(empty timeline)"
        lines = []
        for core in sorted(self.intervals):
            cells = [" "] * width
            for iv in self.intervals[core]:
                lo = int(iv.start / total * width)
                hi = max(lo + 1, int(iv.end / total * width))
                for i in range(lo, min(hi, width)):
                    cells[i] = "#"
            busy = 100 * self.utilization(core)
            lines.append(f"{core:14s} |{''.join(cells)}| {busy:5.1f}%")
        return "\n".join(lines)

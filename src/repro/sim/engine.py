"""The discrete-event scheduler: operator tasks onto shared resources.

Resources:

- one array per operator core type ("MA", "MM", "NTT", "Automorphism"),
  each with :meth:`HardwareConfig.instances_of` identical instances
  (the paper's prototype has one of each; the arrays are internally
  SIMD-wide, so task-level concurrency across *different* arrays is
  what the paper's operator reuse exploits);
- the HBM, modelled as ``hbm_channels`` pseudo-channel slots; a
  transfer occupies :meth:`MemoryModel.channels_for` of them, so small
  transfers can stream concurrently while full-stripe transfers
  serialize.

Scheduling is event-driven and out of order: a task enters the ready
queue when its dependencies finish, its off-chip transfer is granted
channel slots as soon as they are free (in ready order, not submission
order), and the task dispatches onto the first free instance of its
core array. A ready task is never blocked behind a stalled
earlier-submitted one — the head-of-line hazard the one-pass in-order
scheduler (kept as :func:`in_order_makespan` for comparison) suffers.

Busy time and stall time are attributed separately: a task occupies
its core for ``max(compute, residual stream time)``, but only the
compute-occupied part counts as busy; the tail spent waiting on the
HBM stream is recorded as ``stall_seconds``. Busy-time statistics per
core and per FHE basic operation feed Figs. 7/8/9, and HBM occupancy
feeds the Table VII bandwidth-utilization analysis.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.errors import SchedulingError
from repro.obs import metrics
from repro.sim.config import CORE_ARRAYS, HardwareConfig
from repro.sim.cores import CoreModel, CoreTiming
from repro.sim.memory import MemoryModel, MemoryTiming

if TYPE_CHECKING:  # avoid a circular import; engine only needs the type
    from repro.compiler.program import OperatorProgram

#: Kept as the canonical core list (re-exported for compatibility).
CORE_NAMES = CORE_ARRAYS


@dataclass(slots=True)
class TaskRecord:
    """Scheduling outcome of one task.

    Wait/stall semantics:

    - ``ready_seconds`` — when every dependency had finished.
    - ``core_wait_seconds`` — ``start - ready``: time spent ready but
      waiting for a free instance of the core array.
    - ``hbm_wait_seconds`` — ``hbm_start - ready``: time the task's
      off-chip transfer sat ready waiting for HBM channel slots (zero
      when the task moves no off-chip bytes).
    - ``queue_wait_seconds`` — ``max(core_wait, hbm_wait)``: total
      time the task sat ready before *both* its core dispatch and its
      HBM grant were underway. This includes HBM arbitration, not just
      core contention.
    - ``stall_seconds`` — ``end - start - max(compute, spad)``: time
      the core instance was held but idle, waiting for the task's own
      residual HBM stream. Busy attribution everywhere downstream
      (``core_busy_seconds``, Figs. 7/8/9) excludes this.

    ``hbm_start``/``hbm_end`` bound the task's slot on the HBM
    channels and ``hbm_channels_used`` counts the pseudo-channel slots
    it occupied (all zero when the task moves no off-chip bytes).
    ``instance`` is which instance of the core array ran the task.
    These feed the Chrome-trace exporter's per-instance, stall and HBM
    tracks (:mod:`repro.obs.trace_export`).
    """

    start: float
    end: float
    core: str
    compute_seconds: float
    hbm_seconds: float
    hbm_bytes: int
    op_label: str
    queue_wait_seconds: float = 0.0
    hbm_start: float = 0.0
    hbm_end: float = 0.0
    instance: int = 0
    ready_seconds: float = 0.0
    stall_seconds: float = 0.0
    core_wait_seconds: float = 0.0
    hbm_wait_seconds: float = 0.0
    hbm_channels_used: int = 0


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated program.

    Attributes:
        total_seconds: makespan.
        core_busy_seconds: compute-occupied time per core array
            (stall-free: HBM-stall tails are *not* counted as busy).
        op_seconds: attributed busy time per FHE basic operation.
        operator_seconds: attributed busy time per operator core,
            nested by basic operation (Fig. 7 data).
        hbm_busy_seconds: time at least one HBM channel was streaming
            (union of transfer intervals, so it never exceeds the
            makespan).
        hbm_bytes: total off-chip traffic.
        task_records: per-task schedule (ordered as submitted).
        core_stall_seconds: per-core time instances were held but
            stalled on their task's residual HBM stream.
    """

    total_seconds: float
    core_busy_seconds: dict[str, float]
    op_seconds: dict[str, float]
    operator_seconds: dict[str, dict[str, float]]
    hbm_busy_seconds: float
    hbm_bytes: int
    task_records: list[TaskRecord] = field(repr=False, default_factory=list)
    core_stall_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of the run during which the HBM was streaming."""
        if self.total_seconds <= 0:
            return 0.0
        return min(1.0, self.hbm_busy_seconds / self.total_seconds)

    @property
    def stall_seconds(self) -> float:
        """Total core-held-but-stalled time across all arrays."""
        return sum(self.core_stall_seconds.values())

    def achieved_bandwidth(self) -> float:
        """Average delivered HBM bandwidth in bytes/second."""
        if self.total_seconds <= 0:
            return 0.0
        return self.hbm_bytes / self.total_seconds

    def delivered_bandwidth_fraction(self, config: HardwareConfig) -> float:
        """Achieved bandwidth as a fraction of the configured peak."""
        return self.achieved_bandwidth() / config.hbm_bandwidth

    def core_share(self) -> dict[str, float]:
        """Normalized busy-time share per core (Fig. 9-style)."""
        total = sum(self.core_busy_seconds.values())
        if total <= 0:
            return {name: 0.0 for name in self.core_busy_seconds}
        return {
            name: busy / total
            for name, busy in self.core_busy_seconds.items()
        }

    def op_share(self) -> dict[str, float]:
        """Normalized time share per basic operation (Fig. 8-style)."""
        total = sum(self.op_seconds.values())
        if total <= 0:
            return {name: 0.0 for name in self.op_seconds}
        return {name: t / total for name, t in self.op_seconds.items()}


def _merged_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return total + (cur_end - cur_start)


#: The :class:`~repro.sim.tasks.OperatorTask` fields the core and
#: memory models read: every field except ``depends_on`` and
#: ``op_label``. :meth:`TimedForm.build` times each distinct
#: combination once.
TASK_SHAPE_FIELDS = (
    "kind", "elements", "degree", "limbs",
    "hbm_read_bytes", "hbm_write_bytes", "spad_bytes",
)
_task_shape = attrgetter(*TASK_SHAPE_FIELDS)


#: Event kinds, ordered so arrivals at a time t are visible before the
#: grant/dispatch passes triggered by releases at the same t, and both
#: before completion notifications at the same t.
_EV_READY = 0
_EV_RELEASE = 1
_EV_COMPLETE = 2


@dataclass(frozen=True, eq=False)
class TimedForm:
    """A task list's engine timing, computed once and admitted as is.

    Per task (local index ``i``): ``timings[i]`` and ``mems[i]`` are
    the core and memory models' answers, ``durations[i]`` the core
    occupancy ``max(compute, scratchpad stream)`` after the compute
    derate, and ``deps[i]`` the de-duplicated local dependencies.
    ``dependents``, ``roots`` and ``spans`` are derived from them so
    admission is list extends plus one ready event per root; the
    ``spad_*``/``spill_bytes``/``channels`` totals are what admission
    publishes as ``sim.spad.*`` and ``sim.hbm.*`` metrics.

    :meth:`ScheduleEngine.timed_form` builds one; for an
    :class:`~repro.compiler.program.OperatorProgram` it is memoized on
    the program, keyed by ``(HardwareConfig, compute_scale,
    hbm_scale)``, so it lives and dies with its program.
    """

    tasks: tuple
    timings: tuple[CoreTiming, ...]
    mems: tuple[MemoryTiming, ...]
    durations: tuple[float, ...]
    deps: tuple[tuple[int, ...], ...]
    dependents: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]
    #: Initial HBM span per task: ``(0.0, 0.0)`` when it moves no
    #: off-chip bytes (nothing to grant), else ``None``.
    spans: tuple
    spad_hits: int
    spad_misses: int
    spill_bytes: int
    #: ``channels_used`` of every task that moves off-chip bytes, in
    #: task order (one ``sim.hbm.transfers`` each).
    channels: tuple[int, ...]

    @classmethod
    def build(
        cls, tasks, cores: CoreModel, memory: MemoryModel
    ) -> "TimedForm":
        """Run the core and memory models once per distinct task shape.

        Tasks that agree on every :data:`TASK_SHAPE_FIELDS` field time
        identically, so they share one ``(CoreTiming, MemoryTiming,
        duration)`` triple; dependencies are checked and de-duplicated
        per task.
        """
        cycle_seconds = cores.config.cycle_seconds
        shapes: dict[tuple, tuple[CoreTiming, MemoryTiming, float]] = {}
        timings, mems, durations, deps = [], [], [], []
        dependents: list[list[int]] = []
        roots = []
        for i, task in enumerate(tasks):
            key = _task_shape(task)
            timed = shapes.get(key)
            if timed is None:
                timing = cores.task_cycles(task)
                if timing.core not in CORE_NAMES:
                    raise SchedulingError(
                        f"task {i} targets unknown core {timing.core!r}"
                    )
                mem = memory.task_timing(task)
                timed = shapes[key] = (
                    timing,
                    mem,
                    max(timing.cycles * cycle_seconds, mem.spad_seconds),
                )
            local = task.depends_on
            for dep in local:
                if dep < 0 or dep >= i:
                    raise SchedulingError(
                        f"task {i} has forward/invalid dependency {dep}"
                    )
            if len(local) > 1 and len(set(local)) != len(local):
                local = tuple(dict.fromkeys(local))
            timing, mem, duration = timed
            timings.append(timing)
            mems.append(mem)
            durations.append(duration)
            deps.append(local)
            dependents.append([])
            for dep in local:
                dependents[dep].append(i)
            if not local:
                roots.append(i)
        misses = sum(1 for m in mems if m.spill_bytes)
        return cls(
            tasks=tuple(tasks),
            timings=tuple(timings),
            mems=tuple(mems),
            durations=tuple(durations),
            deps=tuple(deps),
            dependents=tuple(tuple(d) for d in dependents),
            roots=tuple(roots),
            spans=tuple(
                None if m.hbm_bytes else (0.0, 0.0) for m in mems
            ),
            spad_hits=len(mems) - misses,
            spad_misses=misses,
            spill_bytes=sum(m.spill_bytes for m in mems),
            channels=tuple(
                m.channels_used for m in mems if m.hbm_bytes
            ),
        )

    def derated(
        self, compute_scale: float, hbm_scale: float
    ) -> "TimedForm":
        """The same form with the fault layer's derates applied:
        ``compute_scale`` multiplies each core occupancy, ``hbm_scale``
        each transfer's channel time."""
        durations, mems = self.durations, self.mems
        if compute_scale != 1.0:
            durations = tuple(d * compute_scale for d in durations)
        if hbm_scale != 1.0:
            mems = tuple(
                replace(m, hbm_seconds=m.hbm_seconds * hbm_scale)
                if m.hbm_bytes else m
                for m in mems
            )
        return replace(self, durations=durations, mems=mems)

    def publish(self, reg) -> None:
        """Count this form's tasks into the ``sim.spad.*`` and
        ``sim.hbm.*`` metrics (once per admission)."""
        if self.spad_misses:
            reg.counter("sim.spad.misses").inc(self.spad_misses)
            reg.counter("sim.spad.spill_bytes").inc(self.spill_bytes)
        if self.spad_hits:
            reg.counter("sim.spad.hits").inc(self.spad_hits)
        if self.channels:
            reg.counter("sim.hbm.transfers").inc(len(self.channels))
            hist = reg.histogram("sim.hbm.channels_used")
            for channels in self.channels:
                hist.observe(channels)


@dataclass
class Submission:
    """One admitted task list on a :class:`ScheduleEngine`.

    ``finish_seconds`` stays ``None`` until every task in the
    submission has committed its end time. ``base``/``count`` locate
    the submission's tasks in the engine's global index space (and in
    the eventual :class:`SimulationResult` record list).
    """

    index: int
    base: int
    count: int
    release_seconds: float
    label: str = ""
    finish_seconds: float | None = None
    _remaining: int = field(repr=False, default=0)
    _max_end: float = field(repr=False, default=0.0)

    @property
    def done(self) -> bool:
        return self.finish_seconds is not None


@dataclass(frozen=True)
class CrashReport:
    """Outcome of :meth:`ScheduleEngine.crash`.

    ``lost`` are the submissions whose completion had not been
    *observed* by the crash instant — their unfinished tasks were
    cancelled, their schedules truncated, and their ``finish_seconds``
    reset to ``None``. The serving layer re-routes or abandons them.
    """

    at_seconds: float
    lost: tuple[Submission, ...]
    kept_tasks: int
    dropped_tasks: int


class ScheduleEngine:
    """Incremental ("warm") event-driven scheduler.

    Holds the live resource state — per-instance core free times, HBM
    pseudo-channel slots, ready/grant queues and the event heap — so
    task lists can be :meth:`submit`-ted at *any* simulated time, while
    previously admitted work is still in flight. The open-system
    serving layer (:mod:`repro.serve`) interleaves admissions with
    :meth:`advance_until`; the closed-system
    :meth:`PoseidonSimulator.run` is the special case of one submission
    at t=0 followed by :meth:`drain`.

    Scheduling semantics are identical to the one-shot engine: a task
    becomes ready at ``max(release, dependency ends)``, transfers are
    granted channel slots in ready order with no head-of-line blocking,
    and a ready task dispatches onto the first free instance of its
    core array.
    """

    def __init__(
        self,
        config: HardwareConfig | None = None,
        *,
        epoch: float = 0.0,
    ):
        if epoch < 0:
            raise SchedulingError(
                f"engine epoch must be >= 0, got {epoch}"
            )
        self.config = config or HardwareConfig()
        self.cores = CoreModel(self.config)
        self.memory = MemoryModel(self.config)
        cfg = self.config
        # Resource state: per-instance core free times (None = occupied
        # by a task whose stream has not been granted yet, so its end is
        # still unknown) and per-pseudo-channel HBM slot free times.
        self._inst_free: dict[str, list[float | None]] = {
            name: [0.0] * cfg.instances_of(name) for name in CORE_NAMES
        }
        self._chan_free: list[float] = [0.0] * cfg.hbm_channels
        self._events: list[tuple[float, int, int]] = []
        # Timestamps with a release event already queued. Releases are
        # anonymous pass triggers (payload -1), so queueing the same
        # instant twice only burns heap traffic — finalize/grant dedupe
        # through this set, and _step clears an entry when it fires.
        self._release_times: set[float] = set()
        self._core_queue: dict[str, list[tuple[float, int]]] = {
            name: [] for name in CORE_NAMES
        }
        self._hbm_queue: list[tuple[float, int]] = []
        self._hbm_intervals: list[tuple[float, float]] = []
        self._finished = 0
        # ``epoch`` lets an instance be born mid-run on a shared master
        # clock (cluster autoscaling): the engine starts at that
        # simulated time and rejects submissions from before it, just
        # as if it had idled since t=0.
        self._now = epoch
        # Per-task state, indexed by global task id (grows on submit).
        # ``_tasks`` and ``_dependents`` keep submission-local indices
        # (the timed form's, shared across submissions); the owning
        # submission's ``base`` re-bases them where a global id is
        # needed.
        self._tasks: list = []
        self._timings: list = []
        self._mems: list = []
        self._durations: list[float] = []
        self._remaining: list[int] = []
        self._dependents: list = []
        self._ready: list[float] = []
        self._start: list[float | None] = []
        self._hbm_span: list[tuple[float, float] | None] = []
        self._end: list[float | None] = []
        self._instance_of: list[int] = []
        self._owner: list[Submission] = []
        self.submissions: list[Submission] = []
        #: Submissions in the order they completed (serving layer polls
        #: this after each :meth:`advance_until`).
        self.completions: list[Submission] = []
        # Set by crash(): a dead engine rejects submissions and time
        # advances; its truncated schedule stays readable via result().
        self._dead = False

    # -- admission -----------------------------------------------------
    def timed_form(
        self,
        tasks,
        compute_scale: float = 1.0,
        hbm_scale: float = 1.0,
    ) -> TimedForm:
        """The timed form :meth:`submit` admits for ``tasks``.

        For an :class:`~repro.compiler.program.OperatorProgram` the
        form is memoized on the program, keyed by ``(config,
        compute_scale, hbm_scale)``: every later submission of the
        same program on an engine of the same configuration reuses it.
        A bare task sequence is timed afresh on every call.
        """
        from repro.compiler.program import OperatorProgram

        if not isinstance(tasks, OperatorProgram):
            form = TimedForm.build(tasks, self.cores, self.memory)
            if compute_scale != 1.0 or hbm_scale != 1.0:
                form = form.derated(compute_scale, hbm_scale)
            return form
        program = tasks
        if compute_scale != 1.0 or hbm_scale != 1.0:
            return program.memo(
                (self.config, compute_scale, hbm_scale),
                lambda: self.timed_form(program).derated(
                    compute_scale, hbm_scale
                ),
            )
        return program.memo(
            (self.config, 1.0, 1.0),
            lambda: TimedForm.build(program.tasks, self.cores, self.memory),
        )

    def submit(
        self,
        tasks,
        *,
        release: float = 0.0,
        label: str = "",
        compute_scale: float = 1.0,
        hbm_scale: float = 1.0,
    ) -> Submission:
        """Admit a task list; its tasks become ready no earlier than
        ``release``.

        ``tasks`` is a compiled
        :class:`~repro.compiler.program.OperatorProgram` (its timed
        form is memoized on it, see :meth:`timed_form`) or a bare task
        sequence. Dependency indices are local to the list (the
        compiler's convention) and are re-based onto the engine's
        global index space.

        ``compute_scale`` multiplies each task's core occupancy and
        ``hbm_scale`` each transfer's channel time — the fault layer's
        straggler and HBM-degradation derates, applied at admission.
        Both default to 1.0, in which case this path is arithmetically
        untouched (no multiplication happens at all).
        """
        if self._dead:
            raise SchedulingError(
                f"engine crashed at t={self._now}; restart as a fresh "
                "epoch to submit again"
            )
        if compute_scale <= 0 or hbm_scale <= 0:
            raise SchedulingError(
                "derate scales must be positive, got "
                f"compute_scale={compute_scale} hbm_scale={hbm_scale}"
            )
        if release < self._now:
            raise SchedulingError(
                f"cannot submit in the past: release {release} < "
                f"engine time {self._now}"
            )
        form = self.timed_form(tasks, compute_scale, hbm_scale)
        base = len(self._tasks)
        count = len(form.tasks)
        submission = Submission(
            index=len(self.submissions),
            base=base,
            count=count,
            release_seconds=release,
            label=label,
            _remaining=count,
        )
        self.submissions.append(submission)
        if not count:
            submission.finish_seconds = release
            heapq.heappush(
                self._events, (release, _EV_COMPLETE, submission.index)
            )
            return submission
        reg = metrics.active()
        if reg is not None:
            form.publish(reg)
        self._tasks.extend(form.tasks)
        self._timings.extend(form.timings)
        self._mems.extend(form.mems)
        self._durations.extend(form.durations)
        self._remaining.extend(map(len, form.deps))
        self._dependents.extend(form.dependents)
        self._ready.extend([release] * count)
        unset = [None] * count
        self._start.extend(unset)
        self._end.extend(unset)
        self._hbm_span.extend(form.spans)
        self._instance_of.extend([0] * count)
        self._owner.extend([submission] * count)
        events = self._events
        for local in form.roots:
            heapq.heappush(events, (release, _EV_READY, base + local))
        return submission

    # -- event processing ----------------------------------------------
    def _push_release(self, t: float) -> None:
        """Queue a release pass at ``t`` unless one is already queued."""
        if t not in self._release_times:
            self._release_times.add(t)
            heapq.heappush(self._events, (t, _EV_RELEASE, -1))

    def _finalize(self, i: int) -> None:
        """Both dispatch and grant committed: the end is known."""
        task_end = max(self._start[i] + self._durations[i],
                       self._hbm_span[i][1])
        self._end[i] = task_end
        self._inst_free[self._timings[i].core][self._instance_of[i]] = (
            task_end
        )
        self._push_release(task_end)
        self._finished += 1
        owner = self._owner[i]
        if task_end > owner._max_end:
            owner._max_end = task_end
        owner._remaining -= 1
        if owner._remaining == 0:
            # The end is *known* now (dispatch commits it analytically),
            # but the completion is only observable once simulated time
            # reaches it — the serving layer polls ``completions`` after
            # advance_until() and must not see a finish from the future
            # (it would free a batch slot while cores are still busy).
            owner.finish_seconds = owner._max_end
            heapq.heappush(
                self._events,
                (owner._max_end, _EV_COMPLETE, owner.index),
            )
        base = owner.base
        for d in self._dependents[i]:
            d += base
            if task_end > self._ready[d]:
                self._ready[d] = task_end
            self._remaining[d] -= 1
            if self._remaining[d] == 0:
                heapq.heappush(
                    self._events, (self._ready[d], _EV_READY, d)
                )

    def _grant_pass(self, t: float) -> None:
        """Grant channel slots to ready transfers, in ready order.

        A transfer that does not fit is bypassed (no head-of-line
        blocking) and retried at the next release event.
        """
        queue = self._hbm_queue
        if not queue:
            return
        # One free-slot scan per pass, consumed incrementally: a grant
        # always takes the lowest-index free slots, so deleting the
        # granted prefix leaves exactly the slots a rescan would find.
        chan_free = self._chan_free
        free_slots = [s for s, free in enumerate(chan_free) if free <= t]
        if not free_slots:
            return
        deferred = []
        while queue and free_slots:
            entry = heapq.heappop(queue)
            i = entry[1]
            need = self._mems[i].channels_used
            if need > len(free_slots):
                deferred.append(entry)
                continue
            done = t + self._mems[i].hbm_seconds
            for s in free_slots[:need]:
                chan_free[s] = done
            del free_slots[:need]
            self._hbm_span[i] = (t, done)
            self._hbm_intervals.append((t, done))
            self._push_release(done)
            if self._start[i] is not None:
                self._finalize(i)
        for entry in deferred:
            heapq.heappush(queue, entry)

    def _dispatch_pass(self, t: float) -> None:
        """Dispatch ready tasks onto free core instances."""
        for core in CORE_NAMES:
            queue = self._core_queue[core]
            if not queue:
                continue
            # One free-instance scan per core per pass. A dispatched
            # task can re-free its own instance at the same instant
            # (zero-duration work), in which case the cursor stays put
            # so the instance is reused — matching a fresh rescan.
            frees = self._inst_free[core]
            free_idx = [
                j for j, f in enumerate(frees) if f is not None and f <= t
            ]
            cursor = 0
            while queue and cursor < len(free_idx):
                k = free_idx[cursor]
                i = heapq.heappop(queue)[1]
                self._start[i] = t
                self._instance_of[i] = k
                if self._hbm_span[i] is not None:
                    self._finalize(i)
                    if self._inst_free[core][k] > t:
                        cursor += 1
                else:
                    # Core held; end unknown until the HBM grant.
                    frees[k] = None
                    cursor += 1

    def _step(self) -> None:
        """Process exactly one event from the heap."""
        t, kind, payload = heapq.heappop(self._events)
        self._now = max(self._now, t)
        if kind == _EV_RELEASE:
            self._release_times.discard(t)
        elif kind == _EV_READY:
            i = payload
            if self._mems[i].hbm_bytes > 0:
                heapq.heappush(self._hbm_queue, (self._ready[i], i))
            heapq.heappush(
                self._core_queue[self._timings[i].core],
                (self._ready[i], i),
            )
        elif kind == _EV_COMPLETE:
            self.completions.append(self.submissions[payload])
            return
        self._grant_pass(t)
        self._dispatch_pass(t)

    def next_event_time(self) -> float | None:
        """Timestamp of the earliest pending event, if any."""
        return self._events[0][0] if self._events else None

    def advance_until(self, t: float) -> None:
        """Process every pending event with timestamp <= ``t``."""
        while self._events and self._events[0][0] <= t:
            self._step()
        if t > self._now:
            self._now = t

    def drain(self) -> None:
        """Process all pending events (run the admitted work dry)."""
        while self._events:
            self._step()

    # -- failure -------------------------------------------------------
    def crash(self, at: float) -> CrashReport:
        """Fail the instance at simulated time ``at``.

        Everything that finished by ``at`` stays in the schedule;
        every task still running or not yet started is cancelled and
        *erased* (a crashed accelerator leaves no partial results —
        the work must be redone elsewhere). Submissions whose
        completion had not been observed by ``at`` are reported lost
        with ``finish_seconds`` reset to ``None``; their kept prefix of
        finished tasks remains in the truncated schedule, so
        :meth:`result` and :meth:`as_program` stay mutually consistent
        and the truncated schedule passes
        :func:`repro.sim.validate.validate_schedule`.

        The engine is dead afterwards: :meth:`submit` raises. Recovery
        is a *new* engine at a later ``epoch=`` (cluster restart
        semantics — fresh queues, cold caches).
        """
        if self._dead:
            raise SchedulingError(
                f"engine already crashed at t={self._now}"
            )
        if at < self._now:
            raise SchedulingError(
                f"cannot crash in the past: {at} < engine time "
                f"{self._now}"
            )
        # Events at exactly ``at`` land before the failure: a task (or
        # submission) finishing at the crash instant survived it.
        self.advance_until(at)
        keep = [
            i for i, end in enumerate(self._end)
            if end is not None and end <= at
        ]
        dropped = len(self._tasks) - len(keep)
        remap = {old: new for new, old in enumerate(keep)}
        # Re-base every submission onto the truncated index space.
        # Bases are contiguous and ``keep`` ascending, so one cursor
        # walk assigns each kept task to its owning submission; a lost
        # submission keeps its finished prefix (possibly empty). A kept
        # task's dependencies are provably kept (dep end <= task ready
        # <= start <= end <= at), so the remap is total over every
        # dependency edge we keep; tasks stay submission-local.
        new_tasks = []
        lost = []
        cursor = 0
        for sub in self.submissions:
            old_base, sub_end = sub.base, sub.base + sub.count
            new_base = cursor
            while cursor < len(keep) and keep[cursor] < sub_end:
                task = self._tasks[keep[cursor]]
                if task.depends_on:
                    deps = tuple(
                        remap[old_base + d] - new_base
                        for d in task.depends_on
                    )
                    if deps != task.depends_on:
                        task = replace(task, depends_on=deps)
                new_tasks.append(task)
                cursor += 1
            if sub.finish_seconds is None or sub.finish_seconds > at:
                # Either still running, or committed analytically for
                # a future instant the crash pre-empted — the serving
                # layer never observed the completion, so it is lost.
                sub.finish_seconds = None
                lost.append(sub)
            sub.base = new_base
            sub.count = cursor - new_base
        self._tasks = new_tasks
        self._timings = [self._timings[o] for o in keep]
        self._mems = [self._mems[o] for o in keep]
        self._durations = [self._durations[o] for o in keep]
        self._ready = [self._ready[o] for o in keep]
        self._start = [self._start[o] for o in keep]
        self._hbm_span = [self._hbm_span[o] for o in keep]
        self._end = [self._end[o] for o in keep]
        self._instance_of = [self._instance_of[o] for o in keep]
        self._owner = [self._owner[o] for o in keep]
        # A dead engine never finalizes another task: no successor
        # lists or pending-dependency counts to carry over.
        self._remaining = [0] * len(keep)
        self._dependents = [()] * len(keep)
        self._hbm_intervals = [
            self._hbm_span[i]
            for i in range(len(keep))
            if self._mems[i].hbm_bytes > 0
        ]
        self._events.clear()
        self._release_times.clear()
        for queue in self._core_queue.values():
            queue.clear()
        self._hbm_queue.clear()
        self._finished = len(keep)
        self._dead = True
        return CrashReport(
            at_seconds=at,
            lost=tuple(lost),
            kept_tasks=len(keep),
            dropped_tasks=dropped,
        )

    @property
    def dead(self) -> bool:
        """True once :meth:`crash` has fired."""
        return self._dead

    @property
    def now(self) -> float:
        """Current engine time (latest processed event or advance)."""
        return self._now

    @property
    def pending(self) -> int:
        """Admitted tasks whose end is not yet committed."""
        return len(self._tasks) - self._finished

    # -- results -------------------------------------------------------
    def as_program(self, source_ops=()) -> "OperatorProgram":
        """The merged tasks of every submission, as one compiled program.

        Record ``i`` of :meth:`result` corresponds to task ``i`` of
        this program, so :func:`repro.sim.validate.validate_schedule`
        can check dependency ordering across the whole served run.
        """
        from repro.compiler.program import OperatorProgram

        tasks = []
        for sub in self.submissions:
            base = sub.base
            local = self._tasks[base:base + sub.count]
            if base:
                local = [
                    t.shifted(base) if t.depends_on else t for t in local
                ]
            tasks.extend(local)
        return OperatorProgram(
            tasks=tuple(tasks),
            op_boundaries=tuple(
                (s.base, s.base + s.count) for s in self.submissions
            ),
            source_ops=tuple(source_ops),
        )

    def result(self) -> SimulationResult:
        """Aggregate statistics over every submitted task.

        Requires the engine to be drained (every task finished).
        """
        n = len(self._tasks)
        if self._finished != n:
            raise SchedulingError(
                f"engine finished {self._finished}/{n} tasks; call "
                "drain() before result()"
            )
        cfg = self.config
        core_busy: dict[str, float] = defaultdict(float)
        core_stall: dict[str, float] = defaultdict(float)
        op_seconds: dict[str, float] = defaultdict(float)
        operator_seconds: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        hbm_bytes_total = 0
        records: list[TaskRecord] = []
        makespan = 0.0
        for (
            task, timing, mem, busy, (hbm_start, hbm_end), start, end,
            ready, instance,
        ) in zip(
            self._tasks, self._timings, self._mems, self._durations,
            self._hbm_span, self._start, self._end, self._ready,
            self._instance_of,
        ):
            core = timing.core
            compute = timing.cycles * cfg.cycle_seconds
            # Clamp tiny float-negative residues so stall stays a
            # physical (non-negative) quantity and monotone counters
            # downstream never see a negative increment.
            stall = max(0.0, end - start - busy)
            core_wait = max(0.0, start - ready)
            hbm_wait = (
                max(0.0, hbm_start - ready) if mem.hbm_bytes else 0.0
            )
            makespan = max(makespan, end)
            hbm_bytes_total += mem.hbm_bytes
            core_busy[core] += busy
            core_stall[core] += stall
            label = task.op_label or "unlabelled"
            op_seconds[label] += busy
            operator_seconds[label][core] += busy
            records.append(
                TaskRecord(
                    start, end, core, compute, mem.hbm_seconds,
                    mem.hbm_bytes, label, max(core_wait, hbm_wait),
                    hbm_start, hbm_end, instance, ready,
                    stall, core_wait, hbm_wait,
                    mem.channels_used if mem.hbm_bytes else 0,
                )
            )
        return SimulationResult(
            total_seconds=makespan,
            core_busy_seconds=dict(core_busy),
            op_seconds=dict(op_seconds),
            operator_seconds={
                k: dict(v) for k, v in operator_seconds.items()
            },
            hbm_busy_seconds=_merged_length(list(self._hbm_intervals)),
            hbm_bytes=hbm_bytes_total,
            task_records=records,
            core_stall_seconds=dict(core_stall),
        )


class PoseidonSimulator:
    """Schedules compiled operator programs on the modelled hardware."""

    def __init__(self, config: HardwareConfig | None = None):
        self.config = config or HardwareConfig()
        self.cores = CoreModel(self.config)
        self.memory = MemoryModel(self.config)

    # ------------------------------------------------------------------
    def run(self, program: "OperatorProgram") -> SimulationResult:
        """Simulate a compiled program and return aggregate statistics.

        The closed-system special case of :class:`ScheduleEngine`: one
        submission at t=0, drained to completion.
        """
        engine = ScheduleEngine(self.config)
        engine.submit(program.tasks)
        engine.drain()
        result = engine.result()

        reg = metrics.active()
        if reg is not None:
            self._record_metrics(
                reg,
                result.task_records,
                result.total_seconds,
                result.hbm_busy_seconds,
                result.core_busy_seconds,
                result.core_stall_seconds,
            )
        return result

    @staticmethod
    def _record_metrics(
        reg, records, makespan, hbm_busy, core_busy, core_stall
    ) -> None:
        """Publish one run's spans into the active metrics registry.

        Kept out of the scheduling loop so the disabled path costs a
        single ``metrics.active()`` check per run.
        """
        reg.counter("sim.tasks").inc(len(records))
        reg.gauge("sim.makespan_seconds").set(makespan)
        reg.gauge("sim.hbm.busy_seconds").set(hbm_busy)
        for core, busy in core_busy.items():
            reg.counter(f"sim.core.{core}.busy_seconds").inc(busy)
        for core, stall in core_stall.items():
            reg.counter(f"sim.core.{core}.stall_seconds").inc(stall)
        wait = reg.histogram("sim.task.queue_wait_seconds")
        busy_h = reg.histogram("sim.task.busy_seconds")
        stall_h = reg.histogram("sim.task.stall_seconds")
        hbm_bytes = reg.counter("sim.hbm.bytes")
        for record in records:
            wait.observe(record.queue_wait_seconds)
            busy_h.observe(record.end - record.start)
            stall_h.observe(record.stall_seconds)
            hbm_bytes.inc(record.hbm_bytes)
            reg.counter(f"sim.op.{record.op_label}.tasks").inc()

    # ------------------------------------------------------------------
    def run_ops(self, ops) -> SimulationResult:
        """Convenience: compile an op stream then simulate it."""
        from repro.compiler.program import compile_trace

        return self.run(compile_trace(ops))

    def operation_seconds(self, op) -> float:
        """Makespan of a single basic operation (Table IV latencies)."""
        return self.run_ops([op]).total_seconds

    def operations_per_second(self, op) -> float:
        """Steady-state throughput of one basic operation."""
        seconds = self.operation_seconds(op)
        if seconds <= 0:
            raise SchedulingError("operation simulated to zero time")
        return 1.0 / seconds

    def sustained_throughput(self, op, *, batch: int = 8) -> float:
        """Throughput of a pipelined batch of independent operations.

        Independent instances overlap across core arrays and the HBM,
        so the sustained rate can exceed 1/latency — the number a
        served accelerator actually delivers (and closer to how
        hardware papers report ops/s).
        """
        from repro.compiler.program import compile_trace

        if batch < 1:
            raise SchedulingError(f"batch must be >= 1, got {batch}")
        program = compile_trace([op] * batch, op_parallel=True)
        result = self.run(program)
        if result.total_seconds <= 0:
            raise SchedulingError("batch simulated to zero time")
        return batch / result.total_seconds


# ----------------------------------------------------------------------
def in_order_makespan(
    program: "OperatorProgram", config: HardwareConfig | None = None
) -> float:
    """Makespan under the legacy one-pass in-order scheduler.

    This is the pre-event-driven engine's scheduling rule, kept as a
    comparison oracle: it reserves the (single, fully serialized) HBM
    channel and each core array in *submission* order, so a ready later
    task can sit blocked behind a stalled earlier one. Tests and
    benchmarks use it to demonstrate that the out-of-order scheduler
    removes that head-of-line blocking (its makespan should not exceed
    this one on the paper workloads). Task timings and dependency
    checks come from :meth:`TimedForm.build`, as for the engine.
    """
    config = config or HardwareConfig()
    form = TimedForm.build(
        program.tasks, CoreModel(config), MemoryModel(config)
    )
    finish = [0.0] * len(form.tasks)
    core_free: dict[str, float] = {name: 0.0 for name in CORE_NAMES}
    hbm_free = 0.0
    makespan = 0.0
    for i, deps in enumerate(form.deps):
        deps_done = max((finish[dep] for dep in deps), default=0.0)
        core = form.timings[i].core
        hbm_start = max(deps_done, hbm_free)
        hbm_free = hbm_start + form.mems[i].hbm_seconds
        start = max(deps_done, core_free[core])
        task_end = max(start + form.durations[i], hbm_free)
        core_free[core] = task_end
        finish[i] = task_end
        makespan = max(makespan, task_end)
    return makespan

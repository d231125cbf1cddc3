"""Unit tests for the discrete-event scheduler."""

import dataclasses
import gc
import weakref

import pytest

from repro.compiler.ops import FheOp, FheOpName
from repro.compiler.program import OperatorProgram, compile_trace
from repro.errors import SchedulingError
from repro.sim.config import HardwareConfig
from repro.sim.cores import CoreModel
from repro.sim.engine import (
    TASK_SHAPE_FIELDS,
    PoseidonSimulator,
    ScheduleEngine,
    TimedForm,
    in_order_makespan,
)
from repro.sim.memory import MemoryModel
from repro.sim.tasks import OperatorKind, OperatorTask
from repro.workloads import lstm_trace

N = 1 << 14


def program_of(tasks):
    return OperatorProgram(
        tasks=tuple(tasks),
        op_boundaries=((0, len(tasks)),),
        source_ops=(),
    )


def simple_task(kind, deps=(), label="op", elements=N):
    return OperatorTask(
        kind=kind, elements=elements, degree=N, limbs=1,
        depends_on=deps, op_label=label,
    )


class TestScheduling:
    def test_independent_tasks_on_different_cores_overlap(self):
        sim = PoseidonSimulator()
        seq = program_of([simple_task(OperatorKind.MA),
                          simple_task(OperatorKind.NTT)])
        result = sim.run(seq)
        ma = next(r for r in result.task_records if r.core == "MA")
        ntt = next(r for r in result.task_records if r.core == "NTT")
        # Both start at t = 0: different core arrays, no deps.
        assert ma.start == 0
        assert ntt.start == 0
        assert result.total_seconds < ma.end + ntt.end

    def test_same_core_serializes(self):
        sim = PoseidonSimulator()
        result = sim.run(program_of(
            [simple_task(OperatorKind.MA), simple_task(OperatorKind.MA)]
        ))
        first, second = result.task_records
        assert second.start >= first.end

    def test_dependency_enforced(self):
        sim = PoseidonSimulator()
        result = sim.run(program_of([
            simple_task(OperatorKind.MA),
            simple_task(OperatorKind.NTT, deps=(0,)),
        ]))
        first, second = result.task_records
        assert second.start >= first.end

    def test_forward_dependency_rejected(self):
        sim = PoseidonSimulator()
        bad = program_of([simple_task(OperatorKind.MA, deps=(1,)),
                          simple_task(OperatorKind.MA)])
        with pytest.raises(SchedulingError):
            sim.run(bad)

    def test_hbm_serializes_traffic(self):
        sim = PoseidonSimulator()
        heavy = OperatorTask(
            kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="x",
        )
        light = OperatorTask(
            kind=OperatorKind.NTT, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="x",
        )
        result = sim.run(program_of([heavy, light]))
        # Each read takes 100 us; serialized they bound the makespan.
        assert result.total_seconds >= 2 * 46_000_000 / 460e9

    def test_empty_program(self):
        sim = PoseidonSimulator()
        result = sim.run(program_of([]))
        assert result.total_seconds == 0


class TestOutOfOrder:
    def test_ready_transfer_not_blocked_by_earlier_submission(self):
        """Head-of-line removal: a ready transfer streams immediately
        even when an earlier-submitted task's transfer is not ready."""
        blocker = simple_task(OperatorKind.NTT, elements=64 * N)
        late_stream = OperatorTask(
            kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, depends_on=(0,), op_label="late",
        )
        early_stream = OperatorTask(
            kind=OperatorKind.MM, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="early",
        )
        program = program_of([blocker, late_stream, early_stream])
        result = PoseidonSimulator().run(program)
        early = result.task_records[2]
        # The in-order engine reserved the HBM in submission order, so
        # task 2's stream sat behind task 1's not-yet-ready one.
        assert early.hbm_start == 0.0
        assert result.total_seconds <= in_order_makespan(program)

    def test_ooo_not_slower_on_keyswitch_chain(self):
        ops = [
            FheOp.make(FheOpName.CMULT, N, 10, aux_limbs=3),
            FheOp.make(FheOpName.ROTATION, N, 10, aux_limbs=3),
        ]
        program = compile_trace(ops)
        ooo = PoseidonSimulator().run(program).total_seconds
        assert ooo <= in_order_makespan(program) * (1 + 1e-9)

    def test_replicated_core_runs_tasks_concurrently(self):
        config = HardwareConfig().with_core_instances(MA=2)
        result = PoseidonSimulator(config).run(program_of([
            simple_task(OperatorKind.MA),
            simple_task(OperatorKind.MA),
        ]))
        first, second = result.task_records
        assert first.start == second.start == 0.0
        assert {first.instance, second.instance} == {0, 1}

    def test_single_instance_still_serializes(self):
        result = PoseidonSimulator().run(program_of([
            simple_task(OperatorKind.MA),
            simple_task(OperatorKind.MA),
        ]))
        first, second = result.task_records
        assert first.instance == second.instance == 0
        assert second.start >= first.end


class TestStallAttribution:
    def test_hbm_bound_task_splits_busy_and_stall(self):
        task = OperatorTask(
            kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
            hbm_read_bytes=460_000_000, op_label="stream-bound",
        )
        result = PoseidonSimulator().run(program_of([task]))
        record = result.task_records[0]
        held = record.end - record.start
        # A 1 ms stream against microseconds of compute: the core is
        # held for the whole stream but mostly stalled.
        assert record.stall_seconds > 0
        assert record.stall_seconds < held
        assert result.core_busy_seconds["MA"] + result.core_stall_seconds[
            "MA"
        ] == pytest.approx(held)
        # Busy attribution (Figs. 7-9 basis) excludes the stall tail.
        assert result.core_busy_seconds["MA"] == pytest.approx(
            held - record.stall_seconds
        )
        assert result.op_seconds["stream-bound"] == pytest.approx(
            result.core_busy_seconds["MA"]
        )

    def test_compute_bound_task_has_no_stall(self):
        result = PoseidonSimulator().run(
            program_of([simple_task(OperatorKind.NTT, elements=64 * N)])
        )
        assert result.task_records[0].stall_seconds == 0.0
        assert result.stall_seconds == 0.0

    def test_queue_wait_includes_hbm_arbitration(self):
        """Two full-stripe transfers on different cores: the second
        waits on channel slots, not on its (free) core array."""
        a = OperatorTask(
            kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="a",
        )
        b = OperatorTask(
            kind=OperatorKind.MM, elements=N, degree=N, limbs=1,
            hbm_read_bytes=46_000_000, op_label="b",
        )
        result = PoseidonSimulator().run(program_of([a, b]))
        second = result.task_records[1]
        assert second.hbm_wait_seconds > 0
        assert second.core_wait_seconds == 0.0
        assert second.queue_wait_seconds == pytest.approx(
            max(second.core_wait_seconds, second.hbm_wait_seconds)
        )


class TestStatistics:
    def test_busy_time_attribution(self):
        sim = PoseidonSimulator()
        result = sim.run(program_of([
            simple_task(OperatorKind.MA, label="HAdd"),
            simple_task(OperatorKind.MM, label="PMult"),
        ]))
        assert set(result.op_seconds) == {"HAdd", "PMult"}
        assert result.core_busy_seconds["MA"] > 0
        assert result.core_busy_seconds["MM"] > 0

    def test_shares_sum_to_one(self):
        sim = PoseidonSimulator()
        ops = [FheOp.make(FheOpName.CMULT, N, 8, aux_limbs=2)]
        result = sim.run(compile_trace(ops))
        assert sum(result.op_share().values()) == pytest.approx(1.0)
        assert sum(result.core_share().values()) == pytest.approx(1.0)

    def test_bandwidth_utilization_bounded(self):
        sim = PoseidonSimulator()
        ops = [FheOp.make(FheOpName.HADD, N, 8)]
        result = sim.run(compile_trace(ops))
        assert 0 < result.bandwidth_utilization <= 1.0


class TestDeterminism:
    def test_identical_runs(self):
        """The DES is deterministic: same program, same schedule."""
        ops = [
            FheOp.make(FheOpName.CMULT, N, 10, aux_limbs=3),
            FheOp.make(FheOpName.ROTATION, N, 10, aux_limbs=3),
        ]
        program = compile_trace(ops)
        a = PoseidonSimulator().run(program)
        b = PoseidonSimulator().run(program)
        assert a.total_seconds == b.total_seconds
        assert a.hbm_bytes == b.hbm_bytes
        assert a.core_busy_seconds == b.core_busy_seconds
        assert [r.start for r in a.task_records] == [
            r.start for r in b.task_records
        ]


class TestOperationHelpers:
    def test_ops_per_second_inverse_of_seconds(self):
        sim = PoseidonSimulator()
        op = FheOp.make(FheOpName.PMULT, N, 8)
        assert sim.operations_per_second(op) == pytest.approx(
            1.0 / sim.operation_seconds(op)
        )

    def test_bigger_op_slower(self):
        sim = PoseidonSimulator()
        small = FheOp.make(FheOpName.CMULT, N, 4, aux_limbs=2)
        large = FheOp.make(FheOpName.CMULT, N, 16, aux_limbs=2)
        assert sim.operation_seconds(large) > sim.operation_seconds(small)

    def test_hfauto_config_speeds_rotation(self):
        op = FheOp.make(FheOpName.ROTATION, 1 << 16, 20, aux_limbs=4)
        fast = PoseidonSimulator(HardwareConfig(use_hfauto=True))
        slow = PoseidonSimulator(HardwareConfig(use_hfauto=False))
        assert slow.operation_seconds(op) > fast.operation_seconds(op)

    def test_sustained_throughput_at_least_latency_rate(self):
        sim = PoseidonSimulator()
        op = FheOp.make(FheOpName.PMULT, N, 8)
        sustained = sim.sustained_throughput(op, batch=8)
        latency_rate = sim.operations_per_second(op)
        # Pipelining can only help (or tie when one resource binds).
        assert sustained >= 0.95 * latency_rate

    def test_sustained_throughput_bad_batch(self):
        sim = PoseidonSimulator()
        op = FheOp.make(FheOpName.PMULT, N, 8)
        with pytest.raises(SchedulingError):
            sim.sustained_throughput(op, batch=0)

class TestWarmEngine:
    """Incremental admission on a live ScheduleEngine: the substrate
    of the open-system serving layer (repro.serve)."""

    def _engine(self):
        from repro.sim.engine import ScheduleEngine

        return ScheduleEngine()

    def test_release_time_delays_start(self):
        engine = self._engine()
        engine.submit([simple_task(OperatorKind.MA)], release=0.5)
        engine.drain()
        record = engine.result().task_records[0]
        assert record.start >= 0.5

    def test_matches_cold_run_when_submitted_at_zero(self):
        ops = [
            FheOp.make(FheOpName.CMULT, N, 10, aux_limbs=3),
            FheOp.make(FheOpName.ROTATION, N, 10, aux_limbs=3),
        ]
        program = compile_trace(ops)
        cold = PoseidonSimulator().run(program)
        engine = self._engine()
        engine.submit(program.tasks)
        engine.drain()
        warm = engine.result()
        assert warm.total_seconds == cold.total_seconds
        assert [r.start for r in warm.task_records] == [
            r.start for r in cold.task_records
        ]

    def test_late_submission_overlaps_inflight_work(self):
        engine = self._engine()
        first = engine.submit(
            [simple_task(OperatorKind.NTT, elements=64 * N)]
        )
        # Admit MA work mid-flight: different core array, so it should
        # run concurrently with the still-executing NTT task.
        engine.advance_until(0.0)
        second = engine.submit([simple_task(OperatorKind.MA)], release=0.0)
        engine.drain()
        result = engine.result()
        ntt, ma = result.task_records
        assert ma.start < ntt.end
        assert first.done and second.done
        assert first.finish_seconds == ntt.end
        assert second.finish_seconds == ma.end

    def test_submitting_in_the_past_rejected(self):
        engine = self._engine()
        engine.submit([simple_task(OperatorKind.MA)])
        engine.drain()
        now = engine.result().total_seconds
        with pytest.raises(SchedulingError, match="past"):
            engine.submit([simple_task(OperatorKind.MA)],
                          release=now - 1e-6)

    def test_dependencies_are_submission_local(self):
        engine = self._engine()
        engine.submit([simple_task(OperatorKind.MA)])
        # deps index into *this* submission's task list; dep 0 here is
        # the second submission's own first task, not the earlier one.
        engine.submit([
            simple_task(OperatorKind.MA),
            simple_task(OperatorKind.NTT, deps=(0,)),
        ])
        engine.drain()
        records = engine.result().task_records
        assert records[2].start >= records[1].end

    def test_forward_dependency_rejected_at_submit(self):
        engine = self._engine()
        with pytest.raises(SchedulingError, match="dependency"):
            engine.submit([simple_task(OperatorKind.MA, deps=(1,)),
                           simple_task(OperatorKind.MA)])

    def test_result_before_drain_rejected(self):
        engine = self._engine()
        engine.submit([simple_task(OperatorKind.MA)])
        with pytest.raises(SchedulingError, match="drain"):
            engine.result()

    def test_completions_record_finish_order(self):
        engine = self._engine()
        slow = engine.submit(
            [simple_task(OperatorKind.NTT, elements=64 * N)], label="slow"
        )
        fast = engine.submit([simple_task(OperatorKind.MA)], label="fast")
        engine.drain()
        assert [s.label for s in engine.completions] == ["fast", "slow"]
        assert fast.finish_seconds < slow.finish_seconds

    def test_empty_submission_completes_at_release(self):
        engine = self._engine()
        sub = engine.submit([], release=0.25)
        assert sub.done
        assert sub.finish_seconds == 0.25

    def test_as_program_merges_submissions_for_validation(self):
        from repro.sim.validate import validate_schedule

        engine = self._engine()
        engine.submit([simple_task(OperatorKind.MA)])
        engine.submit([simple_task(OperatorKind.MM),
                       simple_task(OperatorKind.NTT, deps=(0,))],
                      release=0.001)
        engine.drain()
        merged = engine.as_program()
        assert len(merged.tasks) == 3
        assert len(merged.op_boundaries) == 2
        # Global indices: the second submission's dep was re-based.
        assert merged.tasks[2].depends_on == (1,)
        validate_schedule(engine.result(), program=merged,
                         config=engine.config)


class TestTimedForm:
    """A program's timed form is memoized and admitted as is."""

    @staticmethod
    def _program():
        return compile_trace([
            FheOp.make(FheOpName.CMULT, N, 10, aux_limbs=3),
            FheOp.make(FheOpName.ROTATION, N, 10, aux_limbs=3),
        ])

    @staticmethod
    def _records(*submissions):
        """Records of one fresh engine fed ``(tasks, kwargs)`` pairs."""
        engine = ScheduleEngine()
        for tasks, kwargs in submissions:
            engine.submit(tasks, **kwargs)
        engine.drain()
        return engine.result().task_records

    def test_reused_program_matches_bare_task_lists(self):
        program = self._program()
        bare = list(program.tasks)
        twice = self._records((bare, {}), (bare, {}))
        assert self._records((program, {}), (program, {})) == twice
        once = self._records((bare, {}))
        # Once each on two engines of one configuration: one form.
        assert self._records((program, {})) == once
        assert self._records((program, {})) == once
        assert ScheduleEngine().timed_form(program) is \
            ScheduleEngine().timed_form(program)

    def test_derated_submit_between_unscaled_ones(self):
        program = self._program()
        bare = list(program.tasks)
        slow = {"compute_scale": 2.0, "hbm_scale": 2.0}
        records = self._records((program, {}), (program, slow),
                                (program, {}))
        assert records == self._records((bare, {}), (bare, slow),
                                        (bare, {}))
        n = program.task_count
        first, derated, last = (
            records[k * n:(k + 1) * n] for k in range(3)
        )
        form = ScheduleEngine().timed_form(program)
        for k in range(n):
            for rec in (first[k], last[k]):
                assert rec.hbm_seconds == form.mems[k].hbm_seconds
                assert rec.end - rec.start - rec.stall_seconds == \
                    pytest.approx(form.durations[k])
            assert derated[k].hbm_seconds == form.mems[k].hbm_seconds * 2.0
            assert derated[k].end - derated[k].start \
                - derated[k].stall_seconds == \
                pytest.approx(form.durations[k] * 2.0)

    def test_memo_dies_with_its_program(self):
        program = self._program()
        engine = ScheduleEngine()
        engine.submit(program)
        engine.submit(program, compute_scale=2.0)
        engine.drain()
        program_ref = weakref.ref(program)
        form_ref = weakref.ref(engine.timed_form(program))
        del engine, program
        gc.collect()
        assert program_ref() is None
        assert form_ref() is None


class TestShapeMemo:
    """``TimedForm.build`` runs the models once per distinct shape."""

    @staticmethod
    def _counted_models():
        """Fresh models whose timing calls are recorded."""
        config = HardwareConfig()
        cores, memory = CoreModel(config), MemoryModel(config)
        calls = {"cores": [], "memory": []}
        task_cycles, task_timing = cores.task_cycles, memory.task_timing

        def counted_cycles(task):
            calls["cores"].append(task)
            return task_cycles(task)

        def counted_timing(task):
            calls["memory"].append(task)
            return task_timing(task)

        cores.task_cycles = counted_cycles
        memory.task_timing = counted_timing
        return cores, memory, calls

    def test_models_run_once_per_shape(self):
        tasks = compile_trace(lstm_trace(steps=1), passes="default").tasks
        cores, memory, calls = self._counted_models()
        form = TimedForm.build(tasks, cores, memory)
        shapes = {
            tuple(getattr(t, f) for f in TASK_SHAPE_FIELDS) for t in tasks
        }
        assert len(shapes) < len(tasks)
        assert len(calls["cores"]) == len(calls["memory"]) == len(shapes)
        fresh_cores = CoreModel(HardwareConfig())
        fresh_memory = MemoryModel(HardwareConfig())
        cycle = fresh_cores.config.cycle_seconds
        for i, task in enumerate(tasks):
            timing = fresh_cores.task_cycles(task)
            mem = fresh_memory.task_timing(task)
            assert form.timings[i] == timing
            assert form.mems[i] == mem
            assert form.durations[i] == max(
                timing.cycles * cycle, mem.spad_seconds
            )

    def test_shape_key_covers_every_timed_field(self):
        fields = [f.name for f in dataclasses.fields(OperatorTask)]
        assert sorted(TASK_SHAPE_FIELDS) == sorted(
            set(fields) - {"depends_on", "op_label"}
        )
        # A task differing from the first in one shape field is timed
        # on its own; one differing only in label or deps is not.
        base = OperatorTask(
            kind=OperatorKind.MA, elements=N, degree=N, limbs=1,
            op_label="a",
        )
        variants = [
            dataclasses.replace(
                base,
                **{name: OperatorKind.MM if name == "kind"
                   else getattr(base, name) + 1},
            )
            for name in TASK_SHAPE_FIELDS
        ]
        same = [base.with_deps((0,)), dataclasses.replace(base, op_label="b")]
        cores, memory, calls = self._counted_models()
        TimedForm.build([base, *variants, *same], cores, memory)
        assert len(calls["cores"]) == len(calls["memory"]) == 1 + len(
            variants
        )

    def test_forward_dependency_on_a_timed_shape_rejected(self):
        first = simple_task(OperatorKind.MA)
        cores, memory, calls = self._counted_models()
        with pytest.raises(
            SchedulingError, match="task 1 has forward/invalid dependency 2"
        ):
            TimedForm.build(
                [first, first.with_deps((2,)), first], cores, memory
            )
        assert len(calls["cores"]) == 1

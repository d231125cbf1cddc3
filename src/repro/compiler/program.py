"""Whole-program assembly: op streams -> one operator task list.

Operations are sequenced with barrier semantics between dependent ops
(each op's entry tasks depend on the previous op's exit tasks), which
matches how Poseidon's controller drains one basic operation's pipeline
before reconfiguring the shared cores for the next. An optional
compiler pass pipeline (:mod:`repro.compiler.passes`) rewrites the
draft between lowering and assembly — relaxing barriers into true
dataflow edges, hoisting ModUp reuse, fusing elementwise handoffs —
before the task list is frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ops import FheOp
from repro.compiler.trace import TraceRecorder
from repro.sim.tasks import OperatorTask


@dataclass(frozen=True)
class OperatorProgram:
    """A compiled task program plus per-op segmentation.

    Attributes:
        tasks: all operator tasks, topologically ordered.
        op_boundaries: (start, end) task-index span per source op.
        source_ops: the originating FHE operations.

    Values derived from the program (the engine's timed forms, the
    serve layer's key-upload variants) are memoized on it through
    :meth:`memo`, so they live and die with the program.
    """

    tasks: tuple[OperatorTask, ...]
    op_boundaries: tuple[tuple[int, int], ...]
    source_ops: tuple[FheOp, ...]
    _memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    def tasks_for_op(self, index: int) -> tuple[OperatorTask, ...]:
        """The task slice lowered from source op ``index``."""
        start, end = self.op_boundaries[index]
        return self.tasks[start:end]

    def memo(self, key, build):
        """``build()``, computed once per ``key`` and kept on this
        program."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def __repr__(self) -> str:
        return (
            f"OperatorProgram({len(self.source_ops)} ops, "
            f"{len(self.tasks)} tasks)"
        )


def compile_trace(
    trace, *, op_parallel: bool = False, passes=None
) -> OperatorProgram:
    """Compile an op stream (TraceRecorder or FheOp iterable).

    Sequencing: by default the first tasks of op ``i+1`` gain a
    dependency on the final task of op ``i`` (pipeline-drain barrier) —
    the conservative model for a single dependent ciphertext chain.

    ``op_parallel=True`` drops the inter-op barriers: each operation's
    internal DAG is preserved but operations schedule concurrently,
    constrained only by core-array and HBM availability. This models
    *independent* ciphertext streams (batch serving) and is how the
    operator-reuse benefit of time-multiplexing shows up as throughput.

    ``passes`` selects the compiler pass pipeline applied between
    lowering and assembly — anything
    :func:`repro.compiler.passes.resolve_passes` accepts (``None`` or
    ``"none"`` for the legacy byte-identical assembly, ``"default"``
    for the full pipeline, or an explicit pass list).
    """
    from repro.compiler.passes import (
        ProgramDraft,
        apply_pipeline,
        resolve_passes,
    )

    ops = list(trace.ops if isinstance(trace, TraceRecorder) else trace)
    draft = ProgramDraft.from_ops(ops, op_parallel=op_parallel)
    pipeline = resolve_passes(passes)
    if pipeline:
        apply_pipeline(draft, pipeline)
    tasks, boundaries = draft.assemble()
    return OperatorProgram(
        tasks=tasks,
        op_boundaries=boundaries,
        source_ops=tuple(draft.ops),
    )

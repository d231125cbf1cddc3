"""Operator-level task records — the simulator's instruction set.

A task is one invocation of an operator core array over a batch of
elements (typically one polynomial: L limbs x N coefficients), plus the
memory traffic it induces. The compiler lowers every FHE basic
operation into a small DAG of these tasks (paper Table I), and the
engine schedules them onto the core/memory resources.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OperatorKind(enum.Enum):
    """The five Poseidon operators (SBT is fused into MM/NTT cores but
    tracked separately where the paper reports it standalone)."""

    MA = "MA"
    MM = "MM"
    NTT = "NTT"
    INTT = "INTT"
    AUTO = "Automorphism"
    SBT = "SBT"

    @property
    def core(self) -> str:
        """Which physical core array executes this kind."""
        if self in (OperatorKind.NTT, OperatorKind.INTT):
            return "NTT"
        if self is OperatorKind.SBT:
            return "MM"  # SBT cores are shared with the MM/NTT arrays
        return self.value


@dataclass(frozen=True)
class OperatorTask:
    """One schedulable unit of operator work.

    Attributes:
        kind: operator executed.
        elements: total elements processed (limbs * degree * polys).
        degree: ring degree N (NTT/AUTO cycle models need it).
        limbs: RNS limb count covered by this task.
        hbm_read_bytes / hbm_write_bytes: off-chip traffic.
        spad_bytes: on-chip scratchpad traffic (reads+writes).
        depends_on: indices of prerequisite tasks within the same
            task list (the compiler emits topologically ordered lists).
        op_label: the FHE basic operation this task was lowered from
            (for Fig. 7/8/9-style attributions).
    """

    kind: OperatorKind
    elements: int
    degree: int
    limbs: int
    hbm_read_bytes: int = 0
    hbm_write_bytes: int = 0
    spad_bytes: int = 0
    depends_on: tuple[int, ...] = ()
    op_label: str = ""

    def __post_init__(self):
        if self.elements <= 0:
            raise ValueError(f"task needs elements > 0, got {self.elements}")
        if self.limbs <= 0 or self.degree <= 0:
            raise ValueError("task needs positive limbs and degree")

    @property
    def hbm_bytes(self) -> int:
        """Total off-chip bytes moved."""
        return self.hbm_read_bytes + self.hbm_write_bytes

    def relabel(self, op_label: str) -> "OperatorTask":
        """Copy with a new basic-operation label."""
        return OperatorTask(
            kind=self.kind,
            elements=self.elements,
            degree=self.degree,
            limbs=self.limbs,
            hbm_read_bytes=self.hbm_read_bytes,
            hbm_write_bytes=self.hbm_write_bytes,
            spad_bytes=self.spad_bytes,
            depends_on=self.depends_on,
            op_label=op_label,
        )

    def with_deps(self, depends_on: tuple[int, ...]) -> "OperatorTask":
        """Copy with ``depends_on`` replaced (one positional
        construction, so validation still runs)."""
        return OperatorTask(
            self.kind,
            self.elements,
            self.degree,
            self.limbs,
            self.hbm_read_bytes,
            self.hbm_write_bytes,
            self.spad_bytes,
            depends_on,
            self.op_label,
        )

    def shifted(self, offset: int) -> "OperatorTask":
        """Copy with dependency indices shifted by ``offset``.

        Used when concatenating per-operation task lists into one
        program-level list.
        """
        return self.with_deps(tuple([d + offset for d in self.depends_on]))

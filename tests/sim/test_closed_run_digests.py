"""Pinned closed-run schedule of the paper's LSTM trace.

A two-step LSTM is compiled with and without the compiler passes, and
each program runs through :class:`PoseidonSimulator` (one submission at
t=0, drained). Two SHA-256 digests are pinned per case: one over every
field of every program task (what lowering, the passes and assembly
emit) and one over every public field of every :class:`TaskRecord`
(what the engine schedules). Any drift in assembly, admission timing
or dispatch shows up here, not only in the makespan.
"""

import dataclasses
import hashlib

import pytest

from repro.compiler.program import compile_trace
from repro.sim.engine import PoseidonSimulator, TaskRecord
from repro.sim.tasks import OperatorTask
from repro.workloads import lstm_trace

#: passes -> (task count, program digest, record digest)
CASES = {
    "none": (
        2918,
        "a16ad1db6f3f2b385173400ba7ff02e55184c1180efb685197357be8fd3c3545",
        "a84d7a4b72da3316cae0ca583ece781bfe3fff073a40c433420b9942ffa35334",
    ),
    "default": (
        2918,
        "fe44326ec3a27f3390db33fa3991f02d4f34dc45b227e0d438afab5db2ff5e93",
        "b6239021043b1b8be3c90123d7145156b78402668f2ea017be98bffbef878770",
    ),
}

TASK_FIELDS = tuple(f.name for f in dataclasses.fields(OperatorTask))
RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(TaskRecord))


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def program_digest(tasks) -> str:
    return _digest([
        tuple(
            v.value if f == "kind" else v
            for f, v in ((f, getattr(t, f)) for f in TASK_FIELDS)
        )
        for t in tasks
    ])


def record_digest(records) -> str:
    return _digest([
        tuple(getattr(r, f) for f in RECORD_FIELDS) for r in records
    ])


@pytest.mark.parametrize("passes", sorted(CASES))
def test_lstm_closed_run_pinned(passes):
    count, want_program, want_records = CASES[passes]
    program = compile_trace(lstm_trace(steps=2), passes=passes)
    result = PoseidonSimulator().run(program)
    assert len(program.tasks) == len(result.task_records) == count
    assert program_digest(program.tasks) == want_program
    assert record_digest(result.task_records) == want_records

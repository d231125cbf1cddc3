"""Unit tests for operator tasks' copy helpers."""

import dataclasses

import pytest

from repro.sim.tasks import OperatorKind, OperatorTask

TASK = OperatorTask(
    kind=OperatorKind.NTT,
    elements=3 * 1024,
    degree=1024,
    limbs=3,
    hbm_read_bytes=11,
    hbm_write_bytes=13,
    spad_bytes=17,
    depends_on=(0, 2),
    op_label="Rotation",
)


def _other_fields(task):
    return {
        f.name: getattr(task, f.name)
        for f in dataclasses.fields(OperatorTask)
        if f.name != "depends_on"
    }


def _unchecked(**overrides):
    """A copy of ``TASK`` built without running its validation."""
    task = object.__new__(OperatorTask)
    for name, value in {**_other_fields(TASK), **overrides}.items():
        object.__setattr__(task, name, value)
    object.__setattr__(task, "depends_on", TASK.depends_on)
    return task


class TestWithDeps:
    def test_replaces_only_the_dependencies(self):
        copy = TASK.with_deps((5, 7))
        assert copy.depends_on == (5, 7)
        assert _other_fields(copy) == _other_fields(TASK)
        assert copy == dataclasses.replace(TASK, depends_on=(5, 7))

    def test_validation_still_runs(self):
        with pytest.raises(ValueError, match="elements > 0"):
            _unchecked(elements=0).with_deps((1,))
        with pytest.raises(ValueError, match="positive limbs"):
            _unchecked(limbs=0).with_deps(())


class TestShifted:
    def test_shifts_every_dependency(self):
        copy = TASK.shifted(10)
        assert copy.depends_on == (10, 12)
        assert _other_fields(copy) == _other_fields(TASK)

    def test_zero_offset_is_an_equal_copy(self):
        assert TASK.shifted(0) == TASK

    def test_validation_still_runs(self):
        with pytest.raises(ValueError, match="positive limbs"):
            _unchecked(degree=0).shifted(1)

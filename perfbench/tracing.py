"""Wall-clock spans recorded from outside the program.

The benchmark installs a :class:`Tracer` as wrappers around the public
functions and methods each layer exposes (see :mod:`perfbench.layers`).
No file under ``src/`` changes: a wrapper replaces the attribute the
callers look up at call time, records one span per call, and restores
the original on :meth:`Tracer.uninstall`.

A span is ``(name, start, end, parent span id, run id)``. Spans stay in
memory in flat arrays while the traced run executes; afterwards
:meth:`Tracer.summary` reduces them to inclusive and self time per span
name, and :meth:`Tracer.chrome_trace` writes them out for a trace
viewer. A span's self time is its duration minus the durations of its
direct children, so the self times of all spans of one run sum to the
root span's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from contextlib import contextmanager

_MISSING = object()

#: Spans shorter than this are counted but left out of the Chrome
#: trace, which would otherwise hold every event-loop step.
MIN_SPAN_US = 20.0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.run_id = 0
        self._stack: list[int] = []
        # (owner, attribute, previous value or _MISSING, is_mapping)
        self._installed: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_idx: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self._clock())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block."""
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        idx = self._intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        return traced

    # -- installation --------------------------------------------------
    def install(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module, class or instance
        attribute) with a traced version.

        Class attributes keep their descriptor kind (plain function,
        ``classmethod`` or ``staticmethod``) so bound calls behave as
        before.
        """
        previous = (
            owner.__dict__.get(attr, _MISSING)
            if hasattr(owner, "__dict__") else _MISSING
        )
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            new = classmethod(self.wrap(static.__func__, name))
        elif isinstance(static, staticmethod):
            new = staticmethod(self.wrap(static.__func__, name))
        else:
            new = self.wrap(static, name)
        setattr(owner, attr, new)
        self._installed.append((owner, attr, previous, False))

    def install_item(self, mapping: dict, key, name: str) -> None:
        """Replace ``mapping[key]`` (a registry of callables)."""
        previous = mapping[key]
        mapping[key] = self.wrap(previous, name)
        self._installed.append((mapping, key, previous, True))

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._installed:
            owner, attr, previous, is_mapping = self._installed.pop()
            if is_mapping:
                owner[attr] = previous
            elif previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- reduction -----------------------------------------------------
    def summary(self, run_id: int | None = None) -> dict[str, dict]:
        """Per span name: ``calls``, inclusive ``total_s`` and
        ``self_s``, over one run id (or all runs)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent, run = self.start, self.end, self.parent, self.run
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        out: dict[str, dict] = {}
        for sid in range(n):
            if run_id is not None and run[sid] != run_id:
                continue
            name = self.names[self.name_id[sid]]
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            dur = end[sid] - start[sid]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[sid]
        return out

    def chrome_trace(self, path, *, meta=None) -> int:
        """Write spans of at least :data:`MIN_SPAN_US` as Chrome-trace JSON.

        Shorter spans are still counted in :meth:`summary`; the file
        notes how many were left out. Returns the number written.
        """
        t0 = min(self.start) if len(self.start) else 0.0
        events = []
        for sid in range(len(self.start)):
            dur_us = (self.end[sid] - self.start[sid]) * 1e6
            if dur_us < MIN_SPAN_US:
                continue
            name = self.names[self.name_id[sid]]
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (self.start[sid] - t0) * 1e6,
                "dur": dur_us,
                "pid": 1,
                "tid": 1,
                "args": {
                    "span": sid,
                    "parent": self.parent[sid],
                    "run": self.run[sid],
                },
            })
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **(meta or {}),
                "spans_recorded": len(self.start),
                "spans_written": len(events),
                "min_span_us": MIN_SPAN_US,
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return len(events)

"""In-memory span recorder.

A span has a name, a start, an end and a parent (the span that was open
when it started, or -1). Spans are appended to flat arrays while the traced
code runs, written out once at the end, and reduced to a per-name table of
calls, total time and self time. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span called ``name``. ``after(result, args,
        kwargs)``, when given, runs after the span has closed."""
        nid = self.name_index(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def record(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        """Write every span as arrays plus the name table (``.npz``)."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

    def table(self) -> dict[str, dict]:
        return self_time_table(self.names, **self.arrays())


def self_time_table(names, name_id, start, end, parent) -> dict[str, dict]:
    """Per-name ``calls``, ``total_s`` and ``self_s`` from span arrays."""
    dur = end - start
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    own = np.bincount(name_id, weights=self_s, minlength=k)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i, name in enumerate(names)
    }

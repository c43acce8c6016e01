"""Spans around calls into the layers of ``primeladder``, kept in memory.

`Tracer.patch` replaces a function by a wrapper in the module namespaces it
is given, so every call that looks the name up there records one span, with
the span open at the time of the call as its parent. `Tracer.wrap` traces a
single callable the benchmark holds. `workloads.instrument` lists what is
patched where. Untraced runs wrap nothing.
"""

from __future__ import annotations

import functools
import json
import resource
import time


def maxrss_kb() -> int:
    """Peak resident set size of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans (id, parent, name, start, end, attrs) in a list.

    Every span records the rise of the process's peak RSS across the call.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, dict]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        """`fn` recording one span per call; `attrs(args, kwargs, result)` adds fields to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # ids follow call order: a parent's is below its children's
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            rss0 = maxrss_kb()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                rise = maxrss_kb() - rss0
                self.spans[span_id] = (span_id, parent, name, t0, t1, {"maxrss_rise_kb": rise})
            if attrs is not None:
                self.spans[span_id][5].update(attrs(args, kwargs, result))
            return result

        return traced

    def patch(self, name: str, modules, attr: str, attrs=None) -> None:
        """Replace `attr` by one traced wrapper in every module of `modules`."""
        original = getattr(modules[0], attr)
        traced = self.wrap(name, original, attrs)
        for module in modules:
            self._patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, traced)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def attr_values(self, name: str, key: str) -> list:
        return [s[5][key] for s in self.spans if s[2] == name and key in s[5]]

    def write(self, path: str, summary: dict) -> None:
        payload = {
            "summary": summary,
            "spans": [
                {"id": i, "parent": parent, "name": name, "start": t0, "end": t1, **extra}
                for i, parent, name, t0, t1, extra in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

"""In-memory span tracer that wraps functions from outside the program.

A span has a name, a start, an end and the id of the span that was open
when it started (its parent, -1 at the root). Spans are kept in a list
while the traced code runs and written out once at the end. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

# hook(counters, args, kwargs, result), run after a wrapped call returns
AfterHook = Callable[[dict, tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent_id]
        self.counters: Dict[str, float] = {}
        self._open: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _start(self, name: str) -> list:
        span = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list) -> None:
        self._open.pop()
        span[2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._start(name)
        try:
            yield
        finally:
            self._end(span)

    def wrap(self, owner, attr: str, name: str, after: Optional[AfterHook] = None) -> None:
        """Replace owner.attr (a function or classmethod) by a traced version."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._restore.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def summary(self) -> Dict[str, Tuple[int, int, int]]:
        """name -> (calls, total ns, self ns), derived from the spans."""
        covered = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Tuple[int, int, int]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, self_ns = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, total + end - start, self_ns + end - start - covered[i])
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, times in ns from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name,
                    "start_ns": start - origin, "end_ns": end - origin,
                }))
                fh.write("\n")

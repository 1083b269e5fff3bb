"""In-memory span recorder for the traced run.

A span is (name, start, end, parent index).  Spans stay in memory while
the run goes on and are written out once at the end.  The layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self) -> dict[str, tuple[int, float]]:
        """Call count and summed duration per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {k: (c, t) for k, (c, t) in out.items()}

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus its children's spans.

        Children run one after another inside their parent, so the part
        of the parent they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - covered
        return dict(out)

    def total(self) -> float:
        """Wall time covered by the root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], round(a - t0, 7), round(b - t0, 7), p]
                      for n, a, b, p in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")

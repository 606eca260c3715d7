"""In-memory spans and counts for the traced benchmark run.

A span is ``[name, start, end, parent, run_id]``: times are
``time.perf_counter`` seconds, ``parent`` is the list index of the enclosing
span (-1 at the root), and every span of one traced pass shares its run id.
Spans stay in memory until ``write`` is called once, at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._parent(), self.run_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the innermost open one (for hot loops)."""
        self.spans.append([name, start, end, self._parent(), self.run_id])

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.run_id][name] += amount

    def totals(self, run_id: str) -> dict[str, tuple[float, int]]:
        """Summed duration and number of spans per name within one run id."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, start, end, _, rid in self.spans:
            if rid == run_id:
                out[name][0] += end - start
                out[name][1] += 1
        return {name: (total, n) for name, (total, n) in out.items()}

    def _parent(self) -> int:
        return self._open[-1] if self._open else -1

    def write(self, path, meta: dict) -> None:
        payload = {
            "meta": meta,
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "counts": {rid: dict(c) for rid, c in self.counts.items()},
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))

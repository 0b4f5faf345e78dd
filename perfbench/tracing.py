"""In-memory spans and counters recorded around the benchmark's calls into sedrec."""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory until ``dump``.

    A disabled tracer records nothing, so the untraced run pays only for the
    context-manager calls.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = ""
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = {"name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total time and self time (total minus children)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for i, rec in enumerate(self.spans):
            d = rec["end"] - rec["start"]
            agg = out[rec["name"]]
            agg["count"] += 1
            agg["total_s"] += d
            agg["self_s"] += d - child[i]
        return dict(out)

    def total(self, name: str, run: str | None = None) -> float:
        """Summed duration of the spans called ``name``, optionally of one run id."""
        return sum(r["end"] - r["start"] for r in self.spans
                   if r["name"] == name and run in (None, r["run"]))

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "totals": self.totals(), **extra},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")


class CountingCosts:
    """Wraps an ``EdgeCosts``: counts relaxations and distinct directed edges."""

    def __init__(self, inner):
        self.inner = inner
        self.graph = inner.graph
        self.scheme = inner.scheme
        self.calls = 0
        self.seen: set[tuple[int, int]] = set()

    def cost(self, source: int, target: int, edge: int) -> float:
        self.calls += 1
        self.seen.add((source, target))
        return self.inner.cost(source, target, edge)

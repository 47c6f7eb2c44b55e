"""Span and counter recorder for the benchmark's traced runs.

Spans are kept in memory and written out when the run ends. Each span has
a name, start and end (seconds since the recorder was made), its parent
span and the pass it belongs to; spans of one pass share that pass id.
A disabled recorder records nothing.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = {}
        self.pass_id = "setup"
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.setdefault(name, []).append(float(value))

    def seconds(self, name: str, pass_id=None) -> list[float]:
        """Total duration of `name` spans per pass, in pass order."""
        totals: dict = {}
        for s in self.spans:
            if s["name"] == name and (pass_id is None or s["pass"] == pass_id):
                totals[s["pass"]] = totals.get(s["pass"], 0.0) + s["end"] - s["start"]
        return list(totals.values())

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")

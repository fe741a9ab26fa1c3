"""In-memory spans around the benchmark's own calls into xrwa layers.

A span is ``[id, parent, trace, name, start_ns, end_ns]``. Every span opened
while another is open becomes its child and inherits its trace id; a root
span (one transfer, block, settlement round or schedule) starts a new trace.
A disabled tracer records nothing and adds one Python call per wrapped call.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

ID, PARENT, TRACE, NAME, START, END = range(6)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[list] = []
        self._traces = 0

    def _begin(self, name: str, new_trace: bool) -> list:
        parent = self._open[-1] if self._open else None
        if parent is None or new_trace:
            self._traces += 1
            trace = self._traces
        else:
            trace = parent[TRACE]
        rec = [len(self.spans), parent[ID] if parent else None, trace, name, perf_counter_ns(), 0]
        self.spans.append(rec)
        self._open.append(rec)
        return rec

    def _end(self, rec: list) -> None:
        rec[END] = perf_counter_ns()
        self._open.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named after the layer function it enters."""
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = self._begin(name, False)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(rec)

    @contextmanager
    def span(self, name: str, new_trace: bool = False) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        rec = self._begin(name, new_trace)
        try:
            yield
        finally:
            self._end(rec)

    def to_json(self) -> list[dict]:
        return [
            {"id": s[ID], "parent": s[PARENT], "trace": s[TRACE], "name": s[NAME],
             "startNs": s[START], "endNs": s[END]}
            for s in self.spans
        ]


def self_times_ns(spans: list[list]) -> dict[int, int]:
    """Each span's duration minus the part covered by its direct children.

    Children of one span never overlap (one thread, sequential calls), so
    subtracting their durations subtracts exactly the covered part."""
    covered: dict[int, int] = {}
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] = covered.get(s[PARENT], 0) + s[END] - s[START]
    return {s[ID]: s[END] - s[START] - covered.get(s[ID], 0) for s in spans}


def _p50(values: list[int]) -> int:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def span_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy and self ms, and the p50 per call."""
    selfs = self_times_ns(spans)
    durations: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    for s in spans:
        durations.setdefault(s[NAME], []).append(s[END] - s[START])
        self_ns[s[NAME]] = self_ns.get(s[NAME], 0) + selfs[s[ID]]
    table = {}
    for name, durs in sorted(durations.items()):
        table[name] = {
            "p50Ns": _p50(durs),
            "calls": len(durs),
            "busyMs": sum(durs) / 1e6,
            "selfMs": self_ns[name] / 1e6,
        }
    return table


def layer_self_ms(spans: list[list]) -> dict[str, float]:
    """Self time per layer; the ``bench`` layer is the harness's own code
    inside root spans."""
    selfs = self_times_ns(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s[NAME].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + selfs[s[ID]] / 1e6
    return dict(sorted(out.items()))

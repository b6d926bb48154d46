"""In-memory span recording around the library's public calls.

A span is [name, start, end, parent, rt, attrs]: `parent` is the index of
the enclosing span in the same recorder (-1 at the top), `rt` the round-trip
id the span belongs to (None outside the round-trip loop), and `attrs` a
dict of counts or None.  Each side of an exchange owns one recorder; spans
stay in memory until the run ends.  perf_counter is CLOCK_MONOTONIC on
Linux, so spans from the echo process share the ping process's time base.
"""

from __future__ import annotations

import time
from collections import defaultdict

NAME, START, END, PARENT, RT, ATTRS = range(6)


class NoTrace:
    """Stand-in recorder for untraced runs: calls straight through."""

    enabled = False
    spans: tuple = ()

    def begin(self, name: str) -> int:
        return -1

    def end(self, i: int, attrs: dict | None = None) -> None:
        pass

    def call(self, name, fn, *args):
        return fn(*args)

    def note(self, attrs: dict) -> None:
        pass


class Tracer:
    """Span recorder of one side of the exchange."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.rt = None  # round-trip id stamped on new spans
        self.last = -1  # index of the span that ended last
        self._stack: list[int] = []
        self._clock = time.perf_counter

    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), 0.0, parent, self.rt, None])
        self._stack.append(i)
        return i

    def end(self, i: int, attrs: dict | None = None) -> None:
        span = self.spans[i]
        span[END] = self._clock()
        span[ATTRS] = attrs
        self._stack.pop()
        self.last = i

    def note(self, attrs: dict) -> None:
        """Attach counts to the span that ended last."""
        self.spans[self.last][ATTRS] = attrs

    def call(self, name, fn, *args):
        i = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(i)


class TracedEngine:
    """Engine proxy for pingpong_typed: records pack and unpack spans and
    forwards to the library's own engine."""

    def __init__(self, eng, tr: Tracer):
        self._eng = eng
        self._tr = tr
        self.is_contiguous = eng.is_contiguous
        self.span = eng.span
        self.total_bytes = eng.total_bytes

    def pack_message(self, region):
        i = self._tr.begin("packer.pack")
        out = self._eng.pack_message(region)
        self._tr.end(i, {"bytes": self.total_bytes})
        return out

    def unpack_message(self, data, region) -> None:
        i = self._tr.begin("packer.unpack")
        self._eng.unpack_message(data, region)
        self._tr.end(i, {"bytes": self.total_bytes})


class TracedEndpoint:
    """Endpoint proxy: records send and receive spans with frame sizes."""

    def __init__(self, ep, tr: Tracer):
        self._ep = ep
        self._tr = tr
        self.peer_id = ep.peer_id

    def send_msg(self, payload) -> None:
        i = self._tr.begin("transport.send")
        self._ep.send_msg(payload)
        self._tr.end(i, {"bytes": len(payload)})

    def recv_msg(self):
        i = self._tr.begin("transport.recv")
        data = self._ep.recv_msg()
        self._tr.end(i, {"bytes": len(data)})
        return data


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def root_of(spans: list, i: int) -> int:
    while spans[i][PARENT] >= 0:
        i = spans[i][PARENT]
    return i


def layer_table(spans: list) -> dict[str, dict[str, float]]:
    """Self seconds per layer, grouped by the name of the top-level span
    each span ran under (bench.setup, transport.pingpong_typed, ...)."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    selfs = self_times(spans)
    for i, s in enumerate(spans):
        phase = spans[root_of(spans, i)][NAME]
        table[phase][layer_of(s[NAME])] += selfs[i]
    return {p: dict(v) for p, v in table.items()}

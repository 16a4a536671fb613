"""In-memory span recording for the traced benchmark run.

Spans are opened and closed by wrappers that the benchmark installs
around public functions of the alphaeff modules (the program itself is
not edited).  Every span has a name, a start, an end and a parent, and
is kept in memory; totals per name are aggregated as spans close, so a
long run needs only a bounded list of raw spans, written out at the end.

Self time of a span is its duration minus the durations of its direct
children; the calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.opened = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        self.opened += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self.opened, parent, name, 0.0, _clock()])

    def end(self) -> float:
        t1 = _clock()
        sid, parent, name, child, t0 = self._stack.pop()
        d = t1 - t0
        self.busy[name] += d
        self.self_time[name] += d - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += d
        if len(self.spans) < self.keep:
            self.spans.append((sid, parent, name, t0, t1))
        return d

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``name`` is a span name or a function of the call's arguments
        returning one; ``count(tracer, name, args, result)`` records
        work counts after the span has closed.
        """
        raw = owner.__dict__[attr]
        func = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            tracer.begin(span)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end()
            if count is not None:
                count(tracer, span, args, result)
            return result

        setattr(owner, attr, staticmethod(traced) if isinstance(raw, classmethod) else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def layer_self_time(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.split(".", 1)[0] == layer)

    @staticmethod
    def span_cost(n: int = 20_000) -> float:
        """Seconds one traced call adds over the bare call.

        The probe goes through :meth:`wrap` itself, with a name function
        and a count callback and every span kept, so the wrapper's own
        argument packing and bookkeeping are part of the cost.
        """
        owner = types.SimpleNamespace(call=lambda *args, **kwargs: None)
        bare = owner.call
        probe = Tracer(keep=n)

        def bump(tracer, name, args, result):
            tracer.counts[f"{name}.calls"] += 1

        probe.wrap(owner, "call", lambda args, kwargs: "probe", bump)
        traced = owner.call

        def seconds(func):
            t0 = _clock()
            for _ in range(n):
                func(1, key=2)
            return _clock() - t0

        return max(0.0, seconds(traced) - seconds(bare)) / n

    def dump(self) -> dict:
        return {
            "spans_opened": self.opened,
            "spans_kept": len(self.spans),
            "columns": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "totals": {
                name: {"calls": self.calls[name], "busy_s": self.busy[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.busy)
            },
        }

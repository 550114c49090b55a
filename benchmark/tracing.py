"""Spans recorded from outside the library, by rebinding the names it calls.

A span is (id, name, start, end, parent id). The recorder keeps spans in
memory; the run writes them out once, after the timed section. A span's
self time is its duration minus the time covered by its direct children
(calls are sequential in one thread, so children never overlap).
"""

import json
import time
from collections import defaultdict

clock = time.perf_counter


class Recorder:
    """In-memory span recorder with per-span counters and reversible patches."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent_id, child_s, failed)
        self.counters = defaultdict(float)   # "<span name>.<counter>" -> total
        self._stack = []         # open spans: [id, start, child_s]
        self._next_id = 0
        self._patches = []       # (owner, attribute, original), in install order

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``.

        The same bookkeeping as ``span``, inlined: this is the hot path of
        every traced call.
        """
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, clock(), 0.0]
        stack.append(frame)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = clock()
            stack.pop()
            duration = end - frame[1]
            parent_id = -1
            if stack:
                stack[-1][2] += duration
                parent_id = stack[-1][0]
            self.spans.append((span_id, name, frame[1], end, parent_id, frame[2], failed))

    def span(self, name):
        """Context manager recording the benchmark's own code as a span."""
        return _SpanContext(self, name)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attribute, name, extra=None):
        """Rebind ``owner.attribute`` to a traced wrapper of its current value.

        ``name`` is a span name, or a function of the call arguments that
        returns one. ``extra(args, result)`` returns counters to add under
        the span name once the call returns.
        """
        original = getattr(owner, attribute)
        recorder = self

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            result = recorder.call(span_name, original, args, kwargs)
            if extra is not None:
                for key, amount in extra(args, result).items():
                    recorder.counters[f"{span_name}.{key}"] += amount
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent_id, _, failed in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent_id, "failed": failed}) + "\n")


def span_totals(spans):
    """name -> {calls, failed, s, self_s} over a list of recorded spans."""
    out = {}
    for _, name, start, end, _, child_s, failed in spans:
        t = out.get(name)
        if t is None:
            t = out[name] = {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0}
        t["calls"] += 1
        t["failed"] += failed
        t["s"] += end - start
        t["self_s"] += end - start - child_s
    return out


class _SpanContext:
    def __init__(self, recorder, name):
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        rec = self._recorder
        self._frame = [rec._next_id, clock(), 0.0]
        rec._next_id += 1
        rec._stack.append(self._frame)
        return self

    def __exit__(self, exc_type, exc, tb):
        rec = self._recorder
        end = clock()
        frame = rec._stack.pop()
        duration = end - frame[1]
        parent_id = -1
        if rec._stack:
            rec._stack[-1][2] += duration
            parent_id = rec._stack[-1][0]
        rec.spans.append((frame[0], self._name, frame[1], end, parent_id, frame[2],
                          exc_type is not None))
        return False


def span_cost(repeats=20000):
    """Seconds one traced call adds over a plain call, measured here and now."""
    def noop():
        return None

    def loop(fn):
        best = float("inf")
        for _ in range(5):
            t0 = clock()
            for _ in range(repeats):
                fn()
            best = min(best, clock() - t0)
        return best / repeats

    rec = Recorder()

    class Holder:
        pass

    holder = Holder()
    holder.fn = noop
    rec.wrap(holder, "fn", "noop")
    traced = loop(holder.fn)
    plain = loop(noop)
    return max(traced - plain, 0.0)

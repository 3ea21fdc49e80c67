"""In-memory spans for the traced benchmark run.

A span records a name, its start and end on the ``perf_counter`` clock, and
the span that was open when it started (its parent).  Calls made hundreds of
thousands of times per run (membership queries, successor steps, per-state
validation) are not given a span each: they are aggregated per parent span
into a call count, a total time and, for boolean results, a count of true
returns.  Aggregated calls are leaves, so their self time is their total.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [id, name, parent, start, end]
        self.hot_calls: dict = {}       # (parent, name) -> [calls, total_s, true]
        self._open: list = [None]

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, self._open[-1], perf_counter(), None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named `name`."""
        with self.span(name):
            return fn(*args)

    def wrap(self, name: str, fn):
        """`fn` with a span around every call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def hot(self, name: str, fn):
        """`fn` with its calls aggregated per enclosing span."""
        hot_calls, opened = self.hot_calls, self._open

        def counted(*args):
            start = perf_counter()
            result = fn(*args)
            took = perf_counter() - start
            key = (opened[-1], name)
            agg = hot_calls.get(key)
            if agg is None:
                agg = hot_calls[key] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += took
            if result is True:
                agg[2] += 1
            return result
        return counted

    def layers(self) -> dict:
        """Per name: calls, wall (inclusive) seconds, self seconds and true
        results.  Self time is a span's duration minus the time its child
        spans and aggregated calls cover."""
        covered: dict = {}
        for _, _, parent, start, end in self.spans:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        for (parent, _), (_, total, _) in self.hot_calls.items():
            covered[parent] = covered.get(parent, 0.0) + total
        out: dict = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "wall_s": 0.0,
                                         "self_s": 0.0, "true": 0})

        for sid, name, _, start, end in self.spans:
            e = entry(name)
            e["calls"] += 1
            e["wall_s"] += end - start
            e["self_s"] += end - start - covered.get(sid, 0.0)
        for (_, name), (calls, total, true) in self.hot_calls.items():
            e = entry(name)
            e["calls"] += calls
            e["wall_s"] += total
            e["self_s"] += total
            e["true"] += true
        return out

    def dump(self, path):
        """Write every span and aggregate as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
            for (parent, name), (calls, total, true) in self.hot_calls.items():
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "calls": calls, "total_s": total,
                                     "true": true}) + "\n")


class NoTracer:
    """Stand-in for set-up code shared by the untraced run: calls go
    straight through."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

"""In-memory spans recorded around calls into the toolkit's layers.

A span has a name, start and end times, the span that was open when it
started (its parent) and the study it belongs to.  Spans stay in memory and
are written out once, when the run ends.  A layer's self time is its spans'
duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.study = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "study": self.study,
               "parent": self._stack[-1] if self._stack else None,
               "start": perf_counter(), "end": None, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` inside a span.

        ``annotate(attrs, args, result)`` may add to the span's attributes;
        it also runs, with ``result=None``, when ``fn`` raises.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    rec["attrs"]["error"] = repr(exc)
                    if annotate is not None:
                        annotate(rec["attrs"], args, None)
                    raise
                if annotate is not None:
                    annotate(rec["attrs"], args, out)
                return out
        return traced

    @contextmanager
    def patched(self, module, names):
        """Replace ``module.<attr>`` by traced wrappers for the block.

        ``names`` maps attribute -> (span name, annotate or None).  Callers
        inside ``module`` look these names up at call time, so they see the
        wrappers; the originals are restored on exit.
        """
        saved = {attr: getattr(module, attr) for attr in names}
        try:
            for attr, (span_name, annotate) in names.items():
                setattr(module, attr, self.wrap(span_name, saved[attr], annotate))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def totals(self):
        """name -> {"calls", "s" (inclusive), "self_s"} over all spans."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            row = out[rec["name"]]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[rec["id"]]
        return dict(out)

    def by_name(self, name: str):
        return [rec for rec in self.spans if rec["name"] == name]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def span_cost_s(calls: int = 2000, repeats: int = 7) -> float:
    """Seconds one span adds around a call (median over repeats)."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        traced = Tracer().wrap("probe", noop)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - t0 - bare) / calls)
    return max(0.0, sorted(costs)[repeats // 2])

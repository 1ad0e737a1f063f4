"""In-memory span recorder for the traced benchmark run.

`Tracer.wrap(owner, attr, name)` replaces the function stored at
`owner.attr` (the module attribute its caller looks up at call time) by a
wrapper that records one span per call: name, start, end, the index of the
enclosing span and optional attributes extracted from the arguments and the
result. Spans stay in memory until `dump` writes them as JSON lines.
"""
from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, attrs]
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr, name, attrs=None):
        """Record a span named `name` around every call of `owner.attr`.

        `attrs(args, kwargs, result)` returns a dict of counts stored with
        the span; it runs after the span has closed, outside its time.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def unwrap_all(self):
        """Restore every wrapped function, last wrapped first."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def dump(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "attrs": attrs}) + "\n")


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(spans, window):
    """Total, self time and call count per span name, plus the share of the
    `window` (start, end) covered by spans.

    A span's self time is its duration minus the time its direct children
    cover; children never overlap since calls nest. The covered share is the
    summed self time of the spans inside the window, which equals the length
    of the union of its top-level spans.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    per_name = {}
    covered = 0.0
    lo, hi = window
    for k, s in enumerate(spans):
        dur = s["end"] - s["start"]
        entry = per_name.setdefault(s["name"], {"total": 0.0, "self": 0.0,
                                                 "calls": 0})
        entry["total"] += dur
        entry["self"] += dur - child_time[k]
        entry["calls"] += 1
        if s["start"] >= lo and s["end"] <= hi:
            covered += dur - child_time[k]
    return per_name, covered / (hi - lo)

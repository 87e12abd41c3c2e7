"""Fold a Chrome trace written by obs::TraceRecorder into per-span self time.

Spans nest by time containment on one thread (the recorder's parent ids are
only set where a caller passed a handle, so containment is the rule that
covers every span). A span's self time is its duration minus the union of
its direct children's intervals. The batch engine's per-job and
per-extraction records (INTERVAL_RECORDS) run from prepare to completion
across threads, queue wait included, so they are not call-stack spans and
the fold skips them.
"""

import json
from collections import defaultdict

INTERVAL_RECORDS = {"batch-job", "profile-extraction"}


class Span:
    __slots__ = ("name", "tid", "start", "end", "parent", "children")

    def __init__(self, name, tid, start, end):
        self.name = name
        self.tid = tid
        self.start = start
        self.end = end
        self.parent = None
        self.children = []

    @property
    def seconds(self):
        return self.end - self.start

    def self_seconds(self):
        covered = 0.0
        reach = self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.seconds - covered

    def descendants(self):
        stack = list(self.children)
        while stack:
            span = stack.pop()
            yield span
            stack.extend(span.children)


def load(path):
    """Reads a trace and links every span to its innermost container."""
    with open(path) as handle:
        trace = json.load(handle)
    spans = [
        Span(e["name"], e["tid"], e["ts"] * 1e-6, (e["ts"] + e["dur"]) * 1e-6)
        for e in trace["traceEvents"]
        if e["name"] not in INTERVAL_RECORDS
    ]
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span.tid].append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s.start, -s.end))
        open_spans = []
        for span in thread_spans:
            while open_spans and open_spans[-1].end < span.end:
                open_spans.pop()
            if open_spans:
                span.parent = open_spans[-1]
                open_spans[-1].children.append(span)
            open_spans.append(span)
    return spans, trace.get("droppedEvents", 0)


def within(spans, window):
    """Spans that lie inside `window` (a Span), on any thread."""
    return [s for s in spans if s.start >= window.start and s.end <= window.end]


def fold(spans, root):
    """Self and inclusive time of every span under the spans named `root`."""
    roots = [s for s in spans if s.name == root]
    self_by_name = defaultdict(float)
    incl_by_name = defaultdict(float)
    count_by_name = defaultdict(int)
    for span in roots:
        for child in span.descendants():
            self_by_name[child.name] += child.self_seconds()
            incl_by_name[child.name] += child.seconds
            count_by_name[child.name] += 1
    return {
        "roots": len(roots),
        "root_s": sum(s.seconds for s in roots),
        "self_by_name": dict(self_by_name),
        "incl_by_name": dict(incl_by_name),
        "count_by_name": dict(count_by_name),
    }


def busy(spans, name):
    """Summed duration of every span called `name`, over all threads."""
    return sum(s.seconds for s in spans if s.name == name)


def first_below(spans, root, name):
    """Summed duration of the spans called `name` that lie under a span
    called `root` with no span called `name` between: the calls the root
    makes itself, not the ones those calls make in turn."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name not in (name, root):
            parent = parent.parent
        if parent is not None and parent.name == root:
            total += span.seconds
    return total

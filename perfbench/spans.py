"""In-memory spans around the benchmark's calls into the toolchain.

A span is [name, start, end, parent index, problem id]. The layer of a
span is the part of its name before the first dot (``parser``, ``model``,
``compiler``, ``planner``, ``validator``, or ``bench`` for the
benchmark's own batch and problem spans).
"""

import contextlib
import time
from collections import defaultdict

_UNTRACED = contextlib.nullcontext()


class NoTrace:
    """Stand-in used while end-to-end metrics are measured."""

    def span(self, name, problem=None):
        return _UNTRACED


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, problem=None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, problem]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def totals(self):
        """Summed duration per span name and summed self time per layer.

        A span's self time is its duration minus the durations of its
        direct children, so the self times of all layers add up to the
        duration of the root spans.
        """
        duration = defaultdict(float)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration[name] += end - start
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split('.', 1)[0]
            self_time[layer] += end - start - child_time[index]
        return duration, self_time

    def records(self, origin):
        return [{'name': name, 'start': start - origin, 'end': end - origin,
                 'parent': parent, 'problem': problem}
                for name, start, end, parent, problem in self.spans]

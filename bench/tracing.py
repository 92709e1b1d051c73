"""In-memory span recorder for the traced run.

Spans are made by rebinding a public function name in the module that calls
it (for example `linerec.model.conv2d`, which the visual encoder looks up at
call time) to a wrapper that records the call. Nothing under `src/` knows
about tracing; `Tracer.restore` puts every original binding back.

A span holds its name, start, end, parent and run id. Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: str


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list = []

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    def wrap(self, fn, name: str, *, namer=None, counter=None):
        """``namer(tracer, args)`` may refine the span name from the call's
        arguments; ``counter(counts, args, result)`` adds work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if namer is None else namer(self, args)
            index = len(self.spans)
            self.spans.append(Span(label, self.clock(), 0.0,
                                   self._open[-1] if self._open else -1, self.run_id))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = self.clock()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str | None = None, **kw) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name or attr, **kw))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run]) + "\n")


def self_times(spans) -> list[float]:
    """Per span: duration minus the summed durations of its direct children.
    Children of one parent come from one thread, so they never overlap."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def totals_by_name(spans) -> tuple[Counter, defaultdict]:
    """(calls per name, summed self seconds per name)."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        calls[s.name] += 1
        self_s[s.name] += t
    return calls, self_s


def intervals_between_ends(spans, name: str, root: str) -> list[float]:
    """Times from the end of one ``name`` span to the end of the next one
    under the same ``root`` ancestor (one training step per Adam update)."""
    def root_of(i):
        while spans[i].parent >= 0:
            i = spans[i].parent
        return i

    last_end: dict = {}
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        r = root_of(i)
        if spans[r].name != root:
            continue
        if r in last_end:
            out.append(s.end - last_end[r])
        last_end[r] = s.end
    return out

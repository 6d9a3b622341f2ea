"""In-memory span tracer that wraps functions at the names callers use.

A wrapper records one span per call: (id, name, start, end, parent, run).
Counters are kept next to the spans so ratios are taken where the work
happens. Wrappers are installed by replacing an attribute on a module or
class and are removed again by ``uninstall``; nothing in the traced
package is edited.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

WRAPPED = "__perfbench_wrapped__"
COUNTED = "__perfbench_counted__"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._error_counters: dict[type, str] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._count_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, tracer.run))

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def count_errors(self, exc_type: type, counter: str):
        """Count each ``exc_type`` once, at the innermost span it leaves."""
        self._error_counters[exc_type] = counter

    def _count_error(self, exc: Exception):
        if getattr(exc, COUNTED, False):
            return
        for exc_type, counter in self._error_counters.items():
            if isinstance(exc, exc_type):
                self.counts[counter] += 1
                setattr(exc, COUNTED, True)
                return

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        """Replace ``owner.attr``; ``uninstall`` puts the original back."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping
    children (concurrent calls) are merged, so no instant counts twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time in seconds)."""
    selfs = self_times(spans)
    calls, total = Counter(), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += selfs[s.id]
    return {name: (calls[name], total[name]) for name in calls}

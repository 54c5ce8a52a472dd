"""Outside-in span tracer for the sphereplanks modules.

The tracer wraps public functions from outside the package: each wrapped
function is replaced at every sphereplanks module that bound it, so calls
made through ``from .sphere import make_stream`` style imports are seen
as well as calls through module attributes.  Spans (name, start, end,
parent, verdict, phase, thread, counters) stay in memory; the benchmark
writes them out when it ends.

Times are integer nanoseconds from ``time.perf_counter_ns``, so the self
times of a single-threaded verdict sum exactly to its root span.  A span
opened on a worker thread with nothing open on that thread takes the
innermost open span of the main thread as its parent, which is the
function that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    verdict: str | None
    phase: str | None
    thread: int
    start: int = 0
    end: int = 0
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self.verdict = None
        self.phase = None
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack:
            parent = self._main_stack[-1].sid
        else:
            parent = None
        span = Span(next(self._ids), name, parent, self.verdict, self.phase,
                    threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, count=None):
        """Wrap ``fn``; ``name`` is a string or ``name(bound_args)``, and
        ``count(bound_args, result)`` returns the span's counters."""
        sig = inspect.signature(fn) if (count or callable(name)) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            span = self._open(name(bound) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counters = count(bound, result)
            return result

        return traced

    def install(self, modules, targets):
        """Replace each target function in every module that binds it.

        ``targets`` maps (module name, function name) to (span name,
        counter function).  Returns the number of bindings replaced.
        """
        by_name = {m.__name__: m for m in modules}
        for (mod_name, fn_name), (span_name, count) in targets.items():
            orig = getattr(by_name[mod_name], fn_name)
            traced = self.wrap(orig, span_name, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
                        self._patches.append((mod, attr, orig))
        return len(self._patches)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Map span id to its duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(children[s.sid], s.start, s.end)
            for s in spans}


def check_self_sums(spans, selfs):
    """Problems with the self-time arithmetic of each verdict's root span.

    Where every span of a verdict ran on the root's thread, the self times
    must sum exactly to the root's duration.  Where worker threads ran
    spans, children overlap, so only the main-thread sum is bounded by the
    root.
    """
    by_verdict = defaultdict(list)
    for s in spans:
        by_verdict[s.verdict].append(s)
    problems = []
    for verdict, group in by_verdict.items():
        roots = [s for s in group if s.parent is None]
        if len(roots) != 1:
            problems.append(f"{verdict}: {len(roots)} root spans")
            continue
        root = roots[0]
        dur = root.end - root.start
        total = sum(selfs[s.sid] for s in group if s.thread == root.thread)
        if all(s.thread == root.thread for s in group):
            if total != dur:
                problems.append(f"{verdict}: self times sum to {total} ns, "
                                f"root span is {dur} ns")
        elif total > dur:
            problems.append(f"{verdict}: main-thread self times exceed the "
                            f"root span")
        if any(selfs[s.sid] < 0 for s in group):
            problems.append(f"{verdict}: negative self time")
    return problems

"""Out-of-band layer tracing: wrap public functions, keep spans in memory.

The benchmark never edits the program.  It replaces public functions and
methods with wrappers that record a span ``(name, start, end, parent)``
per call, kept in a list until the leg ends; a layer's self time is its
spans' durations minus the part their child spans cover
(:func:`stats.self_times`).  Runtime hooks are only *counted*, in a pass
of their own, because they cross by the million.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from typing import Callable

from stats import self_times

#: RegionExecutor methods the lowered kernels call by attribute lookup
HOOKS = ("crit_enter", "crit_exit", "chunk", "thread_begin", "thread_end",
         "omp_for_done", "atomic_update", "barrier", "single_done",
         "region_enter", "region_exit", "assign", "sections_done",
         "task_spawn", "taskwait", "prologue")

#: called with (counts, result, args) after a wrapped call returns
ResultFn = Callable[[Counter, object, tuple], None]


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: [name, start, end, parent index, thread id]
        self.spans: list[list] = []
        #: calls per layer (outermost span of a name only) plus the
        #: extra counts the ``on_result`` callbacks add
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             on_result: ResultFn | None = None) -> Callable:
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, threading.get_ident()]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(rec)
                if parent < 0 or tracer.spans[parent][0] != name:
                    tracer.counts[name] += 1
            stack.append(index)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                with tracer._lock:
                    on_result(tracer.counts, result, args)
            return result

        return traced

    def self_seconds(self, first: int = 0, *,
                     thread: int | None = None) -> Counter:
        """Self seconds per span name, over spans ``first:`` (optionally
        only those recorded on one thread)."""
        with self._lock:
            spans = [tuple(s) for s in self.spans[first:]]
        base = first
        local = [(n, a, b, p - base if p >= base else -1)
                 for n, a, b, p, _t in spans]
        out: Counter = Counter()
        for (name, _a, _b, _p, tid), own in zip(spans, self_times(local)):
            if thread is None or tid == thread:
                out[name] += own
        return out


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------

def patch_function(module, name: str, make: Callable[[Callable], Callable]):
    """Replace ``module.name`` everywhere it was imported by value.

    ``from x import f`` copies the function into the importing module,
    so every loaded module whose attribute is the original object gets
    the wrapper too.
    """
    original = getattr(module, name)
    wrapped = make(original)
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if namespace is not None and namespace.get(name) is original:
            setattr(mod, name, wrapped)
    return wrapped


def patch_method(cls, name: str, make: Callable[[Callable], Callable]):
    wrapped = make(cls.__dict__[name])
    setattr(cls, name, wrapped)
    return wrapped


def count_hooks(cls, counts: Counter, names=HOOKS) -> None:
    """Count calls of the runtime hook methods of ``cls``."""
    for name in names:
        original = cls.__dict__.get(name)
        if original is None:
            continue

        def make(fn, key=name):
            def hook(self, *args):
                counts[key] += 1
                return fn(self, *args)
            return hook

        setattr(cls, name, make(original))

"""In-memory spans for the traced run, and the hooks that record them.

A span is one call into a layer: name, start, end, parent span, job id and a
few counts. Spans live in a list until the run ends. The hooks replace
functions of the hdperm modules, from the benchmark's side, with wrappers
that open a span around the original call; the package itself is not
changed. Very frequent leaf calls (serialize_perm once per tensor) and
generator steps (enumerate_perms) are summed into aggregate spans instead of
one record per call, which keeps memory flat.

Self time of a span = its busy time minus the union of its children's
intervals, minus the time of aggregated calls made under it.
"""

import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts", "leaf_s", "busy")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index into Tracer.spans, or None for a root
        self.job = job
        self.counts = {}
        self.leaf_s = 0.0  # time of aggregated calls made under this span
        self.busy = None  # set for aggregate spans, whose interval has gaps

    @property
    def duration(self):
        return self.busy if self.busy is not None else self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "counts": self.counts,
                "busy": self.duration}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._job = None
        self._job_stack = []
        self._leaves = {}
        self._lock = threading.Lock()  # split workers open spans concurrently

    def _add(self, rec):
        with self._lock:
            self.spans.append(rec)
            return len(self.spans) - 1

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self):
        # a worker thread of the job (per_d's thread split) starts with an
        # empty stack; its spans belong under the job thread's open span
        stack = self._stack() or self._job_stack
        return stack[-1] if stack else None

    @contextmanager
    def job(self, job_id):
        """Open the root span of one job on the calling thread."""
        self._job = job_id
        self._job_stack = self._stack()
        with self.span("cli.run") as root:
            yield root
        self._job = None

    @contextmanager
    def span(self, name):
        rec = Span(name, time.perf_counter(), self._parent(), self._job)
        idx = self._add(rec)
        stack = self._stack()
        stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()

    def open_aggregate(self, name):
        """A span whose busy time is summed from separate steps (see
        Hooks.generator and leaf)."""
        rec = Span(name, None, self._parent(), self._job)
        rec.busy = 0.0
        return self._add(rec)

    def charge(self, idx, t0, t1):
        """Add one step [t0, t1] to the aggregate span idx, and to its
        parent's time spent in aggregated calls."""
        rec = self.spans[idx]
        if rec.start is None:
            rec.start = t0
        rec.end = t1
        rec.busy += t1 - t0
        if rec.parent is not None:
            self.spans[rec.parent].leaf_s += t1 - t0

    def leaf(self, name, t0, t1):
        """Add one call [t0, t1] to the aggregate span of ``name`` under the
        current span."""
        key = (name, self._parent())
        idx = self._leaves.get(key)
        if idx is None:
            idx = self._leaves[key] = self.open_aggregate(name)
        counts = self.spans[idx].counts
        counts["calls"] = counts.get("calls", 0) + 1
        self.charge(idx, t0, t1)


def self_times(spans):
    """Self time of every span (list aligned with spans)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None and s.busy is None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            a, b = spans[c].start, spans[c].end
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered - s.leaf_s)
    return out


def summarize(spans):
    """Per span name: busy (sum of durations), self, calls and summed counts."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(spans, selfs):
        a = agg[s.name]
        a["busy_s"] += s.duration
        a["self_s"] += self_s
        a["calls"] += s.counts.get("calls", 1)
        for k, v in s.counts.items():
            if k != "calls":
                a[k] += v
    return {name: dict(v) for name, v in agg.items()}


# -- hooks into the hdperm modules ---------------------------------------------


class Hooks:
    """Installs span-recording wrappers on hdperm functions and removes them.

    Each hook names a module, an attribute and a span name. A hook whose
    attribute does not exist is skipped and listed in ``missing``, so a later
    version of the package that renames a function loses that layer's numbers
    rather than the whole run.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []
        self.missing = []

    def _patch(self, module, attr, make):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def span(self, module, attr, name, counts=None):
        tracer = self.tracer

        def make(orig):
            def wrapper(*args, **kwargs):
                with tracer.span(name) as rec:
                    result = orig(*args, **kwargs)
                    if counts is not None:
                        rec.counts.update(counts(args, kwargs, result))
                    return result
            return wrapper
        self._patch(module, attr, make)

    def leaf(self, module, attr, name):
        tracer = self.tracer

        def make(orig):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = orig(*args, **kwargs)
                tracer.leaf(name, t0, time.perf_counter())
                return result
            return wrapper
        self._patch(module, attr, make)

    def generator(self, module, attr, name):
        tracer = self.tracer

        def make(orig):
            def wrapper(*args, **kwargs):
                idx = tracer.open_aggregate(name)
                counts = tracer.spans[idx].counts
                counts["yielded"] = 0
                stack = tracer._stack()
                it = orig(*args, **kwargs)
                while True:
                    # each step runs with the aggregate span on top of the
                    # stack, so calls made inside it (the line table) nest
                    stack.append(idx)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.charge(idx, t0, time.perf_counter())
                        stack.pop()
                    counts["yielded"] += 1
                    yield item
            return wrapper
        self._patch(module, attr, make)

    def remove(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()


def _orderings(args, kwargs, result):
    shape = args[0].x.shape
    return {"orderings": math.factorial(shape.n) ** shape.d}


def install(tracer, modules):
    """Hook every layer the per-layer metrics name. ``modules`` maps short
    names (cli, counting, kernel backends, bounds, constructions, shade) to
    the imported modules."""
    hooks = Hooks(tracer)
    cli = modules["cli"]
    hooks.span(cli, "parse_support", "core.parse_support",
               lambda a, k, r: {"bytes": len(a[0])})
    hooks.span(cli, "parse_perm", "core.parse_perm")
    hooks.leaf(cli, "serialize_perm", "core.serialize_perm")
    hooks.span(cli, "per_d", "counting.per_d")
    hooks.generator(cli, "enumerate_perms", "counting.enumerate_perms")
    hooks.span(modules["counting"], "_line_table", "counting.line_table")
    for backend, mod in modules["backends"].items():
        hooks.span(mod, "count_supported", "kernels.count_supported",
                   lambda a, k, r: {"solutions": int(r)})
    bounds = modules["bounds"]
    for attr in ("bregman_log_bound", "theorem5_check", "f_values"):
        hooks.span(bounds, attr, f"bounds.{attr}")
    for mod in (modules["constructions"], modules["shade"]):
        hooks.span(mod, "modular_perm", "constructions.modular_perm")
    hooks.span(modules["constructions"], "block_lift", "constructions.block_lift")
    shade = modules["shade"]
    hooks.span(shade, "exact_expectation_logN", "shade.exact", _orderings)
    hooks.span(shade, "shade_histogram", "shade.exact", _orderings)
    hooks.span(shade, "mc_expectation_logN", "shade.mc",
               lambda a, k, r: {"samples": a[1]})
    hooks.span(shade, "random_query", "shade.random_query")
    return hooks

"""Span tracer that wraps trispcat's public functions from outside the package.

Every module-level public function of every ``trispcat`` module, except the
per-simplex helpers in SKIP, is replaced, in each module namespace that
binds it, by one wrapper that records a span (id, name, start, end, parent).
``Trisp.from_json`` and ``TrispClosureMap.from_json`` are wrapped too.
Methods are left alone, so hot accessors such as ``Trisp.vertex_tuple`` cost
nothing extra.

Spans are kept in memory and written out by the caller when the run ends.
A few wrappers also read a work count off the returned object.  Times can be
taken net of pauses: intervals, such as the speed probe's runs, that fell
inside a span and are not the traced code's own work.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
import json
import sys
import time
import types
from collections import defaultdict


def _perm_entries(action):
    """Group order times permutation length of a closed group action."""
    g = action.elements[0]
    length = sum(len(p) for p in g.dims) if hasattr(g, "dims") else len(g.obj) + len(g.mor)
    return action.order * length


# span name -> (work counter name, count read off the returned object)
COUNTERS = {
    "symmetry.close_group": ("symmetry.perm_entries", _perm_entries),
    "accat.poset_from_relation": ("accat.composition_entries", lambda p: len(p.category.comp)),
    "nerve.nerve": ("nerve.simplices", lambda nv: nv.trisp.total),
    "closure.collapse": ("closure.collapse.steps", lambda cert: len(cert.steps)),
}


# Per-simplex helpers, called ~10^5 times a run at n=5 from a wrapped caller:
# wrapping them would add 0.1-0.2 s to a run, all of it charged to the caller
# (closure.verify_trisp_closure_map and closure.closure_matching).
SKIP = frozenset({
    "closure.extreme_blue",
    "closure.extensions_by_vertex",
    "trisp.edge_matrix",  # recursive, once per face of each simplex
})


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.counts = defaultdict(int)
        self.wrapped = set()  # names of the functions that have a wrapper
        self._stack = []
        self._ids = itertools.count()

    def wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts
        self.wrapped.add(name)

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, package="trispcat"):
        """Wrap the package's public functions in every namespace that binds them."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and obj.__name__ == attr
                    and not attr.startswith("_")
                    and f"{short}.{attr}" not in SKIP
                ):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        trisp_mod = sys.modules[package + ".trisp"]
        closure_mod = sys.modules[package + ".closure"]
        for cls, name in (
            (trisp_mod.Trisp, "trisp.from_json"),
            (closure_mod.TrispClosureMap, "closure.TrispClosureMap.from_json"),
        ):
            cls.from_json = classmethod(self.wrap(name, cls.__dict__["from_json"].__func__))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def paused_time(pauses):
    """A function giving the total length of the pauses that start in [a, b).

    ``pauses`` is a time-ordered list of (start, end).  A pause made by a
    signal handler runs between two steps of the traced code, so it lies
    wholly inside or wholly outside any span.
    """
    starts = [a for a, _b in pauses]
    total = list(itertools.accumulate((b - a for a, b in pauses), initial=0.0))

    def within(a, b):
        return total[bisect_left(starts, b)] - total[bisect_left(starts, a)]

    return within


def aggregate(spans, pauses=()):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a recursive
    function is not counted twice.  Self time is a span's duration minus the
    durations of its direct children, which nest inside it on one thread.
    Every duration is taken net of the pauses inside it.
    """
    within = paused_time(pauses)
    by_id = {}
    net = {}
    child_time = defaultdict(float)
    for sid, name, start, end, parent in spans:
        by_id[sid] = (name, parent)
        net[sid] = end - start - within(start, end)
        if parent >= 0:
            child_time[parent] += net[sid]
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, name, _start, _end, parent in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += net[sid] - child_time[sid]
        ancestor = parent
        while ancestor >= 0 and by_id[ancestor][0] != name:
            ancestor = by_id[ancestor][1]
        if ancestor < 0:
            entry["s"] += net[sid]
    return dict(stats)


PIPELINE_PREFIX = "graphs.pipeline_"


def stage_times(stages, spans, pauses=()):
    """Seconds per pipeline stage, net of the pauses inside each stage.

    ``stages`` is the pipeline report's list of (name, seconds, info).  The
    pipeline's stage clock starts as the pipeline function is entered and its
    stages run back to back, so they are laid out from the start of the
    first ``graphs.pipeline_*`` span.  None when there are stages but no such
    span to place them by.
    """
    if not stages:
        return {}
    starts = [start for _sid, name, start, _end, _parent in spans
              if name.startswith(PIPELINE_PREFIX)]
    if not starts:
        return None
    within = paused_time(pauses)
    t = min(starts)
    times = defaultdict(float)
    for name, seconds, _info in stages:
        times[name] += seconds - within(t, t + seconds)
        t += seconds
    return dict(times)

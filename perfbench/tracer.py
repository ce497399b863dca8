"""Span tracer that instruments the twophase package from outside.

`Tracer.patch()` replaces every function and public method defined in the
traced modules with a wrapper that records a span (name, start, end,
parent) per call.  Module-level functions are replaced in every twophase
module that holds a reference to them, because callers look the name up in
their own module (`twophase.fv.cons_to_prim_array`, not
`twophase.state.cons_to_prim_array`).  `unpatch()` restores the originals.

Per name the tracer keeps exact aggregates: calls, inclusive time, self time
(duration minus the time covered by child spans), descendant and child
counts.  Raw spans are kept in memory up to `span_cap` and written by
`write_spans` when the benchmark ends; spans past the cap are only counted.

Every wrapper adds a cost per call: `cost_in` is the part that lands inside a
span's own [start, end] window and `cost_out` the rest.  `calibrate()`
measures both on a no-op; a caller that measured the real total on its
workload may raise `cost_out`.  `corrected()` subtracts them, so a parent's
time does not include the tracing cost of its thousands of children.
"""

import importlib
import inspect
import json
import statistics
import time
from collections import Counter

MODULES = ("eos", "state", "waves", "exact", "fv", "models", "problems", "cli")


class Tracer:
    def __init__(self, error_base=Exception, span_cap=100_000):
        self.error_base = error_base
        self.span_cap = span_cap
        self.stats = {}  # name -> [calls, incl, self, descendants, children]
        self.counters = Counter()
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.dropped = 0
        self.cost_in = 0.0
        self.cost_out = 0.0
        self.probes = {}  # name -> probe(tracer, args, kwargs), run at entry
        self.active = Counter()  # name -> open spans of that name
        self._stack = []
        self._next_id = 0
        self._targets = None
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self
        perf = time.perf_counter
        stack = self._stack
        active = self.active
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        probe = self.probes.get(name)

        def traced(*args, **kwargs):
            if probe is not None:
                probe(tracer, args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, 0, 0, span_id]  # child time, children, descendants, id
            active[name] += 1
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except tracer.error_base as exc:
                tracer._count_error(exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                stats[3] += frame[2]
                stats[4] += frame[1]
                parent_id = -1
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += 1
                    parent[2] += 1 + frame[2]
                    parent_id = parent[3]
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((span_id, name, t0, t1, parent_id))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_error(self, exc):
        # an exception crossing several wrapped frames counts once, where raised
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.counters["error:" + type(exc).__name__] += 1

    def targets(self):
        """(name, owner, attribute, raw object) for every traced callable."""
        if self._targets is not None:
            return self._targets
        found = []
        for short in MODULES:
            mod = importlib.import_module(f"twophase.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    found.append((f"{short}.{attr}", mod, attr, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, raw in vars(obj).items():
                        if mattr.startswith("_"):
                            continue
                        if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                            found.append((f"{short}.{attr}.{mattr}", obj, mattr, raw))
        self._targets = found
        return found

    def present(self, name):
        return any(t[0] == name for t in self.targets())

    def patch(self):
        if self._patches:
            return
        modules = [importlib.import_module(f"twophase.{m}") for m in MODULES]
        for name, owner, attr, raw in self.targets():
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__))
                self._set(owner, attr, wrapped)
                continue
            wrapped = self.wrap(name, raw)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapped)
                continue
            # rebind the function wherever a module imported it by name
            for mod in modules:
                for mattr, obj in list(vars(mod).items()):
                    if obj is raw:
                        self._set(mod, mattr, wrapped)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- calibration and read-out ---------------------------------------

    def calibrate(self, calls=20_000, batches=7):
        """Measure the wrapper cost on a no-op called from a traced parent."""

        def noop():
            return None

        probe = Tracer(self.error_base)
        wrapped = probe.wrap("noop", noop)
        perf = time.perf_counter

        def loop(fn):
            t0 = perf()
            for _ in range(calls):
                fn()
            return perf() - t0

        outer = probe.wrap("outer", loop)
        totals, insides = [], []
        for _ in range(batches):
            probe.stats["noop"][:] = [0, 0.0, 0.0, 0, 0]
            probe.spans.clear()
            raw = loop(noop)
            traced = outer(wrapped)
            totals.append((traced - raw) / calls)
            insides.append(probe.stats["noop"][1] / calls - raw / calls)
        total = max(statistics.median(totals), 0.0)
        self.cost_in = min(max(statistics.median(insides), 0.0), total)
        self.cost_out = total - self.cost_in

    @property
    def span_cost(self):
        return self.cost_in + self.cost_out

    def snapshot(self):
        return {k: list(v) for k, v in self.stats.items()}, Counter(self.counters)

    def corrected(self, name, since=None, until=None):
        """(calls, inclusive s, self s) of `name` minus the tracing cost,
        optionally between two `snapshot()`s (`until` None: now)."""
        zero = [0, 0.0, 0.0, 0, 0]
        cur = (until[0] if until else self.stats).get(name, zero)
        if since is not None:
            old = since[0].get(name, zero)
            cur = [a - b for a, b in zip(cur, old)]
        calls, incl, self_t, desc, children = cur
        incl_c = incl - calls * self.cost_in - desc * self.span_cost
        self_c = self_t - calls * self.cost_in - children * self.cost_out
        return calls, max(incl_c, 0.0), max(self_c, 0.0)

    def counter(self, key, since=None):
        value = self.counters.get(key, 0)
        if since is not None:
            value -= since[1].get(key, 0)
        return value

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent"],
                    "dropped": self.dropped,
                    "spans": self.spans,
                },
                fh,
            )

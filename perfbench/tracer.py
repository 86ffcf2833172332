"""In-memory tracer for the benchmark's traced run.

The tracer wraps names that one contestlab module calls in another (for
example ``contestlab.equilibrium.allocate_grid``) and restores them on
``uninstall``.  Nothing under ``src/`` is edited.

Every wrapped call updates per-thread aggregates (calls, busy time, self
time).  Coarse boundaries, which fire at most a few thousand times per
run, also record a span (id, parent id, name, start, end, thread).
Hot boundaries, such as the model form methods or ``bisect_vec``, only
aggregate: a span per call would cost more than the call.  A call's self
time is its duration minus the time of the wrapped calls it made, so a
layer's self time excludes every other wrapped layer below it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads = []          # per-thread state, merged on read
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo = []             # (owner, attribute, original)
        self.spans = []
        self.missing = set()        # hook names that no longer exist

    # -- per-thread state -------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "stats": {}, "counts": {}, "active": {},
                  "thread": threading.get_ident()}
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def count(self, key, n=1):
        """Add ``n`` to a counter kept beside the hooks (e.g. elements)."""
        counts = self._state()["counts"]
        counts[key] = counts.get(key, 0) + n

    def active(self, name):
        """True when a call wrapped as ``name`` is open on this thread."""
        return self._state()["active"].get(name, 0) > 0

    def stats(self):
        """Merged ``{name: [calls, busy_s, self_s]}`` over all threads."""
        out = {}
        for st in self._threads:
            for name, (calls, busy, own) in st["stats"].items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += busy
                acc[2] += own
        return out

    def counts(self):
        out = {}
        for st in self._threads:
            for key, n in st["counts"].items():
                out[key] = out.get(key, 0) + n
        return out

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, func, *, span=False, observe=None):
        """Return ``func`` wrapped as layer ``name``.

        ``observe(args, kwargs, result)`` runs after the call, outside the
        timed interval, to record counts such as elements or rows.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st["stack"]
            parent = stack[-1][1] if stack else None
            sid = next(tracer._ids) if span else parent
            frame = [0.0, sid]
            stack.append(frame)
            active = st["active"]
            active[name] = active.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                acc = st["stats"].get(name)
                if acc is None:
                    acc = st["stats"][name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
                if span:
                    tracer.spans.append((sid, parent, name, t0, t1, st["thread"]))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def patch(self, target, name, *, span=False, observe=None):
        """Wrap ``module.attr`` or ``module.Class.attr`` in place.

        A target that no longer exists is recorded in ``missing`` so the
        metrics built on it read as missing rather than zero.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return
        setattr(owner, attr, self.wrap(name, original, span=span, observe=observe))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path, extra=None):
        """Write spans, aggregates and counters as one JSON document."""
        doc = {
            "spans": [
                {"id": sid, "parent": parent, "name": name,
                 "start": t0, "end": t1, "thread": thread}
                for sid, parent, name, t0, t1, thread in self.spans
            ],
            "aggregates": {name: {"calls": c, "busy_s": b, "self_s": s}
                           for name, (c, b, s) in sorted(self.stats().items())},
            "counts": self.counts(),
            "missing": sorted(self.missing),
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, default=str)

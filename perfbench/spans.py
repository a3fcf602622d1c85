"""In-memory call spans around the public functions of the crashvol modules.

A `Tracer` replaces every public function of the six layer modules with a
timing wrapper, both at its definition and in every crashvol namespace that
imported it by name, so calls made through either name are recorded. Each
record holds name, start, end, parent id and busy seconds. Leaf calls that
repeat under one parent (the objective kernels Nelder-Mead calls thousands
of times per fit) are folded into one record with a call count, which keeps
memory bounded without changing any parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "data_ingest", "series_stats", "stochastic_engine", "arima_garch", "evaluation")


class Tracer:
    """Records spans while installed; `records` is written out after the run."""

    def __init__(self, attrs=None):
        # attrs maps a span name to a function of the call's (args, kwargs)
        # that returns extra fields to store on the span
        self.records: list[dict] = []
        self._attrs = attrs or {}
        self._stack: list[list] = []  # open spans: [id, has_child]
        self._folded: dict[tuple, dict] = {}
        self._next_id = 1
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self):
        if self._stack:
            self._stack[-1][1] = True
        frame = [self._next_id, False]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, start, end, error, attrs):
        self._stack.pop()
        key = (parent, name, error) if not frame[1] and attrs is None else None
        rec = self._folded.get(key) if key else None
        if rec is not None:
            rec["end"] = end
            rec["busy"] += end - start
            rec["calls"] += 1
            return
        rec = {
            "id": frame[0],
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "busy": end - start,
            "calls": 1,
            "error": error,
        }
        if attrs:
            rec["attrs"] = attrs
        if key:
            self._folded[key] = rec
        self.records.append(rec)

    @contextmanager
    def span(self, name, **attrs):
        """A span opened by the benchmark itself, such as one op."""
        frame, parent = self._open()
        error = False
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            error = True
            raise
        finally:
            self._close(frame, parent, name, start, time.perf_counter(), error, attrs or {})

    def wrap(self, name, fn):
        # the span logic is inlined rather than reusing span(): this runs on
        # every objective call of a fit, where a generator context costs more
        hook = self._attrs.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = hook(args, kwargs) if hook else None
            frame, parent = self._open()
            error = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                self._close(frame, parent, name, start, time.perf_counter(), error, attrs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of the six layers wherever it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"crashvol.{layer}") for layer in LAYERS}
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "crashvol" or n.startswith("crashvol."))
        ]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, wrapped)
                            self._patched.append((ns, key, obj))

    def uninstall(self):
        for ns, key, obj in reversed(self._patched):
            setattr(ns, key, obj)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(records) -> dict[int, float]:
    """Busy time of each record minus the time its child records cover.

    Children of one parent run one after another on the calling thread, so
    the time they cover is the sum of their busy times.
    """
    covered: dict[int, float] = defaultdict(float)
    for rec in records:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["busy"]
    return {rec["id"]: max(rec["busy"] - covered[rec["id"]], 0.0) for rec in records}

"""Spans and call hooks for the benchmark, installed from outside the package.

A hook replaces a function under every name its callers look it up by:
each ``segdiscover`` module attribute that holds the function object,
or the class attribute for a method. Nothing under ``src/`` changes.

``Tracer`` keeps spans (name, start, end, parent) in memory and folds
them into per-name totals as they close; a span's self time is its
duration minus the time its child spans cover. Totals are kept per
phase ("setup" or "run") so the per-layer figures can be given for one
set-up and one round of the operation.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import Counter

import numpy as np

SETUP, RUN = "setup", "run"
STEP = "train.step"


def package_modules():
    import segdiscover

    mods = [segdiscover]
    for info in pkgutil.iter_modules(segdiscover.__path__):
        mods.append(importlib.import_module(f"segdiscover.{info.name}"))
    return mods


class Hooks:
    """Replaces functions in place and remembers how to put them back."""

    def __init__(self):
        self._undo = []

    def function(self, module, attr, make):
        """Wrap ``module.attr`` everywhere the package holds that object.

        ``make(original)`` returns the replacement.
        """
        original = getattr(module, attr)
        replacement = make(original)
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, replacement)

    def method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    def __init__(self):
        self.enabled = True
        self.phase = SETUP
        self.in_step = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack: list[list] = []  # [span index, seconds covered by children]
        # keyed by (phase, name)
        self.self_s = Counter()
        self.total_s = Counter()
        self.calls = Counter()
        self.step_calls = Counter()  # calls made inside an optimizer step
        self.counts = Counter()

    def begin(self, name: str):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(float("nan"))
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())

    def end(self):
        t = time.perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        key = (self.phase, self.names[self.span_name[idx]])
        self.self_s[key] += dur - covered
        self.total_s[key] += dur
        self.calls[key] += 1
        if self.in_step:
            self.step_calls[key] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, name: str, value, step_only: bool = False):
        if step_only and not self.in_step:
            return
        self.counts[(self.phase, name)] += value

    def span(self, name, after=None):
        """Hook factory: run the original inside a span named ``name``.

        ``after(tracer, args, kwargs, result)`` records counts.
        """
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end()
                if after is not None:
                    after(tracer, args, kwargs, out)
                return out

            return traced

        return make

    def n_spans(self) -> int:
        return len(self.span_start)

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            parent=np.array(self.span_parent, dtype=np.int64),
        )

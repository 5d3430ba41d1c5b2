"""Span tracing of the package's layer boundaries, from outside the package.

A ``Tracer`` wraps chosen functions of ``affine_fields`` and records one span
per call: its name, start, end, parent span, whether an exception left it,
and one integer tag (field dimension, RK4 steps, flow form, ...).  Spans
live in compact arrays in memory and are written out when the run ends.

The package imports functions by name across its modules (``flows`` holds
its own ``mat_exp``, ``validate`` its own ``flow_at``, ...), so a wrapper is
rebound in every ``affine_fields`` namespace that holds the original object;
a span missed that way would silently drop time from its layer.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "affine_fields"


class SeedTransparentCall:
    """Callable that forwards to a traced wrapper but exposes the wrapped
    function's ``__code__``.  ``validate.run_all`` reads the code object to
    decide whether a check takes ``seed``; a plain ``*args`` wrapper would
    make it run every check at its default seed instead of the run's."""

    def __init__(self, fn, traced):
        self.__code__ = fn.__code__
        self._traced = traced

    def __call__(self, *args, **kwargs):
        return self._traced(*args, **kwargs)


class Tracer:
    """Records spans for the functions it patches until ``restore``."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")
        self.raised = array("b")
        self.stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def enclosing_tag(self, name: str) -> int | None:
        """Tag of the innermost open span with this name, if any."""
        nid = self._ids.get(name)
        for idx in reversed(self.stack[1:]):
            if self.span_name[idx] == nid:
                return self.tag[idx]
        return None

    def wrap(self, name: str, fn, pre=None, post=None):
        """Traced version of fn.  ``pre(tracer, args, kwargs)`` and
        ``post(tracer, result)`` may return the span's tag."""
        nid = self.name_id(name)
        stack = self.stack
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        tag, raised, clock = self.tag, self.raised, self.clock

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            tag.append(-1 if pre is None else pre(self, args, kwargs))
            raised.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                raised[idx] = 1
                raise
            else:
                end[idx] = clock()
                if post is not None:
                    tag[idx] = post(self, result)
                return result
            finally:
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, pre=None, post=None):
        """Trace ``affine_fields.<module>.<attr>`` in every package namespace
        that holds it."""
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
        traced = self.wrap(f"{module}.{attr}", original, pre, post)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, module: str, cls: str, attr: str, span: str | None = None):
        """Trace a method (``__init__`` for construction) on its class."""
        owner = getattr(sys.modules[f"{PACKAGE}.{module}"], cls)
        name = span or f"{module}.{cls}.{attr}"
        self._set(owner, attr, self.wrap(name, getattr(owner, attr)))

    def patch_checks(self, module: str, table: str):
        """Trace each function of a tuple such as ``validate.ALL_CHECKS`` as
        one ``<module>.check`` span labelled with the returned result's name,
        keeping the signature the tuple's consumer inspects."""
        mod = sys.modules[f"{PACKAGE}.{module}"]

        def label(tracer, result):
            return tracer.label_id(result.name)

        wrapped = tuple(
            SeedTransparentCall(fn, self.wrap(f"{module}.check", fn, post=label))
            for fn in getattr(mod, table)
        )
        self._set(mod, table, wrapped)

    def restore(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, raised, self_s, total_s and the array of
        inclusive durations.  Self time is the duration minus the part its
        child spans cover; children of one span never overlap here, because
        the package runs on one thread."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                              minlength=duration.size)
        self_time = duration - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "raised": int(a["raised"][mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "total_s": float(duration[mask].sum()),
                "durations": duration[mask],
                "tags": a["tag"][mask],
            }
        return out

    def write(self, path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), labels=np.array(self.labels, dtype=str), **a)

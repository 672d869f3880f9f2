"""Span tracing of choqlab's public functions, installed from outside.

`Tracer.install()` wraps every public function of the traced modules and
rebinds the wrapper wherever a choqlab module (or the package itself)
bound the original, so calls between modules are recorded as well as calls
from the benchmark.  The wrapper bound in module X records X as the call
site, which attributes, for example, `problem.eval_F` calls to `minimize`.

The `numpy.fft` and `scipy.fft` n-D transforms are wrapped to count 3-D
FFTs by the module of the calling frame (both, so the counts survive a
switch of spectral backend).  `ThreadPoolExecutor` bindings in
choqlab are replaced by a subclass that runs each task in a copy of the
submitter's context, so spans opened in pool threads get the right parent.

Spans stay in memory until `write_jsonl()`; `uninstall()` restores every
original binding.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

TRACED_MODULES = ("problem", "grid", "riesz", "energy", "thresholds",
                  "minimize", "fiber", "cli")
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")

_current_span: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
_current_op: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_op", default=None)


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _fft_dims(args, kwargs) -> int:
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is not None:
        return len(tuple(axes))
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    if s is not None:
        return len(tuple(s))
    return getattr(args[0], "ndim", 0)


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": sum(s.iterations for s in result.starts)}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# Extra attributes read off a call after it returns, by span name.
_HOOKS = {
    "minimize.solve": _iterations,
    "grid.write_field": _file_bytes,
    "grid.read_field": _file_bytes,
}


class Span:
    __slots__ = ("sid", "name", "site", "start", "end", "parent", "op",
                 "thread", "attrs")

    def __init__(self, sid, name, site, start, end, parent, op, thread, attrs):
        self.sid, self.name, self.site = sid, name, site
        self.start, self.end, self.parent = start, end, parent
        self.op, self.thread, self.attrs = op, thread, attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.fft3d: Counter = Counter()   # (op, calling module) -> calls
        self._fft_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _record(self, name, site, fn, args, kwargs):
        sid = next(self._ids)
        parent = _current_span.get()
        token = _current_span.set(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _current_span.reset(token)
        hook = _HOOKS.get(name)
        attrs = hook(args, kwargs, result) if hook else None
        self.spans.append(Span(sid, name, site, start, end, parent,
                               _current_op.get(), threading.get_ident(), attrs))
        return result

    def operation(self, op_id, fn, *args, **kwargs):
        """Run fn as the root span `bench.op` of operation op_id."""
        token = _current_op.set(op_id)
        try:
            return self._record("bench.op", "bench", fn, args, kwargs)
        finally:
            _current_op.reset(token)

    def _wrap(self, name: str, site: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, site, fn, args, kwargs)
        return traced

    def _wrap_fft(self, fn):
        counts, lock = self.fft3d, self._fft_lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if _fft_dims(args, kwargs) == 3:
                caller = sys._getframe(1).f_globals.get("__name__", "?")
                key = (_current_op.get(), caller.rpartition(".")[2])
                with lock:   # pool threads count concurrently
                    counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _binding_sites(self):
        pkg = self.package
        yield pkg.__name__.rpartition(".")[2], pkg
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.startswith(pkg.__name__ + ".") and mod is not None:
                yield mod_name.rpartition(".")[2], mod

    def install(self) -> None:
        import numpy.fft
        import scipy.fft

        originals = {}   # id(original) -> (span name, original)
        for short in TRACED_MODULES:
            mod = sys.modules[f"{self.package.__name__}.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = (f"{short}.{attr}", obj)

        fft_originals = {}
        for fft_mod in (numpy.fft, scipy.fft):
            for attr in FFT_NAMES:
                fn = getattr(fft_mod, attr)
                counted = self._wrap_fft(fn)
                fft_originals[id(fn)] = counted
                self._set(fft_mod, attr, counted)

        for site, mod in list(self._binding_sites()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    name, fn = originals[id(obj)]
                    self._set(mod, attr, self._wrap(name, site, fn))
                elif id(obj) in fft_originals:
                    self._set(mod, attr, fft_originals[id(obj)])
                elif obj is ThreadPoolExecutor:
                    self._set(mod, attr, _ContextPool)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reading -------------------------------------------------------

    def op_spans(self, op_id) -> list[Span]:
        return [s for s in self.spans if s.op == op_id]

    def fft3d_by_module(self, op_id) -> dict[str, int]:
        return {mod: n for (op, mod), n in self.fft3d.items() if op == op_id}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - _union_length(children[s.sid]) for s in spans}


def child_coverage(spans: list[Span], root: Span) -> float:
    kids = [(s.start, s.end) for s in spans if s.parent == root.sid]
    return _union_length(kids) / root.duration if root.duration > 0 else 0.0

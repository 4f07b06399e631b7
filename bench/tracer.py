"""Span tracer that instruments kaon_eraser from outside the package.

A :class:`Tracer` wraps public functions of the library and records one
span (id, name, start, end, parent, thread) per call, plus call counts.
Each wrapper is installed in every ``kaon_eraser`` namespace that holds
the original object, because callers look names up in their own module
(``experiments.window_table``, ``generator.sampling_kernel``,
``cli.generate``); patching only the defining module would miss those
calls.  :meth:`Tracer.uninstall` puts every original back.

Spans live in typed arrays until :meth:`Tracer.save` writes them out.
Worker threads (``generate(threads=2)``) have no open span of their own,
so their spans take as parent the innermost open span of the thread that
installed the tracer.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._root_thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        # (class or None for a function, attribute, original, span name, after)
        self._targets: list[tuple] = []
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_id = array("q")
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("Q")
        #: extra per-name quantities recorded by ``after`` hooks (bytes, ...)
        self.extra: dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            with self._lock:
                idx = self._name_index.setdefault(name, len(self.names))
                if idx == len(self.names):
                    self.names.append(name)
        return idx

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            parent = root[-1] if root else NO_PARENT
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._record(sid, self._name(name), t0, t1, parent)

    def _record(self, sid: int, name_idx: int, t0: float, t1: float, parent: int) -> None:
        with self._lock:
            self.span_id.append(sid)
            self.name_idx.append(name_idx)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(parent)
            self.thread.append(threading.get_ident())

    def __len__(self) -> int:
        return len(self.span_id)

    # -- instrumentation ---------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[..., str]",
        after: Optional[Callable] = None,
    ) -> Callable:
        """Return a traced version of ``fn``.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``after(tracer, result, *args, **kwargs)`` runs once
        the call returned and may add to :attr:`extra`.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            result = tracer.call(span_name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, result, *args, **kwargs)
            return result

        return traced

    def add_function(self, fn: Callable, name, after=None) -> None:
        """Trace ``fn`` wherever a ``kaon_eraser`` module refers to it."""
        self._targets.append((None, "", fn, name, after))

    def add_classmethod(self, cls: type, attr: str, name, after=None) -> None:
        """Trace the classmethod ``cls.attr`` (callers look it up on the class)."""
        self._targets.append((cls, attr, cls.__dict__[attr], name, after))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_thread = threading.get_ident()
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "kaon_eraser" or key.startswith("kaon_eraser."))
        ]
        for owner, attr, original, name, after in self._targets:
            if owner is not None:
                wrapped = classmethod(self.wrap(original.__func__, name, after))
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self.wrap(original, name, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def spans(self, first: int = 0, last: Optional[int] = None) -> dict[str, np.ndarray]:
        sl = slice(first, last)
        return {
            "id": np.asarray(self.span_id[sl], dtype=np.int64),
            "name": np.asarray(self.name_idx[sl], dtype=np.int32),
            "start": np.asarray(self.start[sl], dtype=float),
            "end": np.asarray(self.end[sl], dtype=float),
            "parent": np.asarray(self.parent[sl], dtype=np.int64),
            "thread": np.asarray(self.thread[sl], dtype=np.uint64),
        }

    def save(self, path: Path) -> None:
        spans = self.spans()
        np.savez(path, names=np.asarray(self.names, dtype=str), **spans)


def self_times(ids, starts, ends, parents) -> dict[int, float]:
    """Self time of every span: its duration minus the time its children cover.

    Children that overlap each other (spans from parallel worker threads)
    are merged first, so covered time is never counted twice; child time
    outside the parent's interval is ignored.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, s, e, p in zip(ids, starts, ends, parents):
        if p != NO_PARENT:
            children[int(p)].append((float(s), float(e)))
    result = {}
    for sid, s, e in zip(ids, starts, ends):
        s, e = float(s), float(e)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(int(sid), ())):
            lo, hi = max(lo, s), min(hi, e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[int(sid)] = (e - s) - covered
    return result


def summarize(tracer: Tracer, first: int, last: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    spans = tracer.spans(first, last)
    own = self_times(spans["id"], spans["start"], spans["end"], spans["parent"])
    out: dict[str, dict[str, float]] = {}
    for sid, idx, s, e in zip(spans["id"], spans["name"], spans["start"], spans["end"]):
        entry = out.setdefault(tracer.names[idx], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += float(e - s)
        entry["self_s"] += own[int(sid)]
    return out

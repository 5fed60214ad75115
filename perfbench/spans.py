"""Span tracing from outside the program: wrap public calls, record spans.

A :class:`Tracer` replaces each wrapped function or method with a thin
wrapper that appends one span (name, start, end, parent) to flat
in-memory arrays.  Times are integer nanoseconds from
``time.perf_counter_ns`` so a span's self time (its duration minus the
durations of its direct children) is exact integer arithmetic: it can
never read negative for properly nested spans.

Functions that other modules imported by name (``from m import f``)
are rebound at every import site too: :meth:`Tracer.install` scans all
loaded modules for module attributes that *are* the original function
object and swaps each one for the wrapper.  Modules imported later
pick the wrapper up from the defining module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    """One wrapped public call: ``module:qualname`` recorded as ``span``.

    ``count`` — optional ``(args) -> int`` extra work count added to the
    span name's counter on every call (e.g. samples per batched run).
    """

    span: str
    path: str
    count: Optional[Callable[[tuple], int]] = None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._swaps: list[tuple[object, str, object, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        """``fn`` with a span named ``name`` recorded around each call."""
        nid = self._intern(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(index)
            if count is not None:
                counts[name] = counts.get(name, 0) + count(args)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------------------

    def install(self, targets: tuple[Target, ...]) -> None:
        """Wrap every target at its definition and at every import site."""
        if self._swaps:
            raise RuntimeError("tracer already installed")
        for target in targets:
            module_name, _, qualname = target.path.partition(":")
            owner = importlib.import_module(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(target.span, original, target.count)
            self._swap(owner, attr, original, wrapper)
            if outer:
                continue  # methods are looked up on the class
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if module is owner or not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._swap(module, key, original, wrapper)

    def _swap(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._swaps.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        """Restore every original; spans recorded so far are kept."""
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)
        self._swaps.clear()

    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def self_ns(self) -> np.ndarray:
        """Per-span self time: duration minus direct children's durations."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child = np.zeros_like(duration)
        nested = spans["parent"] >= 0
        np.add.at(child, spans["parent"][nested], duration[nested])
        return duration - child

    def totals(self) -> dict[str, tuple[int, float]]:
        """``span name -> (calls, self seconds)``."""
        names = np.frombuffer(self.name_of, dtype=np.int32)
        own = self.self_ns()
        calls = np.bincount(names, minlength=len(self.names))
        busy = np.bincount(names, weights=own, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(busy[i]) / 1e9)
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span out (called once, when the benchmark ends)."""
        np.savez(path, names=np.array(self.names), **self.arrays())

"""Span tracer that wraps scnopt's public functions from outside the package.

Every public function (a module-level function whose name does not start
with an underscore) of the traced modules is replaced by a wrapper that
records one span per call: name, start, end and the index of the span that
was open when it was called (its parent).  A module that imported a function
by name holds its own binding, so every binding of an original function in
the traced modules (and in the ``scnopt`` package namespace) is replaced, not
only the defining one.  Spans stay in memory; :func:`layer_stats` turns them
into per-layer counts, busy time and self time after the run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

TRACED_MODULES = ("model", "nsga2", "instances", "metrics", "cli")


@dataclass
class Tracer:
    """Records spans of wrapped calls; use as a context manager to patch and restore."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    # Per-span extra values captured by probes, keyed by span index.
    extras: dict[int, tuple] = field(default_factory=dict)
    probes: dict = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        probe = self.probes.get(name)
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if probe is not None:
                self.extras[index] = probe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self, extra: dict | None = None) -> None:
        """Wrap every public function of the traced modules and every binding of it.

        ``extra`` maps span names to ``(module, attribute)`` pairs of further
        functions to wrap, such as a problem defined by the benchmark.
        """
        package = importlib.import_module("scnopt")
        modules = [importlib.import_module(f"scnopt.{m}") for m in TRACED_MODULES]
        wrappers: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for module in (package, *modules):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for name, (owner, attr) in (extra or {}).items():
            fn = getattr(owner, attr)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def save(self, path) -> None:
        """Write the spans out as a compressed ``.npz``: name table, name code, start, end, parent."""
        table: dict[str, int] = {}
        codes = [table.setdefault(n, len(table)) for n in self.names]
        np.savez_compressed(path, names=np.array(list(table)), code=np.array(codes, dtype=np.int32),
                            start=np.array(self.starts), end=np.array(self.ends),
                            parent=np.array(self.parents, dtype=np.int64))


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children.

    Children of one span run one after another on the single thread that
    made them, so the part of the parent they cover is the sum of their
    durations.
    """
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    covered = np.zeros_like(duration)
    parent = np.asarray(parents, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def _under(parents: list[int], names: list[str], index: int, target: str) -> bool:
    """True when a proper ancestor of span ``index`` is named ``target``."""
    p = parents[index]
    while p >= 0:
        if names[p] == target:
            return True
        p = parents[p]
    return False


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def layer_stats(tracer: Tracer, split: dict[str, tuple[str, str]] | None = None) -> dict[str, LayerStat]:
    """Aggregate spans into per-name calls, busy time and self time.

    Busy time counts only outermost spans of a name, so a function that
    reaches itself again is not counted twice.  ``split`` maps a span name
    to ``(ancestor, new name)``: spans of that name with such an ancestor are
    counted under the new name, so export decodes count apart from
    evaluation decodes.
    """
    names = list(tracer.names)
    parents = tracer.parents
    for name, (ancestor, renamed) in (split or {}).items():
        for k, n in enumerate(tracer.names):
            if n == name and _under(parents, tracer.names, k, ancestor):
                names[k] = renamed
    selfs = self_times(tracer.starts, tracer.ends, parents)
    stats: dict[str, LayerStat] = {}
    for k, name in enumerate(names):
        stat = stats.setdefault(name, LayerStat())
        duration = tracer.ends[k] - tracer.starts[k]
        stat.calls += 1
        stat.self_s += float(selfs[k])
        stat.durations.append(duration)
        if not _under(parents, names, k, name):
            stat.busy_s += duration
    return stats

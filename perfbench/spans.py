"""Span tracer that wraps the package's public functions from outside.

The package carries no tracing of its own. ``install`` rebinds each traced
function in every ``orbandit`` module namespace that holds it, so callers
inside the package (which look names up in their own module globals) go
through the wrapper, and ``uninstall`` puts the originals back.

A span's self time is its duration minus the time of the spans it
directly encloses; summing self times over all spans therefore counts
every traced interval once.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    failures: int = 0


@dataclass
class Tracer:
    """Per-name call counts, self times and raised-exception counts."""

    clock: object = time.perf_counter
    stats: dict = field(default_factory=dict)
    _children: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        clock = self.clock
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            children.append(0.0)
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats.failures += 1
                raise
            finally:
                duration = clock() - start
                stats.calls += 1
                stats.self_s += duration - children.pop()
                if children:
                    children[-1] += duration

        return traced


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "orbandit" or name.startswith("orbandit."))]


def install(tracer: Tracer, functions: dict, methods: dict) -> list:
    """Wrap ``functions`` (span name -> function) wherever a package module
    binds them, and ``methods`` (span name -> (class, attribute)) on their
    class. Returns the undo list for ``uninstall``."""
    undo = []
    modules = _package_modules()
    for name, fn in functions.items():
        wrapped = tracer.wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, attr, fn))
                    setattr(module, attr, wrapped)
    for name, (cls, attr) in methods.items():
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

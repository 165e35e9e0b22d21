"""Call tracer for the benchmark: times histarch's public functions at
their module boundaries, without any change to the package itself.

A traced function is replaced by a wrapper in every ``histarch`` module
that binds it (``hr`` imports ``cma_sample`` and ``evaluate_via_archive``
by name, ``harness`` imports ``run_algorithm``), or on its class for a
method. Per-function aggregates (calls, total time, time spent in traced
callees) are kept in memory through a stack of open frames; self time is
total minus callee time. A function that no longer exists is recorded as
absent instead of failing the benchmark, so a refactor that deletes or
renames one still gets measured.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "histarch"


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def resolve(module_name: str, path: str):
    """(owner, attribute name, current value) for ``Class.attr`` or ``func``
    in ``module_name``; value is None when any part is missing."""
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return None, attr, None
    if isinstance(owner, type):
        return owner, attr, owner.__dict__.get(attr)
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    """Per-function aggregates keyed by metric name (``bsp.insert``)."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, callee_s]
        self.absent: list[str] = []
        self._stack: list[float] = []  # callee time of each open frame
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """Timed stand-in for ``fn``. ``before(args, kwargs)`` returns a token
        that ``after(token, args, result)`` receives once ``fn`` returned."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def exclude(self, seconds: float):
        """Count ``seconds`` of benchmark bookkeeping done inside an open
        frame as callee time, so it stays out of that frame's self time."""
        if self._stack:
            self._stack[-1] += seconds

    def patch(self, name: str, module_name: str, path: str, before=None, after=None):
        """Trace ``module_name.path`` under metric ``name``: a method on its
        class, a function in every histarch module that binds it."""
        owner, attr, original = resolve(module_name, path)
        if original is None or not callable(original):
            self.absent.append(name)
            self.stats.setdefault(name, [0, 0.0, 0.0])
            return
        wrapped = self.wrap(name, original, before, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))
            return
        for module, key in rebind_everywhere(original, wrapped):
            self._undo.append((module, key, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        return {name: {"calls": c, "total_s": t, "self_s": t - callee}
                for name, (c, t, callee) in self.stats.items()}


def rebind_everywhere(original, replacement) -> list[tuple]:
    """Replace every histarch module binding of ``original``; returns the
    (module, name) pairs changed so the caller can restore them."""
    changed = []
    for module in package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                changed.append((module, key))
    return changed

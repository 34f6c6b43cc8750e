"""Outside-in span tracer: wraps callables and accounts busy self time.

The tracer patches functions and methods of an already-imported program from
the outside, so the program itself carries no tracing code.  Every wrapped
call is a span; a span's *self time* is its duration minus the time covered
by the spans it encloses (its children), so the self times of all labels add
up to at most the wall time of the traced region.  Garbage-collection pauses
are recorded through :data:`gc.callbacks` as spans of their own (label
``"gc"``), which keeps collector pauses out of whichever layer triggered them.

Usage::

    tracer = SpanTracer()
    tracer.wrap_method(SomeClass, "method", "layer.op")
    tracer.wrap_function(module, "func", "layer.other")
    tracer.install_gc()
    try:
        ...                                   # run the traced program
    finally:
        tracer.uninstall()
    tracer.stats["layer.op"].self_s
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

#: ``items(args, result) -> int``: the work units one outermost call handled.
ItemCounter = Callable[[tuple, Any], int]

_MISSING = object()

#: Modules whose names start with this are searched for by-name imports of a
#: wrapped module-level function.
REBIND_PREFIX = "repro."


@dataclass(slots=True)
class SpanStats:
    """Totals for one span label."""

    #: Outermost calls (a label re-entered from inside itself counts once).
    calls: int = 0
    #: Work units counted by the label's ``items`` function.
    items: int = 0
    #: Busy time minus the time of enclosed spans, in seconds.
    self_s: float = 0.0
    #: Current nesting depth of this label (non-zero only while running).
    depth: int = 0


class SpanTracer:
    """Collects per-label call counts and self times from wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        #: Child-time accumulator of every open span, innermost last.
        self._stack: list[float] = []
        #: (owner, attribute, previous value or _MISSING) in patch order.
        self._patches: list[tuple[Any, str, Any]] = []
        self._gc_callback: Callable[[str, dict], None] | None = None
        self._gc_start = 0.0

    # -- spans -------------------------------------------------------------------

    def span(self, label: str, fn: Callable, items: ItemCounter | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call is a span under ``label``.

        The wrapper returns what ``fn`` returns and raises what it raises.
        """
        stat = self.stats.setdefault(label, SpanStats())
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = stat.depth == 0
            stat.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.depth -= 1
                if outer:
                    stat.calls += 1
            if outer and items is not None:
                stat.items += items(args, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute,
                              owner.__dict__.get(attribute, _MISSING)))
        setattr(owner, attribute, value)

    def wrap_method(self, cls: type, name: str, label: str,
                    items: ItemCounter | None = None) -> None:
        """Wrap ``cls.name``; an inherited method is shadowed on ``cls`` only."""
        original = getattr(cls, name)
        if not callable(original):
            raise TypeError(f"{cls.__name__}.{name} is not callable")
        self._patch(cls, name, self.span(label, original, items))

    def wrap_function(self, module: Any, name: str, label: str) -> None:
        """Wrap module-level function ``module.name``.

        Modules that imported the function by name hold their own reference
        to it; every loaded module whose name starts with
        :data:`REBIND_PREFIX` and holds the original object under any name is
        repointed at the wrapper too.
        """
        original = getattr(module, name)
        wrapper = self.span(label, original)
        owners = [module] + [m for key, m in list(sys.modules.items())
                             if m is not None and m is not module
                             and key.startswith(REBIND_PREFIX)]
        for owner in owners:
            for attribute, value in list(vars(owner).items()):
                if value is original:
                    self._patch(owner, attribute, wrapper)

    # -- garbage collection -------------------------------------------------------

    def install_gc(self) -> None:
        """Record collector pauses as ``"gc"`` spans nested in the open span."""
        stat = self.stats.setdefault("gc", SpanStats())
        stack = self._stack
        clock = self.clock

        def on_gc(phase: str, info: dict) -> None:
            if phase == "start":
                stack.append(0.0)
                self._gc_start = clock()
                return
            elapsed = clock() - self._gc_start
            stat.self_s += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
            stat.calls += 1

        self._gc_callback = on_gc
        gc.callbacks.append(on_gc)

    # -- teardown ---------------------------------------------------------------

    def uninstall(self) -> None:
        """Restore every patched attribute and remove the GC callback."""
        for owner, attribute, previous in reversed(self._patches):
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
        self._patches.clear()
        if self._gc_callback is not None:
            gc.callbacks.remove(self._gc_callback)
            self._gc_callback = None

    def total_self_s(self) -> float:
        """Sum of every label's self time (at most the traced wall time)."""
        return sum(stat.self_s for stat in self.stats.values())

"""In-memory spans around calls into the program, and self-time arithmetic.

A span records a name, a start, an end and the span that was open when it
began (its parent). Spans are kept in a list and written out once the run
ends. A span's self time is its duration minus the part of its interval
that its child spans cover.

``install`` wraps module functions by attribute from outside the program:
every module-level binding of the original function object is replaced,
so ``from .x import f`` copies are traced too, as are references held in
dictionaries passed in ``registries``.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one recorder per traced run, single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, func: Callable, args: tuple, kwargs: dict):
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(span_id, name, self.clock(), float("nan"), parent)
        self.spans.append(span)
        self._open.append(span_id)
        try:
            return func(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    return out


Observer = Callable[[tuple, dict, object], None]


def _traced(recorder: Recorder, original: Callable, name: str, observer: Optional[Observer]):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = recorder.call(name, original, args, kwargs)
        if observer is not None:
            observer(args, kwargs, result)
        return result

    return wrapper


def install(
    recorder: Recorder,
    targets: Iterable[tuple[object, str, str, Optional[Observer]]],
    module_prefix: str,
    registries: Iterable[dict] = (),
) -> Callable[[], None]:
    """Wrap (module, attribute) pairs in spans; return a function that undoes it.

    Each target is (module, attribute, span name, observer). The observer,
    if given, sees the call's arguments and result after the span closes.
    Every binding of the original function in modules whose name starts
    with module_prefix, and every value in the registries, is replaced.
    """
    undo: list[tuple[dict, str, object]] = []
    registries = list(registries)
    for module, attribute, name, observer in targets:
        original = getattr(module, attribute)
        wrapper = _traced(recorder, original, name, observer)
        namespaces = [
            vars(mod)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == module_prefix or mod_name.startswith(module_prefix + "."))
        ]
        for namespace in namespaces + registries:
            for key, value in list(namespace.items()):
                if value is original:
                    undo.append((namespace, key, original))
                    namespace[key] = wrapper

    def restore() -> None:
        for namespace, key, original in reversed(undo):
            namespace[key] = original

    return restore

"""Spans recorded around calls into the program's layers.

The wrappers live in the benchmark, not in ``src/``: each one replaces
the attribute its caller looks up at call time (a class attribute for a
method, the importing module's global for a function imported by name)
and records one span per call.  Spans stay in memory and are written as
JSONL when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    #: A size the call returned (rows, bytes, nodes...) or None.
    size: float | None = None


class SpanRecorder:
    """An in-memory span sink with a parent stack (one thread)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, size: float | None = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.size = size
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:
            self._stack.remove(index)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i].start):
            start = max(spans[child].start, cursor)
            end = min(spans[child].end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


@dataclass(frozen=True)
class Boundary:
    """One wrapped call: span name, where the caller finds it, its kind.

    ``owner`` is ``module:Class`` for a method or ``module`` for a
    function bound in that module's namespace.  ``size`` names what the
    span records as its size: ``len``, ``count`` (a generator's items),
    ``node_count`` (a decompose result), ``hit`` (the value is not None)
    or ``delta:<counter>`` (how far that ``repro.obs`` counter family
    moved during the call).
    """

    name: str
    owner: str
    attribute: str
    size: str | None = None


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def counter_total(name: str) -> float:
    """Current sum over every series of one ``repro.obs`` counter family."""
    from repro import obs

    metric = obs.get_registry().get(name)
    return sum(value for _, value in metric.series()) if metric else 0.0


def _measure(kind: str | None, value) -> float | None:
    if kind == "len":
        return float(len(value))
    if kind == "node_count":
        return float(value.node_count)
    if kind == "hit":
        return 0.0 if value is None else 1.0
    return None


_INHERITED = object()


class Instrumentation:
    """Installs span wrappers at every boundary; ``remove`` restores them."""

    def __init__(self, recorder: SpanRecorder, boundaries) -> None:
        self.recorder = recorder
        self.boundaries = tuple(boundaries)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for boundary in self.boundaries:
            target = _resolve(boundary.owner)
            # An inherited method is wrapped on the named class only.
            own = target.__dict__.get(boundary.attribute, _INHERITED)
            original = getattr(target, boundary.attribute)
            self._saved.append((target, boundary.attribute, own))
            setattr(target, boundary.attribute, self._wrap(boundary, original))

    def remove(self) -> None:
        while self._saved:
            target, attribute, own = self._saved.pop()
            if own is _INHERITED:
                delattr(target, attribute)
            else:
                setattr(target, attribute, own)

    def _wrap(self, boundary: Boundary, original):
        recorder = self.recorder
        name = boundary.name
        kind = boundary.size
        if kind == "count":
            # A generator method: the span covers the whole drain, which
            # the callers consume without interleaving other work.
            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)

                def drain():
                    index = recorder.open(name)
                    produced = 0
                    try:
                        for item in inner:
                            produced += 1
                            yield item
                    finally:
                        recorder.close(index, float(produced))
                return drain()
            return generator_wrapper

        if kind is not None and kind.startswith("delta:"):
            family = kind[len("delta:"):]

            @functools.wraps(original)
            def counting_wrapper(*args, **kwargs):
                before = counter_total(family)
                index = recorder.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.close(index, counter_total(family) - before)
            return counting_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            size = None
            try:
                value = original(*args, **kwargs)
                size = _measure(kind, value)
                return value
            finally:
                recorder.close(index, size)
        return wrapper

"""Outside-in tracer: spans around calls into the package, recorded from here.

The tracer never edits the package. It replaces module-level names that a
layer's caller looks up at call time (``covtraj.scp.build_subproblem`` is the
name ``scp.run`` calls, for example) with timing wrappers, and puts the
originals back when the traced region ends.

Two kinds of frame are recorded:

* a *span* keeps its own record: name, start, end, parent span and the time
  its direct children cover (so self time = duration - child time);
* an *aggregated* frame is for high-frequency leaf calls (``cho_solve``,
  ``_simulate``); it only adds to a counter keyed by (nearest enclosing span,
  name), so a campaign of 10k samples costs 10k counter updates, not 10k
  records.

A target that no longer exists is skipped with a warning; the metric it feeds
is then absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    child: float
    attrs: dict[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


@dataclass
class Counter:
    """Aggregated leaf calls under one parent span."""

    calls: int = 0
    total: float = 0.0
    child: float = 0.0
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        return self.total - self.child


@dataclass
class _Frame:
    name: str
    start: float
    aggregate: bool
    span_id: int | None  # own id for spans, nearest enclosing span for counters
    child: float = 0.0


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``module.attr`` recorded as ``span``.

    ``annotate(result, args, kwargs)`` returns attributes stored on the span,
    or summed into the counter of an aggregated frame. ``methods`` turns the
    target into a module proxy: each ``(function, span, annotate)`` entry
    wraps that function of the module object as an aggregated frame, and
    every other attribute passes through.
    """

    module: str
    attr: str
    span: str = ""
    aggregate: bool = False
    annotate: Callable[..., dict] | None = None
    methods: tuple[tuple[str, str, Callable[..., dict] | None], ...] = ()

    def span_names(self) -> list[str]:
        return [m[1] for m in self.methods] if self.methods else [self.span]


class _ModuleProxy:
    """Stands in for a module object with some of its functions wrapped."""

    def __init__(self, module, wrapped: dict[str, Callable]):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Span recorder plus the wrapper installation that feeds it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[tuple[int | None, str], Counter] = {}
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._next_id = 0

    # ------------------------------------------------------------ frames
    def _push(self, name: str, aggregate: bool) -> _Frame:
        if aggregate:
            span_id = next((f.span_id for f in reversed(self._stack) if not f.aggregate), None)
        else:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name=name, start=self.clock(), aggregate=aggregate, span_id=span_id)
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, attrs: dict | None) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child += duration
        if frame.aggregate:
            c = self.counters.setdefault((frame.span_id, frame.name), Counter())
            c.calls += 1
            c.total += duration
            c.child += frame.child
            for key, val in (attrs or {}).items():
                c.attrs[key] = c.attrs.get(key, 0.0) + val
            return
        parent = next((f.span_id for f in reversed(self._stack) if not f.aggregate), None)
        self.spans.append(
            Span(frame.span_id, frame.name, frame.start, end, parent, frame.child, dict(attrs or {}))
        )

    @contextmanager
    def span(self, name: str, **attrs):
        """A span around a call site in the benchmark's own code."""
        frame = self._push(name, False)
        try:
            yield
        finally:
            self._pop(frame, attrs)

    def wrap(self, fn: Callable, name: str, aggregate: bool = False, annotate=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._push(name, aggregate)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(result, args, kwargs)
                return result
            finally:
                self._pop(frame, attrs)

        return traced

    # ------------------------------------------------------- installation
    def install(self, targets) -> None:
        for t in targets:
            try:
                module = importlib.import_module(t.module)
                original = getattr(module, t.attr)
            except (ImportError, AttributeError):
                for span_name in t.span_names():
                    self._skip(f"{t.module}.{t.attr}", span_name)
                continue
            if t.methods:
                wrapped = {}
                for meth, span_name, annotate in t.methods:
                    fn = getattr(original, meth, None)
                    if fn is None:
                        self._skip(f"{t.module}.{t.attr}.{meth}", span_name)
                        continue
                    wrapped[meth] = self.wrap(fn, span_name, aggregate=True, annotate=annotate)
                replacement = _ModuleProxy(original, wrapped)
            else:
                replacement = self.wrap(original, t.span, t.aggregate, t.annotate)
            setattr(module, t.attr, replacement)
            self._patched.append((module, t.attr, original))

    def _skip(self, where: str, span: str) -> None:
        warnings.warn(f"trace target {where} not found; metrics from {span!r} are absent")
        if span not in self.missing:
            self.missing.append(span)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------- output
    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        payload = {
            "spans": [
                {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "self": s.self_time, "attrs": s.attrs}
                for s in self.spans
            ],
            "counters": [
                {"parent": parent, "name": name, "calls": c.calls, "total": c.total,
                 "self": c.self_time, "attrs": c.attrs}
                for (parent, name), c in self.counters.items()
            ],
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


class NullTracer:
    """Stand-in for untraced runs: records nothing and installs nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield

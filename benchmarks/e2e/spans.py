"""Call-through span timers for the end-to-end benchmark.

The benchmark measures the program's layers from its own files. Each
:class:`Target` names a function, method or class of the program and
the module or class in which its caller looks the name up;
:meth:`Recorder.install` replaces it there with a wrapper that records
one span per call, and :meth:`Recorder.uninstall` puts the original
back, so untraced passes run the program unmodified.

A generator is timed per ``next()``: the time spent producing items is
charged to one span of the generator's layer under the span that pulls
them, on the thread that first pulls. That is what separates WAL
replay from the daemon that consumes it. A generator marked ``eager``
is drained inside one span instead, which is how BGP propagation is
told apart from the RIB build without a timer per route.

Every span records its name, start, end, parent, thread and run id and
stays in memory until the run ends. A layer's self time is its spans'
time minus the part their child spans cover; :func:`settle` works it
out once recording is over, which keeps the per-call cost down.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

#: Clock slack allowed when checking that a child lies inside its parent.
_EPS = 1e-6

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One program callable, timed as layer ``layer``.

    ``owner`` is ``"module"`` or ``"module:Class"``: the namespace in
    which the caller looks ``attr`` up. ``within`` restricts timing to
    calls made while a span of one of those layers is the innermost
    open span on the same thread (the LPM lookup is timed inside
    classification, not inside traffic generation). ``attrs`` derives
    span attributes from the call's arguments and result. ``eager``
    drains a generator inside one span and hands its items on as a
    list iterator: no per-item cost, for a generator of many cheap items
    whose consumer does not depend on the interleaving.
    """

    owner: str
    attr: str
    layer: str
    within: tuple[str, ...] = ()
    attrs: Callable[[tuple, Any], dict] | None = None
    eager: bool = False

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"


class Span:
    """One timed interval; a generator's span sums its ``next()`` calls."""

    __slots__ = (
        "name", "parent", "run", "thread", "start", "end", "busy", "child",
        "count", "attrs",
    )

    def __init__(self, name: str, parent: Span | None, run: str, start: float):
        self.name = name
        self.parent = parent
        self.run = run
        self.thread = threading.get_ident()
        self.start = start
        self.end = start
        #: Time inside the span (the sum of ``next()`` calls for a generator).
        self.busy = 0.0
        #: Part of ``busy`` covered by direct child spans (see :func:`settle`).
        self.child = 0.0
        #: Calls, or items yielded for a generator.
        self.count = 0
        self.attrs: dict | None = None

    @property
    def self_time(self) -> float:
        return self.busy - self.child


class Recorder:
    """Installs targets and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Run id stamped on every span opened from now on.
        self.run = "setup"
        #: Targets that could not be found in the program.
        self.absent: set[str] = set()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.run,
                    time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span.end = end
        span.busy = end - span.start
        span.count = 1
        self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span around the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- installing targets ------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target that exists; record the others as absent."""
        for target in targets:
            module_name, _, class_name = target.owner.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                    raw = owner.__dict__[target.attr]
                else:
                    raw = getattr(owner, target.attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.add(target.label)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: object = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._undo.append((owner, target.attr, raw))
            setattr(owner, target.attr, wrapped)

    def uninstall(self) -> None:
        """Put every wrapped original back."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, targets: Iterable[Target], run: str) -> Iterator[None]:
        """Targets wrapped, and spans stamped ``run``, inside the block."""
        self.run = run
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        recorder = self
        generator = inspect.isgeneratorfunction(fn)

        def timed(*args: Any, **kwargs: Any) -> Any:
            if target.within:
                stack = recorder._stack()
                if not stack or stack[-1].name not in target.within:
                    return fn(*args, **kwargs)
            if generator and not target.eager:
                return _TimedIterator(recorder, target.layer,
                                      fn(*args, **kwargs))
            span = recorder._open(target.layer)
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = list(result)
            finally:
                recorder._close(span)
            if generator:
                span.count = len(result)  # items, as for a lazy generator
                return iter(result)
            if target.attrs is not None:
                span.attrs = target.attrs(args, result)
            return result

        return timed


class _TimedIterator:
    """A generator whose ``next()`` calls are charged to one span per
    pulling span. The hot path touches only cached objects."""

    __slots__ = ("_recorder", "_name", "_iterator", "_stack", "_parent",
                 "_span", "_spans")

    def __init__(self, recorder: Recorder, name: str, iterator: Iterator):
        self._recorder = recorder
        self._name = name
        self._iterator = iterator
        self._stack: list[Span] | None = None
        self._parent: Span | None = None
        self._span: Span | None = None
        self._spans: dict[int, Span] = {}

    def __iter__(self) -> _TimedIterator:
        return self

    def __next__(self) -> Any:
        stack = self._stack
        if stack is None or (stack[-1] if stack else None) is not self._parent:
            stack = self._attach()
        span = self._span
        stack.append(span)
        start = _clock()
        try:
            item = next(self._iterator)
        finally:
            end = _clock()
            stack.pop()
            span.busy += end - start
            span.end = end
        span.count += 1
        return item

    def _attach(self) -> list[Span]:
        """Find (or open) the span for the current puller."""
        recorder = self._recorder
        stack = self._stack = recorder._stack()
        parent = self._parent = stack[-1] if stack else None
        span = self._spans.get(id(parent))
        if span is None:
            span = self._spans[id(parent)] = Span(
                self._name, parent, recorder.run, _clock())
            recorder.spans.append(span)
        self._span = span
        return stack

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()


# -- reading spans back ----------------------------------------------------


def settle(spans: list[Span]) -> None:
    """Work out every span's ``child`` time from the spans under it."""
    for span in spans:
        span.child = 0.0
    for span in spans:
        if span.parent is not None:
            span.parent.child += span.busy


def nesting_errors(spans: list[Span]) -> list[str]:
    """Every span whose interval, thread or run disagrees with its parent."""
    settle(spans)
    errors = []
    for span in spans:
        if span.self_time < -_EPS:
            errors.append(f"{span.name}: children cover more than the span")
        parent = span.parent
        if parent is None:
            continue
        if parent.thread != span.thread or parent.run != span.run:
            errors.append(f"{span.name}: parent {parent.name} on another "
                          "thread or run")
        if span.start < parent.start - _EPS or span.end > parent.end + _EPS:
            errors.append(f"{span.name}: outside parent {parent.name}")
    return errors


def to_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts; ``parent`` and ``thread`` are indices."""
    settle(spans)
    index = {id(span): i for i, span in enumerate(spans)}
    threads: dict[int, int] = {}
    records = []
    for span in spans:
        records.append({
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "busy": span.busy,
            "self": span.self_time,
            "count": span.count,
            "parent": (index.get(id(span.parent))
                       if span.parent is not None else None),
            "thread": threads.setdefault(span.thread, len(threads)),
            "run": span.run,
        })
    return records

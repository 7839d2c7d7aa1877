"""Per-layer tracing from outside the package.

A :class:`Tracer` wraps functions with timing spans. :func:`installed`
puts the wrappers on the names callers actually look up (a module global
such as ``coxforge.crossval.fit``, or a class attribute such as
``ShoeModel.lik_parts``) and restores the originals on exit, so nothing
under ``src/`` changes and an untraced run executes the package as is.

Spans nest through one stack, which assumes the traced code runs on a
single thread; every workload of this benchmark runs with ``threads=1``.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    name: str
    parent: str | None
    seconds: float
    self_seconds: float  # seconds minus the time of traced child spans
    raised: bool


@dataclass(frozen=True)
class Binding:
    """Where to install a wrapper: ``module.attr`` (``attr`` may be "Class.method")."""

    module: str
    attr: str
    span: str
    after: Callable[[Counter, object], None] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [name, seconds of traced children]

    def wrap(self, name: str, fn: Callable, after=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            raised = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.spans.append(Span(name, parent, dt, dt - frame[1], raised))
            if after is not None:
                after(self.counters, out)
            return out

        return traced

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(1 for s in self._select(name, parent))

    def seconds(self, name: str, parent: str | None = None) -> float:
        return sum(s.seconds for s in self._select(name, parent))

    def self_seconds(self, name: str) -> float:
        return sum(s.self_seconds for s in self._select(name, None))

    def raised(self, name: str, parent: str | None = None) -> int:
        return sum(1 for s in self._select(name, parent) if s.raised)

    def _select(self, name: str, parent: str | None) -> Iterable[Span]:
        return (
            s for s in self.spans
            if s.name == name and (parent is None or s.parent == parent)
        )


def _resolve(binding: Binding):
    owner = importlib.import_module(binding.module)
    *path, leaf = binding.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def installed(tracer: Tracer, bindings: Iterable[Binding]):
    """Install a wrapper on every binding for the duration of the block."""
    saved = []
    try:
        for b in bindings:
            owner, leaf = _resolve(b)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(b.span, original, b.after))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)

"""Spans recorded around calls into the program's layers, from outside it.

A `Tracer` replaces a function at the place its caller looks it up (a
module attribute or a dict entry) with a wrapper that records a span: name,
start, end and the span that was open when it began.  Spans stay in memory
until the caller writes them out.  Nothing inside the program is edited.
"""
from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

# (args, kwargs, result) -> facts worth keeping from the call's own objects
Annotate = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Site:
    """One place a caller looks a function up: `container[key]` or `container.key`."""

    container: Any
    key: str
    span: str
    annotate: Annotate | None = None

    def get(self) -> Callable:
        if isinstance(self.container, dict):
            return self.container[self.key]
        return getattr(self.container, self.key)

    def set(self, fn: Callable) -> None:
        if isinstance(self.container, dict):
            self.container[self.key] = fn
        else:
            setattr(self.container, self.key, fn)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, annotate: Annotate | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, sites: list[Site]) -> Iterator[Tracer]:
        """Wrap every site for the duration of the block, then put the originals back."""
        originals = [site.get() for site in sites]
        try:
            for site, fn in zip(sites, originals):
                site.set(self.wrap(site.span, fn, site.annotate))
            yield self
        finally:
            for site, fn in zip(sites, originals):
                site.set(fn)

    def self_times(self) -> list[float]:
        """Each span's duration less the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def within(self, ancestor: str) -> list[bool]:
        """Per span: whether it runs inside a span named `ancestor`."""
        inside: list[bool] = []
        for span in self.spans:
            parent = span.parent
            inside.append(parent is not None and (
                self.spans[parent].name == ancestor or inside[parent]
            ))
        return inside

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]

"""The one telemetry attach point: a registry and a recorder, one handle.

Host-side telemetry has two halves — a :class:`~.registry.
MetricsRegistry` (counters, gauges, timers) and a :class:`~.spans.
SpanRecorder` (the campaign trace) — and one way in for both.
:func:`attach` makes a :class:`Telemetry` handle holding either, both or
neither the process's current one for the duration of a ``with`` block,
and :func:`current` returns it.  Instrumented code takes ``current()``
once per batch, campaign, job or simulation and calls the handle's
methods, which do nothing for a half that is not attached; code that
reads a half directly (``Core`` keeps ``current().registry``) pays one
``is not None`` check per run, never per cycle.

The handle is per process and deliberately not thread-safe: the
reproduction parallelizes with processes.  A forked pool worker inherits
a copy of its parent's handle, so the job runner (:mod:`repro.bench.
jobs`) attaches fresh halves around every job it runs and ships what
they recorded back in the job's result.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, Optional

from .registry import MetricsRegistry
from .spans import SpanRecorder


class Telemetry:
    """A metrics registry and a span recorder behind one handle.

    Either half may be None (detached); every method then does nothing
    for that half, so instrumented code needs no None checks of its own.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 recorder: Optional[SpanRecorder] = None) -> None:
        self.registry = registry
        self.recorder = recorder

    def count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.gauge(name).set(value)

    def observe(self, name: str, seconds: float) -> None:
        if self.registry is not None:
            self.registry.timer(name).observe(seconds)

    def start(self, name: str, attrs: Optional[Dict] = None, **kwargs):
        if self.recorder is None:
            return None
        return self.recorder.start(name, attrs=attrs, **kwargs)

    def finish(self, span, **attrs) -> None:
        if span is not None:
            self.recorder.finish(span, **attrs)

    def span(self, name: str, attrs: Optional[Dict] = None):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name, attrs=attrs)


_current = Telemetry()


def current() -> Telemetry:
    """The attached handle (both halves None when nothing is attached,
    the zero-overhead default)."""
    return _current


@contextmanager
def attach(registry: Optional[MetricsRegistry] = None,
           recorder: Optional[SpanRecorder] = None) -> Iterator[Telemetry]:
    """Make ``Telemetry(registry, recorder)`` the current handle for a
    ``with`` block and restore the previous one on exit, exceptions
    included.  A half passed as None is detached inside the block."""
    global _current
    previous = _current
    _current = Telemetry(registry, recorder)
    try:
        yield _current
    finally:
        _current = previous

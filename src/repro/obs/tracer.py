"""Thread-local span tracer with a near-free disabled fast path.

Design constraints, in order:

1. **Disabled cost ~ zero.**  Instrumentation sits inside kernel and
   communicator hot loops that the step benchmark times
   (``python3 -m benchmarks.step``), so :func:`trace_span` must bail out
   before allocating anything: one module-global flag check, then return a shared no-op
   context manager.
2. **Nesting per thread.**  Spans form a stack per thread; each finished
   span records its ``depth`` and a stable ``tid`` so the Chrome-trace
   exporter can place properly nested slices on per-thread tracks.
3. **No dependencies.**  Pure stdlib (``time``, ``threading``); importable
   from the lowest layers (``repro.kernels``, ``repro.comm``) without
   cycles — this module imports nothing from ``repro``.

Usage::

    from repro.obs import trace_span, use_tracing

    with use_tracing() as tracer:
        with trace_span("flash.fwd", phase="compute", sq=256) as sp:
            ...
            sp["tiles"] = 42          # attach attrs at exit time
    spans = tracer.spans()
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "get_tracer",
    "trace_span",
    "traced",
    "tracing_enabled",
    "use_tracing",
]


@dataclass
class Span:
    """One finished span: a named interval on a thread's timeline.

    ``ts`` and ``dur`` are seconds relative to the tracer's epoch (the
    moment tracing was enabled), so traces from one run share a time base.
    """

    name: str
    phase: str
    ts: float
    dur: float
    tid: int
    depth: int
    rank: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """Context manager for one span while it is open.

    Supports ``sp["key"] = value`` so call sites can attach attributes
    computed during the span's body (bytes moved, tiles skipped, ...).
    """

    __slots__ = ("_tracer", "name", "phase", "rank", "attrs", "_t0", "_depth")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        phase: str,
        rank: int | None,
        attrs: dict[str, Any],
    ):
        self._tracer = tracer
        self.name = name
        self.phase = phase
        self.rank = rank
        self.attrs = attrs

    def __setitem__(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracer._stack()
        self._depth = len(stack)
        stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        t1 = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack()
        # Pop back to (and including) this span even if inner spans leaked.
        while stack:
            top = stack.pop()
            if top is self:
                break
        epoch = tracer._epoch
        tracer._record(
            Span(
                name=self.name,
                phase=self.phase,
                ts=self._t0 - epoch,
                dur=t1 - self._t0,
                tid=threading.get_ident(),
                depth=self._depth,
                rank=self.rank,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects :class:`Span` records from all threads while enabled.

    ``enabled`` is a plain attribute read on every :func:`trace_span`
    call; everything else only runs while tracing is on.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._epoch = 0.0
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._tls = threading.local()
        #: extra per-span consumers (e.g. a flight recorder's ring buffer);
        #: survive start()/stop() cycles so a recorder installed before a
        #: traced run keeps seeing spans across restarts.
        self._sinks: list = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Clear prior spans and begin recording; resets the epoch."""
        with self._lock:
            self._spans = []
        self._epoch = time.perf_counter()
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._spans = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
        for sink in self._sinks:
            sink(span)

    # -- sinks --------------------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach a callable invoked with every finished :class:`Span`."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks = self._sinks + [sink]

    def remove_sink(self, sink) -> None:
        with self._lock:
            self._sinks = [s for s in self._sinks if s is not sink]

    # -- access -------------------------------------------------------------

    def spans(self) -> list[Span]:
        """All finished spans, in completion order."""
        with self._lock:
            return list(self._spans)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer used by :func:`trace_span`."""
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER.enabled


def trace_span(name: str, *, phase: str = "", rank: int | None = None, **attrs: Any):
    """Open a span; returns :data:`NOOP_SPAN` while tracing is disabled.

    The returned object is a context manager; inside the ``with`` body it
    supports ``sp["key"] = value`` for attrs known only at exit time.
    Compare against :data:`NOOP_SPAN` (or use truthiness) to skip
    attr computation on the disabled path.
    """
    if not _TRACER.enabled:
        return NOOP_SPAN
    return _LiveSpan(_TRACER, name, phase, rank, attrs)


def traced(name: str, phase: str = "", **static_attrs: Any) -> Callable:
    """Decorator wrapping a whole function call in one span.

    Zero overhead beyond a flag check when tracing is off; used for
    pass-level instrumentation (attention passes, LM-head losses) where
    the span covers the entire call.
    """

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _TRACER.enabled:
                return fn(*args, **kwargs)
            with _LiveSpan(_TRACER, name, phase, None, dict(static_attrs)):
                return fn(*args, **kwargs)

        return wrapper

    return deco


@contextmanager
def use_tracing() -> Iterator[Tracer]:
    """Enable the global tracer for the duration of the block.

    Clears previously recorded spans on entry, disables (but keeps the
    recorded spans readable) on exit.
    """
    _TRACER.start()
    try:
        yield _TRACER
    finally:
        _TRACER.stop()

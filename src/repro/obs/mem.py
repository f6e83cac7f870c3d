"""Memory observability: the handle ledger, timelines, attribution, budget.

This module is the memory half of the observability layer (the tracer is
the time half):

* **One ledger.**  :class:`Ledger` holds one watermark series' live
  handles, its current / peak gauges and its reset floor, under one
  release rule.  ``saved`` is the autograd persistent set (what
  checkpointing trades against recomputation):
  :class:`repro.nn.memory.MemoryTracker` is its ledger plus
  ``recompute_flops``.  ``transient`` is kernel scratch, the ledger
  :func:`transient_alloc` / :func:`transient_free` name: workspace
  buffers (their owner releases them at the end of a pass, or with a
  node's saved set), softmax states, pinned key operands and the chunked
  SwiGLU backward's working set.
* **Timeline.**  While a :class:`MemoryTimeline` is installed
  (:func:`use_memory_timeline`), every ledger move lands as a
  timestamped :class:`MemEvent` carrying the post-event watermark and an
  *owner* record — span, layer, memory phase, method — pushed by
  :func:`memory_scope`.  Timestamps share the tracer's epoch, so the
  Chrome counter tracks (``"ph": "C"``) line up under the span rows.
* **Attribution.**  :func:`replay` walks a timeline once; from that walk
  :func:`peak_attribution` names the owner of a series' peak and the
  allocations live at it, :func:`leak_report` lists the handles left
  live (both series drain by step end), and the timeline schema's rule
  (:func:`repro.obs.export.check_artifact`) checks the running watermark.
* **Budget watchdog.**  :class:`MemoryBudget` watches the combined
  (saved + transient) watermark and, on first crossing, dumps an
  ``oom/v1`` post-mortem bundle through the active
  :class:`~repro.obs.flightrec.FlightRecorder`.

Layering: this module imports the tracer, the metrics registry and the
schema tags of :mod:`repro.obs.export` plus stdlib, none of which imports
``repro.nn`` or ``repro.kernels``, so those can call into it without
cycles; the flight recorder is imported lazily at dump time.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.obs.export import MEMORY_TIMELINE_SCHEMA, OOM_SCHEMA
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracer import get_tracer

__all__ = [
    "Ledger",
    "MemEvent",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "MemoryTimeline",
    "ReleaseError",
    "current_memory_scope",
    "leak_report",
    "memory_counter_events",
    "memory_phase",
    "memory_scope",
    "observe",
    "peak_attribution",
    "replay",
    "reset_transients",
    "set_strict_release",
    "timeline_json",
    "transient_alloc",
    "transient_free",
    "transient_scope",
    "use_memory_budget",
    "use_memory_timeline",
]

#: the two watermark series
SAVED = "saved"
TRANSIENT = "transient"


@dataclass
class MemEvent:
    """One allocation or release, with the post-event watermark.

    ``current`` is the series watermark *after* applying ``delta``, so a
    timeline replays into an exact step function; ``owner`` carries the
    attribution scope active at the call site (span, layer, phase,
    method, step — whatever the instrumented layers pushed).
    """

    ts: float
    series: str          # "saved" | "transient"
    kind: str            # "alloc" | "free"
    delta: int
    current: int
    handle: int
    site: str
    owner: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "ts": self.ts,
            "series": self.series,
            "kind": self.kind,
            "delta": self.delta,
            "current": self.current,
            "handle": self.handle,
            "site": self.site,
            "owner": dict(self.owner),
        }


class MemoryTimeline:
    """Bounded, thread-safe record of :class:`MemEvent` samples.

    Older events are never dropped silently mid-stream: once ``capacity``
    is reached further events only bump ``truncated`` (the exporter and
    the checker surface the count), keeping the retained prefix replayable.
    """

    def __init__(self, capacity: int = 200_000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.truncated = 0
        self._events: list[MemEvent] = []
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    def now(self) -> float:
        """Seconds since the shared epoch (the tracer's when tracing)."""
        tracer = get_tracer()
        epoch = tracer._epoch if tracer.enabled else self._epoch
        return time.perf_counter() - epoch

    def record(self, event: MemEvent) -> None:
        with self._lock:
            if len(self._events) >= self.capacity:
                self.truncated += 1
                return
            self._events.append(event)

    def events(self) -> list[MemEvent]:
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events = []
            self.truncated = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


# --- attribution scopes (thread-local) ----------------------------------------

_SCOPES = threading.local()


def _scope_stack() -> list[dict[str, Any]]:
    stack = getattr(_SCOPES, "stack", None)
    if stack is None:
        stack = []
        _SCOPES.stack = stack
    return stack


@contextmanager
def memory_scope(**attrs: Any) -> Iterator[None]:
    """Attribute allocations inside the block (layer=, method=, step=, ...).

    Scopes nest and merge innermost-wins; the instrumented layers push
    ``layer`` (block index), ``mem_phase`` (``fwd``/``bwd``/``recompute``),
    ``method`` and ``step``.  Near-free: one list append/pop.
    """
    stack = _scope_stack()
    stack.append(attrs)
    try:
        yield
    finally:
        if stack and stack[-1] is attrs:
            stack.pop()
        else:  # tolerate leaked inner scopes, mirroring the tracer
            while stack:
                top = stack.pop()
                if top is attrs:
                    break


def memory_phase(phase: str):
    """Sugar for ``memory_scope(mem_phase=phase)``."""
    return memory_scope(mem_phase=phase)


def current_memory_scope() -> dict[str, Any]:
    """The merged attribution scope of the calling thread.

    Includes the innermost live tracer span's name under ``"span"`` when
    tracing is enabled, so every sample is pinned to the span that will
    render above it in Perfetto.
    """
    merged: dict[str, Any] = {}
    for scope in _scope_stack():
        merged.update(scope)
    tracer = get_tracer()
    if tracer.enabled:
        stack = tracer._stack()
        if stack:
            live = stack[-1]
            merged["span"] = live.name
            merged.setdefault("phase", live.phase)
    merged.setdefault("mem_phase", "fwd")
    return merged


# --- process-global timeline / budget ----------------------------------------

_LOCK = threading.RLock()
_TIMELINE: MemoryTimeline | None = None
_BUDGET: "MemoryBudget | None" = None


@contextmanager
def use_memory_timeline(capacity: int = 200_000) -> Iterator[MemoryTimeline]:
    """Install a fresh timeline for the duration of the block."""
    global _TIMELINE
    timeline = MemoryTimeline(capacity=capacity)
    with _LOCK:
        prev = _TIMELINE
        _TIMELINE = timeline
    try:
        yield timeline
    finally:
        with _LOCK:
            _TIMELINE = prev


@contextmanager
def use_memory_budget(budget: "MemoryBudget") -> Iterator["MemoryBudget"]:
    """Install a :class:`MemoryBudget` watchdog for the block."""
    global _BUDGET
    with _LOCK:
        prev = _BUDGET
        _BUDGET = budget
    try:
        yield budget
    finally:
        with _LOCK:
            _BUDGET = prev


def observe(
    ledger: "Ledger", kind: str, delta: int, handle: int, site: str = ""
) -> None:
    """Record one move of ``ledger``; called by :meth:`Ledger.register`
    and :meth:`Ledger.release`.

    The disabled fast path is two module-global reads — instrumented
    allocation paths pay nothing while no timeline or budget is
    installed.
    """
    timeline = _TIMELINE
    budget = _BUDGET
    if timeline is None and budget is None:
        return
    owner = current_memory_scope()
    if timeline is not None:
        timeline.record(
            MemEvent(
                ts=timeline.now(),
                series=ledger.series,
                kind=kind,
                delta=delta,
                current=ledger.current_bytes,
                handle=handle,
                site=site,
                owner=owner,
            )
        )
    if budget is not None and kind == "alloc":
        # saved + transient: the ledger that moved and the other series'
        # process ledger
        budget.check(
            ledger.current_bytes + sum(
                other.current_bytes for series, other in _PROCESS.items()
                if series != ledger.series
            ),
            series=ledger.series,
            owner=owner,
            timeline=timeline,
        )


# --- the handle ledger --------------------------------------------------------

_STRICT_RELEASE = False


def set_strict_release(enabled: bool) -> bool:
    """Make release misuse raise (tests) instead of just counting.

    Returns the previous setting so callers can restore it.
    """
    global _STRICT_RELEASE
    prev = _STRICT_RELEASE
    _STRICT_RELEASE = bool(enabled)
    return prev


class ReleaseError(KeyError):
    """A handle was released twice, or was never issued."""


#: the current / peak gauges of each series
_GAUGES = {
    SAVED: ("memory.current_saved_bytes", "memory.peak_saved_bytes"),
    TRANSIENT: ("memory.transient_bytes", "memory.peak_transient_bytes"),
}

#: the ledger of each series built on the process registry
_PROCESS: dict[str, "Ledger"] = {}


class Ledger:
    """The live handles of one watermark series, and its gauges.

    One release rule: releasing a handle that is not live counts
    ``memory.release_errors`` (raising :class:`ReleaseError` under strict
    release), unless it was issued before the last :meth:`reset` — then
    the reset orphaned it, and its release is silent teardown.  Every
    move reaches :func:`observe` under the ledger's lock, so concurrent
    graphs cannot tear the watermark.
    """

    def __init__(self, series: str, registry: MetricsRegistry):
        self.series = series
        current, peak = _GAUGES[series]
        self._current = registry.gauge(current)
        self._peak = registry.gauge(peak)
        self._release_errors = registry.counter("memory.release_errors")
        self._live: dict[int, tuple[int, str]] = {}
        self._next_handle = 0
        self._reset_floor = 0
        self._lock = threading.RLock()
        if registry is get_registry():
            _PROCESS[series] = self

    @property
    def current_bytes(self) -> int:
        return int(self._current.value())

    @property
    def peak_bytes(self) -> int:
        return int(self._peak.value())

    @property
    def live_handles(self) -> int:
        """Number of handles not yet released."""
        with self._lock:
            return len(self._live)

    def register(self, nbytes: int, site: str = "") -> int:
        """Record ``nbytes``; returns a release handle.  ``site`` labels
        the allocation on a timeline (a Function's class name,
        ``workspace.s``, ...)."""
        nbytes = int(nbytes)
        with self._lock:
            handle = self._next_handle
            self._next_handle += 1
            self._live[handle] = (nbytes, site)
            current = self.current_bytes + nbytes
            self._current.set(float(current))
            if current > self._peak.value():
                self._peak.set(float(current))
            observe(self, "alloc", nbytes, handle, site)
        return handle

    def release(self, handle: int) -> None:
        with self._lock:
            entry = self._live.pop(handle, None)
            if entry is None:
                if handle < self._reset_floor:
                    return  # orphaned by reset(): legal teardown
                self._release_errors.inc()
                if _STRICT_RELEASE:
                    raise ReleaseError(
                        f"{self.series} handle {handle} released twice or "
                        "never issued"
                    )
                return
            nbytes, site = entry
            self._current.set(float(self.current_bytes - nbytes))
            observe(self, "free", -nbytes, handle, site)

    def reset(self) -> None:
        """Zero the gauges; every handle issued so far falls below the
        floor."""
        with self._lock:
            self._current.set(0.0)
            self._peak.set(0.0)
            self._live.clear()
            self._reset_floor = self._next_handle


# --- transient working sets ---------------------------------------------------

_TRANSIENTS = Ledger(TRANSIENT, get_registry())
transient_alloc = _TRANSIENTS.register
transient_free = _TRANSIENTS.release
reset_transients = _TRANSIENTS.reset


@contextmanager
def transient_scope(nbytes: int, site: str = "kernel") -> Iterator[None]:
    """Account ``nbytes`` of scratch for the duration of the block."""
    handle = _TRANSIENTS.register(nbytes, site)
    try:
        yield
    finally:
        _TRANSIENTS.release(handle)


# --- timeline analysis --------------------------------------------------------


def replay(
    events: Sequence[MemEvent | dict],
) -> Iterator[tuple[MemEvent, dict[int, MemEvent], int]]:
    """Walk a timeline in order: yield each event with its series' live
    allocations (handle → alloc event, updated in place) and running
    byte count after it — the one walk every timeline analysis reads."""
    live: dict[str, dict[int, MemEvent]] = {}
    running: dict[str, int] = {}
    for e in events:
        ev = _as_event(e)
        handles = live.setdefault(ev.series, {})
        if ev.kind == "alloc":
            handles[ev.handle] = ev
        else:
            handles.pop(ev.handle, None)
        running[ev.series] = running.get(ev.series, 0) + ev.delta
        yield ev, handles, running[ev.series]


def peak_attribution(
    events: Sequence[MemEvent | dict],
    series: str = SAVED,
    top: int = 5,
) -> dict[str, Any]:
    """Sweep a timeline and attribute the global peak of ``series``.

    Returns the peak watermark, its timestamp, the owning span/scope, and
    a top-K table of the allocations live at the peak grouped by
    ``(site, layer, mem_phase)``.
    """
    peak_bytes = 0
    peak_event: MemEvent | None = None
    peak_live: dict[int, MemEvent] = {}
    for ev, live, _ in replay(events):
        if ev.series == series and ev.current > peak_bytes:
            peak_bytes = ev.current
            peak_event = ev
            peak_live = dict(live)
    groups: dict[tuple, dict[str, Any]] = {}
    for ev in peak_live.values():
        key = (
            ev.site,
            ev.owner.get("layer"),
            ev.owner.get("mem_phase"),
        )
        g = groups.setdefault(
            key,
            {
                "site": ev.site,
                "layer": ev.owner.get("layer"),
                "mem_phase": ev.owner.get("mem_phase"),
                "bytes": 0,
                "allocations": 0,
            },
        )
        g["bytes"] += ev.delta
        g["allocations"] += 1
    table = sorted(groups.values(), key=lambda g: -g["bytes"])[:top]
    return {
        "series": series,
        "peak_bytes": peak_bytes,
        "ts": peak_event.ts if peak_event is not None else None,
        "span": peak_event.owner.get("span") if peak_event is not None else None,
        "owner": dict(peak_event.owner) if peak_event is not None else {},
        "live_allocations": len(peak_live),
        "top": table,
    }


def leak_report(
    events: Sequence[MemEvent | dict], series: str = SAVED
) -> list[dict[str, Any]]:
    """Allocation-lifetime pairing: handles never released, largest first.

    By the end of a training step the autograd backward must have
    released every saved-activation handle and every kernel workspace
    its scratch, so a non-empty report on either series is a leak (and
    ``memdiff`` fails on it).
    """
    live: dict[int, MemEvent] = {}
    for ev, handles, _ in replay(events):
        if ev.series == series:
            live = handles
    return [
        {
            "handle": ev.handle,
            "bytes": ev.delta,
            "site": ev.site,
            "ts": ev.ts,
            "owner": dict(ev.owner),
        }
        for ev in sorted(live.values(), key=lambda e: -e.delta)
    ]


def _as_event(e: MemEvent | dict) -> MemEvent:
    if isinstance(e, MemEvent):
        return e
    return MemEvent(
        ts=e["ts"],
        series=e["series"],
        kind=e["kind"],
        delta=e["delta"],
        current=e["current"],
        handle=e["handle"],
        site=e.get("site", ""),
        owner=dict(e.get("owner", {})),
    )


def memory_counter_events(
    events: Sequence[MemEvent | dict], pid: int = 2
) -> list[dict[str, Any]]:
    """Render a timeline as Chrome-trace counter events (``"ph": "C"``).

    One counter track per series (``memory.saved_bytes`` /
    ``memory.transient_bytes``); Perfetto draws them as area charts under
    the span rows of the same pid.  Samples carry the owning step in
    ``args`` when the scope recorded one, which the trace schema's rule uses
    to pin each sample inside its ``train.step`` span.
    """
    out: list[dict[str, Any]] = []
    for e in events:
        ev = _as_event(e)
        args: dict[str, Any] = {"bytes": ev.current}
        if "step" in ev.owner:
            args["step"] = ev.owner["step"]
        out.append(
            {
                "name": f"memory.{ev.series}_bytes",
                "ph": "C",
                "ts": round(ev.ts * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": args,
            }
        )
    return out


def timeline_json(
    timeline: MemoryTimeline,
    path: str | None = None,
    *,
    metadata: dict[str, Any] | None = None,
) -> str:
    """Serialise a timeline as a ``memory-timeline/v1`` artifact."""
    doc: dict[str, Any] = {
        "schema": MEMORY_TIMELINE_SCHEMA,
        "capacity": timeline.capacity,
        "truncated": timeline.truncated,
        "events": [ev.as_dict() for ev in timeline.events()],
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    payload = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(payload)
    return payload


# --- budget watchdog ----------------------------------------------------------


class MemoryBudgetExceeded(RuntimeError):
    """Raised by a :class:`MemoryBudget` with ``raise_on_breach=True``."""


class MemoryBudget:
    """Watchdog over the combined (saved + transient) watermark.

    On the first crossing of ``limit_bytes`` it records the breach,
    increments ``memory.budget_breaches``, dumps an ``oom/v1`` bundle
    through the active flight recorder (if one is installed), invokes
    ``on_breach`` and — when ``raise_on_breach`` — raises
    :class:`MemoryBudgetExceeded`.  Subsequent allocations are not
    re-reported (one bundle per breach episode); :meth:`reset` re-arms.
    """

    def __init__(
        self,
        limit_bytes: int,
        *,
        raise_on_breach: bool = False,
        on_breach=None,
    ):
        if limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be > 0, got {limit_bytes}")
        self.limit_bytes = int(limit_bytes)
        self.raise_on_breach = raise_on_breach
        self.on_breach = on_breach
        self.breached = False
        self.watermark_bytes = 0
        self.bundle_path: str | None = None

    def reset(self) -> None:
        self.breached = False
        self.watermark_bytes = 0
        self.bundle_path = None

    def check(
        self,
        total_bytes: int,
        *,
        series: str = SAVED,
        owner: dict[str, Any] | None = None,
        timeline: MemoryTimeline | None = None,
    ) -> None:
        if total_bytes > self.watermark_bytes:
            self.watermark_bytes = int(total_bytes)
        if self.breached or total_bytes <= self.limit_bytes:
            return
        self.breached = True
        get_registry().counter("memory.budget_breaches").inc()
        reason = {
            "kind": "memory-budget-breach",
            "limit_bytes": self.limit_bytes,
            "watermark_bytes": int(total_bytes),
            "series": series,
            "owner": dict(owner or {}),
        }
        self.bundle_path = dump_oom_postmortem(
            reason=reason, budget=self, timeline=timeline
        )
        if self.on_breach is not None:
            self.on_breach(self)
        if self.raise_on_breach:
            raise MemoryBudgetExceeded(
                f"memory budget breached: {total_bytes} B > "
                f"{self.limit_bytes} B (bundle: {self.bundle_path})"
            )


def dump_oom_postmortem(
    *,
    reason: dict[str, Any],
    budget: MemoryBudget | None = None,
    timeline: MemoryTimeline | None = None,
    path: str | None = None,
) -> str | None:
    """Dump an ``oom/v1`` bundle through the active flight recorder.

    Reuses the ``postmortem/v1`` machinery wholesale (span ring buffer,
    metrics snapshot, critical path) with the schema tag swapped and a
    ``budget`` block plus the timeline's peak attribution and leak report
    attached.  Returns the bundle path, or ``None`` when no recorder is
    installed (the default — zero cost on the hot path).
    """
    from repro.obs.flightrec import get_active_recorder

    rec = get_active_recorder()
    if rec is None:
        return None
    events = timeline.events() if timeline is not None else []
    extra: dict[str, Any] = {
        "budget": {
            "limit_bytes": budget.limit_bytes if budget else None,
            "watermark_bytes": (
                budget.watermark_bytes
                if budget
                else reason.get("watermark_bytes")
            ),
            "series": reason.get("series", SAVED),
        },
        "peak_attribution": peak_attribution(events) if events else None,
        "leaks": leak_report(events) if events else [],
    }
    return rec.dump(path, reason=reason, schema=OOM_SCHEMA, extra=extra)

"""Activation-memory accounting for the autograd engine.

Every :class:`~repro.nn.function.Function` registers the bytes it saves for
its backward pass; the bytes are released when that backward runs (or the
graph is dropped).  ``peak_saved_bytes`` therefore measures exactly the
quantity gradient checkpointing trades against recomputation — letting the
tests *measure* that sequence-level selective checkpointing stores about
half of what selective++ stores (Fig. 7) rather than assert it from a
formula.

The three readings are backed by gauges (``memory.current_saved_bytes``,
``memory.peak_saved_bytes``, ``memory.recompute_flops``) in the global
:mod:`repro.obs.metrics` registry, so one registry snapshot covers memory
alongside the tile and comm counters; the attribute API below is
unchanged.

The tracker is the allocation source for the memory-observability layer:
while a :class:`repro.obs.mem.MemoryTimeline` is installed, every
``register``/``release`` emits a timestamped watermark sample attributed
to the enclosing span and :func:`~repro.obs.mem.memory_scope` (layer,
phase, method), and an installed :class:`~repro.obs.mem.MemoryBudget`
sees every watermark advance.  All mutation happens under the tracker's
lock through the public gauge API, so graphs built concurrently from
several threads cannot tear the watermark.

Release misuse is no longer silent: releasing a handle that is not live
(double release, or a handle the tracker never issued) counts the
``memory.release_errors`` metric, and raises when strict mode is on —
the test suite enables :func:`set_strict_release` globally.  Handles
issued before the last :meth:`MemoryTracker.reset` are exempt (dropping
a stale graph after a reset is legal teardown, not a bug).
"""

from __future__ import annotations

import threading

from repro.obs import mem as obs_mem
from repro.obs.metrics import MetricsRegistry, get_registry

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


class MemoryTracker:
    """Tracks currently-saved and peak activation bytes plus recompute work."""

    def __init__(self, registry: MetricsRegistry | None = None):
        if registry is None:
            registry = MetricsRegistry()
        self._current = registry.gauge("memory.current_saved_bytes")
        self._peak = registry.gauge("memory.peak_saved_bytes")
        self._recompute = registry.gauge("memory.recompute_flops")
        self._release_errors = registry.counter("memory.release_errors")
        self._live: dict[int, tuple[int, str]] = {}
        self._next_handle = 0
        self._reset_floor = 0
        self._lock = threading.RLock()

    @property
    def current_saved_bytes(self) -> int:
        return int(self._current.value())

    @current_saved_bytes.setter
    def current_saved_bytes(self, value: int) -> None:
        with self._lock:
            self._current.set(float(value))

    @property
    def peak_saved_bytes(self) -> int:
        return int(self._peak.value())

    @peak_saved_bytes.setter
    def peak_saved_bytes(self, value: int) -> None:
        with self._lock:
            self._peak.set(float(value))

    @property
    def recompute_flops(self) -> float:
        return self._recompute.value()

    @recompute_flops.setter
    def recompute_flops(self, value: float) -> None:
        with self._lock:
            self._recompute.set(float(value))

    @property
    def live_handles(self) -> int:
        """Number of saved-activation handles not yet released."""
        with self._lock:
            return len(self._live)

    def register(self, nbytes: int, site: str = "") -> int:
        """Record ``nbytes`` of saved activations; returns a release handle.

        ``site`` labels the allocation for timeline attribution (the
        autograd Function class name, ``head.resident``,
        ...); it costs nothing when no timeline is installed.
        """
        nbytes = int(nbytes)
        with self._lock:
            handle = self._next_handle
            self._next_handle += 1
            self._live[handle] = (nbytes, site)
            current = int(self._current.value()) + nbytes
            self._current.set(float(current))
            if current > self._peak.value():
                self._peak.set(float(current))
            obs_mem.observe(obs_mem.SAVED, "alloc", nbytes, current, handle, site)
        return handle

    def release(self, handle: int) -> None:
        with self._lock:
            entry = self._live.pop(handle, None)
            if entry is None:
                if handle < self._reset_floor:
                    return  # stale handle from a graph dropped by reset()
                self._release_errors.inc()
                if _STRICT_RELEASE:
                    raise ReleaseError(
                        f"memory handle {handle} released twice or never issued"
                    )
                return
            nbytes, site = entry
            current = int(self._current.value()) - nbytes
            self._current.set(float(current))
            obs_mem.observe(
                obs_mem.SAVED, "free", -nbytes, current, handle, site
            )

    def add_recompute_flops(self, flops: float) -> None:
        with self._lock:
            self._recompute.set(self._recompute.value() + flops)

    def reset(self) -> None:
        with self._lock:
            self._current.set(0.0)
            self._peak.set(0.0)
            self._recompute.set(0.0)
            self._live.clear()
            # Handles below the floor were orphaned by this reset; their
            # eventual release is legal teardown and must stay silent.
            self._reset_floor = self._next_handle
        obs_mem.reset_transients()


_TRACKER = MemoryTracker(registry=get_registry())


def get_tracker() -> MemoryTracker:
    """The process-wide activation memory tracker."""
    return _TRACKER


def reset_tracker() -> MemoryTracker:
    """Clear all counters (call between experiments)."""
    _TRACKER.reset()
    return _TRACKER

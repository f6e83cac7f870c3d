"""Activation-memory accounting for the autograd engine.

Every :class:`~repro.nn.function.Function` registers the bytes it saves for
its backward pass; the bytes are released when that backward runs (or the
graph is dropped).  ``peak_saved_bytes`` therefore measures exactly the
quantity gradient checkpointing trades against recomputation — letting the
tests *measure* that sequence-level selective checkpointing stores about
half of what selective++ stores (Fig. 7) rather than assert it from a
formula.

The tracker is the ``saved`` series' :class:`repro.obs.mem.Ledger` — the
same handle ledger kernel scratch is accounted on as the ``transient``
series, with the same release rule (:func:`set_strict_release`,
:class:`ReleaseError`, silent below the last reset) — plus
``recompute_flops``.  Its readings are the gauges
``memory.current_saved_bytes``, ``memory.peak_saved_bytes`` and
``memory.recompute_flops`` in the global :mod:`repro.obs.metrics`
registry, and every move feeds an installed timeline and budget.
"""

from __future__ import annotations

from repro.obs import mem as obs_mem
from repro.obs.mem import ReleaseError, set_strict_release  # noqa: F401
from repro.obs.metrics import MetricsRegistry, get_registry


class MemoryTracker(obs_mem.Ledger):
    """Tracks currently-saved and peak activation bytes plus recompute work."""

    def __init__(self, registry: MetricsRegistry | None = None):
        if registry is None:
            registry = MetricsRegistry()
        super().__init__(obs_mem.SAVED, registry)
        self._recompute = registry.gauge("memory.recompute_flops")

    current_saved_bytes = obs_mem.Ledger.current_bytes
    peak_saved_bytes = obs_mem.Ledger.peak_bytes

    @property
    def recompute_flops(self) -> float:
        return self._recompute.value()

    def add_recompute_flops(self, flops: float) -> None:
        with self._lock:
            self._recompute.set(self._recompute.value() + flops)

    def reset(self) -> None:
        with self._lock:
            super().reset()
            self._recompute.set(0.0)
        obs_mem.reset_transients()


_TRACKER = MemoryTracker(registry=get_registry())


def get_tracker() -> MemoryTracker:
    """The process-wide activation memory tracker."""
    return _TRACKER


def reset_tracker() -> MemoryTracker:
    """Clear all counters (call between experiments)."""
    _TRACKER.reset()
    return _TRACKER

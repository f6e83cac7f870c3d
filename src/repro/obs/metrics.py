"""A minimal metrics registry: counters, gauges, one snapshot.

Before this module existed the repo had three disconnected tallies —
``repro.kernels.tileplan.counters`` (tile planning), the
``repro.nn.memory`` tracker (activation bytes / recompute FLOPs) and
``repro.resilience``'s ``FaultMonitor`` (delivery faults) — each with its
own reset/readout idiom.  All of them are now backed by (or mirrored
into) the process-global registry returned by :func:`get_registry`, so
one ``snapshot()`` captures the whole picture and one ``reset()`` starts
a clean measurement window.

Hot-path discipline: metric objects expose their unlabeled value as a
plain ``_value`` float attribute, so instrumented inner loops (sub-tile
classification, autograd save hooks) pay one attribute add — no dict
lookups, no label tuple construction — unless they actually use labels.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "get_registry",
]


def _label_key(labels: dict[str, Any]) -> str:
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class Counter:
    """Monotonically increasing tally (resettable), optionally labeled."""

    kind = "counter"
    __slots__ = ("name", "help", "_value", "_labeled")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._labeled: dict[str, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if labels:
            key = _label_key(labels)
            self._labeled[key] = self._labeled.get(key, 0.0) + amount
        else:
            self._value += amount

    def value(self, **labels: Any) -> float:
        if labels:
            return self._labeled.get(_label_key(labels), 0.0)
        return self._value

    def reset(self) -> None:
        self._value = 0.0
        self._labeled.clear()

    def snapshot(self) -> float | int | dict[str, float]:
        val = int(self._value) if self._value == int(self._value) else self._value
        if not self._labeled:
            return val
        out: dict[str, Any] = {"": val} if self._value else {}
        for key, v in sorted(self._labeled.items()):
            out[key] = int(v) if v == int(v) else v
        return out


class Gauge(Counter):
    """A value that can go up and down (e.g. live activation bytes)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: Any) -> None:
        if labels:
            self._labeled[_label_key(labels)] = value
        else:
            self._value = value


class MetricsRegistry:
    """Named metrics with get-or-create semantics and one snapshot/reset.

    ``counter(name)`` / ``gauge(name)`` return the existing metric when
    the name is already registered (the kind must match).
    ``register_collector`` attaches a callable whose return value is
    merged into :meth:`snapshot` under its name — used to pull in state
    that lives elsewhere (e.g. a ``FaultMonitor``'s summary).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge] = {}
        self._collectors: dict[str, Callable[[], Any]] = {}

    def _get_or_create(self, cls, name: str, help: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def register_collector(self, name: str, fn: Callable[[], Any]) -> None:
        with self._lock:
            self._collectors[name] = fn

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time readout of every metric (and collector) by name."""
        with self._lock:
            metrics = dict(self._metrics)
            collectors = dict(self._collectors)
        out: dict[str, Any] = {
            name: m.snapshot() for name, m in sorted(metrics.items())
        }
        for name, fn in sorted(collectors.items()):
            out[name] = fn()
        return out

    def reset(self) -> None:
        """Zero every metric (collectors are read-only and untouched)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m.reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry backing the built-in instrumentation."""
    return _REGISTRY

"""Outside-in span probes: the benchmark's own tracing of a train step.

The probes wrap a declared table of the repository's public callables at
run time (:func:`probe_points`) and record one span per call — name,
start, end, parent span and step id — in memory.  Nothing under ``src/``
knows about them, so the per-layer numbers cannot be moved by editing the
program's own instrumentation; spans inside the program are
``repro.obs``'s business and are only used here to price its overhead.

A layer's *self* time is its span's duration minus its child spans'
durations, so the self times of one step sum to the root span's wall by
construction.  The probes run on the calling thread only: a callable that
a kernel backend invokes from worker threads must not be probed.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable

ROOT = "engine.train_step"

COLLECTIVES = (
    "send", "exchange", "ring_shift", "all_gather", "reduce_scatter",
    "all_reduce", "all_to_all", "group_all_to_all", "broadcast",
)
_KERNELS = (
    "flash_forward", "flash_backward", "flash_backward_tiles",
    "mlp_forward", "mlp_backward",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    step: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Point:
    """One probed callable: ``owner`` resolves to a class, module, instance
    or dict; ``key`` is the attribute (or dict key) holding the callable."""

    span: str
    owner: Callable[[], object]
    key: str


def _imported(module: str, attr: str | None = None) -> Callable[[], object]:
    def resolve():
        mod = importlib.import_module(module)
        return getattr(mod, attr) if attr else mod

    return resolve


def _active_backend():
    return importlib.import_module("repro.kernels").get_backend()


def probe_points(engine) -> list[Point]:
    """The declared probe table, bound to ``engine``'s method and
    communicator and to the active kernel backend."""
    points = [
        Point(ROOT, _imported("repro.engine.engine", "BurstEngine"), "train_step"),
        Point("nn.model_forward", _imported("repro.nn.modules", "TransformerLM"), "forward"),
        Point("nn.backward", _imported("repro.nn.tensor", "Tensor"), "backward"),
        Point("nn.ckpt_backward", _imported("repro.nn.checkpoint", "Checkpoint"), "backward"),
        Point("nn.optimizer_step", _imported("repro.nn.optim", "Adam"), "step"),
        Point("nn.zero_grad", _imported("repro.nn.optim", "Optimizer"), "zero_grad"),
        Point("engine.log_fsdp", _imported("repro.engine.engine"), "log_fsdp_traffic"),
        Point("attention.forward_shards", lambda: engine.method, "forward_shards"),
        Point("attention.backward_shards", lambda: engine.method, "backward_shards"),
        Point("kernels.tileplan_build", _imported("repro.kernels.tileplan", "TilePlan"), "build"),
    ]
    points += [Point(f"kernels.{k}", _active_backend, k) for k in _KERNELS]
    points += [Point(f"comm.{op}", lambda: engine.comm, op) for op in COLLECTIVES]
    heads = _imported("repro.lmhead", "HEAD_IMPLEMENTATIONS")
    try:
        impls = list(heads())
    except (ImportError, AttributeError):
        impls = [""]  # one unresolvable point, so the head shows as missing
    points += [Point(f"lmhead.{impl}", heads, impl) for impl in impls]
    return points


class Probe:
    """Installs span-recording wrappers on probe points and removes them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.step = -1  # id of the step being recorded; each root span starts one
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, bool, object]] = []

    def install(self, points: Iterable[Point]) -> None:
        """Wraps every point that resolves; may be called again after
        :meth:`uninstall`, and the spans then go on in the same list."""
        self.missing = []
        for point in points:
            try:
                owner = point.owner()
                raw, had = _read(owner, point.key)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(point.span)
                continue
            _write(owner, point.key, self._wrap(point.span, owner, point.key, raw))
            self._patched.append((owner, point.key, had, raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, had, raw = self._patched.pop()
            if had:
                _write(owner, key, raw)
            else:
                delattr(owner, key)

    @property
    def patched(self) -> list[tuple[object, str]]:
        return [(owner, key) for owner, key, _, _ in self._patched]

    def _wrap(self, name: str, owner: object, key: str, raw: object):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._recording(name, raw.__func__))
        if isinstance(owner, (dict, type, ModuleType)):
            return self._recording(name, raw)
        return self._recording(name, getattr(owner, key))  # bound method

    def _recording(self, name: str, fn: Callable):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if name == ROOT:
                self.step += 1
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.step)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return probed


def _read(owner: object, key: str) -> tuple[object, bool]:
    """``(raw value, whether owner itself holds it)``; an instance usually
    inherits its methods, and then uninstalling deletes the override."""
    if isinstance(owner, dict):
        return owner[key], True
    namespace = vars(owner)
    if key in namespace:
        return namespace[key], True
    if isinstance(owner, (type, ModuleType)):
        raise AttributeError(f"{owner!r} does not define {key!r}")
    return getattr(owner, key), False


def _write(owner: object, key: str, value: object) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def per_step(spans: list[Span]) -> dict[int, list[int]]:
    """Span indices grouped by step id, in recording order."""
    groups: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        groups[s.step].append(i)
    return dict(groups)


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per line: ``id``, ``name``, ``parent`` (an id, -1 for
    the step's root), ``step``, and ``start``/``end`` in seconds since the
    first span started."""
    origin = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "parent": s.parent, "step": s.step,
                "start": s.start - origin, "end": s.end - origin,
            }) + "\n")

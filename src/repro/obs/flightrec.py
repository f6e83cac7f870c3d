"""Flight recorder: a bounded span buffer dumped as a post-mortem bundle.

A chaos run that dies mid-step loses exactly the evidence that explains
the death if tracing only materialises at clean shutdown.  The
:class:`FlightRecorder` therefore installs itself as a tracer *sink*
(:meth:`repro.obs.tracer.Tracer.add_sink`): every finished span lands in
a bounded ring buffer the instant it closes, surviving tracer restarts,
and :meth:`FlightRecorder.dump` can serialise the recent past at any
moment — most usefully from inside a failure handler.

The dump is a **post-mortem bundle** (``postmortem/v1``): the buffered
spans rendered as a Chrome trace (with flow arrows, loadable in Perfetto
like any other trace), a metrics-registry snapshot, the failure
detector's lease state, and the top critical spans
(:func:`repro.obs.critical.critical_spans`) — for a lease-declared death
that table leads with the ``failure.detect`` span naming the dead rank.

Failure paths call :func:`notify_failure`, which dumps through the
innermost installed recorder (a process-global stack, mirroring how the
tracer itself is process-global) and returns the bundle path — or
``None`` when no recorder is installed, keeping the hot path free of
any file I/O by default.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any

from repro.obs.export import POSTMORTEM_SCHEMA, spans_to_chrome_json
from repro.obs.tracer import Span, get_tracer

__all__ = [
    "FlightRecorder",
    "get_active_recorder",
    "notify_failure",
]

#: innermost-last stack of installed recorders
_ACTIVE: list["FlightRecorder"] = []


class FlightRecorder:
    """Bounded ring buffer of recent spans with post-mortem dumping.

    Parameters
    ----------
    capacity:
        Maximum spans retained; older spans fall off the front.
    out_dir:
        Directory :meth:`dump` writes bundles into when no explicit path
        is given (created on first dump).
    prefix:
        Filename prefix for auto-named bundles, e.g. a chaos cell id.

    Use as a context manager (or call :meth:`install` / :meth:`uninstall`)
    around the traced region; the recorder keeps capturing across
    ``use_tracing()`` restarts because sinks survive tracer ``start()``.
    """

    def __init__(
        self,
        capacity: int = 512,
        out_dir: str | None = None,
        prefix: str = "",
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.out_dir = out_dir
        self.prefix = prefix
        self._buf: deque[Span] = deque(maxlen=capacity)
        self.dumps: list[str] = []

    # -- sink protocol -------------------------------------------------------

    def __call__(self, span: Span) -> None:
        self._buf.append(span)

    def install(self) -> "FlightRecorder":
        get_tracer().add_sink(self)
        _ACTIVE.append(self)
        return self

    def uninstall(self) -> None:
        get_tracer().remove_sink(self)
        while self in _ACTIVE:
            _ACTIVE.remove(self)

    def __enter__(self) -> "FlightRecorder":
        return self.install()

    def __exit__(self, *exc: object) -> bool:
        self.uninstall()
        return False

    # -- access --------------------------------------------------------------

    def spans(self) -> list[Span]:
        """The buffered spans, oldest first."""
        return list(self._buf)

    def clear(self) -> None:
        self._buf.clear()

    # -- dumping -------------------------------------------------------------

    def dump(
        self,
        path: str | None = None,
        *,
        reason: dict[str, Any],
        detector: Any = None,
        schema: str = POSTMORTEM_SCHEMA,
        extra: dict[str, Any] | None = None,
    ) -> str:
        """Write a ``postmortem/v1`` bundle; returns its path.

        ``reason`` describes why the dump happened (must carry at least a
        ``kind``); ``detector`` is an optional
        :class:`~repro.comm.failure.FailureDetector` whose lease state is
        embedded.  Derived bundle flavours (``oom/v1``) pass their own
        ``schema`` tag plus ``extra`` top-level blocks; everything else —
        ring buffer, metrics snapshot, critical path — is
        shared machinery.  :func:`repro.obs.export.check_artifact`
        checks either flavour.
        """
        from repro.obs.critical import critical_spans
        from repro.obs.metrics import get_registry

        spans = self.spans()
        trace = (
            json.loads(spans_to_chrome_json(spans))
            if spans else {"traceEvents": []}
        )
        bundle = {
            "schema": schema,
            "reason": dict(reason),
            "trace": trace,
            "metrics": get_registry().snapshot(),
            "lease": _lease_state(detector),
            "critical_path": critical_spans(trace),
            "n_spans": len(spans),
            "capacity": self.capacity,
        }
        if extra:
            for key, value in extra.items():
                if key in bundle:
                    raise ValueError(
                        f"extra block {key!r} would shadow a bundle key"
                    )
                bundle[key] = value
        if path is None:
            out_dir = self.out_dir or "."
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(
                out_dir, f"{self.prefix}postmortem-{len(self.dumps):03d}.json"
            )
        with open(path, "w") as fh:
            json.dump(bundle, fh, indent=2, default=str)
        self.dumps.append(path)
        return path


def _lease_state(detector: Any) -> dict[str, Any] | None:
    """Serialise a failure detector's lease protocol state, if any."""
    if detector is None:
        return None
    lease = getattr(detector, "lease", None)
    clock = getattr(detector, "clock", None)
    return {
        "sim_time_s": getattr(clock, "now", None),
        "step": getattr(detector, "step", None),
        "call_index": getattr(detector, "call_index", None),
        "extensions": dict(getattr(detector, "extensions", {}) or {}),
        "tolerated": [
            list(t) for t in getattr(detector, "tolerated", []) or []
        ],
        "config": {
            "op_deadline_s": getattr(lease, "op_deadline_s", None),
            "escalation_factor": getattr(lease, "escalation_factor", None),
            "max_extensions": getattr(lease, "max_extensions", None),
            "crash_notice_s": getattr(lease, "crash_notice_s", None),
        },
    }


def get_active_recorder() -> FlightRecorder | None:
    """The innermost installed recorder, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


def notify_failure(
    reason: dict[str, Any], detector: Any = None
) -> str | None:
    """Dump a post-mortem through the active recorder, if one is installed.

    Called by ``CommFailure`` / ``RankFailure`` raise sites right before
    they raise; returns the bundle path or ``None`` (no recorder — the
    default, costing one list check).
    """
    rec = get_active_recorder()
    if rec is None:
        return None
    return rec.dump(reason=reason, detector=detector)

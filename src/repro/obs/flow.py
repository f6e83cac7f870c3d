"""Producer→consumer flow edges over communicator spans.

Every traced communicator op (:meth:`repro.comm.SimCommunicator._deliver`)
stamps its ``comm.<op>`` span with a causal key — the logical phase, the
message tag, and the ``channel`` (``fwd`` for the base ring direction,
``rev`` for the counter-rotating stream) — plus a process-wide ``call``
index.  Consecutive ops sharing a key move the *same* circulating payload
(a KV bundle hopping around the ring), so chaining them yields the
per-step causal DAG the critical-path engine (:mod:`repro.obs.critical`)
walks.

:func:`derive_flows` builds those edges from finished :class:`Span`
records; the Chrome-trace exporter renders each edge as an ``s``/``f``
event pair (Perfetto draws them as arrows between the producing and the
consuming slice); the Chrome-trace schema of
:func:`repro.obs.export.check_artifact` enforces the pairing contract —
every flow id appears exactly once as ``s`` and once as ``f``, and never
travels backwards in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.obs.tracer import Span

__all__ = [
    "ROUNDING_SLACK_US",
    "FlowEdge",
    "derive_flows",
    "flow_chrome_events",
    "flow_key",
]


#: Exported timestamps are rounded to 3 decimals of a microsecond; every
#: ordering or containment check on them allows this much slack.
ROUNDING_SLACK_US = 0.002


def flow_key(logical: str, tag: str, channel: str) -> str:
    """Causal chain key: ops sharing it move one circulating payload."""
    return f"{logical}|{tag}|{channel}"


@dataclass(frozen=True)
class FlowEdge:
    """One producer→consumer dependency between two communicator spans.

    ``src`` / ``dst`` index into the span sequence :func:`derive_flows`
    was given; ``id`` is unique within one derivation and becomes the
    Chrome-trace flow id.
    """

    id: int
    key: str
    src: int
    dst: int


def _is_flow_span(sp: Span) -> bool:
    return sp.name.startswith("comm.") and "call" in sp.attrs


def derive_flows(spans: Sequence[Span]) -> list[FlowEdge]:
    """Chain communicator spans sharing a flow key into causal edges.

    Spans are visited in issue order (the communicator's ``call``
    attribute, which breaks wall-clock ties); each span consumes the
    payload its key's previous span produced.
    """
    order = sorted(
        (i for i, sp in enumerate(spans) if _is_flow_span(sp)),
        key=lambda i: (spans[i].attrs["call"], spans[i].ts),
    )
    edges: list[FlowEdge] = []
    last_by_key: dict[str, int] = {}
    for i in order:
        attrs = spans[i].attrs
        key = flow_key(
            str(attrs.get("logical", "")),
            str(attrs.get("tag", "")),
            str(attrs.get("channel", "fwd")),
        )
        prev = last_by_key.get(key)
        if prev is not None:
            edges.append(FlowEdge(id=len(edges) + 1, key=key, src=prev, dst=i))
        last_by_key[key] = i
    return edges


def flow_chrome_events(
    edges: Sequence[FlowEdge],
    placements: Sequence[tuple[int, float, float]],
    pid: int,
) -> list[dict[str, Any]]:
    """Render edges as Chrome-trace ``s``/``f`` event pairs.

    ``placements[i]`` is ``(tid, ts_us, dur_us)`` of span ``i`` as the
    exporter emitted it.  The ``s`` event sits at the producing slice's
    end, the ``f`` event (``bp: "e"``) at the consuming slice's start —
    the convention Perfetto renders as an arrow between the two slices.
    """
    events: list[dict[str, Any]] = []
    for edge in edges:
        src_tid, src_ts, src_dur = placements[edge.src]
        dst_tid, dst_ts, _ = placements[edge.dst]
        events.append({
            "name": "dep", "cat": edge.key, "ph": "s", "id": edge.id,
            "ts": round(src_ts + src_dur, 3), "pid": pid, "tid": src_tid,
        })
        events.append({
            "name": "dep", "cat": edge.key, "ph": "f", "bp": "e",
            "id": edge.id, "ts": round(max(dst_ts, src_ts + src_dur), 3),
            "pid": pid, "tid": dst_tid,
        })
    return events

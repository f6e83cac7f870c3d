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
consuming slice); :func:`validate_flow_events` enforces the pairing
contract — every flow id appears exactly once as ``s`` and once as ``f``,
and never travels backwards in time.
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
    "validate_flow_events",
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


def validate_flow_events(
    events: Sequence[dict[str, Any]],
) -> dict[int | str, tuple[dict, dict]]:
    """Check ``s``/``f`` pairing; raise ``ValueError`` on damage.

    Every flow id must appear exactly once as a start (``s``) and once as
    a finish (``f``), both events must carry ``name``/``id``/``ts``/
    ``pid``/``tid``, and the finish may not precede its start (flows point
    forward in time).  Returns ``{id: (s_event, f_event)}``.
    """
    starts: dict[Any, dict] = {}
    finishes: dict[Any, dict] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("s", "f"):
            continue
        for field in ("name", "id", "ts", "pid", "tid"):
            if field not in ev:
                raise ValueError(f"flow event #{i} ({ph!r}) missing {field!r}")
        bucket = starts if ph == "s" else finishes
        if ev["id"] in bucket:
            raise ValueError(f"flow id {ev['id']!r} has duplicate {ph!r} events")
        bucket[ev["id"]] = ev
    dangling = sorted(set(starts) ^ set(finishes), key=repr)
    if dangling:
        raise ValueError(f"dangling flow ids (unpaired s/f): {dangling}")
    pairs: dict[Any, tuple[dict, dict]] = {}
    for fid, s_ev in starts.items():
        f_ev = finishes[fid]
        if f_ev["ts"] < s_ev["ts"] - ROUNDING_SLACK_US:
            raise ValueError(
                f"flow id {fid!r} travels backwards in time: "
                f"f at {f_ev['ts']} before s at {s_ev['ts']}"
            )
        pairs[fid] = (s_ev, f_ev)
    return pairs

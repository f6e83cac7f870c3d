"""Exporters: Chrome traces (observed and predicted) and per-step JSONL metrics.

:func:`chrome_trace` is the one place Chrome-trace events are assembled:
duration events ``{"name", "ph": "X", "ts", "dur", "pid", "tid", "args"}``
with timestamps in microseconds, plus ``ph: "M"`` ``thread_name`` /
``process_name`` metadata naming each row.  Its two callers are
:func:`spans_to_chrome_json` (a tracer's spans, ``pid=2``) and
:func:`sims_to_chrome_json` (DES timelines, ``pid=1``) — load both files
into Perfetto and the two timelines appear as separate processes, row for
row.

Observed rows are keyed by span *phase* (``compute``, ``intra-ring``,
``inter-ring``, ``ckpt-recompute``, ``lmhead``, ``comm``, ``attn``,
``step``), one track per (phase, source thread) so nesting stays valid
per track even for multithreaded runs; predicted rows are the DES
resources (``compute``, ``intra``, ``inter`` and their ``-rev`` twins).

The JSONL metrics writer appends one JSON object per training step; the
schema is validated by :func:`validate_metrics_jsonl` and exercised by
the trainer (``Trainer(metrics_path=...)``).

:func:`load_artifact` is the shared preamble of every ``validate_*``
function in :mod:`repro.obs`: parse, is-an-object, schema tag, required
keys, driven by :data:`ARTIFACT_SCHEMAS`.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from repro.obs.flow import (
    ROUNDING_SLACK_US,
    derive_flows,
    flow_chrome_events,
    validate_flow_events,
)
from repro.obs.tracer import Span

__all__ = [
    "ARTIFACT_SCHEMAS",
    "OBSERVED_PID",
    "PREDICTED_PID",
    "chrome_trace",
    "load_artifact",
    "sims_to_chrome_json",
    "spans_to_chrome_json",
    "validate_chrome_trace",
    "validate_metrics_jsonl",
    "write_step_metrics",
]

PREDICTED_PID = 1
OBSERVED_PID = 2

#: keys every per-step JSONL metrics record must carry
STEP_METRIC_KEYS = (
    "step",
    "comm_elems",
    "comm_bytes",
    "comm_by_phase",
    "comm_by_link",
)

#: schema tag -> (what error messages call the artifact, required keys)
ARTIFACT_SCHEMAS: dict[str, tuple[str, tuple[str, ...]]] = {
    "obs-report/v1": (
        "report JSON",
        ("metadata", "spans", "time_by_phase_us", "ring_transitions"),
    ),
    "obs-diff/v1": ("diff JSON", ("ok", "lines")),
    "obs-attribution/v1": (
        "attribution JSON",
        ("metadata", "steps", "conservation", "stragglers",
         "critical_spans", "pins", "ok"),
    ),
    "obs-memdiff/v1": ("memdiff document", ("cells", "curve", "transient", "ok")),
    "memory-timeline/v1": ("memory timeline", ("events",)),
    "postmortem/v1": (
        "post-mortem bundle",
        ("reason", "trace", "metrics", "lease", "critical_path",
         "n_spans", "capacity"),
    ),
}
ARTIFACT_SCHEMAS["oom/v1"] = ARTIFACT_SCHEMAS["postmortem/v1"]


def load_artifact(payload: str | dict, schema: str) -> dict[str, Any]:
    """Parse ``payload`` (JSON text or dict) as a ``schema`` document.

    Raises ``ValueError`` when the text does not parse, the document is
    not an object, its ``schema`` tag differs or a required top-level key
    of :data:`ARTIFACT_SCHEMAS` is missing; returns the document.
    """
    what, keys = ARTIFACT_SCHEMAS[schema]
    doc = payload
    if isinstance(payload, str):
        try:
            doc = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{what} is truncated or corrupt (not valid JSON): {exc}"
            )
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is not a JSON object")
    if doc.get("schema") != schema:
        raise ValueError(
            f"{what} has schema {doc.get('schema')!r}, expected {schema!r}"
        )
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{what} missing keys: {missing}")
    return doc


def chrome_trace(
    rows: Iterable[tuple[str, str, float, float, dict[str, Any]]],
    *,
    pid: int,
    process_name: str,
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The Chrome-trace document of ``(track, name, start_s, dur_s, args)`` rows.

    One ``X`` event per row, in order, on the ``tid`` of its track (tracks
    are numbered from 1 as first seen), followed by the ``thread_name``
    metadata of every track and the ``process_name`` of ``pid``.
    ``metadata`` (run config) sits at the top level of the document, where
    Perfetto ignores it and ``python -m repro.obs diff`` reads it back.
    """
    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}
    for track, name, start_s, dur_s, args in rows:
        events.append({
            "name": name,
            "ph": "X",
            "ts": round(start_s * 1e6, 3),   # chrome traces use us
            "dur": round(dur_s * 1e6, 3),
            "pid": pid,
            "tid": tids.setdefault(track, len(tids) + 1),
            "args": args,
        })
    for track, tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": track},
        })
    events.append({
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    })
    doc: dict[str, Any] = {"traceEvents": events}
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def _dump(doc: dict[str, Any], path: str | None) -> str:
    payload = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(payload)
    return payload


def spans_to_chrome_json(
    spans: Sequence[Span],
    path: str | None = None,
    *,
    metadata: dict[str, Any] | None = None,
    pid: int = OBSERVED_PID,
    process_name: str = "observed",
    memory_events: Sequence[Any] | None = None,
) -> str:
    """Serialise finished spans as a Chrome trace JSON string.

    Communicator spans carrying flow-key attributes are additionally
    chained into ``s``/``f`` flow-event pairs (:mod:`repro.obs.flow`) so
    Perfetto draws the producer→consumer arrows of the causal DAG.

    ``memory_events`` (a :class:`repro.obs.mem.MemoryTimeline`'s events)
    adds counter tracks (``"ph": "C"``, one per watermark series) that
    Perfetto renders directly under the span rows of the same process.
    """
    # One track per (phase, source thread); the first thread seen for a
    # phase owns the plain phase name, later threads get a suffix.
    tracks: dict[tuple[str, int], str] = {}
    threads_per_phase: dict[str, int] = {}
    ordered = sorted(spans, key=lambda s: (s.ts, -s.dur))
    rows = []
    for sp in ordered:
        phase = sp.phase or "misc"
        key = (phase, sp.tid)
        if key not in tracks:
            n = threads_per_phase.get(phase, 0)
            threads_per_phase[phase] = n + 1
            tracks[key] = phase if n == 0 else f"{phase} (t{n})"
        args: dict[str, Any] = {"phase": phase, "depth": sp.depth}
        if sp.rank is not None:
            args["rank"] = sp.rank
        args.update(sp.attrs)
        rows.append((tracks[key], sp.name, sp.ts, sp.dur, args))
    doc = chrome_trace(
        rows, pid=pid, process_name=process_name, metadata=metadata
    )
    events = doc["traceEvents"]
    n = len(ordered)
    extra = flow_chrome_events(
        derive_flows(ordered),
        [(e["tid"], e["ts"], e["dur"]) for e in events[:n]],
        pid,
    )
    if memory_events:
        from repro.obs.mem import memory_counter_events

        extra += memory_counter_events(memory_events, pid=pid)
    events[n:n] = extra
    return _dump(doc, path)


def sims_to_chrome_json(
    sims: Any,
    path: str | None = None,
    *,
    metadata: dict[str, Any] | None = None,
) -> str:
    """Serialise run DES simulator(s) as a predicted Chrome trace.

    ``sims`` is one :class:`repro.perf.des.Simulator` or a sequence of
    them laid end to end (each starts at the previous one's makespan).
    Tasks are grouped into rows by their first resource.
    """
    rows = []
    offset = 0.0
    for sim in [sims] if hasattr(sims, "timeline") else sims:
        for task in sim.timeline():
            track = task.resources[0] if task.resources else "free"
            rows.append((
                track, task.name, offset + task.start, task.duration,
                {"resource": track, "deps": list(task.deps)},
            ))
        offset += sim.makespan
    return _dump(
        chrome_trace(
            rows, pid=PREDICTED_PID, process_name="predicted (DES)",
            metadata=metadata,
        ),
        path,
    )


def validate_chrome_trace(payload: str | dict) -> dict[str, Any]:
    """Strictly validate a Chrome trace document; raise ``ValueError``.

    Checks the contract both exporters promise: a ``traceEvents`` list
    whose ``"X"`` events each carry ``name``/``ph``/``ts``/``dur``/
    ``pid``/``tid``, with spans properly nested (contained or disjoint)
    per ``(pid, tid)`` track, and at least one duration event.  Flow
    events (``"s"``/``"f"``) must pair up per
    :func:`repro.obs.flow.validate_flow_events`.  Counter events
    (``"C"``, the memory watermark tracks) must carry a non-empty
    ``args`` dict of non-negative numeric samples, and any sample
    stamped with a step must fall inside that step's ``train.step``
    span on the same process.  Returns the parsed document on success.
    """
    doc = json.loads(payload) if isinstance(payload, str) else payload
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("trace is not a {'traceEvents': [...]} document")
    duration_events: dict[tuple[int, int], list[dict]] = {}
    flow_events: list[dict] = []
    counter_events: list[tuple[int, dict]] = []
    step_spans: dict[tuple[int, Any], list[tuple[float, float]]] = {}
    n_x = 0

    def require(i: int, ev: dict, fields: tuple[str, ...]) -> None:
        for field in fields:
            if field not in ev:
                raise ValueError(
                    f"event #{i} ({ev.get('name')!r}) missing {field!r}"
                )

    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict) or "ph" not in ev:
            raise ValueError(f"event #{i} has no 'ph' field: {ev!r}")
        if ev["ph"] == "M":
            continue
        if ev["ph"] in ("s", "f"):
            flow_events.append(ev)
            continue
        if ev["ph"] == "C":
            require(i, ev, ("name", "ts", "pid", "tid", "args"))
            args = ev["args"]
            if not isinstance(args, dict) or not any(
                isinstance(v, (int, float)) for v in args.values()
            ):
                raise ValueError(
                    f"event #{i} ({ev['name']!r}): counter event needs a "
                    "dict of numeric args"
                )
            for key, value in args.items():
                if isinstance(value, (int, float)) and value < 0:
                    raise ValueError(
                        f"event #{i} ({ev['name']!r}): negative counter "
                        f"sample {key}={value}"
                    )
            counter_events.append((i, ev))
            continue
        if ev["ph"] != "X":
            raise ValueError(f"event #{i}: unsupported phase {ev['ph']!r}")
        require(i, ev, ("name", "ts", "dur", "pid", "tid"))
        if ev["dur"] < 0:
            raise ValueError(f"event #{i} ({ev['name']!r}) has negative dur")
        n_x += 1
        duration_events.setdefault((ev["pid"], ev["tid"]), []).append(ev)
        if ev["name"] == "train.step" and "step" in ev.get("args", {}):
            step_spans.setdefault(
                (ev["pid"], ev["args"]["step"]), []
            ).append((ev["ts"], ev["ts"] + ev["dur"]))
    if n_x == 0:
        raise ValueError("trace contains zero duration events")
    validate_flow_events(flow_events)
    eps = ROUNDING_SLACK_US
    for i, ev in counter_events:
        step = ev["args"].get("step")
        if step is None:
            continue
        spans = step_spans.get((ev["pid"], step))
        if not spans:
            continue  # counter-only exports carry no step spans
        if not any(lo - eps <= ev["ts"] <= hi + eps for lo, hi in spans):
            raise ValueError(
                f"event #{i} ({ev['name']!r}): counter sample at ts="
                f"{ev['ts']} falls outside its step-{step} span"
            )
    for (pid, tid), evs in duration_events.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[tuple[float, float]] = []
        for ev in evs:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and start >= stack[-1][1] - eps:
                stack.pop()
            if stack and end > stack[-1][1] + eps:
                raise ValueError(
                    f"track pid={pid} tid={tid}: event {ev['name']!r} "
                    f"[{start}, {end}] overlaps but is not nested within "
                    f"enclosing span ending at {stack[-1][1]}"
                )
            stack.append((start, end))
    return doc


def write_step_metrics(path: str, record: dict[str, Any]) -> None:
    """Append one per-step metrics record as a JSON line."""
    missing = [k for k in STEP_METRIC_KEYS if k not in record]
    if missing:
        raise ValueError(f"step metrics record missing keys: {missing}")
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def validate_metrics_jsonl(lines: str | Iterable[str]) -> list[dict[str, Any]]:
    """Parse + schema-check JSONL metrics; raise ``ValueError`` on damage.

    Accepts a path-like string (contents of the file) split on newlines
    or any iterable of lines.  Every non-empty line must be a JSON object
    carrying the :data:`STEP_METRIC_KEYS`.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    records: list[dict[str, Any]] = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"metrics line {i + 1} is not valid JSON: {exc}")
        if not isinstance(rec, dict):
            raise ValueError(f"metrics line {i + 1} is not a JSON object")
        missing = [k for k in STEP_METRIC_KEYS if k not in rec]
        if missing:
            raise ValueError(f"metrics line {i + 1} missing keys: {missing}")
        records.append(rec)
    if not records:
        raise ValueError("metrics file contains no records")
    return records

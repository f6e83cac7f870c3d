"""Exporters and the one artifact checker.

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

The JSONL metrics writer appends one JSON object per training step
(``Trainer(metrics_path=...)``).

:data:`ARTIFACT_SCHEMAS` declares the shape of every artifact this
package writes — the Chrome trace, the metrics JSONL and the seven
schema-tagged documents, whose tags are spelled here only — and
:func:`check_artifact` holds a payload to its entry: it parses it, then
checks that it is an object, its ``schema`` tag, its keys and their
types, its records and their types, and last the entry's rule for what
a shape cannot say.  Every defect is a ``ValueError``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.obs.flow import ROUNDING_SLACK_US, derive_flows, flow_chrome_events
from repro.obs.tracer import Span

__all__ = [
    "ARTIFACT_SCHEMAS",
    "ATTRIBUTION_SCHEMA",
    "DIFF_JSON_SCHEMA",
    "MEMDIFF_SCHEMA",
    "MEMORY_TIMELINE_SCHEMA",
    "METRICS_SCHEMA",
    "OBSERVED_PID",
    "OOM_SCHEMA",
    "POSTMORTEM_SCHEMA",
    "PREDICTED_PID",
    "REPORT_JSON_SCHEMA",
    "Schema",
    "TRACE_SCHEMA",
    "check_artifact",
    "chrome_trace",
    "sims_to_chrome_json",
    "spans_to_chrome_json",
    "write_step_metrics",
]

PREDICTED_PID = 1
OBSERVED_PID = 2

#: the table keys of the two untagged artifacts ...
TRACE_SCHEMA = "chrome-trace"
METRICS_SCHEMA = "step-metrics"
#: ... and the schema tags of the others (their writers import them)
REPORT_JSON_SCHEMA = "obs-report/v1"
DIFF_JSON_SCHEMA = "obs-diff/v1"
ATTRIBUTION_SCHEMA = "obs-attribution/v1"
MEMDIFF_SCHEMA = "obs-memdiff/v1"
MEMORY_TIMELINE_SCHEMA = "memory-timeline/v1"
POSTMORTEM_SCHEMA = "postmortem/v1"
OOM_SCHEMA = "oom/v1"


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


def write_step_metrics(path: str, record: dict[str, Any]) -> None:
    """Append one per-step metrics record as a JSON line."""
    check_artifact({"records": [record]}, METRICS_SCHEMA)
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------------
# the artifact schemas and their one checker
# --------------------------------------------------------------------------

NUMBER = (int, float)
NULL = type(None)


class Schema(NamedTuple):
    """One artifact's shape.

    A type is a class, a tuple of classes or a nested ``{key: type}``
    object; a key ending in ``?`` may be absent, and ``bool`` is never an
    ``int``.  Each record of the list under ``records`` holds ``fields``
    — or, when ``by`` is set, the entry of ``fields`` its ``by`` field
    names.  ``rule`` checks what a shape cannot say.
    """

    noun: str                 # what the errors call the artifact
    tagged: bool              # carries its table key as its "schema"
    keys: dict[str, Any]
    records: str = ""
    record: str = ""          # what the errors call one record
    fields: dict[str, Any] = {}
    by: str = ""
    lines: bool = False       # JSON lines, one record each
    rule: Callable[[dict], None] | None = None


def _types(want: Any) -> tuple[type, ...]:
    """The classes a type stands for (a nested shape is a ``dict``)."""
    if isinstance(want, dict):
        return (dict,)
    return want if isinstance(want, tuple) else (want,)


def _is(value: Any, want: Any) -> bool:
    if isinstance(value, bool):
        return bool in _types(want)
    return isinstance(value, _types(want))


def _check_keys(obj: dict, shape: dict[str, Any], where: str) -> None:
    """``obj`` holds every required key of ``shape``, each of its type."""
    missing = [k for k in shape if not k.endswith("?") and k not in obj]
    if missing:
        raise ValueError(f"{where} missing keys: {missing}")
    for key, want in shape.items():
        key = key.rstrip("?")
        if key in obj and not _is(obj[key], want):
            raise ValueError(
                f"{where} {key!r} is {type(obj[key]).__name__}, expected "
                + " or ".join(t.__name__ for t in _types(want))
            )
        if key in obj and isinstance(want, dict):
            _check_keys(obj[key], want, f"{where} {key!r}")


def _loads(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is truncated or corrupt (not valid JSON): {exc}")


def check_artifact(payload: str | dict, schema: str) -> dict[str, Any]:
    """Parse ``payload`` (JSON text or its dict) as a ``schema`` artifact.

    Checks, in order, that it is an object, its ``schema`` tag, its keys,
    its records and then its rule (:data:`ARTIFACT_SCHEMAS`); raises
    ``ValueError`` on the first defect and returns the document.  The
    metrics JSONL parses to ``{"records": [...]}``.
    """
    spec = ARTIFACT_SCHEMAS[schema]
    doc = payload
    if isinstance(payload, str) and spec.lines:
        doc = {"records": [
            _loads(line, f"{spec.noun} line {n}")
            for n, line in enumerate(payload.splitlines(), 1) if line.strip()
        ]}
    elif isinstance(payload, str):
        doc = _loads(payload, spec.noun)
    if not isinstance(doc, dict):
        raise ValueError(f"{spec.noun} is not a JSON object")
    if spec.tagged and doc.get("schema") != schema:
        raise ValueError(
            f"{spec.noun} has schema {doc.get('schema')!r}, expected {schema!r}"
        )
    _check_keys(doc, spec.keys, spec.noun)
    for i, rec in enumerate(doc[spec.records] if spec.records else ()):
        where = f"{spec.record} #{i}"
        if not isinstance(rec, dict):
            raise ValueError(f"{where} is not an object: {rec!r}")
        if isinstance(rec.get("name"), str):
            where += f" ({rec['name']!r})"
        fields = spec.fields
        if spec.by:
            kind = rec.get(spec.by)
            if not isinstance(kind, str) or kind not in fields:
                raise ValueError(
                    f"{where} has {spec.by} {kind!r}, expected one of "
                    f"{sorted(fields)}"
                )
            fields = fields[kind]
        _check_keys(rec, fields, where)
    if spec.rule is not None:
        spec.rule(doc)
    return doc


def _trace_rule(doc: dict) -> None:
    """No negative duration; counters carry non-negative numeric samples
    that fall inside their step's ``train.step`` span; every flow id is
    one ``s`` and one ``f`` that does not precede it; spans are nested
    (contained or disjoint) per ``(pid, tid)`` track, and there is one."""
    eps = ROUNDING_SLACK_US
    tracks: dict[tuple[int, int], list[dict]] = {}
    step_spans: dict[tuple[int, int], list[tuple[float, float]]] = {}
    counters: list[tuple[str, dict]] = []
    flows: dict[str, dict] = {"s": {}, "f": {}}
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"trace event #{i} ({ev['name']!r})"
        if ev["ph"] == "X":
            if ev["dur"] < 0:
                raise ValueError(f"{where} has negative dur")
            tracks.setdefault((ev["pid"], ev["tid"]), []).append(ev)
            step = ev.get("args", {}).get("step")
            if ev["name"] == "train.step" and _is(step, int):
                step_spans.setdefault((ev["pid"], step), []).append(
                    (ev["ts"], ev["ts"] + ev["dur"])
                )
        elif ev["ph"] == "C":
            samples = {k: v for k, v in ev["args"].items() if _is(v, NUMBER)}
            if not samples:
                raise ValueError(
                    f"{where}: counter event needs a dict of numeric args"
                )
            negative = {k: v for k, v in samples.items() if v < 0}
            if negative:
                raise ValueError(f"{where}: negative counter sample {negative}")
            counters.append((where, ev))
        elif ev["ph"] in flows:
            bucket = flows[ev["ph"]]
            if ev["id"] in bucket:
                raise ValueError(
                    f"flow id {ev['id']!r} has duplicate {ev['ph']!r} events"
                )
            bucket[ev["id"]] = ev
    if not tracks:
        raise ValueError("trace contains zero duration events")
    starts, finishes = flows["s"], flows["f"]
    dangling = sorted(starts.keys() ^ finishes.keys(), key=repr)
    if dangling:
        raise ValueError(f"dangling flow ids (unpaired s/f): {dangling}")
    for fid, s_ev in starts.items():
        if finishes[fid]["ts"] < s_ev["ts"] - eps:
            raise ValueError(
                f"flow id {fid!r} travels backwards in time: "
                f"f at {finishes[fid]['ts']} before s at {s_ev['ts']}"
            )
    for where, ev in counters:
        step = ev["args"].get("step")
        spans = step_spans.get((ev["pid"], step)) if _is(step, int) else None
        # counter-only exports carry no step spans
        if spans and not any(lo - eps <= ev["ts"] <= hi + eps for lo, hi in spans):
            raise ValueError(
                f"{where}: counter sample at ts={ev['ts']} falls outside "
                f"its step-{step} span"
            )
    for (pid, tid), evs in tracks.items():
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


def _metrics_rule(doc: dict) -> None:
    if not doc["records"]:
        raise ValueError("metrics file contains no records")


def _timeline_rule(doc: dict) -> None:
    """Known series and kinds, non-negative watermarks, and each series'
    watermark replays (``current`` is the running sum of ``delta``): a
    truncated or reordered timeline fails."""
    from repro.obs.mem import SAVED, TRANSIENT, replay

    for i, (ev, _, expect) in enumerate(replay(doc["events"])):
        if ev.series not in (SAVED, TRANSIENT):
            raise ValueError(f"timeline event #{i} has unknown series {ev.series!r}")
        if ev.kind not in ("alloc", "free"):
            raise ValueError(f"timeline event #{i} has unknown kind {ev.kind!r}")
        if ev.current < 0:
            raise ValueError(
                f"timeline event #{i}: negative watermark {ev.current} "
                f"on series {ev.series!r}"
            )
        if expect != ev.current:
            raise ValueError(
                f"timeline event #{i}: series {ev.series!r} watermark "
                f"{ev.current} does not replay (expected {expect}) — "
                "timeline truncated or reordered"
            )
    if doc.get("truncated") and not doc["events"]:
        raise ValueError("memory timeline dropped every event")


def _memdiff_rule(doc: dict) -> None:
    if not doc["cells"]:
        raise ValueError("memdiff document carries no cells")
    for i, cell in enumerate(doc["cells"]):
        if cell["match"] and (
            cell["observed_peak_bytes"] != cell["predicted_peak_bytes"]
        ):
            raise ValueError(
                f"memdiff cell #{i} claims match but "
                f"{cell['observed_peak_bytes']} != "
                f"{cell['predicted_peak_bytes']}"
            )


def _postmortem_rule(doc: dict) -> None:
    """The reason names a ``kind``, ``n_spans`` counts the embedded
    trace's duration events, and a trace that holds any is a valid
    Chrome trace."""
    if not doc["reason"]["kind"]:
        raise ValueError("post-mortem reason names no 'kind'")
    n_x = sum(
        isinstance(e, dict) and e.get("ph") == "X"
        for e in doc["trace"]["traceEvents"]
    )
    if n_x != doc["n_spans"]:
        raise ValueError(
            f"post-mortem records n_spans={doc['n_spans']} but the trace "
            f"carries {n_x} duration events"
        )
    if n_x:
        check_artifact(doc["trace"], TRACE_SCHEMA)


def _oom_rule(doc: dict) -> None:
    _postmortem_rule(doc)
    budget = doc["budget"]
    if budget["limit_bytes"] is not None and (
        budget["watermark_bytes"] is None
        or budget["watermark_bytes"] <= budget["limit_bytes"]
    ):
        raise ValueError(
            "oom bundle watermark does not exceed its budget — not a breach"
        )


def _report_rule(doc: dict) -> None:
    if doc["spans"] < 1:
        raise ValueError("report JSON has no spans")


_SAMPLE = {"name": str, "ts": NUMBER, "pid": int, "tid": int}
_POSTMORTEM_KEYS = {
    "reason": {"kind": str},
    "trace": {"traceEvents": list},
    "metrics": dict,
    "lease": (dict, NULL),
    "critical_path": list,
    "n_spans": int,
    "capacity": int,
}

#: table key (a schema tag, or the name of an untagged artifact) -> shape
ARTIFACT_SCHEMAS: dict[str, Schema] = {
    TRACE_SCHEMA: Schema(
        "trace", False, {"traceEvents": list, "metadata?": dict},
        records="traceEvents", record="trace event", by="ph", fields={
            "X": {**_SAMPLE, "dur": NUMBER, "args?": dict},
            "C": {**_SAMPLE, "args": dict},
            "s": {**_SAMPLE, "id": (int, str)},
            "f": {**_SAMPLE, "id": (int, str)},
            "M": {"name": str, "pid": int, "tid": int, "args": dict},
        },
        rule=_trace_rule,
    ),
    METRICS_SCHEMA: Schema(
        "metrics file", False, {"records": list},
        records="records", record="metrics record", lines=True, fields={
            "step": int, "comm_elems": int, "comm_bytes": int,
            "comm_by_phase": dict, "comm_by_link": dict,
        },
        rule=_metrics_rule,
    ),
    MEMORY_TIMELINE_SCHEMA: Schema(
        "memory timeline", True, {"events": list, "truncated?": int},
        records="events", record="timeline event", fields={
            "ts": NUMBER, "series": str, "kind": str, "delta": int,
            "current": int, "handle": int, "site?": str, "owner?": dict,
        },
        rule=_timeline_rule,
    ),
    MEMDIFF_SCHEMA: Schema(
        "memdiff document", True,
        {"cells": list, "curve": dict, "transient": dict, "ok": bool},
        records="cells", record="memdiff cell", fields={
            "method": str, "policy": str, "observed_peak_bytes": int,
            "predicted_peak_bytes": int, "match": bool,
            "peak_span": (str, NULL), "leaks": int,
        },
        rule=_memdiff_rule,
    ),
    POSTMORTEM_SCHEMA: Schema(
        "post-mortem bundle", True, _POSTMORTEM_KEYS, rule=_postmortem_rule
    ),
    OOM_SCHEMA: Schema(
        "oom bundle", True,
        {
            **_POSTMORTEM_KEYS,
            "budget": {
                "limit_bytes": (int, NULL),
                "watermark_bytes": (int, NULL),
                "series": str,
            },
            "leaks": list,
        },
        rule=_oom_rule,
    ),
    REPORT_JSON_SCHEMA: Schema(
        "report JSON", True,
        {"metadata": dict, "spans": int, "time_by_phase_us": dict,
         "ring_transitions": dict},
        rule=_report_rule,
    ),
    DIFF_JSON_SCHEMA: Schema("diff JSON", True, {"ok": bool, "lines": list}),
    ATTRIBUTION_SCHEMA: Schema(
        "attribution JSON", True,
        {"metadata": dict, "steps": list, "conservation": {"ok": bool},
         "stragglers": list, "critical_spans": list, "pins": dict,
         "ok": bool},
    ),
}

"""Reporting and predicted-vs-observed diffing for real-execution traces.

Two consumers sit on top of the exporters in :mod:`repro.obs.export`:

* :func:`render_report` — a plain-text summary of one observed trace
  (wall time by phase via per-row interval union, comm volume by link
  class and logical phase from the step-metrics JSONL, tile planner
  effectiveness, recompute fraction).

* :func:`diff_traces` — a *structural*, deterministic comparison of an
  observed trace against the DES-predicted schedule for the same config.
  Wall-clock seconds are not comparable (numpy on the host vs the modeled
  A800 cluster), but the ring *structure* is: the hops the DES prices
  for one attention pass (:func:`repro.perf.schedules.attention
  .attention_pass_hops`, a walk of the executed
  :class:`~repro.comm.RingSchedule`) fix how many intra-node and
  inter-node hops each stream performs — the backward's return hop and
  the reverse seed included (:func:`predicted_ring_cells`) — and the
  observed ``ring.transition`` spans (:func:`observed_ring_cells`) must
  replicate that pattern an integer number of times per logical phase:
  the overlap structure of Fig. 5, in either ring mode, for every method
  the DES prices (USP's grouped rings included).

:func:`build_predicted_trace` renders the DES graphs of the same attention
passes (:func:`repro.perf.schedules.attention.attention_pass_sim`) through
:func:`repro.obs.export.sims_to_chrome_json` so Perfetto shows the
predicted and observed schedules side by side, and embeds the per-pass
transition counts as metadata for :func:`diff_traces`.
"""

from __future__ import annotations

import json

from repro.obs.export import (
    DIFF_JSON_SCHEMA,
    METRICS_SCHEMA,
    REPORT_JSON_SCHEMA,
    TRACE_SCHEMA,
    check_artifact,
    sims_to_chrome_json,
)
from repro.utils.format import format_bytes

#: Logical phases whose ring structure the diff gate understands.
RING_PHASES = ("attn-fwd", "attn-bwd")

#: Observed-trace rows carrying ring transitions, keyed by link kind.
_RING_ROWS = {"intra": "intra-ring", "inter": "inter-ring"}


# --------------------------------------------------------------------------
# trace loading and interval arithmetic
# --------------------------------------------------------------------------

def load_trace(path: str) -> dict:
    """Read and check a Chrome trace JSON file."""
    with open(path) as fh:
        return check_artifact(fh.read(), TRACE_SCHEMA)


def as_payload(payload: dict | str) -> dict:
    """Accept either a parsed trace dict or the exporters' JSON string."""
    if isinstance(payload, str):
        return json.loads(payload)
    return payload


def x_events(payload: dict | str) -> list[dict]:
    """The duration (``"ph": "X"``) events of a trace."""
    payload = as_payload(payload)
    return [e for e in payload.get("traceEvents", []) if e.get("ph") == "X"]


def _row_names(payload: dict | str) -> dict[tuple[int, int], str]:
    """``(pid, tid) -> row name`` from the trace's thread_name metadata."""
    rows = {}
    for e in as_payload(payload).get("traceEvents", []):
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            rows[(e.get("pid"), e["tid"])] = e["args"]["name"]
    return rows


def merged_intervals(
    intervals: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """``[start, end)`` intervals sorted, with overlapping ones merged."""
    out: list[tuple[float, float]] = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by ``[start, end)`` intervals (overlaps merged)."""
    return sum(e - s for s, e in merged_intervals(intervals))


def time_by_phase(payload: dict | str) -> dict[str, float]:
    """Wall microseconds per phase, as the union of that phase's spans.

    Nested spans on one row (e.g. ``comm.*`` inside ``resilient.*``) are
    counted once — this is occupancy, not a sum of durations.  The phase
    is taken from each event's ``args.phase`` when present, falling back
    to its row name, so multi-threaded rows ("comm (t2)") still aggregate
    under their base phase.
    """
    payload = as_payload(payload)
    rows = _row_names(payload)
    by_phase: dict[str, list[tuple[float, float]]] = {}
    for e in x_events(payload):
        phase = e.get("args", {}).get("phase") or rows.get(
            (e.get("pid"), e.get("tid")), "?"
        )
        by_phase.setdefault(phase, []).append((e["ts"], e["ts"] + e["dur"]))
    return {ph: interval_union(iv) for ph, iv in by_phase.items()}


#: Span-name prefixes counted as kernel time in the backend breakdown.
KERNEL_SPAN_PREFIXES = ("flash.", "mlp.")


def kernel_time_by_backend(
    payload: dict | str,
) -> dict[str, dict[str, float]]:
    """Wall microseconds of kernel spans, grouped by backend label.

    Every ``flash.*`` / ``mlp.*`` span carries a ``backend`` attribute
    (the kernel registry tags them at emit time); this unions their
    intervals per ``(backend, span name)`` so a mixed-backend run shows
    where each backend spent its time.  Returns ``{backend: {name: us,
    ..., "total": us}}``.
    """
    payload = as_payload(payload)
    grouped: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for e in x_events(payload):
        name = e.get("name", "")
        if not name.startswith(KERNEL_SPAN_PREFIXES):
            continue
        backend = e.get("args", {}).get("backend", "?")
        iv = (e["ts"], e["ts"] + e["dur"])
        per = grouped.setdefault(backend, {})
        per.setdefault(name, []).append(iv)
        per.setdefault("total", []).append(iv)
    return {
        backend: {name: interval_union(iv) for name, iv in per.items()}
        for backend, per in grouped.items()
    }


def _zero_cells() -> dict[str, dict[str, int]]:
    return {d: {"intra": 0, "inter": 0} for d in ("fwd", "rev")}


def observed_ring_cells(
    payload: dict | str,
) -> dict[str, dict[str, dict[str, int]]]:
    """Count ``ring.transition`` spans per logical phase, stream direction
    and link kind: ``{logical: {"fwd" | "rev": {"intra": n, "inter": n}}}``.

    The logical phase is the communicator phase the transition served
    (``attn-fwd`` / ``attn-bwd``), the link kind comes from the span's
    trace row, and spans emitted by :meth:`RingSchedule.apply_reverse`
    carry ``direction="rev"``; everything else is the forward stream
    (which is all of a unidirectional trace).
    """
    counts: dict[str, dict[str, dict[str, int]]] = {}
    for e in x_events(payload):
        if e.get("name") != "ring.transition":
            continue
        args = e.get("args", {})
        kind = "inter" if args.get("phase") == _RING_ROWS["inter"] else "intra"
        cells = counts.setdefault(args.get("logical", "?"), _zero_cells())
        cells[args.get("direction", "fwd")][kind] += 1
    return counts


def observed_ring_counts(payload: dict | str) -> dict[str, dict[str, int]]:
    """:func:`observed_ring_cells` summed over the two directions:
    ``{logical_phase: {"intra": n, "inter": n}}``."""
    return {
        logical: {k: cells["fwd"][k] + cells["rev"][k] for k in _RING_ROWS}
        for logical, cells in observed_ring_cells(payload).items()
    }


# --------------------------------------------------------------------------
# predicted schedule structure
# --------------------------------------------------------------------------

def predicted_ring_cells(
    method: str, topology, workload, *, ring_mode: str = "unidirectional",
    ring_window: int | None = None,
) -> dict[str, dict[str, dict[str, int]]]:
    """Per-pass hop counts of the DES's own walk, in the shape of
    :func:`observed_ring_cells`: every hop
    :func:`repro.perf.schedules.attention.attention_pass_hops` lists for
    one forward and one backward pass, by stream and link class — the
    backward's return hop and the reverse seed included, on the class the
    executor traces them on.  Whatever the DES prices is what is counted:
    Ulysses' one-position ring predicts zero everywhere, USP's grouped
    rings their grid's hops.
    """
    from repro.perf.schedules.attention import attention_pass_hops

    return {
        logical: {
            direction: {
                kind: sum(cls.value == kind for cls, _ in hops)
                for kind in _RING_ROWS
            }
            for direction, hops in zip(("fwd", "rev"), attention_pass_hops(
                method, topology, workload, backward=backward,
                ring_mode=ring_mode, ring_window=ring_window,
            ))
        }
        for logical, backward in zip(RING_PHASES, (False, True))
    }


def build_predicted_trace(
    method: str,
    topology,
    workload,
    path: str | None = None,
    *,
    ring_window: int | None = None,
    ring_mode: str = "unidirectional",
) -> dict:
    """DES-predicted Chrome trace for one fwd + one bwd attention pass.

    Renders the task graphs :func:`attention_pass_time` times (so
    ``metadata.modeled_makespan_s`` is exactly its fwd + bwd sum), backward
    offset to start at the forward makespan, and embeds
    ``metadata.per_pass_cells`` — :func:`predicted_ring_cells` — for
    :func:`diff_traces`.  Under ``ring_mode="bidirectional"`` the reverse
    stream gets its own ``intra-rev`` / ``inter-rev`` rows, and a
    head-parallel pass its two relayouts on the ``all-to-all`` row.
    """
    from repro.perf.schedules.attention import attention_pass_sim

    sims = [
        attention_pass_sim(
            method, topology, workload, backward=backward,
            ring_mode=ring_mode, ring_window=ring_window,
        )
        for backward in (False, True)
    ]
    return json.loads(sims_to_chrome_json(sims, path, metadata={
        "method": method,
        "world_size": topology.world_size,
        "gpus_per_node": topology.gpus_per_node,
        "ring_mode": ring_mode,
        "per_pass_cells": predicted_ring_cells(
            method, topology, workload, ring_mode=ring_mode,
            ring_window=ring_window,
        ),
        "modeled_makespan_s": sum(sim.makespan for sim in sims),
    }))


# --------------------------------------------------------------------------
# report rendering
# --------------------------------------------------------------------------

def summarize_metrics(records: list[dict]) -> dict:
    """Aggregate step-metrics JSONL records into run totals."""
    out = {
        "steps": len(records),
        "comm_elems": 0, "comm_bytes": 0,
        "by_link": {}, "by_phase": {},
        "tiles_computed": 0, "tiles_skipped": 0,
        "recompute_flops": 0.0,
    }
    for rec in records:
        out["comm_elems"] += rec.get("comm_elems", 0)
        out["comm_bytes"] += rec.get("comm_bytes", 0)
        for key in ("by_link", "by_phase"):
            for name, d in rec.get(f"comm_{key}", {}).items():
                tgt = out[key].setdefault(name, {"elems": 0, "bytes": 0})
                tgt["elems"] += d.get("elems", 0)
                tgt["bytes"] += d.get("bytes", 0)
        out["tiles_computed"] += rec.get("tiles_computed", 0)
        out["tiles_skipped"] += rec.get("tiles_skipped", 0)
        out["recompute_flops"] += rec.get("recompute_flops", 0.0)
    return out


def render_report(payload: dict | str, metrics_records: list[dict] | None = None) -> str:
    """Plain-text report over one observed trace (+ optional metrics)."""
    payload = as_payload(payload)
    lines: list[str] = []
    events = x_events(payload)
    phases = time_by_phase(payload)
    total = sum(phases.values())
    meta = payload.get("metadata", {})
    header = "observed trace"
    if meta.get("method"):
        header += (
            f" — method={meta['method']}, world={meta.get('world_size', '?')}"
            f" ({meta.get('gpus_per_node', '?')}/node)"
        )
    lines.append(header)
    lines.append(f"  spans: {len(events)}")
    lines.append("")
    lines.append("time by phase (span-union wall time):")
    step_time = phases.get("step", 0.0)
    for phase in sorted(phases, key=phases.get, reverse=True):
        us = phases[phase]
        share = us / step_time if step_time else 0.0
        lines.append(
            f"  {phase:<16} {us / 1e3:10.3f} ms"
            + (f"  ({share:6.1%} of step)" if phase != "step" else "")
        )
    compute = phases.get("compute", 0.0)
    recompute = phases.get("ckpt-recompute", 0.0)
    if compute:
        lines.append("")
        lines.append(
            f"recompute fraction: {recompute / compute:.1%} of kernel "
            "compute time under recompute spans"
        )
    kernel_times = kernel_time_by_backend(payload)
    if kernel_times:
        lines.append("")
        lines.append("kernel time by backend (span-union wall time):")
        for backend in sorted(kernel_times):
            per = kernel_times[backend]
            lines.append(
                f"  {backend:<12} {per['total'] / 1e3:10.3f} ms total"
            )
            for name in sorted(k for k in per if k != "total"):
                lines.append(
                    f"    {name:<12} {per[name] / 1e3:10.3f} ms"
                )
    counts = observed_ring_counts(payload)
    if counts:
        lines.append("")
        lines.append("ring transitions by logical phase:")
        for logical in sorted(counts):
            d = counts[logical]
            lines.append(
                f"  {logical:<10} intra={d['intra']:<4} inter={d['inter']}"
            )
    if metrics_records:
        s = summarize_metrics(metrics_records)
        lines.append("")
        lines.append(
            f"comm volume over {s['steps']} step(s): "
            f"{s['comm_elems']} elems, {format_bytes(s['comm_bytes'])}"
        )
        lines.append("  by link class:")
        for link in sorted(s["by_link"]):
            d = s["by_link"][link]
            lines.append(
                f"    {link:<8} {d['elems']:>12} elems  {format_bytes(d['bytes'])}"
            )
        lines.append("  by logical phase:")
        for phase in sorted(s["by_phase"]):
            d = s["by_phase"][phase]
            lines.append(
                f"    {phase:<10} {d['elems']:>12} elems  {format_bytes(d['bytes'])}"
            )
        tiles = s["tiles_computed"] + s["tiles_skipped"]
        if tiles:
            lines.append(
                f"tiles: {s['tiles_computed']} computed, "
                f"{s['tiles_skipped']} skipped "
                f"({s['tiles_skipped'] / tiles:.1%} skip rate)"
            )
        if s["recompute_flops"]:
            lines.append(f"recompute flops: {s['recompute_flops']:.3e}")
    return "\n".join(lines)


def load_metrics(path: str) -> list[dict]:
    """Read and check a step-metrics JSONL file."""
    with open(path) as fh:
        return check_artifact(fh.read(), METRICS_SCHEMA)["records"]


# --------------------------------------------------------------------------
# machine-readable (JSON) summaries
# --------------------------------------------------------------------------

def report_json(
    payload: dict | str,
    metrics_records: list[dict] | None = None,
    *,
    critical: bool = False,
) -> dict:
    """Machine-readable counterpart of :func:`render_report`.

    With ``critical=True`` the document additionally carries the
    per-step/per-rank attribution, straggler ranking and top-K critical
    spans from :mod:`repro.obs.critical`.
    """
    payload = as_payload(payload)
    doc = {
        "schema": REPORT_JSON_SCHEMA,
        "metadata": dict(payload.get("metadata", {})),
        "spans": len(x_events(payload)),
        "time_by_phase_us": time_by_phase(payload),
        "kernel_time_by_backend_us": kernel_time_by_backend(payload),
        "ring_transitions": observed_ring_counts(payload),
        "metrics": summarize_metrics(metrics_records) if metrics_records else None,
    }
    if critical:
        from repro.obs.critical import (
            attribute_steps,
            critical_spans,
            straggler_ranking,
        )

        doc["attribution"] = {
            "steps": attribute_steps(payload),
            "stragglers": straggler_ranking(payload),
            "critical_spans": critical_spans(payload),
        }
    return doc


def diff_json(ok: bool, lines: list[str]) -> dict:
    """Machine-readable counterpart of :func:`diff_traces` output."""
    return {"schema": DIFF_JSON_SCHEMA, "ok": bool(ok), "lines": list(lines)}


# --------------------------------------------------------------------------
# observed-vs-predicted diff
# --------------------------------------------------------------------------

def _fmt_cells(cells: dict[str, dict[str, int]]) -> str:
    return ", ".join(
        f"{d} intra={cells[d]['intra']} inter={cells[d]['inter']}"
        for d in ("fwd", "rev")
    )


def diff_traces(
    observed: dict | str, predicted: dict | str
) -> tuple[bool, list[str]]:
    """Structurally compare an observed trace with a DES prediction.

    For each logical ring phase, every observed (direction, link-kind)
    transition count must be the *same* integer multiple of the predicted
    per-pass cell — one multiple per attention pass executed.  The split
    is exact (set by the schedule and, bidirectionally, ``S // 2``), so no
    fractional tolerance applies; a unidirectional prediction is the case
    whose reverse cells are zero, and a method without a ring schedule the
    case whose cells are all zero.  Modeled-vs-observed link-time shares
    are reported but never gate: numpy wall time on the host says nothing
    about A800 link occupancy.

    Returns ``(ok, report_lines)``.
    """
    observed = as_payload(observed)
    predicted = as_payload(predicted)
    meta = predicted.get("metadata", {})
    per_pass = meta.get("per_pass_cells")
    if not isinstance(per_pass, dict):
        raise ValueError(
            "predicted trace has no metadata.per_pass_cells; build it with "
            "build_predicted_trace (or `python -m repro.obs trace-step`)"
        )
    counts = observed_ring_cells(observed)
    lines = [
        "predicted per-pass transitions"
        + (f" (method={meta.get('method')})" if meta.get("method") else "")
        + ":"
    ]
    lines += [
        f"  {logical:<10} {_fmt_cells(per_pass[logical])}"
        for logical in sorted(per_pass)
    ]
    lines.append("observed:")
    ok = True
    for logical in sorted(set(counts) | set(per_pass)):
        obs = counts.get(logical, _zero_cells())
        exp = per_pass.get(logical, _zero_cells())
        obs_total = sum(n for cells in obs.values() for n in cells.values())
        exp_total = sum(n for cells in exp.values() for n in cells.values())
        passes = obs_total // exp_total if exp_total else 0
        if exp_total == 0:
            good = obs_total == 0
            verdict = "OK" if good else "MISMATCH (expected no ring transitions)"
        else:
            good = passes >= 1 and all(
                obs[d][k] == passes * exp[d][k] for d in exp for k in exp[d]
            )
            verdict = "OK" if good else (
                "MISMATCH (cells not an integer number of passes)"
            )
        ok &= good
        lines.append(
            f"  {logical:<10} {_fmt_cells(obs)} -> {passes} pass(es)  {verdict}"
        )
    obs_phases = time_by_phase(observed)
    pred_phases = time_by_phase(predicted)
    ring_obs = {k: obs_phases.get(row, 0.0) for k, row in _RING_ROWS.items()}
    ring_pred = {
        k: pred_phases.get(k, 0.0) + pred_phases.get(f"{k}-rev", 0.0)
        for k in _RING_ROWS
    }
    tot_o, tot_p = sum(ring_obs.values()), sum(ring_pred.values())
    if tot_o and tot_p:
        lines.append(
            "link-time shares (report only): observed "
            f"intra={ring_obs['intra'] / tot_o:.1%} "
            f"inter={ring_obs['inter'] / tot_o:.1%} | modeled "
            f"intra={ring_pred['intra'] / tot_p:.1%} "
            f"inter={ring_pred['inter'] / tot_p:.1%}"
        )
    lines.append("schedule diff: " + ("OK" if ok else "MISMATCH"))
    return ok, lines

"""Command-line entry points for the observability subsystem.

``python -m repro.obs <subcommand>``:

* ``trace-step`` — run a tiny traced training step (2 layers, burst
  attention, sequence-level selective checkpointing, fused LM head by
  default) and write the observed Chrome trace, the step-metrics JSONL,
  and the DES-predicted trace for the same configuration side by side.
* ``report`` — schema-validate an observed trace and print the
  time-by-phase / comm-volume / tile / recompute summary.  Exits
  non-zero on malformed or zero-span traces.
* ``diff`` — structurally compare an observed trace against the
  DES-predicted schedule (see :func:`repro.obs.report.diff_traces`);
  exits non-zero when the ring structure deviates.
* ``attribute`` — run the critical-path engine
  (:func:`repro.obs.critical.attribute_trace`): per-step per-rank
  compute / exposed-comm / overlapped / idle attribution with a
  conservation check, straggler ranking, and exposed-comm pins against
  the DES-predicted critical path and the ``repro.perf.cost`` closed
  forms.  Exits non-zero when conservation, a pin, or a straggler check
  fails.

``report`` and ``diff`` accept ``--json`` for machine-readable output
(schemas ``obs-report/v1`` / ``obs-diff/v1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _quickstart(
    method: str,
    ring_mode: str,
    seq: int,
    *,
    policy: str = "sequence_level",
    chunk: int | None = None,
    gpus: int = 8,
    gpus_per_node: int = 4,
):
    """The tiny 2-layer engine every subcommand traces, and its one batch.

    Predictions and trace metadata read the sizes back from
    ``engine.config``, so they are stated here only.
    """
    import numpy as np

    from repro.engine import BurstEngine, EngineConfig
    from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy
    from repro.nn.modules import TransformerConfig
    from repro.topology import a800_node, make_cluster

    config = EngineConfig(
        model=TransformerConfig(
            vocab_size=128, dim=32, n_layers=2, n_heads=4, ffn_hidden=64,
            max_seq_len=seq, attn_block_size=32, mlp_chunk_size=chunk,
        ),
        method=method,
        method_kwargs=(
            {"ring_mode": ring_mode} if ring_mode != "unidirectional" else {}
        ),
        checkpoint=CheckpointPolicy(CheckpointMode(policy), 0.5),
        head_impl="fused",
    )
    engine = BurstEngine(
        config,
        topology=make_cluster(gpus, node=a800_node(gpus_per_node=gpus_per_node)),
    )
    rng = np.random.default_rng(0)
    vocab = config.model.vocab_size
    return engine, (rng.integers(0, vocab, seq), rng.integers(0, vocab, seq))


def _traced_fit(engine, batch, steps: int = 1, **trainer_kwargs):
    """Train under the tracer and a memory timeline; returns
    ``(spans, timeline, memory events)``."""
    from repro.engine.trainer import Trainer
    from repro.obs.mem import use_memory_timeline
    from repro.obs.tracer import use_tracing

    with use_tracing() as tracer:
        with use_memory_timeline() as timeline:
            Trainer(engine=engine, **trainer_kwargs).fit([batch], steps=steps)
            events = timeline.events()
    return tracer.spans(), timeline, events


def _cmd_trace_step(args: argparse.Namespace) -> int:
    from repro.obs.export import spans_to_chrome_json, validate_chrome_trace
    from repro.obs.mem import timeline_json, validate_memory_timeline
    from repro.obs.report import build_predicted_trace
    from repro.perf.schedules.attention import AttentionWorkload

    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.json")
    metrics_path = os.path.join(args.out_dir, "metrics.jsonl")
    predicted_path = os.path.join(args.out_dir, "predicted.json")
    timeline_path = os.path.join(args.out_dir, "memory-timeline.json")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)

    engine, batch = _quickstart(
        args.method, args.ring_mode, args.seq,
        gpus=args.gpus, gpus_per_node=args.gpus_per_node,
    )
    model, topology = engine.config.model, engine.topology
    spans, timeline, mem_events = _traced_fit(
        engine, batch, args.steps, metrics_path=metrics_path
    )
    payload = spans_to_chrome_json(
        spans, trace_path,
        memory_events=mem_events,
        metadata={
            "method": args.method,
            "world_size": topology.world_size,
            "gpus_per_node": topology.gpus_per_node,
            "seq_len": args.seq,
            "hidden": model.dim,
            "n_heads": model.n_heads,
            "n_layers": model.n_layers,
            "steps": args.steps,
            "ring_mode": args.ring_mode,
        },
    )
    validate_chrome_trace(payload)
    print(f"wrote {trace_path} ({len(spans)} spans)")
    print(f"wrote {metrics_path} ({args.steps} step record(s))")
    tl_payload = timeline_json(
        timeline, timeline_path,
        metadata={"method": args.method, "seq_len": args.seq,
                  "steps": args.steps},
    )
    validate_memory_timeline(tl_payload)
    print(f"wrote {timeline_path} ({len(mem_events)} memory events)")
    try:
        workload = AttentionWorkload(
            seq_len=args.seq, hidden=model.dim, n_heads=model.n_heads
        )
        build_predicted_trace(
            args.method, topology, workload, predicted_path,
            ring_mode=args.ring_mode,
        )
        print(f"wrote {predicted_path} (DES-predicted schedule)")
    except ValueError as exc:
        print(f"skipped predicted trace: {exc}")
    return 0


def _memdiff_cell(method, policy_mode, ring_mode, seq, chunk=None):
    """Run one traced step; observed and predicted peak saved bytes plus
    the timeline analysis."""
    from repro.nn.memory import get_tracker
    from repro.obs.mem import leak_report, peak_attribution
    from repro.perf.memory import predict_step_peak_saved_bytes

    # The quickstart model has 4 heads; Ulysses needs heads % world == 0,
    # so its cells run on a 4-GPU cluster (saved bytes are world-
    # independent: the simulation registers full-sequence tensors).
    # Only the burst cells take the ring mode.
    engine, batch = _quickstart(
        method, ring_mode if method == "burst" else "unidirectional", seq,
        policy=policy_mode, chunk=chunk, gpus=4 if method == "ulysses" else 8,
    )
    spans, timeline, events = _traced_fit(engine, batch)
    observed = get_tracker().peak_saved_bytes
    config = engine.config
    predicted = predict_step_peak_saved_bytes(
        seq_len=seq, dim=config.model.dim, n_layers=config.model.n_layers,
        n_heads=config.model.n_heads, ffn_hidden=config.model.ffn_hidden,
        vocab=config.model.vocab_size, checkpoint=policy_mode,
        split_fraction=config.checkpoint.split_fraction,
        head_impl=config.head_impl, fused_mlp=(chunk is not None),
        rebuilds_context=engine.method.supports_context_rebuild,
    )
    return {
        "observed": observed,
        "predicted": predicted,
        "attribution": peak_attribution(events),
        "leaks": leak_report(events),
        "events": events,
        "timeline": timeline,
        "spans": spans,
        "model": config.model,
    }


def _site_peak(events, prefix: str) -> int:
    """Max concurrent bytes of timeline allocations whose site starts
    with ``prefix`` (replays the transient series for one subsystem)."""
    current = peak = 0
    for ev in events:
        if not ev.site.startswith(prefix):
            continue
        current += ev.delta
        peak = max(peak, current)
    return peak


def _cmd_memdiff(args: argparse.Namespace) -> int:
    from repro.obs.mem import (
        MEMDIFF_SCHEMA,
        timeline_json,
        validate_memdiff_json,
        validate_memory_timeline,
    )
    from repro.perf.memory import swiglu_chunked_transient_bytes

    os.makedirs(args.out_dir, exist_ok=True)
    seq = args.seq

    if args.inject:
        return _memdiff_inject(args, seq)

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    methods = ("burst", "megatron-cp", "ulysses")
    failed = False
    cells = []
    first_cell = None
    print(f"{'cell':<34} {'observed':>10} {'predicted':>10}  peak span")
    for method in methods:
        for policy in policies:
            cell = _memdiff_cell(method, policy, args.ring_mode, seq)
            if first_cell is None:
                first_cell = cell
            predicted = cell["predicted"]["peak_saved_bytes"]
            match = cell["observed"] == predicted
            clean = not cell["leaks"]
            failed = failed or not match or not clean
            attr = cell["attribution"]
            span = attr.get("span") or "-"
            owner = attr.get("owner", {})
            where = (
                f"{span} (layer={owner.get('layer')}, "
                f"phase={owner.get('mem_phase')})"
            )
            status = "" if match else "  DRIFT"
            if not clean:
                status += f"  {len(cell['leaks'])} LEAKED"
            label = f"{method}/{policy}"
            print(
                f"{label:<34} {cell['observed']:>10} "
                f"{predicted:>10}  {where}{status}"
            )
            cells.append({
                "method": method,
                "policy": policy,
                "ring_mode": args.ring_mode if method == "burst" else None,
                "observed_peak_bytes": cell["observed"],
                "predicted_peak_bytes": predicted,
                "match": match,
                "peak_span": attr.get("span"),
                "peak_owner": owner,
                "top": attr.get("top", []),
                "leaks": len(cell["leaks"]),
            })

    # Observed checkpoint-policy curve (Fig. 7, measured not asserted).
    curve = {}
    for policy in ("none", "full", "selective_pp", "sequence_level"):
        cell = _memdiff_cell("burst", policy, args.ring_mode, seq)
        curve[policy] = {
            "observed": cell["observed"],
            "predicted": cell["predicted"]["peak_saved_bytes"],
        }
        failed = failed or curve[policy]["observed"] != curve[policy]["predicted"]
    print("checkpoint curve (observed bytes): " + ", ".join(
        f"{p}={c['observed']}" for p, c in curve.items()
    ))

    # Chunked-MLP transient working set vs the PR-8 closed form.
    chunk = 32
    tcell = _memdiff_cell("burst", "sequence_level", args.ring_mode, seq,
                          chunk=chunk)
    t_observed = _site_peak(tcell["events"], "mlp.chunked_bwd")
    t_predicted = swiglu_chunked_transient_bytes(
        seq, tcell["model"].dim, tcell["model"].ffn_hidden, chunk
    )
    t_match = t_observed == t_predicted
    failed = failed or not t_match
    print(
        f"mlp transient (chunk={chunk}): observed={t_observed} "
        f"predicted={t_predicted}{'' if t_match else '  DRIFT'}"
    )

    timeline_path = os.path.join(args.out_dir, "memory-timeline.json")
    payload = timeline_json(
        first_cell["timeline"],
        timeline_path,
        metadata={"method": "burst", "policy": policies[0], "seq_len": seq,
                  "ring_mode": args.ring_mode},
    )
    validate_memory_timeline(payload)
    print(f"wrote {timeline_path} ({len(first_cell['events'])} events)")

    from repro.obs.export import spans_to_chrome_json, validate_chrome_trace

    trace_path = os.path.join(args.out_dir, "memory-trace.json")
    trace_payload = spans_to_chrome_json(
        first_cell["spans"], trace_path,
        metadata={"method": "burst", "seq_len": seq,
                  "ring_mode": args.ring_mode},
        memory_events=first_cell["events"],
    )
    validate_chrome_trace(trace_payload)
    print(f"wrote {trace_path} (spans + memory counter tracks)")

    doc = {
        "schema": MEMDIFF_SCHEMA,
        "cells": cells,
        "curve": curve,
        "transient": {
            "chunk_size": chunk,
            "observed_bytes": t_observed,
            "predicted_bytes": t_predicted,
            "match": t_match,
        },
        "ok": not failed,
    }
    validate_memdiff_json(doc)
    doc_path = os.path.join(args.out_dir, "memdiff.json")
    with open(doc_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {doc_path}")
    print("memdiff: " + ("FAIL" if failed else "OK — observed peaks match "
                         "the closed forms byte-for-byte"))
    return 1 if failed else 0


def _memdiff_inject(args: argparse.Namespace, seq: int) -> int:
    """Seeded failure scenarios: must exit non-zero with an oom/v1 bundle."""
    from repro.engine.trainer import Trainer
    from repro.nn.memory import get_tracker
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.mem import (
        MemoryBudget,
        MemoryBudgetExceeded,
        dump_oom_postmortem,
        leak_report,
        use_memory_timeline,
        validate_oom_postmortem,
    )
    from repro.obs.tracer import use_tracing

    engine, batch = _quickstart("burst", "unidirectional", seq)
    recorder = FlightRecorder(out_dir=args.out_dir, prefix="oom-")
    bundle_path = None
    with recorder, use_tracing():
        with use_memory_timeline() as timeline:
            if args.inject == "budget":
                budget = MemoryBudget(
                    limit_bytes=args.budget_bytes, raise_on_breach=True
                )
                try:
                    Trainer(engine=engine, memory_budget=budget).fit(
                        [batch], steps=1
                    )
                except MemoryBudgetExceeded as exc:
                    print(f"budget breach detected: {exc}")
                    bundle_path = budget.bundle_path
                else:
                    print("error: budget was never breached", file=sys.stderr)
                    return 0  # CI inverts: 0 here means detection failed
            else:  # leak
                trainer = Trainer(engine=engine)
                # Seed the leak *inside* the step so it is attributed:
                # one register with no matching release.
                trainer.on_step_end = lambda tr, record: get_tracker().register(
                    4096, site="injected.leak"
                )
                trainer.fit([batch], steps=1)
                leaks = leak_report(timeline.events())
                if not leaks:
                    print("error: seeded leak went undetected", file=sys.stderr)
                    return 0
                print(
                    f"leak detected: {len(leaks)} unreleased handle(s), "
                    f"site={leaks[0]['site']}, {leaks[0]['bytes']} bytes"
                )
                bundle_path = dump_oom_postmortem(
                    reason={
                        "kind": "seeded-leak",
                        "leaked_handles": len(leaks),
                        "watermark_bytes": get_tracker().current_saved_bytes,
                    },
                    timeline=timeline,
                )
    if bundle_path is None:
        print("error: no oom/v1 bundle was written", file=sys.stderr)
        return 0
    with open(bundle_path) as fh:
        validate_oom_postmortem(fh.read())
    print(f"validated oom/v1 bundle: {bundle_path}")
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        load_metrics,
        load_trace,
        render_report,
        report_json,
        validate_report_json,
    )

    try:
        payload = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: invalid trace {args.trace}: {exc}", file=sys.stderr)
        return 1
    records = None
    if args.metrics is not None:
        try:
            records = load_metrics(args.metrics)
        except (OSError, ValueError) as exc:
            print(
                f"error: invalid metrics {args.metrics}: {exc}", file=sys.stderr
            )
            return 1
    if args.json:
        doc = report_json(payload, records, critical=args.critical)
        validate_report_json(doc)
        print(json.dumps(doc, indent=2))
        return 0
    print(render_report(payload, records))
    if args.critical:
        from repro.obs.critical import attribute_trace, render_attribution

        print()
        print(render_attribution(attribute_trace(payload)))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        diff_json,
        diff_traces,
        load_trace,
        validate_diff_json,
    )

    try:
        ok, lines = diff_traces(
            load_trace(args.trace), load_trace(args.predicted)
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        doc = diff_json(ok, lines)
        validate_diff_json(doc)
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return 0 if ok else 1


def _cmd_attribute(args: argparse.Namespace) -> int:
    from repro.obs.critical import (
        attribute_trace,
        render_attribution,
        validate_attribution_json,
    )
    from repro.obs.report import load_trace

    try:
        payload = load_trace(args.trace)
        doc = attribute_trace(
            payload, tolerance=args.tolerance, top=args.top
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    validate_attribution_json(doc)
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.json}")
    print(render_attribution(doc))
    return 0 if doc["ok"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability: trace a step, report on it, diff vs DES",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "trace-step", help="run a tiny traced training step and export"
    )
    p.add_argument("--out-dir", required=True)
    p.add_argument("--method", default="burst")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--seq", type=int, default=128)
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--gpus-per-node", type=int, default=4)
    p.add_argument(
        "--ring-mode", default="unidirectional",
        choices=("unidirectional", "bidirectional"),
        help="ring circulation mode for the traced method and prediction",
    )
    p.set_defaults(fn=_cmd_trace_step)

    p = sub.add_parser("report", help="summarize an observed trace")
    p.add_argument("trace")
    p.add_argument("--metrics", default=None)
    p.add_argument(
        "--json", action="store_true",
        help="emit a validated obs-report/v1 JSON document",
    )
    p.add_argument(
        "--critical", action="store_true",
        help="append critical-path attribution (per-step, per-rank)",
    )
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "diff", help="compare an observed trace with the DES prediction"
    )
    p.add_argument("trace")
    p.add_argument("--predicted", required=True)
    p.add_argument(
        "--json", action="store_true",
        help="emit a validated obs-diff/v1 JSON document",
    )
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser(
        "attribute",
        help="critical-path attribution: exposed comm vs DES + closed forms",
    )
    p.add_argument("trace")
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the obs-attribution/v1 document to PATH",
    )
    p.add_argument("--top", type=int, default=5,
                   help="critical spans to list")
    p.set_defaults(fn=_cmd_attribute)

    p = sub.add_parser(
        "memdiff",
        help="gate observed peak memory against the closed-form predictions",
    )
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seq", type=int, default=128)
    p.add_argument(
        "--policies", default="sequence_level,full",
        help="comma-separated checkpoint policies gated per method",
    )
    p.add_argument(
        "--ring-mode", default="unidirectional",
        choices=["unidirectional", "bidirectional"],
        help="ring transport for the burst cells",
    )
    p.add_argument(
        "--inject", default=None, choices=["leak", "budget"],
        help="seed a failure; the command must then exit non-zero "
             "with a validated oom/v1 bundle",
    )
    p.add_argument(
        "--budget-bytes", type=int, default=512_000,
        help="MemoryBudget limit for --inject budget",
    )
    p.set_defaults(fn=_cmd_memdiff)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Observability subsystem: tracer, metrics registry, exporters, CLI.

The exporter tests validate against a *real* traced training step on a
two-node cluster, so the schema checks cover every instrumented row
(compute, comm, intra-ring, inter-ring, ckpt-recompute, lmhead) rather
than synthetic spans, and the JSONL comm counters are pinned against the
TrafficLog they must reproduce exactly — including the paper's
``3Nd + 2N`` backward send volume per rank.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import BurstEngine, EngineConfig
from repro.engine.trainer import Trainer
from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy
from repro.nn.modules import TransformerConfig
from repro.obs import (
    NOOP_SPAN,
    MetricsRegistry,
    check_artifact,
    get_registry,
    get_tracer,
    spans_to_chrome_json,
    trace_span,
    tracing_enabled,
    use_tracing,
)
from repro.obs.report import diff_traces, observed_ring_counts, time_by_phase
from repro.obs.tracer import Span
from repro.testing.invariants import expected_backward_elems
from repro.topology import a800_node, make_cluster

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=600,
    )


def tiny_engine(
    n_layers: int = 2, method: str = "burst",
    ring_mode: str = "unidirectional", n_kv_heads: int | None = None,
    **method_kwargs,
) -> BurstEngine:
    """The quickstart-shaped config: 8 GPUs over 2 nodes, burst attention,
    sequence-level selective checkpointing, fused LM head.  (Ulysses needs
    ``heads % world == 0``, so it runs on 4 GPUs.)"""
    topology = make_cluster(
        4 if method == "ulysses" else 8, node=a800_node(gpus_per_node=4)
    )
    return BurstEngine(
        EngineConfig(
            model=TransformerConfig(
                vocab_size=128, dim=32, n_layers=n_layers, n_heads=4,
                n_kv_heads=n_kv_heads,
                ffn_hidden=64, max_seq_len=128, attn_block_size=32,
            ),
            method=method,
            method_kwargs=method_kwargs | (
                {"ring_mode": ring_mode} if ring_mode != "unidirectional" else {}
            ),
            checkpoint=CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.5),
            head_impl="fused",
        ),
        topology=topology,
    )


def traced_step(tmp_path, n_layers: int = 2, **engine_kwargs):
    engine = tiny_engine(n_layers, **engine_kwargs)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 128, 128)
    targets = rng.integers(0, 128, 128)
    metrics = tmp_path / "metrics.jsonl"
    trainer = Trainer(engine=engine, metrics_path=str(metrics))
    with use_tracing() as tracer:
        trainer.fit([(ids, targets)], steps=1)
    return engine, tracer.spans(), metrics


class TestTracer:
    def test_disabled_by_default_returns_noop(self):
        assert not tracing_enabled()
        assert trace_span("x", phase="compute") is NOOP_SPAN

    def test_disabled_records_nothing_and_is_cheap(self):
        tracer = get_tracer()
        before = len(tracer.spans())
        t0 = time.perf_counter()
        for _ in range(100_000):
            with trace_span("hot", phase="compute") as sp:
                sp["k"] = 1
        elapsed = time.perf_counter() - t0
        assert len(tracer.spans()) == before
        # Pure flag-check + context-manager overhead; generous absolute
        # bound so slow CI machines don't flake.
        assert elapsed < 1.0

    def test_nesting_depth_and_attrs(self):
        with use_tracing() as tracer:
            with trace_span("outer", phase="a") as outer:
                outer["n"] = 3
                with trace_span("inner", phase="b", static=True):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].depth == 0
        assert spans["inner"].depth == 1
        assert spans["outer"].attrs["n"] == 3
        assert spans["inner"].attrs["static"] is True
        assert spans["inner"].ts >= spans["outer"].ts
        inner_end = spans["inner"].ts + spans["inner"].dur
        outer_end = spans["outer"].ts + spans["outer"].dur
        assert inner_end <= outer_end + 1e-9

    def test_use_tracing_restores_disabled(self):
        with use_tracing():
            assert tracing_enabled()
        assert not tracing_enabled()


class TestMetricsRegistry:
    def test_counter_labels_and_snapshot(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", help="cache hits")
        c.inc()
        c.inc(2, kind="a")
        c.inc(3, kind="b")
        snap = reg.snapshot()
        assert snap["hits"][""] == 1
        assert snap["hits"]["kind=a"] == 2
        assert snap["hits"]["kind=b"] == 3
        reg.reset()
        assert reg.counter("hits").value() == 0

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")


class TestCounterMigration:
    """The tileplan / memory module counters are registry-backed but the
    historical mutation idiom must keep working verbatim."""

    def test_tileplan_aliases_mirror_registry(self):
        from repro.kernels.tileplan import counters

        counters.reset()
        counters.computed_full += 3
        counters.skipped_empty += 1
        assert counters.computed == 3
        snap = get_registry().snapshot()
        assert snap["tileplan.computed_full"] == 3
        assert snap["tileplan.skipped_empty"] == 1
        local = counters.snapshot()
        assert local["computed_full"] == 3
        assert local["tiles_skipped"] == 1
        counters.reset()
        assert get_registry().snapshot()["tileplan.computed_full"] == 0

    def test_memory_tracker_mirrors_registry(self):
        from repro.nn.memory import get_tracker, reset_tracker

        reset_tracker()
        tracker = get_tracker()
        handle = tracker.register(1024)
        assert get_registry().snapshot()["memory.current_saved_bytes"] == 1024
        assert get_registry().snapshot()["memory.peak_saved_bytes"] == 1024
        tracker.release(handle)
        assert get_registry().snapshot()["memory.current_saved_bytes"] == 0
        assert get_registry().snapshot()["memory.peak_saved_bytes"] == 1024
        reset_tracker()


class TestChromeTraceExport:
    def test_traced_step_schema_and_rows(self, tmp_path):
        _, spans, _ = traced_step(tmp_path)
        path = tmp_path / "trace.json"
        payload = spans_to_chrome_json(spans, str(path), metadata={"m": 1})
        check_artifact(payload, "chrome-trace")  # raises on any violation
        on_disk = json.loads(path.read_text())
        assert on_disk["metadata"] == {"m": 1}
        events = [e for e in on_disk["traceEvents"] if e["ph"] == "X"]
        for e in events:
            for key in ("name", "ts", "dur", "pid", "tid", "args"):
                assert key in e, f"event missing {key}: {e}"
            assert e["pid"] == 2  # observed process, next to the DES pid 1
        rows = {
            e["args"]["name"]
            for e in on_disk["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # Acceptance: distinct rows for compute, both ring link classes,
        # checkpoint recompute and the LM head.
        for expected in ("compute", "intra-ring", "inter-ring",
                         "ckpt-recompute", "lmhead", "comm", "step"):
            assert expected in rows, f"missing trace row {expected}: {rows}"

    def test_ring_rows_match_schedule_structure(self, tmp_path):
        engine, spans, _ = traced_step(tmp_path)
        payload = spans_to_chrome_json(spans)
        counts = observed_ring_counts(payload)
        # double ring on 8 ranks / 4 per node: 6 intra + 1 inter
        # transitions per pass, one pass per layer per direction (the
        # node's recompute runs locally and adds no ring traffic); the
        # backward's return hop is one more row, inter-node (its slowest
        # pair).
        n_layers = engine.config.model.n_layers
        for logical, home in (("attn-fwd", 0), ("attn-bwd", 1)):
            assert counts[logical] == {
                "intra": 6 * n_layers, "inter": (1 + home) * n_layers
            }, counts
        # ...and one `attn.pass` span per pass — with GQA shards too,
        # whichever backward the method picks for the head counts.
        def passes(spans):
            return sorted(
                (s.attrs["direction"], s.attrs["algorithm"])
                for s in spans if s.name == "attn.pass"
            )

        def one_per_layer(backward):
            return [("bwd", backward)] * n_layers + [("fwd", "ring")] * n_layers

        assert passes(spans) == one_per_layer("burst-alg2")
        for gqa_kwargs, backward in [
            ({}, "burst-alg2"),
            ({"adaptive_backward": True}, "ring-alg1"),
            ({"method": "megatron-cp"}, "ring-alg1"),
        ]:
            _, spans, _ = traced_step(tmp_path, n_kv_heads=2, **gqa_kwargs)
            assert passes(spans) == one_per_layer(backward), gqa_kwargs

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            check_artifact({"traceEvents": []}, "chrome-trace")  # zero spans
        with pytest.raises(ValueError):
            check_artifact({"traceEvents": [
                {"ph": "X", "name": "a", "ts": 0, "pid": 1, "tid": 1},
            ]}, "chrome-trace")  # missing dur
        with pytest.raises(ValueError):
            check_artifact({"traceEvents": [
                {"ph": "X", "name": "a", "ts": 0.0, "dur": 10.0,
                 "pid": 1, "tid": 1, "args": {}},
                {"ph": "X", "name": "b", "ts": 5.0, "dur": 10.0,
                 "pid": 1, "tid": 1, "args": {}},
            ]}, "chrome-trace")  # overlapping, not nested, same thread

    def test_time_by_phase_unions_nested_spans(self, tmp_path):
        _, spans, _ = traced_step(tmp_path)
        payload = spans_to_chrome_json(spans)
        phases = time_by_phase(payload)
        step = phases.pop("step")
        # every phase is covered by (nested under) the step span
        for name, us in phases.items():
            assert 0 < us <= step + 1e-6, (name, us, step)


class TestStepMetricsJsonl:
    def test_jsonl_matches_traffic_log_exactly(self, tmp_path):
        engine, _, metrics = traced_step(tmp_path)
        records = check_artifact(
            metrics.read_text(), "step-metrics"
        )["records"]
        assert len(records) == 1
        line = records[0]
        log = engine.comm.log
        assert line["comm_elems"] == log.total_elems()
        assert line["comm_bytes"] == log.total_bytes()
        by_phase = {
            phase: sum(r.nelems for r in log.records if r.phase == phase)
            for phase in log.phases()
        }
        assert {p: d["elems"] for p, d in line["comm_by_phase"].items()} == by_phase

    def test_backward_volume_pin_3nd_plus_2n(self, tmp_path):
        """Per-rank attn-bwd send volume in the JSONL equals the paper's
        ``3Nd + 2N`` (per head) minus the read-only ``(2Nd + 2N) / G`` the
        return hop leaves out, times the layer count."""
        engine, _, metrics = traced_step(tmp_path)
        line = check_artifact(
            metrics.read_text(), "step-metrics"
        )["records"][0]
        cfg = engine.config.model
        head_dim = cfg.dim // cfg.n_heads
        full = expected_backward_elems(
            "alg2", cfg.max_seq_len, head_dim, cfg.n_heads
        )
        g = engine.topology.world_size
        unread = (2 * head_dim + 2) * cfg.n_heads * cfg.max_seq_len // g
        per_rank = line["per_rank_send_elems"]["attn-bwd"]
        assert per_rank == {
            str(r): cfg.n_layers * (full - unread) for r in range(g)
        }

    def test_validator_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            check_artifact("", "step-metrics")
        with pytest.raises(ValueError):
            check_artifact('{"step": 0}', "step-metrics")  # missing comm keys
        with pytest.raises(ValueError):
            check_artifact("not json", "step-metrics")


_SPAN = {"name": "a", "ph": "X", "ts": 0.0, "dur": 5.0, "pid": 1, "tid": 1,
         "args": {}}
_ALLOC = {"ts": 0.0, "series": "saved", "kind": "alloc", "delta": 1,
          "current": 1, "handle": 0}

#: case -> (table key, damaged document, the error it must raise)
DAMAGED = {
    "trace-dur-is-a-string": (
        "chrome-trace", {"traceEvents": [dict(_SPAN, dur="5")]},
        r"trace event #0 \('a'\) 'dur' is str",
    ),
    "trace-args-is-a-list": (
        "chrome-trace", {"traceEvents": [dict(_SPAN, args=[])]},
        r"trace event #0 \('a'\) 'args' is list",
    ),
    "trace-event-is-not-an-object": (
        "chrome-trace", {"traceEvents": [_SPAN, 3]},
        r"trace event #1 is not an object",
    ),
    "memdiff-cell-is-not-an-object": (
        "obs-memdiff/v1",
        {"schema": "obs-memdiff/v1", "cells": [3], "curve": {},
         "transient": {}, "ok": True},
        r"memdiff cell #0 is not an object",
    ),
    "timeline-current-is-a-string": (
        "memory-timeline/v1",
        {"schema": "memory-timeline/v1", "events": [dict(_ALLOC, current="1")]},
        r"timeline event #0 'current' is str",
    ),
}


class TestDamagedArtifacts:
    """A damaged artifact is one ``ValueError`` from ``check_artifact``, and
    the CLI turns a damaged trace into an ``error:`` line and exit 1."""

    @pytest.mark.parametrize("case", sorted(DAMAGED))
    def test_check_artifact_raises(self, case):
        schema, doc, match = DAMAGED[case]
        with pytest.raises(ValueError, match=match):
            check_artifact(json.dumps(doc), schema)

    @pytest.mark.parametrize("command", ["report", "diff", "attribute"])
    @pytest.mark.parametrize(
        "case", sorted(c for c in DAMAGED if c.startswith("trace-"))
    )
    def test_cli_exits_1_with_an_error_line(
        self, tmp_path, capsys, case, command
    ):
        from repro.obs.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(DAMAGED[case][1]))
        extra = ["--predicted", str(bad)] if command == "diff" else []
        assert main([command, str(bad), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:"), err
        assert "Traceback" not in err


RING_MODES = ["unidirectional", "bidirectional"]
WORKLOAD = dict(seq_len=128, hidden=32, n_heads=4)


class TestDiff:
    @pytest.mark.parametrize("ring_mode", RING_MODES)
    def test_quickstart_diff_is_clean(self, tmp_path, ring_mode):
        from repro.obs.report import build_predicted_trace
        from repro.perf.schedules.attention import AttentionWorkload

        engine, spans, _ = traced_step(tmp_path, ring_mode=ring_mode)
        observed = spans_to_chrome_json(spans)
        predicted = build_predicted_trace(
            "burst", engine.topology,
            AttentionWorkload(seq_len=128, hidden=32, n_heads=4),
            ring_mode=ring_mode,
        )
        ok, lines = diff_traces(observed, predicted)
        assert ok, "\n".join(lines)

    @pytest.mark.parametrize("ring_mode", RING_MODES)
    def test_diff_flags_missing_inter_transitions(self, tmp_path, ring_mode):
        from repro.obs.report import build_predicted_trace
        from repro.perf.schedules.attention import AttentionWorkload

        engine, spans, _ = traced_step(tmp_path, ring_mode=ring_mode)
        # Drop the inter-ring transitions: the structure check must fail.
        pruned = [s for s in spans if s.phase != "inter-ring"]
        observed = spans_to_chrome_json(pruned)
        predicted = build_predicted_trace(
            "burst", engine.topology,
            AttentionWorkload(seq_len=128, hidden=32, n_heads=4),
            ring_mode=ring_mode,
        )
        ok, lines = diff_traces(observed, predicted)
        assert not ok, "\n".join(lines)

    def test_diff_flags_missing_reverse_stream(self, tmp_path):
        from repro.obs.report import build_predicted_trace
        from repro.perf.schedules.attention import AttentionWorkload

        engine, spans, _ = traced_step(tmp_path, ring_mode="bidirectional")
        pruned = [
            s for s in spans
            if not (s.name == "ring.transition"
                    and s.attrs.get("direction") == "rev")
        ]
        assert len(pruned) < len(spans)
        predicted = build_predicted_trace(
            "burst", engine.topology, AttentionWorkload(**WORKLOAD),
            ring_mode="bidirectional",
        )
        ok, lines = diff_traces(spans_to_chrome_json(pruned), predicted)
        assert not ok, "\n".join(lines)

    def test_diff_flags_stray_transition_without_ring_schedule(self, tmp_path):
        """Ulysses predicts zero in every cell: a clean trace passes, one
        stray ``ring.transition`` fails."""
        from repro.obs.report import predicted_ring_cells
        from repro.perf.schedules.attention import AttentionWorkload

        engine, spans, _ = traced_step(tmp_path, method="ulysses")
        cells = predicted_ring_cells(
            "ulysses", engine.topology, AttentionWorkload(**WORKLOAD)
        )
        assert not any(
            n for phase in cells.values() for d in phase.values()
            for n in d.values()
        )
        predicted = {
            "traceEvents": [],
            "metadata": {"method": "ulysses", "per_pass_cells": cells},
        }
        ok, lines = diff_traces(spans_to_chrome_json(spans), predicted)
        assert ok, "\n".join(lines)
        stray = Span(
            name="ring.transition", phase="intra-ring", ts=spans[0].ts,
            dur=1e-6, tid=999, depth=0, rank=None,
            attrs={"logical": "attn-fwd"},
        )
        ok, lines = diff_traces(spans_to_chrome_json(spans + [stray]), predicted)
        assert not ok, "\n".join(lines)

    def test_usp_ring_leg_cells_are_the_des_hops(self, tmp_path):
        """USP at ``u = 4`` on 2 x 4 ranks leaves a two-position ring
        across the nodes: the predicted cells count the DES's own hops —
        one inter transition per pass, plus the inter return hop on the
        backward — and a traced step replicates them once per layer; one
        stray transition fails."""
        from repro.obs.report import build_predicted_trace
        from repro.perf.schedules.attention import AttentionWorkload

        engine, spans, _ = traced_step(
            tmp_path, method="usp", ulysses_degree=4
        )
        predicted = build_predicted_trace(
            "usp", engine.topology, AttentionWorkload(**WORKLOAD)
        )
        none = {"intra": 0, "inter": 0}
        assert predicted["metadata"]["per_pass_cells"] == {
            "attn-fwd": {"fwd": {"intra": 0, "inter": 1}, "rev": none},
            "attn-bwd": {"fwd": {"intra": 0, "inter": 2}, "rev": none},
        }
        ok, lines = diff_traces(spans_to_chrome_json(spans), predicted)
        assert ok, "\n".join(lines)
        assert "attn-bwd   fwd intra=0 inter=4" in "\n".join(lines)
        stray = Span(
            name="ring.transition", phase="inter-ring", ts=spans[0].ts,
            dur=1e-6, tid=999, depth=0, rank=None,
            attrs={"logical": "attn-bwd"},
        )
        ok, lines = diff_traces(spans_to_chrome_json(spans + [stray]), predicted)
        assert not ok, "\n".join(lines)

    @pytest.mark.parametrize("ring_mode", RING_MODES)
    @pytest.mark.parametrize(
        "method", ["burst", "megatron-cp", "loongtrain-double"]
    )
    def test_predicted_makespan_is_fwd_plus_bwd_pass_time(
        self, method, ring_mode
    ):
        """The predicted trace and the figures price one graph, so the
        trace's makespan is exactly the fwd + bwd ``attention_pass_time``
        — backward return hop included."""
        from repro.obs.report import build_predicted_trace
        from repro.perf.schedules.attention import (
            AttentionWorkload,
            attention_pass_time,
        )

        topology = make_cluster(8, node=a800_node(gpus_per_node=4))
        wl = AttentionWorkload(**WORKLOAD)
        predicted = build_predicted_trace(
            method, topology, wl, ring_mode=ring_mode
        )
        check_artifact(predicted, "chrome-trace")
        assert predicted["metadata"]["modeled_makespan_s"] == (
            attention_pass_time(method, topology, wl, ring_mode=ring_mode)
            + attention_pass_time(
                method, topology, wl, backward=True, ring_mode=ring_mode
            )
        )
        assert "attn-bwd/return" in {
            e["name"] for e in predicted["traceEvents"]
        }


class TestObsCLI:
    def test_trace_report_diff_round_trip(self, tmp_path):
        out = tmp_path / "obs"
        proc = run_cli("repro.obs", "trace-step", "--out-dir", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = run_cli(
            "repro.obs", "report", str(out / "trace.json"),
            "--metrics", str(out / "metrics.jsonl"),
        )
        assert report.returncode == 0, report.stdout + report.stderr
        assert "time by phase" in report.stdout
        assert "intra" in report.stdout
        diff = run_cli(
            "repro.obs", "diff", str(out / "trace.json"),
            "--predicted", str(out / "predicted.json"),
        )
        assert diff.returncode == 0, diff.stdout + diff.stderr
        assert "schedule diff: OK" in diff.stdout

    def test_report_rejects_garbage_trace(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": "nope"}')
        proc = run_cli("repro.obs", "report", str(bad))
        assert proc.returncode == 1
        assert "invalid trace" in proc.stderr

    def test_diff_rejects_garbage_predicted(self, tmp_path):
        """The predicted file comes from outside too: a clean ``error:``
        and exit 1, never a traceback."""
        out = tmp_path / "obs"
        proc = run_cli("repro.obs", "trace-step", "--out-dir", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        proc = run_cli(
            "repro.obs", "diff", str(out / "trace.json"),
            "--predicted", str(bad),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

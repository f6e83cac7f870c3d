"""Cross-rank causal tracing, critical-path attribution, post-mortems.

The attribution tests run *real* traced training steps per method and
ring mode, so the conservation gate (compute + exposed comm + overlapped
+ idle == step wall, per rank, to 1e-9 relative) is exercised against
every instrumented row, and the exposed-comm pins are checked against the
same DES graphs and closed forms the predictions come from.  Adversarial
tests feed the validators damaged artifacts — dangling flow ids,
overlapping same-track spans, truncated post-mortem bundles — and require
a loud ``ValueError``, never a silent pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.comm import FailureDetector
from repro.engine import BurstEngine, EngineConfig
from repro.engine.trainer import Trainer
from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy
from repro.nn.modules import TransformerConfig
from repro.obs import (
    FlightRecorder,
    attribute_steps,
    attribute_trace,
    check_conservation,
    critical_spans,
    derive_flows,
    flow_key,
    get_active_recorder,
    notify_failure,
    spans_to_chrome_json,
    straggler_ranking,
    check_artifact,
    use_tracing,
)
from repro.obs.critical import step_windows
from repro.obs.tracer import Span
from repro.testing import StragglerRankComm
from repro.topology import a800_node, make_cluster

REPO = Path(__file__).resolve().parents[1]

#: Every engine-supported attribution cell: ring-family methods in both
#: circulation modes, plus the all-to-all method (bucket attribution only).
CELLS = [
    ("burst", "unidirectional"),
    ("burst", "bidirectional"),
    ("megatron-cp", "unidirectional"),
    ("megatron-cp", "bidirectional"),
    ("ulysses", "unidirectional"),
]

#: Cells where the exposed-comm pin (DES replay + closed forms) must hold.
PINNED_CELLS = [c for c in CELLS if c[0] != "ulysses"]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=600,
    )


def _traced_payload(method: str, ring_mode: str, comm=None) -> dict:
    """One traced training step as a parsed Chrome-trace payload.

    Ulysses needs ``heads % world == 0`` so it runs on 4 GPUs; the ring
    methods use the quickstart shape (8 GPUs over 2 nodes).
    """
    gpus = 4 if method == "ulysses" else 8
    topology = make_cluster(gpus, node=a800_node(gpus_per_node=4))
    config = EngineConfig(
        model=TransformerConfig(
            vocab_size=128, dim=32, n_layers=2, n_heads=4,
            ffn_hidden=64, max_seq_len=128, attn_block_size=32,
        ),
        method=method,
        method_kwargs=(
            {"ring_mode": ring_mode} if ring_mode != "unidirectional" else {}
        ),
        checkpoint=CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.5),
        head_impl="fused",
    )
    if comm is not None:
        engine = BurstEngine(config, comm=comm)
    else:
        engine = BurstEngine(config, topology=topology)
    rng = np.random.default_rng(0)
    batch = (rng.integers(0, 128, 128), rng.integers(0, 128, 128))
    trainer = Trainer(engine=engine)
    with use_tracing() as tracer:
        trainer.fit([batch], steps=1)
    return json.loads(spans_to_chrome_json(
        tracer.spans(),
        metadata={
            "method": method, "world_size": gpus, "gpus_per_node": 4,
            "seq_len": 128, "hidden": 32, "n_heads": 4,
            "steps": 1, "ring_mode": ring_mode,
        },
    ))


_PAYLOADS: dict[tuple[str, str], dict] = {}


def traced_payload(method: str, ring_mode: str) -> dict:
    key = (method, ring_mode)
    if key not in _PAYLOADS:
        _PAYLOADS[key] = _traced_payload(method, ring_mode)
    return _PAYLOADS[key]


def _span(name, phase, ts, dur, *, tid=0, rank=None, **attrs):
    return Span(name=name, phase=phase, ts=ts, dur=dur, tid=tid, depth=0,
                rank=rank, attrs=attrs)


class TestFlowEvents:
    def test_flow_key_shape(self):
        assert flow_key("attn-fwd", "kv", "rev") == "attn-fwd|kv|rev"

    def test_chains_by_key_in_call_order(self):
        spans = [
            _span("comm.ring_shift", "comm", 0.0, 1e-6,
                  logical="attn-fwd", tag="kv", channel="fwd", call=1),
            _span("comm.ring_shift", "comm", 2e-6, 1e-6,
                  logical="attn-fwd", tag="kv", channel="fwd", call=3),
            # different channel => separate chain, no edge to the above
            _span("comm.exchange", "comm", 1e-6, 1e-6,
                  logical="attn-fwd", tag="kv", channel="rev", call=2),
            # non-comm span: never a flow endpoint
            _span("flash.fwd", "compute", 0.0, 1e-6),
        ]
        edges = derive_flows(spans)
        assert [(e.src, e.dst) for e in edges] == [(0, 1)]
        assert edges[0].key == "attn-fwd|kv|fwd"

    def test_real_trace_flow_events_validate(self):
        payload = traced_payload("burst", "unidirectional")
        flows = [e for e in payload["traceEvents"] if e.get("ph") in ("s", "f")]
        assert flows, "traced step produced no flow events"
        check_artifact(payload, "chrome-trace")
        starts = sorted(e["id"] for e in flows if e["ph"] == "s")
        assert starts == sorted(e["id"] for e in flows if e["ph"] == "f")
        assert len(starts) == len(set(starts)) == len(flows) // 2

    @staticmethod
    def _trace(*flows):
        """A one-span trace carrying ``flows``."""
        span = {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0,
                "pid": 2, "tid": 1}
        return {"traceEvents": [span, *flows]}

    def test_dangling_start_rejected(self):
        ev = {"name": "dep", "ph": "s", "id": 7, "ts": 1.0, "pid": 2, "tid": 1}
        with pytest.raises(ValueError, match="dangling"):
            check_artifact(self._trace(ev), "chrome-trace")

    def test_duplicate_id_rejected(self):
        s = {"name": "dep", "ph": "s", "id": 1, "ts": 1.0, "pid": 2, "tid": 1}
        f = {"name": "dep", "ph": "f", "id": 1, "ts": 2.0, "pid": 2, "tid": 1}
        with pytest.raises(ValueError, match="duplicate"):
            check_artifact(self._trace(s, dict(s), f), "chrome-trace")

    def test_backwards_flow_rejected(self):
        s = {"name": "dep", "ph": "s", "id": 1, "ts": 5.0, "pid": 2, "tid": 1}
        f = {"name": "dep", "ph": "f", "id": 1, "ts": 1.0, "pid": 2, "tid": 1}
        with pytest.raises(ValueError, match="backwards"):
            check_artifact(self._trace(s, f), "chrome-trace")

    def test_missing_field_rejected(self):
        s = {"name": "dep", "ph": "s", "id": 1, "ts": 1.0, "pid": 2}
        with pytest.raises(ValueError, match="missing"):
            check_artifact(self._trace(s), "chrome-trace")


class TestAttributionBuckets:
    def _synthetic(self):
        spans = [
            _span("train.step", "step", 0.0, 100e-6, step=0),
            _span("mlp", "compute", 0.0, 50e-6, tid=1),
            _span("comm.ring_shift", "comm", 40e-6, 30e-6, tid=2),
        ]
        return json.loads(spans_to_chrome_json(spans))

    def test_hand_computed_buckets(self):
        steps = attribute_steps(self._synthetic())
        assert len(steps) == 1
        b = steps[0]["ranks"]["all"]
        assert b["compute_us"] == pytest.approx(40.0)
        assert b["overlapped_us"] == pytest.approx(10.0)
        assert b["comm_exposed_us"] == pytest.approx(20.0)
        assert b["idle_us"] == pytest.approx(30.0)

    def test_step_windows_sorted_by_time(self):
        spans = [
            _span("train.step", "step", 5e-6, 1e-6, step=1),
            _span("train.step", "step", 0.0, 1e-6, step=0),
        ]
        windows = step_windows(json.loads(spans_to_chrome_json(spans)))
        assert [w[0] for w in windows] == [0, 1]

    def test_out_of_order_events_attribute_identically(self):
        payload = self._synthetic()
        shuffled = dict(payload)
        shuffled["traceEvents"] = list(reversed(payload["traceEvents"]))
        assert attribute_steps(shuffled) == attribute_steps(payload)

    def test_rank_scoped_span_charges_one_rank(self):
        spans = [
            _span("train.step", "step", 0.0, 100e-6, step=0),
            _span("wait", "comm", 0.0, 100e-6, tid=2, rank=1),
        ]
        payload = json.loads(spans_to_chrome_json(spans))
        payload["metadata"] = {"world_size": 2}
        ranks = attribute_steps(payload)[0]["ranks"]
        assert ranks["1"]["comm_exposed_us"] == pytest.approx(100.0)
        assert ranks["0"]["comm_exposed_us"] == 0.0
        assert ranks["0"]["idle_us"] == pytest.approx(100.0)

    @pytest.mark.parametrize("method,ring_mode", CELLS)
    def test_conservation_on_real_step(self, method, ring_mode):
        payload = traced_payload(method, ring_mode)
        steps = attribute_steps(payload)
        assert steps, "no train.step window in trace"
        world = payload["metadata"]["world_size"]
        assert set(steps[0]["ranks"]) == {str(r) for r in range(world)}
        ok, max_err = check_conservation(steps)
        assert ok, f"buckets leak wall time: max rel err {max_err}"

    def test_overlapping_same_tid_spans_rejected(self):
        # Partial overlap on one track is neither nested nor disjoint.
        payload = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 2, "tid": 1},
            {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 2, "tid": 1},
        ]}
        with pytest.raises(ValueError, match="overlaps"):
            check_artifact(payload, "chrome-trace")


class TestExposedCommPins:
    @pytest.mark.parametrize("method,ring_mode", PINNED_CELLS)
    def test_pins_hold_on_healthy_run(self, method, ring_mode):
        doc = attribute_trace(traced_payload(method, ring_mode))
        check_artifact(doc, "obs-attribution/v1")
        assert doc["conservation_ok"]
        assert doc["straggler_ok"]
        for logical in ("attn-fwd", "attn-bwd"):
            pin = doc["pins"][logical]
            assert pin.get("error") is None, pin
            assert pin["frac_ok"], pin
            assert pin["closed_form_ok"], pin
        assert doc["ok"]

    @pytest.mark.parametrize("method,ring_mode", PINNED_CELLS)
    def test_unidirectional_closed_form_is_near_exact(self, method, ring_mode):
        """The closed form prices the bundle that ran (Alg. 2: one D and
        one Lse row per head), so replay and closed form agree to float
        rounding on both passes; the 5 % tolerance is for the
        exposed-fraction pin only."""
        if ring_mode != "unidirectional":
            pytest.skip("closed forms are unidirectional-only")
        doc = attribute_trace(traced_payload(method, ring_mode))
        assert set(doc["pins"]) == {"attn-fwd", "attn-bwd"}
        for pin in doc["pins"].values():
            assert pin["replay_comm_s"] == pytest.approx(
                pin["closed_form_comm_s"], rel=1e-9
            )

    def test_ulysses_skips_pin_but_attributes(self):
        doc = attribute_trace(traced_payload("ulysses", "unidirectional"))
        assert doc["pins"] == {}
        assert "no ring-family DES pass graph" in doc["pin_skipped"]
        assert doc["pin_ok"] and doc["ok"]

    def test_missing_metadata_skips_pin(self):
        payload = dict(traced_payload("burst", "unidirectional"))
        payload["metadata"] = {"method": "burst"}
        doc = attribute_trace(payload)
        assert doc["pins"] == {}
        assert "metadata missing" in doc["pin_skipped"]


class TestStragglerAttribution:
    @pytest.fixture(scope="class")
    def straggler_payload(self):
        topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        comm = FailureDetector(
            StragglerRankComm(topo, rank=1, at_step=0, at_call=1)
        )
        return _traced_payload("burst", "unidirectional", comm=comm)

    def test_straggler_ranking_names_victim(self, straggler_payload):
        ranking = straggler_ranking(straggler_payload)
        assert ranking and ranking[0]["rank"] == 1
        assert ranking[0]["stall_s"] > 0
        assert ranking[0]["extensions"] >= 1

    def test_straggler_fails_overall_gate(self, straggler_payload):
        doc = attribute_trace(straggler_payload)
        # Buckets and pins still hold (stall-adjusted); the straggler
        # check is what fails the document.
        assert doc["conservation_ok"]
        assert not doc["straggler_ok"]
        assert not doc["ok"]

    def test_critical_spans_lead_with_sim_waits(self, straggler_payload):
        top = critical_spans(straggler_payload, k=3)
        assert top[0]["kind"] == "sim-wait"
        assert top[0]["rank"] == 1

    def test_attribute_cli_exits_nonzero_naming_rank(
        self, straggler_payload, tmp_path
    ):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(straggler_payload))
        proc = run_cli("repro.obs", "attribute", str(trace))
        assert proc.returncode != 0
        assert "rank 1" in proc.stdout
        assert "attribution: FAIL" in proc.stdout


    def test_comm_and_lease_spans_carry_what_flow_and_critical_read(
        self, straggler_payload
    ):
        events = [
            e for e in straggler_payload["traceEvents"] if e.get("ph") == "X"
        ]
        assert {"lease.extend", "lease.wait"} <= {e["name"] for e in events}
        comm = [e for e in events if e["name"].startswith("comm.")]
        assert comm
        for e in comm:
            assert {"logical", "tag", "op", "channel", "call", "transfers",
                    "nbytes"} <= set(e["args"])
            assert e["name"] == "comm." + e["args"]["op"]
        calls = [e["args"]["call"] for e in sorted(comm, key=lambda e: e["ts"])]
        assert calls == sorted(calls) and len(set(calls)) == len(calls)

    def test_stage_spans_nest_in_chain_order(self):
        from repro.comm import RankFailure
        from repro.resilience import ResilientCommunicator
        from repro.testing import CrashRankComm

        topo = make_cluster(4, node=a800_node(gpus_per_node=4))
        comm = ResilientCommunicator(
            FailureDetector(CrashRankComm(topo, rank=1, at_call=2))
        )
        bufs = [np.zeros(2) for _ in range(4)]
        with use_tracing() as tracer:
            comm.ring_shift(bufs, [0, 1, 2, 3], phase="p", reverse=True)
            with pytest.raises(RankFailure):
                comm.exchange(bufs, [1, 0, 3, 2], phase="p")
        spans = sorted(tracer.spans(), key=lambda s: (s.ts, s.depth))
        assert [(s.name, s.depth) for s in spans] == [
            ("resilient.ring_shift", 0), ("comm.ring_shift", 1),
            ("resilient.exchange", 0), ("comm.exchange", 1),
            ("failure.detect", 1),
        ]
        assert spans[1].attrs["channel"] == "rev"
        assert spans[4].rank == 1 and spans[4].attrs["call"] == 2


class TestFlightRecorder:
    def test_capacity_ring(self):
        rec = FlightRecorder(capacity=2)
        for i in range(5):
            rec(_span(f"s{i}", "compute", float(i), 1.0))
        assert [s.name for s in rec.spans()] == ["s3", "s4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_notify_without_recorder_is_noop(self):
        assert get_active_recorder() is None
        assert notify_failure({"kind": "crash"}) is None

    def test_survives_tracer_restarts(self, tmp_path):
        with FlightRecorder(capacity=16, out_dir=str(tmp_path)) as rec:
            with use_tracing():
                from repro.obs import trace_span
                with trace_span("first", phase="compute"):
                    pass
            with use_tracing():
                from repro.obs import trace_span
                with trace_span("second", phase="compute"):
                    pass
            names = {s.name for s in rec.spans()}
        assert {"first", "second"} <= names
        assert get_active_recorder() is None

    def test_dump_roundtrips_validation(self, tmp_path):
        rec = FlightRecorder(capacity=8, out_dir=str(tmp_path), prefix="t-")
        rec(_span("work", "compute", 0.0, 1e-6))
        path = rec.dump(reason={"kind": "test", "rank": 0})
        bundle = check_artifact(Path(path).read_text(), "postmortem/v1")
        assert bundle["n_spans"] == 1
        assert bundle["reason"]["kind"] == "test"
        assert bundle["capacity"] == 8

    def test_truncated_dump_rejected(self, tmp_path):
        rec = FlightRecorder(capacity=8, out_dir=str(tmp_path))
        rec(_span("work", "compute", 0.0, 1e-6))
        path = rec.dump(reason={"kind": "test"})
        text = Path(path).read_text()
        with pytest.raises(ValueError, match="truncated or corrupt"):
            check_artifact(text[: len(text) // 2], "postmortem/v1")

    def test_reason_must_name_kind(self, tmp_path):
        rec = FlightRecorder(capacity=8, out_dir=str(tmp_path))
        path = rec.dump(reason={"kind": "x"})
        bundle = json.loads(Path(path).read_text())
        bundle["reason"] = {}
        with pytest.raises(ValueError, match="kind"):
            check_artifact(bundle, "postmortem/v1")

    def test_span_count_mismatch_rejected(self, tmp_path):
        rec = FlightRecorder(capacity=8, out_dir=str(tmp_path))
        rec(_span("work", "compute", 0.0, 1e-6))
        path = rec.dump(reason={"kind": "x"})
        bundle = json.loads(Path(path).read_text())
        bundle["n_spans"] = 99
        with pytest.raises(ValueError, match="n_spans"):
            check_artifact(bundle, "postmortem/v1")


class TestChaosPostmortem:
    def test_crash_cell_emits_valid_bundle(self, tmp_path):
        from repro.resilience.chaos import run_rank_fault_scenario

        result = run_rank_fault_scenario(
            "crash", "burst", postmortem_dir=str(tmp_path)
        )
        assert result.postmortem is not None
        assert result.postmortem_ok
        assert result.ok, result.summary()
        bundle = check_artifact(
            Path(result.postmortem).read_text(), "postmortem/v1"
        )
        assert bundle["reason"]["rank"] == 1
        assert bundle["lease"] is not None
        assert bundle["lease"]["config"]["max_extensions"] is not None
        # The critical path must name the dead rank.
        assert any(e.get("rank") == 1 for e in bundle["critical_path"])
        assert "postmortem=valid" in result.summary()

    def test_scenario_without_dir_skips_recording(self):
        from repro.resilience.chaos import run_rank_fault_scenario

        result = run_rank_fault_scenario("crash", "burst")
        assert result.postmortem is None
        assert result.postmortem_ok
        assert result.ok


class TestJsonCli:
    @pytest.fixture(scope="class")
    def traced_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs-cli")
        proc = run_cli(
            "repro.obs", "trace-step", "--out-dir", str(out), "--seq", "128"
        )
        assert proc.returncode == 0, proc.stderr
        return out

    def test_report_json_validates(self, traced_dir):
        proc = run_cli(
            "repro.obs", "report", str(traced_dir / "trace.json"),
            "--metrics", str(traced_dir / "metrics.jsonl"), "--json",
        )
        assert proc.returncode == 0, proc.stderr
        doc = check_artifact(proc.stdout, "obs-report/v1")
        assert doc["schema"] == "obs-report/v1"
        assert doc["spans"] > 0
        assert doc["metrics"] is not None

    def test_report_json_critical_embeds_attribution(self, traced_dir):
        proc = run_cli(
            "repro.obs", "report", str(traced_dir / "trace.json"),
            "--json", "--critical",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["attribution"]["steps"]
        assert doc["attribution"]["stragglers"] == []

    def test_report_critical_text(self, traced_dir):
        proc = run_cli(
            "repro.obs", "report", str(traced_dir / "trace.json"), "--critical"
        )
        assert proc.returncode == 0, proc.stderr
        assert "critical-path attribution" in proc.stdout
        assert "conservation: OK" in proc.stdout

    def test_diff_json_validates(self, traced_dir):
        proc = run_cli(
            "repro.obs", "diff", str(traced_dir / "trace.json"),
            "--predicted", str(traced_dir / "predicted.json"), "--json",
        )
        assert proc.returncode == 0, proc.stderr
        doc = check_artifact(proc.stdout, "obs-diff/v1")
        assert doc["ok"] is True
        assert doc["lines"]

    def test_attribute_cli_writes_validated_json(self, traced_dir, tmp_path):
        out = tmp_path / "attribution.json"
        proc = run_cli(
            "repro.obs", "attribute", str(traced_dir / "trace.json"),
            "--json", str(out),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = check_artifact(out.read_text(), "obs-attribution/v1")
        assert doc["ok"] is True
        assert doc["pins"]["attn-fwd"]["closed_form_ok"]

    def test_chaos_cli_postmortem_dir_requires_rank_faults(self):
        proc = run_cli(
            "repro.resilience.chaos", "--postmortem-dir", "/tmp/x"
        )
        assert proc.returncode != 0
        assert "--rank-faults" in proc.stderr

"""Memory observability: timelines, attribution, the memdiff gate, budgets.

The pin tests run *real* training steps on the quickstart model and
require the observed peak saved bytes to equal the closed forms of
:mod:`repro.perf.memory` **byte-for-byte** per method × checkpoint
policy — the same gate ``python -m repro.obs memdiff`` enforces in CI.
Adversarial tests feed ``check_artifact`` damaged artifacts — truncated
timelines, negative watermarks, counter samples outside their step span,
tampered oom bundles — and require a loud ``ValueError``.
"""

import json
import subprocess
import sys
import threading

import pytest

from repro.nn.memory import (
    MemoryTracker,
    ReleaseError,
    get_tracker,
    reset_tracker,
    set_strict_release,
)
from repro.obs import (
    FlightRecorder,
    MemEvent,
    MemoryBudget,
    MemoryBudgetExceeded,
    check_artifact,
    dump_oom_postmortem,
    get_registry,
    leak_report,
    memory_scope,
    peak_attribution,
    spans_to_chrome_json,
    timeline_json,
    transient_scope,
    use_memory_budget,
    use_memory_timeline,
)
from repro.obs.__main__ import (
    _memdiff_cell,
    _quickstart,
    _site_peak,
    _traced_fit,
)
from repro.obs.metrics import MetricsRegistry
from repro.perf.memory import (
    predict_checkpoint_policy_curve,
    predict_step_peak_saved_bytes,
    swiglu_chunked_transient_bytes,
)

# ---------------------------------------------------------------------------
# tracker thread-safety + strict release (the two fixed bugs)
# ---------------------------------------------------------------------------


def test_tracker_concurrent_register_release():
    """Concurrent register/release must not tear the watermark gauges."""
    tracker = MemoryTracker(registry=MetricsRegistry())
    n_threads, n_ops, nbytes = 8, 400, 1024
    errors = []

    def worker():
        try:
            handles = [tracker.register(nbytes) for _ in range(n_ops)]
            for h in handles:
                tracker.release(h)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert tracker.current_saved_bytes == 0
    assert tracker.live_handles == 0
    # peak is at least one thread's full working set, at most all of them
    assert n_ops * nbytes <= tracker.peak_saved_bytes <= n_threads * n_ops * nbytes
    assert tracker._release_errors.value() == 0


def test_double_release_raises_under_strict():
    tracker = MemoryTracker(registry=MetricsRegistry())
    handle = tracker.register(100)
    tracker.release(handle)
    with pytest.raises(ReleaseError):
        tracker.release(handle)
    assert tracker._release_errors.value() == 1


def test_release_errors_counted_not_raised_in_production():
    tracker = MemoryTracker(registry=MetricsRegistry())
    prev = set_strict_release(False)
    try:
        tracker.release(12345)  # never issued: counted, not raised
        tracker.release(12345)
    finally:
        set_strict_release(prev)
    assert tracker._release_errors.value() == 2
    assert tracker.current_saved_bytes == 0


def test_stale_handle_after_reset_is_legal_teardown():
    """Releasing a handle orphaned by reset() must stay silent even strict."""
    tracker = MemoryTracker(registry=MetricsRegistry())
    handle = tracker.register(100)
    tracker.reset()
    tracker.release(handle)  # must not raise, must not count
    assert tracker._release_errors.value() == 0
    new = tracker.register(50)
    tracker.release(new)
    with pytest.raises(ReleaseError):
        tracker.release(new)  # post-reset handles are strict again


# ---------------------------------------------------------------------------
# timelines: recording, replay validation, truncation, attribution scopes
# ---------------------------------------------------------------------------


def test_timeline_records_and_validates():
    tracker = MemoryTracker(registry=MetricsRegistry())
    with use_memory_timeline() as timeline:
        a = tracker.register(1000, site="x")
        b = tracker.register(500, site="y")
        tracker.release(a)
        tracker.release(b)
    events = timeline.events()
    assert [e.kind for e in events] == ["alloc", "alloc", "free", "free"]
    assert [e.current for e in events] == [1000, 1500, 500, 0]
    doc = check_artifact(timeline_json(timeline), "memory-timeline/v1")
    assert doc["schema"] == "memory-timeline/v1"
    assert len(doc["events"]) == 4


def test_timeline_truncation_keeps_prefix_replayable():
    tracker = MemoryTracker(registry=MetricsRegistry())
    with use_memory_timeline(capacity=3) as timeline:
        handles = [tracker.register(10) for _ in range(4)]
        for h in handles:
            tracker.release(h)
    assert len(timeline) == 3
    assert timeline.truncated == 5  # 8 events total, 3 retained
    check_artifact(timeline_json(timeline), "memory-timeline/v1")  # prefix still replays


def test_validate_timeline_rejects_damage():
    with pytest.raises(ValueError, match="truncated or corrupt"):
        check_artifact('{"schema": "memory-timeline/v1", "ev', "memory-timeline/v1")
    with pytest.raises(ValueError, match="schema"):
        check_artifact(
            {"schema": "nope/v1", "events": []}, "memory-timeline/v1"
        )
    base = {
        "ts": 0.0, "series": "saved", "kind": "alloc",
        "delta": 100, "current": 100, "handle": 0,
    }
    with pytest.raises(ValueError, match="negative watermark"):
        check_artifact({
            "schema": "memory-timeline/v1",
            "events": [dict(base, delta=-100, current=-100, kind="free")],
        }, "memory-timeline/v1")
    with pytest.raises(ValueError, match="does not replay"):
        check_artifact({
            "schema": "memory-timeline/v1",
            "events": [base, dict(base, handle=1, current=150)],
        }, "memory-timeline/v1")


def test_memory_scope_attribution_innermost_wins():
    tracker = MemoryTracker(registry=MetricsRegistry())
    with use_memory_timeline() as timeline:
        with memory_scope(layer=3, method="burst"):
            with memory_scope(layer=7):
                tracker.register(100, site="inner")
            tracker.register(100, site="outer")
    inner, outer = timeline.events()
    assert inner.owner["layer"] == 7
    assert inner.owner["method"] == "burst"
    assert inner.owner["mem_phase"] == "fwd"  # default phase
    assert outer.owner["layer"] == 3


def test_peak_attribution_and_leak_report_synthetic():
    events = [
        MemEvent(0.0, "saved", "alloc", 100, 100, 0, "a", {"layer": 0}),
        MemEvent(1.0, "saved", "alloc", 900, 1000, 1, "b",
                 {"layer": 1, "span": "attn.recompute"}),
        MemEvent(2.0, "saved", "free", -900, 100, 1, "b", {}),
    ]
    attr = peak_attribution(events)
    assert attr["peak_bytes"] == 1000
    assert attr["span"] == "attn.recompute"
    assert attr["owner"]["layer"] == 1
    assert attr["live_allocations"] == 2
    assert attr["top"][0]["site"] == "b"
    leaks = leak_report(events)
    assert len(leaks) == 1 and leaks[0]["site"] == "a"


# ---------------------------------------------------------------------------
# Chrome counter tracks ("ph": "C") and their strict validation
# ---------------------------------------------------------------------------


def _step_span(**args):
    return {"name": "train.step", "ph": "X", "ts": 0.0, "dur": 100.0,
            "pid": 2, "tid": 1, "args": args}


def test_counter_events_validate_inside_step_span():
    doc = {"traceEvents": [
        _step_span(step=0),
        {"name": "memory.saved_bytes", "ph": "C", "ts": 50.0,
         "pid": 2, "tid": 0, "args": {"bytes": 1024, "step": 0}},
    ]}
    check_artifact(doc, "chrome-trace")


def test_counter_sample_outside_step_span_rejected():
    doc = {"traceEvents": [
        _step_span(step=0),
        {"name": "memory.saved_bytes", "ph": "C", "ts": 500.0,
         "pid": 2, "tid": 0, "args": {"bytes": 1024, "step": 0}},
    ]}
    with pytest.raises(ValueError, match="outside its step-0 span"):
        check_artifact(doc, "chrome-trace")


def test_negative_counter_sample_rejected():
    doc = {"traceEvents": [
        _step_span(step=0),
        {"name": "memory.saved_bytes", "ph": "C", "ts": 50.0,
         "pid": 2, "tid": 0, "args": {"bytes": -5}},
    ]}
    with pytest.raises(ValueError, match="negative counter sample"):
        check_artifact(doc, "chrome-trace")


def test_counter_event_needs_numeric_args():
    for bad_args in ({}, {"bytes": "many"}):
        doc = {"traceEvents": [
            _step_span(step=0),
            {"name": "memory.saved_bytes", "ph": "C", "ts": 50.0,
             "pid": 2, "tid": 0, "args": bad_args},
        ]}
        with pytest.raises(ValueError, match="numeric args"):
            check_artifact(doc, "chrome-trace")
    doc = {"traceEvents": [
        _step_span(step=0),
        {"name": "memory.saved_bytes", "ph": "C", "ts": 50.0,
         "pid": 2, "tid": 0},
    ]}
    with pytest.raises(ValueError, match=r"missing keys: \['args'\]"):
        check_artifact(doc, "chrome-trace")


# ---------------------------------------------------------------------------
# the gate: observed peaks == closed forms, byte for byte
# ---------------------------------------------------------------------------

QUICKSTART = dict(seq_len=128, dim=32, n_layers=2, n_heads=4,
                  ffn_hidden=64, vocab=128, head_impl="fused")


#: (method, policy) -> observed == predicted peak saved bytes.  The ids
#: name the cell only, so a declared saved-set change moves a pin without
#: renaming its test.  Every layer is one node that keeps ``x`` and the
#: policy's back rows of ``(O, lse)`` (a ring-family method: it rebuilds
#: q, k and v) or, on Ulysses, ``O`` and its head-layout context under
#: ``none`` and only ``x`` otherwise; its backward registers the rows it
#: rebuilds.  No weights (parameters) and no norm row, ``h`` or FFN
#: intermediate (rebuilt) are registered.  The ring-family cells peak at
#: the forward's end (``none`` and ``selective_pp`` alike: both keep every
#: row); the replaying Ulysses cell peaks in its last layer's rebuild.
#: The forward's end adds the head node's gradients, the final norm
#: folded in (no ``RMSNormFn`` registers).
PEAK_PINS = {
    ("burst", "none"): 205_056,
    ("burst", "full"): 131_328,
    ("burst", "selective_pp"): 205_056,
    ("burst", "sequence_level"): 168_192,
    ("megatron-cp", "full"): 131_328,
    ("ulysses", "none"): 401_664,
    ("ulysses", "sequence_level"): 200_704,
}


@pytest.mark.parametrize(
    "method,policy", list(PEAK_PINS), ids=[f"{m}-{p}" for m, p in PEAK_PINS]
)
def test_observed_peak_matches_closed_form(method, policy):
    expected = PEAK_PINS[(method, policy)]
    cell = _memdiff_cell(method, policy, "unidirectional", 128)
    assert cell["observed"] == expected
    assert cell["predicted"]["peak_saved_bytes"] == expected
    assert not cell["leaks"], "saved series must drain to zero by step end"


def test_peak_owning_span_is_deepest_replay():
    """A peak bound by the backward lands in the last layer's rebuild,
    under the node's ``attn.recompute`` span — the timeline must name it.
    The replaying Ulysses cell is one (its backward rebuilds the whole
    forward, context included); a ring-family cell peaks at the forward's
    end."""
    cell = _memdiff_cell("ulysses", "sequence_level", "unidirectional", 128)
    attr = cell["attribution"]
    assert attr["peak_bytes"] == PEAK_PINS[("ulysses", "sequence_level")]
    assert attr["span"] == "attn.recompute"
    assert attr["owner"]["layer"] == 1
    assert attr["owner"]["mem_phase"] == "recompute"
    assert attr["top"], "top-K live-allocation table must not be empty"
    # the exported trace carries the counter tracks and still validates
    payload = spans_to_chrome_json(
        cell["spans"], memory_events=cell["events"]
    )
    doc = check_artifact(payload, "chrome-trace")
    assert any(e.get("ph") == "C" for e in doc["traceEvents"])


def test_policy_curve_matches_observed():
    predicted = predict_checkpoint_policy_curve(**QUICKSTART)
    for policy, pred in predicted.items():
        cell = _memdiff_cell("burst", policy, "unidirectional", 128)
        assert cell["observed"] == pred, policy


@pytest.mark.parametrize("policy,expected", [
    ("none", 205_056), ("sequence_level", 168_192),
], ids=["none", "sequence_level"])
def test_chunked_mlp_saved_bytes_match_closed_form(policy, expected):
    """The chunked cells save what the dense ones do: every layer's FFN
    keeps nothing — not ``h``, its row or ``norm2(h)``."""
    cell = _memdiff_cell("burst", policy, "unidirectional", 128, chunk=32)
    assert cell["observed"] == expected
    assert cell["predicted"]["peak_saved_bytes"] == expected
    assert cell["predicted"] == predict_step_peak_saved_bytes(
        checkpoint=policy, **QUICKSTART)
    assert expected == PEAK_PINS[("burst", policy)]
    assert not cell["leaks"]


def test_chunked_mlp_transient_site_matches_closed_form():
    cell = _memdiff_cell("burst", "sequence_level", "unidirectional", 128,
                         chunk=32)
    assert cell["observed"] == 168_192  # the dense cell's: the FFN keeps nothing
    assert cell["observed"] == cell["predicted"]["peak_saved_bytes"]
    observed = _site_peak(cell["events"], "mlp.chunked_bwd")
    assert observed == swiglu_chunked_transient_bytes(128, 32, 64, 32)
    assert observed == 327_680


@pytest.mark.parametrize("method", ["burst", "ulysses"])
def test_kernel_scratch_drains_by_step_end(method):
    """Every workspace, softmax state and pinned operand a step allocates
    leaves the transient series once its pass or node is done."""
    engine, batch = _quickstart(
        method, "unidirectional", 128, gpus=4 if method == "ulysses" else 8)
    _, _, events = _traced_fit(engine, batch)
    assert any(e.series == "transient" for e in events)
    assert leak_report(events, series="transient") == []
    assert get_registry().gauge("memory.transient_bytes").value() == 0.0


def test_memdiff_cell_counts_unreleased_scratch(monkeypatch):
    """The gate's leak count covers the transient series: a workspace its
    owner never releases is a leak."""
    from repro.kernels import KernelWorkspace

    monkeypatch.setattr(KernelWorkspace, "release", lambda self: None)
    cell = _memdiff_cell("burst", "sequence_level", "unidirectional", 128)
    assert cell["leaks"]
    assert all(leak["site"].startswith("workspace.") for leak in cell["leaks"])


def test_transient_scope_accounting():
    reset_tracker()
    with use_memory_timeline() as timeline:
        with transient_scope(1000, site="test.outer"):
            with transient_scope(500, site="test.inner"):
                pass
    assert _site_peak(timeline.events(), "test.") == 1500
    gauge = get_registry().gauge("memory.transient_bytes")
    assert gauge.value() == 0.0


# ---------------------------------------------------------------------------
# budget watchdog + oom/v1 bundles
# ---------------------------------------------------------------------------


def test_budget_breach_dumps_validated_oom_bundle(tmp_path):
    tracker = MemoryTracker(registry=MetricsRegistry())
    budget = MemoryBudget(limit_bytes=1000)
    breaches = get_registry().counter("memory.budget_breaches").value()
    with FlightRecorder(out_dir=str(tmp_path), prefix="oom-"):
        with use_memory_timeline() as timeline:
            with use_memory_budget(budget):
                tracker.register(800)
                assert not budget.breached
                tracker.register(800)  # 1600 > 1000
                assert budget.breached
                first_bundle = budget.bundle_path
                tracker.register(800)  # one-shot: no second bundle
                assert budget.bundle_path == first_bundle
    assert first_bundle is not None
    with open(first_bundle) as fh:
        doc = check_artifact(fh.read(), "oom/v1")
    assert doc["budget"]["limit_bytes"] == 1000
    assert doc["budget"]["watermark_bytes"] > 1000
    # the bundle snapshots the timeline at breach time: two live allocs
    assert doc["peak_attribution"]["peak_bytes"] == 1600
    assert len(doc["leaks"]) == 2
    assert get_registry().counter("memory.budget_breaches").value() == breaches + 1
    budget.reset()
    assert not budget.breached and budget.bundle_path is None


def test_budget_raise_on_breach():
    tracker = MemoryTracker(registry=MetricsRegistry())
    budget = MemoryBudget(limit_bytes=100, raise_on_breach=True)
    with use_memory_budget(budget):
        with pytest.raises(MemoryBudgetExceeded):
            tracker.register(101)
    assert budget.breached
    assert budget.bundle_path is None  # no recorder installed


def test_trainer_memory_budget_integration():
    """Trainer(memory_budget=...) aborts the step on breach.  The budget is
    the step's closed-form saved peak: the scratch live beside it is what
    breaches."""
    import numpy as np

    from repro.engine import BurstEngine, EngineConfig
    from repro.engine.trainer import Trainer
    from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy
    from repro.nn.modules import TransformerConfig
    from repro.topology import a800_node, make_cluster

    config = EngineConfig(
        model=TransformerConfig(
            vocab_size=128, dim=32, n_layers=2, n_heads=4, ffn_hidden=64,
            max_seq_len=128, attn_block_size=32,
        ),
        method="burst",
        checkpoint=CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.5),
        head_impl="fused",
    )
    engine = BurstEngine(config, make_cluster(8, node=a800_node(gpus_per_node=4)))
    rng = np.random.default_rng(0)
    batch = (rng.integers(0, 128, 128), rng.integers(0, 128, 128))
    limit = predict_step_peak_saved_bytes(
        seq_len=128, dim=32, n_layers=2, n_heads=4, ffn_hidden=64, vocab=128,
    )["peak_saved_bytes"]
    assert limit == 168_192
    budget = MemoryBudget(limit_bytes=limit, raise_on_breach=True)
    trainer = Trainer(engine=engine, memory_budget=budget)
    with pytest.raises(MemoryBudgetExceeded):
        trainer.fit([batch], steps=1)
    assert budget.watermark_bytes > limit


def test_oom_bundle_validation_rejects_tampering(tmp_path):
    with FlightRecorder(out_dir=str(tmp_path)):
        path = dump_oom_postmortem(
            reason={"kind": "test", "watermark_bytes": 2000},
        )
    with open(path) as fh:
        doc = json.load(fh)
    check_artifact(dict(doc), "oom/v1")
    bad = dict(doc)
    bad["budget"] = dict(doc["budget"], limit_bytes=5000, watermark_bytes=100)
    with pytest.raises(ValueError, match="watermark"):
        check_artifact(bad, "oom/v1")
    bad = {k: v for k, v in doc.items() if k != "budget"}
    with pytest.raises(ValueError, match="budget"):
        check_artifact(bad, "oom/v1")
    with pytest.raises(ValueError, match="schema"):
        check_artifact(dict(doc, schema="postmortem/v1"), "oom/v1")


def test_validate_memdiff_rejects_damage():
    cell = {
        "method": "burst", "policy": "full", "observed_peak_bytes": 1,
        "predicted_peak_bytes": 1, "match": True, "peak_span": "x",
        "leaks": 0,
    }
    good = {"schema": "obs-memdiff/v1", "cells": [cell], "curve": {},
            "transient": {}, "ok": True}
    check_artifact(good, "obs-memdiff/v1")
    with pytest.raises(ValueError, match="schema"):
        check_artifact(dict(good, schema="nope"), "obs-memdiff/v1")
    with pytest.raises(ValueError, match="no cells"):
        check_artifact(dict(good, cells=[]), "obs-memdiff/v1")
    with pytest.raises(ValueError, match="missing keys"):
        check_artifact(
            dict(good, cells=[{k: v for k, v in cell.items() if k != "leaks"}]),
            "obs-memdiff/v1",
        )
    with pytest.raises(ValueError, match="claims match"):
        check_artifact(
            dict(good, cells=[dict(cell, observed_peak_bytes=2)]),
            "obs-memdiff/v1",
        )


# ---------------------------------------------------------------------------
# CLI: the gate itself
# ---------------------------------------------------------------------------


def _run_memdiff(tmp_path, *extra):
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", "memdiff",
         "--out-dir", str(tmp_path), *extra],
        capture_output=True, text=True,
    )


def test_cli_memdiff_gate_passes(tmp_path):
    proc = _run_memdiff(tmp_path, "--policies", "sequence_level")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(tmp_path / "memdiff.json") as fh:
        doc = check_artifact(json.load(fh), "obs-memdiff/v1")
    assert doc["ok"]
    assert {c["method"] for c in doc["cells"]} == {
        "burst", "megatron-cp", "ulysses"
    }
    assert all(c["match"] and c["leaks"] == 0 for c in doc["cells"])
    assert {(c["policy"], c["mlp_chunk_size"]) for c in doc["cells"]} == {
        ("sequence_level", None), ("none", 32), ("sequence_level", 32),
    }
    assert doc["transient"]["match"]
    with open(tmp_path / "memory-timeline.json") as fh:
        check_artifact(fh.read(), "memory-timeline/v1")


def test_cli_memdiff_runs_each_cell_once(tmp_path, monkeypatch):
    """The checkpoint curve reads the grid's dense-FFN burst cells: with
    every policy in ``--policies`` the 12 grid cells and the 2 chunked
    ones are all the traced steps a run takes (the curve used to re-run
    4 of them), and each runs once."""
    import repro.obs.__main__ as cli

    calls = []
    run = cli._memdiff_cell

    def counted(*args, **kwargs):
        calls.append((args, tuple(sorted(kwargs.items()))))
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "_memdiff_cell", counted)
    assert cli.main([
        "memdiff", "--out-dir", str(tmp_path),
        "--policies", "none,full,selective_pp,sequence_level",
    ]) == 0
    assert len(calls) == 14
    assert len(set(calls)) == len(calls)
    doc = json.loads((tmp_path / "memdiff.json").read_text())
    assert list(doc["curve"]) == ["none", "full", "selective_pp",
                                  "sequence_level"]


@pytest.mark.parametrize("policies", ["", "bogus"])
def test_cli_memdiff_rejects_bad_policies_before_any_step(
    tmp_path, capsys, policies
):
    """An empty or unknown ``--policies`` list is a usage error (exit 2)
    raised while parsing: no cell runs and no output directory appears."""
    from repro.obs.__main__ import main

    out = tmp_path / "mem"
    with pytest.raises(SystemExit) as exc:
        main(["memdiff", "--out-dir", str(out), "--policies", policies])
    assert exc.value.code == 2
    assert "argument --policies" in capsys.readouterr().err
    assert not out.exists()


def test_cli_memdiff_seeded_leak_fails_loudly(tmp_path):
    proc = _run_memdiff(tmp_path, "--inject", "leak")
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert "leak detected" in proc.stdout
    bundles = list(tmp_path.glob("oom-*.json"))
    assert len(bundles) == 1
    doc = check_artifact(bundles[0].read_text(), "oom/v1")
    assert doc["reason"]["kind"] == "seeded-leak"
    assert any(l["site"] == "injected.leak" for l in doc["leaks"])


def test_cli_memdiff_budget_breach_fails_loudly(tmp_path):
    proc = _run_memdiff(tmp_path, "--inject", "budget")
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert "budget breach detected" in proc.stdout
    bundles = list(tmp_path.glob("oom-*.json"))
    assert len(bundles) == 1
    doc = check_artifact(bundles[0].read_text(), "oom/v1")
    # the default budget: the step's closed-form saved peak
    assert doc["budget"]["limit_bytes"] == 168_192
    assert doc["budget"]["watermark_bytes"] > doc["budget"]["limit_bytes"]

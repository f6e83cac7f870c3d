"""Tests of the step benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/step``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from benchmarks.step import cli, compare, layers, probe, reference, stats, worker
from benchmarks.step.probe import ROOT, Point, Probe, Span

_ABSENT = object()


def test_quartiles_are_the_statistics_module_quartiles():
    samples = [1.9, 1.6, 1.7, 2.4, 1.65, 1.62, 1.8]
    assert list(stats.quartiles(samples)) == statistics.quantiles(samples, n=4)
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.relative_iqr([2.0, 2.0, 2.0]) == 0.0


def test_high_percentile_keeps_ten_samples_beyond_it():
    samples = [float(i) for i in range(27, 0, -1)]  # 1..27, shuffled order
    value, percentile = stats.high_percentile(samples)
    assert value == 17.0
    assert sum(s > value for s in samples) == stats.TAIL_SAMPLES
    assert round(percentile) == 63
    assert stats.high_percentile([float(i) for i in range(11)]) == (0.0, 100.0 / 11)
    # Too few samples for any tail: the median, labelled as such.
    assert stats.high_percentile([1.0, 5.0, 2.0]) == (2.0, 50.0)


def test_times_are_scaled_by_the_reference_kernels_lower_quartile():
    slow = [2 * reference.NOMINAL_S] * 5  # a host running at half speed ...
    assert reference.speed_factor(slow) == 0.5
    timed = worker.Timed(walls={"probed": [3.0, 4.0], "untraced": [2.0]}, refs=slow)
    assert timed.scaled("probed") == [1.5, 2.0]  # ... reports half its host seconds
    assert timed.scaled("untraced") == [1.0]  # ... of every kind of step alike
    # One slow reference run among quiet ones does not move the factor.
    assert reference.speed_factor([reference.NOMINAL_S] * 7 + [1.0]) == 1.0
    assert reference.run_once() > 0


def _tree() -> list[Span]:
    """Two steps of root -> (forward_shards -> flash, ckpt -> (forward_shards, backward))."""
    spans = []
    for step, t in ((0, 0.0), (1, 100.0)):
        base = len(spans)
        spans += [
            Span(ROOT, t, t + 10.0, -1, step),
            Span("attention.forward_shards", t + 1.0, t + 4.0, base, step),
            Span("kernels.flash_forward", t + 2.0, t + 3.0, base + 1, step),
            Span("nn.ckpt_backward", t + 5.0, t + 9.0, base, step),
            Span("attention.forward_shards", t + 5.5, t + 6.5, base + 3, step),
            Span("nn.backward", t + 7.0, t + 8.5, base + 3, step),
        ]
    return spans


def test_self_time_is_duration_minus_children_and_sums_to_the_root():
    spans = _tree()
    selfs = probe.self_times(spans)
    assert selfs[:6] == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0 - 1.0 - 1.5, 1.0, 1.5]
    assert sum(selfs[:6]) == spans[0].duration
    assert probe.has_ancestor(spans, 4, "nn.ckpt_backward")
    assert not probe.has_ancestor(spans, 1, "nn.ckpt_backward")


def test_span_metrics_on_a_synthetic_tree():
    metrics, violations = layers.span_metrics(_tree(), missing=[])
    assert violations == []
    assert metrics["engine.unattributed_s"] == 3.0
    assert metrics["kernels.flash_fwd_s"] == 1.0
    assert metrics["kernels.flash_fwd_calls"] == 1
    assert metrics["attention.fwd_self_s"] == 2.0 + 1.0
    assert metrics["attention.fwd_passes"] == 2
    assert metrics["attention.recompute_fwd_passes"] == 1
    assert metrics["attention.recompute_fwd_incl_s"] == 1.0
    assert metrics["nn.ckpt_replay_self_s"] == 1.5
    assert metrics["nn.ckpt_replay_incl_s"] == 4.0 - 1.5  # the nested backward is not replay
    assert metrics["comm.calls"] == 0


def test_span_metrics_report_missing_points_and_unequal_counts():
    spans = _tree()
    spans.append(Span("kernels.flash_forward", 102.0, 102.5, 7, 1))  # an extra call in step 1
    metrics, violations = layers.span_metrics(spans, missing=["nn.optimizer_step"])
    assert metrics["nn.optimizer_s"] is None
    assert metrics["nn.zero_grad_s"] == 0.0
    assert any("kernels.flash_fwd_calls differs" in v for v in violations)

    broken = _tree()
    broken[1].parent = -1  # orphan a child: its time is counted twice
    _, violations = layers.span_metrics(broken, missing=[])
    assert any("self times sum" in v for v in violations)


def _raw(owner, key):
    if isinstance(owner, dict):
        return owner.get(key, _ABSENT)
    return vars(owner).get(key, _ABSENT)


def test_probe_uninstall_restores_every_patched_attribute_by_identity():
    log = worker.set_up("burst_long", seed=0, smoke=True, process_start=0.0).log
    points = probe.probe_points(log.engine)
    before = [(p.owner(), p.key, _raw(p.owner(), p.key)) for p in points]

    recorder = Probe()
    recorder.install(points + [Point("gone", lambda: type(log.engine), "no_such_method")])
    assert recorder.missing == ["gone"]
    assert len(recorder.patched) == len(points)
    assert all(_raw(owner, key) is not raw for owner, key, raw in before)
    log.step()
    recorder.uninstall()

    assert recorder.patched == []
    assert all(_raw(owner, key) is raw for owner, key, raw in before)
    names = {s.name for s in recorder.spans}
    assert {ROOT, "nn.model_forward", "kernels.flash_forward", "kernels.tileplan_build",
            "comm.ring_shift", "lmhead.fused", "nn.optimizer_step"} <= names
    assert {s.step for s in recorder.spans} == {0}
    metrics, violations = layers.span_metrics(recorder.spans, recorder.missing)
    assert violations == []
    assert metrics["engine.unattributed_s"] < 0.05 * recorder.spans[0].duration


def test_a_step_that_raises_is_a_failed_step_and_the_run_goes_on():
    log = worker.set_up("burst_long", seed=0, smoke=True, process_start=0.0).log
    real_step = log.engine.train_step

    def raising(*batch):
        raise RuntimeError("lost a rank")

    log.engine.train_step = raising
    log.step()
    log.engine.train_step = real_step
    log.step()
    assert log.failed == 1 and len(log.losses) == 3
    violations = log.violations(timed_from=0)
    assert any("1 steps raised" in v for v in violations)
    assert any("comm_bytes_per_step differs" in v for v in violations)


def test_a_child_that_crashes_is_a_violation_and_the_benchmark_goes_on(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(cli.subprocess, "run",
                        lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, returncode=1))
    spec = cli.load_spec()
    out = tmp_path / "result.json"
    assert cli.run_all(cli.parse(["--smoke", "--out", str(out)], spec), spec) == 1
    workloads = json.loads(out.read_text())["workloads"]
    assert set(workloads) == {w["name"] for w in spec["workloads"]}
    assert all(e["violations"] == ["2 runs ended without a result"] for e in workloads.values())


def _entry(value, samples=None):
    return {"value": value, "samples": samples or [value]}


def test_compare_verdicts():
    steady = [1.00, 1.01, 1.02, 1.01, 1.00]
    assert compare.verdict(_entry(1.0, steady), _entry(1.05, steady), "lower", 0.10)[0] == "ok"
    assert compare.verdict(_entry(1.0, steady), _entry(1.2, steady), "lower", 0.10)[0] == "regression"
    assert compare.verdict(_entry(1.0, steady), _entry(0.5, steady), "lower", 0.10)[0] == "ok"
    noisy = [1.0, 1.3, 0.9, 1.5, 1.0]
    assert compare.verdict(_entry(1.0, noisy), _entry(1.05, steady), "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(_entry(1000.0), _entry(850.0), "higher", 0.10)[0] == "regression"
    assert compare.verdict(_entry(1000.0), _entry(950.0), "higher", 0.10)[0] == "ok"
    # An exact metric: any increase beyond the bound is a regression.
    assert compare.verdict(_entry(4096), _entry(4096), "lower", 0.001)[0] == "ok"
    assert compare.verdict(_entry(4096), _entry(4200), "lower", 0.001)[0] == "regression"


def test_compare_exit_code(tmp_path, capsys):
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "step_s_p25", "unit": "s", "better": "lower", "bound": 0.1}],
    }

    def result(value):
        path = tmp_path / f"{value}.json"
        path.write_text(json.dumps(
            {"workloads": {"w": {"end_to_end": {"step_s_p25": _entry(value)}}}}))
        return str(path)

    assert compare.main(result(1.0), result(1.05), spec) == 0
    assert compare.main(result(1.0), result(1.5), spec) == 1
    assert "regression" in capsys.readouterr().out


def test_smoke_run_reports_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [worker.REPO_ROOT, os.path.join(worker.REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.step", "--smoke", "--out", str(out)],
        cwd=worker.REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(os.path.join(worker.REPO_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in result["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            assert set(entry[kind]) == set(declared), (name, kind)
            for metric, e in entry[kind].items():
                assert e["unit"] == declared[metric]
                assert e["value"] is not None, (name, metric)
                assert f" {metric} " in done.stdout
        assert entry["violations"] == []
        assert entry["end_to_end"]["step_s_p25"]["value"] > 0
    assert result["env"]["thread_vars"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

"""One benchmark run: one workload in one process, untraced or traced.

A run starts its clock at process start, builds the cluster and the
engine, makes one token batch from the seed, and runs one cold step (the
end of ``setup_s``) and one warm-up step on it.  The untraced run then
times ``train_step`` calls until its budget is spent.  The traced run
spends its budget on rounds of four steps — untraced, probed,
``repro.obs``-traced and the single-rank baseline — so every overhead ratio
is between steps that saw the same host.  Before every timed step the
reference kernel runs, and every reported time is host seconds scaled to
reference speed (:mod:`benchmarks.step.reference`).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

from benchmarks.step import layers, reference
from benchmarks.step.probe import Probe, probe_points, write_spans
from benchmarks.step.stats import high_percentile, quartiles

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results", "step")

#: Timed steps a run takes however small its budget (``--smoke`` runs on these).
MIN_TIMED_STEPS = 3
#: The same for a traced run's rounds of four steps.
MIN_TRACED_ROUNDS = 2
#: Reference runs that follow the cold step, to scale ``setup_s``.
_SETUP_REFERENCE_RUNS = 5
#: What a ``train_step`` that raised counts as: a non-finite loss, and byte
#: counts that differ from every real step's.
_RAISED = SimpleNamespace(
    loss=math.nan, step_comm_bytes=-1, peak_activation_bytes=-1, recompute_flops=math.nan)


@dataclass
class Timed:
    """Host seconds of train steps, by kind of step, and of the reference
    runs that preceded them; one speed factor scales them all."""

    walls: dict[str, list[float]]
    refs: list[float]

    @property
    def speed(self) -> float:
        return reference.speed_factor(self.refs)

    def scaled(self, kind: str) -> list[float]:
        """The steps' seconds at reference speed."""
        speed = self.speed
        return [w * speed for w in self.walls[kind]]

    def ratio(self, kind: str, base: str) -> float:
        """Median over rounds of a ``kind`` step's host seconds over those of
        the ``base`` step of the same round: neighbours met the same host."""
        return statistics.median(
            k / b for k, b in zip(self.walls[kind], self.walls[base]))


class StepLog:
    """Runs train steps of one engine on one batch and keeps what the
    correctness checks need from every one of them."""

    def __init__(self, engine, batch):
        self.engine = engine
        self.batch = batch
        self.losses: list[float] = []
        self.comm_bytes: list[int] = []
        self.peak_saved: list[int] = []
        self.recompute_flops: list[float] = []
        self.failed = 0

    def step(self) -> float:
        """One ``train_step``; returns its host seconds.  A step that raises
        is a failed step of a run that goes on, not the end of the run."""
        start = perf_counter()
        try:
            result = self.engine.train_step(*self.batch)
        except Exception:
            traceback.print_exc()
            result = _RAISED
        wall = perf_counter() - start
        if not math.isfinite(result.loss):
            self.failed += 1
        self.losses.append(result.loss)
        self.comm_bytes.append(result.step_comm_bytes)
        self.peak_saved.append(result.peak_activation_bytes)
        self.recompute_flops.append(result.recompute_flops)
        return wall

    def timed_step(self, timed: Timed, kind: str) -> None:
        """A reference run, then one step of ``kind``."""
        timed.refs.append(reference.run_once())
        timed.walls[kind].append(self.step())

    def violations(self, timed_from: int) -> list[str]:
        out = []
        if self.failed:
            out.append(f"{self.failed} steps raised or returned a non-finite loss")
        if not self.losses[-1] < self.losses[timed_from]:
            out.append(
                f"loss did not fall over the timed steps: "
                f"{self.losses[timed_from]!r} -> {self.losses[-1]!r}"
            )
        for name, values in (("comm_bytes_per_step", self.comm_bytes),
                             ("peak_saved_bytes", self.peak_saved)):
            if len(set(values)) != 1:
                out.append(f"{name} differs between steps: {sorted(set(values))}")
        return out


def repeat_for(seconds: float, min_rounds: int, one_round) -> None:
    """Calls ``one_round()`` until the next call would overrun ``seconds``,
    and at least ``min_rounds`` times."""
    deadline = perf_counter() + seconds
    spent: list[float] = []
    while len(spent) < min_rounds or perf_counter() + statistics.median(spent) <= deadline:
        start = perf_counter()
        one_round()
        spent.append(perf_counter() - start)


@dataclass
class SetUp:
    log: StepLog
    host_s: float  # process start -> cold step returned
    first_step_host_s: float
    refs: list[float]  # the reference runs right after the cold step

    @property
    def speed(self) -> float:
        return reference.speed_factor(self.refs)


def set_up(workload: str, seed: int, smoke: bool, process_start: float) -> SetUp:
    """Everything up to and including the cold step, then the reference
    runs that say how fast the host was meanwhile."""
    from repro.engine import BurstEngine

    from benchmarks.step.workloads import WORKLOADS, make_batch

    spec = WORKLOADS[workload]
    config = spec.config(spec.length(smoke))
    engine = BurstEngine(config, topology=spec.topology())
    log = StepLog(engine, make_batch(config, seed))
    first_step_host_s = log.step()
    host_s = perf_counter() - process_start
    refs = [reference.run_once() for _ in range(_SETUP_REFERENCE_RUNS)]
    return SetUp(log, host_s, first_step_host_s, refs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(log: StepLog, seconds: float, up: SetUp) -> dict:
    log.step()  # warm-up
    timed = Timed({"untraced": []}, [])
    repeat_for(seconds, MIN_TIMED_STEPS, lambda: log.timed_step(timed, "untraced"))
    steps = timed.scaled("untraced")
    p25 = quartiles(steps)[0]
    return {
        "metrics": {
            "step_s_p25": p25,
            "tokens_per_s": len(log.batch[0]) / p25,
            "setup_s": up.host_s * up.speed,
            "host_peak_rss_mb": peak_rss_mb(),
            "comm_bytes_per_step": log.comm_bytes[-1],
            "peak_saved_bytes": log.peak_saved[-1],
        },
        "samples": {
            "step_s": steps, "step_host_s": timed.walls["untraced"],
            "reference_host_s": timed.refs, "speed": timed.speed,
            "setup_host_s": up.host_s, "setup_reference_host_s": up.refs,
        },
        "violations": log.violations(timed_from=2),
        "attempted": len(log.losses),
        "failed": log.failed,
    }


def run_traced(log: StepLog, seconds: float, first_step_s: float, workload: str) -> dict:
    from repro.kernels import counters
    from repro.obs import use_tracing

    from benchmarks.step.workloads import single_rank_engine

    engine = log.engine
    records = engine.comm.log.records
    mark, tiles_before = len(records), counters.snapshot()
    log.step()  # warm-up; its counts are every step's counts
    metrics = layers.tile_metrics(tiles_before, counters.snapshot())
    metrics.update(layers.traffic_metrics(records[mark:]))

    single_log = StepLog(single_rank_engine(engine.config), log.batch)
    single_log.step()  # its cold step
    probe, points = Probe(), probe_points(engine)
    timed = Timed({"untraced": [], "probed": [], "obs": [], "single": []}, [])
    obs_spans = []

    def one_round() -> None:
        # One step of each kind, so that every kind meets the same host.
        log.timed_step(timed, "untraced")
        probe.install(points)
        try:
            log.timed_step(timed, "probed")
        finally:
            probe.uninstall()
        with use_tracing() as tracer:
            log.timed_step(timed, "obs")
            obs_spans.append(len(tracer.spans()))
        single_log.timed_step(timed, "single")

    repeat_for(seconds, MIN_TRACED_ROUNDS, one_round)
    write_spans(probe.spans, os.path.join(RESULTS_DIR, f"{workload}.spans.jsonl"))
    span_metrics, violations = layers.span_metrics(probe.spans, probe.missing)
    metrics.update({
        name: value * timed.speed if name.endswith("_s") and value is not None else value
        for name, value in span_metrics.items()
    })
    violations += log.violations(timed_from=2)
    for i, (one, many) in enumerate(zip(single_log.losses, log.losses)):
        if not abs(one - many) <= 1e-9:
            violations.append(
                f"step {i}: single-rank loss {one!r} != distributed {many!r}")

    untraced = timed.scaled("untraced")
    base = statistics.median(untraced)
    single = statistics.median(timed.scaled("single"))
    hi, percentile = high_percentile(untraced)
    metrics.update({
        "engine.step_s_p50": base,
        "engine.step_s_hi": hi,
        "engine.first_step_s": first_step_s,
        "engine.loss_final": log.losses[-1],
        "engine.dist_over_single_ratio": timed.ratio("untraced", "single"),
        "engine.host_speed_ratio": timed.speed,
        "nn.recompute_flops": log.recompute_flops[-1],
        "obs.tracing_overhead_ratio": timed.ratio("obs", "untraced"),
        "obs.spans_per_step": statistics.median_low(obs_spans),
        "perf.peak_saved_pred_delta_bytes":
            log.peak_saved[-1] - predicted_peak_saved_bytes(engine),
        "probe.overhead_ratio": timed.ratio("probed", "untraced"),
        "probe.missing_points": len(probe.missing),
    })
    return {
        "metrics": metrics,
        "samples": {
            "step_s": untraced, "probed_step_s": timed.scaled("probed"),
            "obs_step_s": timed.scaled("obs"), "single_step_s": timed.scaled("single"),
            "reference_host_s": timed.refs, "speed": timed.speed,
        },
        "bases": {
            "engine.step_s_hi": f"p{percentile:.0f} of {len(untraced)} untraced steps",
            "engine.dist_over_single_ratio":
                f"the single-rank step of the same round, median {single:.4f} s",
            "engine.host_speed_ratio":
                f"reference kernel {reference.NOMINAL_S / timed.speed:.4f} s, "
                f"nominal {reference.NOMINAL_S} s",
            **dict.fromkeys(
                ("obs.tracing_overhead_ratio", "probe.overhead_ratio"),
                f"the untraced step of the same round, median {base:.4f} s"),
            "kernels.tile_skip_frac": "of %d tiles" % (
                metrics["kernels.tiles_computed"] + metrics["kernels.tiles_skipped"]),
        },
        "missing_points": probe.missing,
        "violations": violations,
        "attempted": len(log.losses) + len(single_log.losses),
        "failed": log.failed + single_log.failed,
    }


def predicted_peak_saved_bytes(engine) -> int:
    """``repro.perf.memory``'s closed form for this engine's configuration."""
    from repro.perf.memory import predict_step_peak_saved_bytes

    model = engine.config.resolved_model()
    return predict_step_peak_saved_bytes(
        seq_len=model.max_seq_len, dim=model.dim, n_layers=model.n_layers,
        n_heads=model.n_heads, ffn_hidden=model.ffn_hidden,
        vocab=model.vocab_size, checkpoint=model.checkpoint.mode.value,
        split_fraction=model.checkpoint.split_fraction,
        head_impl=model.head_impl,
        fused_mlp=model.mlp_chunk_size is not None,
        rebuilds_context=engine.method.supports_context_rebuild,
    )["peak_saved_bytes"]


def run(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, process_start: float,
) -> dict:
    """The whole run; returns the detail record the CLI prints and saves."""
    up = set_up(workload, seed, smoke, process_start)
    if trace:
        detail = run_traced(up.log, seconds, up.first_step_host_s * up.speed, workload)
    else:
        detail = run_untraced(up.log, seconds, up)
    detail.update(
        workload=workload, seed=seed, seconds=seconds, trace=int(trace),
        smoke=smoke, seq_len=len(up.log.batch[0]), losses=up.log.losses,
    )
    return detail

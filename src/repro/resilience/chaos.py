"""Chaos-recovery runner: prove the stack survives injected faults.

Composes the PR-1 fault injectors (:mod:`repro.testing.faults`) with the
recovery layer (:class:`~repro.resilience.ResilientCommunicator` +
checkpoint-restart) over *seeded* schedules of mid-run faults:

* **fault scenarios** — each draws a fault class, strike call index and
  victim rank from a seeded RNG, trains a tiny model through the sabotaged
  communicator wrapped in the resilient layer, and asserts the loss
  trajectory matches the fault-free baseline bitwise;
* **crash-resume scenario** — a run writing periodic atomic train-state
  snapshots is killed by a :class:`SimulatedCrash` exception mid-run, then
  restarted with ``Trainer.fit(resume_from=...)``; the replayed
  :class:`~repro.engine.TrainRecord` history must equal the uninterrupted
  run's history exactly.

CLI (exit 0 iff every scenario recovered)::

    python -m repro.resilience.chaos --seed 0 --faults 3

The module also exports a session-scoped pytest fixture, ``chaos_report``
(enable with ``pytest_plugins = ("repro.resilience.chaos",)``), so test
suites can assert against one shared chaos run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.comm import FailureDetector, SimCommunicator
from repro.engine import BurstEngine, EngineConfig, Trainer
from repro.nn import TransformerConfig
from repro.nn.rng import set_seed
from repro.resilience.comm import FaultMonitor, ResilientCommunicator
from repro.resilience.elastic import ElasticRunner
from repro.testing.faults import FAULT_REGISTRY, RANK_FAULT_REGISTRY, make_fault
from repro.topology import a800_node, make_cluster

NUM_GPUS = 4
#: Loss trajectories must match the fault-free run to this max-abs budget;
#: recovery retransmits exact payload copies, so the match is bitwise and
#: the budget exists only to make the assertion's intent explicit.
LOSS_TOLERANCE = 1e-12


class SimulatedCrash(RuntimeError):
    """Raised mid-run to emulate a process kill / node loss."""


def _topology():
    return make_cluster(NUM_GPUS, node=a800_node(gpus_per_node=NUM_GPUS))


def _make_engine(
    method: str = "burst", comm=None, ring_mode: str = "unidirectional"
) -> BurstEngine:
    method_kwargs = (
        {"ring_mode": ring_mode} if ring_mode != "unidirectional" else {}
    )
    config = EngineConfig(
        model=TransformerConfig(
            vocab_size=32, dim=16, n_layers=1, n_heads=4, ffn_hidden=24,
            max_seq_len=32, attn_block_size=8, seed=1,
        ),
        method=method, method_kwargs=method_kwargs, lr=3e-3,
    )
    if comm is not None:
        return BurstEngine(config, comm=comm)
    return BurstEngine(config, topology=_topology())


def _make_batches(seed: int = 0, n: int = 2, seq: int = 32, vocab: int = 32):
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(n):
        ids = rng.integers(0, vocab, size=seq)
        batches.append((ids, np.roll(ids, -1)))
    return batches


@dataclass
class ScenarioResult:
    """Outcome of one recovered-fault training run."""

    description: str
    injections: int
    faults_detected: int
    recoveries: int
    max_loss_diff: float
    ok: bool

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {self.description}: injected={self.injections} "
            f"detected={self.faults_detected} recovered={self.recoveries} "
            f"max|Δloss|={self.max_loss_diff:.2e}"
        )


@dataclass
class CrashResult:
    """Outcome of the crash-and-resume determinism scenario."""

    crash_step: int
    resume_step: int
    steps: int
    records_match: bool

    @property
    def ok(self) -> bool:
        return self.records_match

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] crash after step {self.crash_step}, resumed from "
            f"snapshot at step {self.resume_step}, replayed to {self.steps} "
            f"steps: history {'bitwise identical' if self.records_match else 'DIVERGED'}"
        )


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    seed: int
    method: str
    steps: int
    baseline_losses: list[float]
    scenarios: list[ScenarioResult] = field(default_factory=list)
    crash: CrashResult | None = None

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios) and (
            self.crash is None or self.crash.ok
        )

    def summary(self) -> str:
        lines = [
            f"chaos run: seed={self.seed} method={self.method} "
            f"steps={self.steps} scenarios={len(self.scenarios)}"
        ]
        lines.extend(s.summary() for s in self.scenarios)
        if self.crash is not None:
            lines.append(self.crash.summary())
        lines.append("CHAOS OK" if self.ok else "CHAOS FAILED")
        return "\n".join(lines)


def _baseline_losses(
    method: str, batches, steps: int, ring_mode: str = "unidirectional"
) -> list[float]:
    set_seed(0)
    trainer = Trainer(_make_engine(method, ring_mode=ring_mode), clip_norm=1.0)
    trainer.fit(batches, steps)
    return trainer.losses()


def run_fault_scenarios(
    *,
    seed: int,
    n_faults: int,
    method: str,
    batches,
    steps: int,
    baseline: list[float],
    ring_mode: str = "unidirectional",
) -> list[ScenarioResult]:
    """Train through seeded single-site faults behind the resilient layer.

    Under ``ring_mode="bidirectional"`` every other scenario pins its fault
    to the reverse channel, so the counter-rotating stream gets direct
    chaos coverage rather than relying on the RNG to happen to strike it.
    """
    rng = np.random.default_rng(seed)
    names = sorted(FAULT_REGISTRY)
    results = []
    for i in range(n_faults):
        name = names[int(rng.integers(len(names)))]
        victim = int(rng.integers(NUM_GPUS))
        channel = (
            "rev" if ring_mode == "bidirectional" and i % 2 == 1 else None
        )
        # The reverse stream carries far fewer transfers than the forward
        # one (one seed exchange per pass on a 4-GPU ring), so rev strikes
        # draw from a window every scenario is guaranteed to reach.
        at_call = int(rng.integers(1, 5 if channel == "rev" else 10))
        fault = make_fault(
            name, _topology(), at_call=at_call, victim=victim,
            channel=channel,
        )
        monitor = FaultMonitor()
        comm = ResilientCommunicator(fault, monitor=monitor)
        set_seed(0)
        trainer = Trainer(
            _make_engine(method, comm=comm, ring_mode=ring_mode),
            clip_norm=1.0,
        )
        trainer.fit(batches, steps)
        diff = float(
            np.max(np.abs(np.asarray(trainer.losses()) - np.asarray(baseline)))
        )
        results.append(
            ScenarioResult(
                description=f"{fault.describe()} victim={victim}",
                injections=fault.injections,
                faults_detected=monitor.total_faults,
                recoveries=monitor.total_recoveries,
                max_loss_diff=diff,
                ok=diff <= LOSS_TOLERANCE and fault.injections >= 1,
            )
        )
    return results


def run_crash_resume(
    *,
    method: str,
    batches,
    steps: int = 6,
    crash_after: int = 4,
    save_every: int = 2,
    ring_mode: str = "unidirectional",
) -> CrashResult:
    """Kill a snapshotting run mid-flight, resume, and compare histories."""
    with tempfile.TemporaryDirectory() as tmpdir:
        state_path = os.path.join(tmpdir, "train_state.npz")

        # The run that never crashes — ground truth history.
        set_seed(0)
        uninterrupted = Trainer(
            _make_engine(method, ring_mode=ring_mode), clip_norm=1.0
        )
        uninterrupted.fit(batches, steps)

        # The run that dies right after completing step `crash_after`.
        def crash(trainer: Trainer, record) -> None:
            if record.step == crash_after:
                raise SimulatedCrash(f"simulated kill after step {record.step}")

        set_seed(0)
        doomed = Trainer(
            _make_engine(method, ring_mode=ring_mode), clip_norm=1.0,
            state_path=state_path, save_every=save_every, on_step_end=crash,
        )
        try:
            doomed.fit(batches, steps)
            raise RuntimeError("simulated crash did not fire")
        except SimulatedCrash:
            pass

        # A fresh "process": new engine, deliberately scrambled RNG — the
        # snapshot must restore every bit of state that matters.
        set_seed(987654321)
        resumed = Trainer(
            _make_engine(method, ring_mode=ring_mode), clip_norm=1.0
        )
        resumed.fit(batches, steps, resume_from=state_path)

        return CrashResult(
            crash_step=crash_after,
            resume_step=(crash_after // save_every) * save_every,
            steps=steps,
            records_match=resumed.history == uninterrupted.history,
        )


def run_chaos(
    seed: int = 0,
    n_faults: int = 3,
    steps: int = 4,
    method: str = "burst",
    crash: bool = True,
    ring_mode: str = "unidirectional",
) -> ChaosReport:
    """Run the full chaos schedule; see the module docstring."""
    batches = _make_batches(seed=0)
    baseline = _baseline_losses(method, batches, steps, ring_mode=ring_mode)
    report = ChaosReport(
        seed=seed, method=method, steps=steps, baseline_losses=baseline
    )
    report.scenarios = run_fault_scenarios(
        seed=seed, n_faults=n_faults, method=method, batches=batches,
        steps=steps, baseline=baseline, ring_mode=ring_mode,
    )
    if crash:
        report.crash = run_crash_resume(
            method=method, batches=batches, ring_mode=ring_mode
        )
    return report


# --- rank-failure matrix ------------------------------------------------------

#: Sequence length for elastic scenarios: divisible by ``2 * G`` for both
#: the healthy 4-rank world and the 3 survivors a single failure leaves.
ELASTIC_SEQ = 24

#: (method, ring_mode) cells of the rank-failure matrix; Ulysses has no
#: ring, so its ring_mode axis collapses to one cell.
RANK_FAULT_CELLS = (
    ("burst", "unidirectional"),
    ("burst", "bidirectional"),
    ("megatron-cp", "unidirectional"),
    ("megatron-cp", "bidirectional"),
    ("ulysses", "unidirectional"),
)

#: Straggler slowdown past the fully-escalated lease (24x nominal), so the
#: detector must eventually declare the rank dead rather than tolerate it.
FATAL_SLOWDOWN = 64.0


def _make_elastic_config(
    method: str, ring_mode: str = "unidirectional"
) -> EngineConfig:
    method_kwargs = (
        {"ring_mode": ring_mode} if ring_mode != "unidirectional" else {}
    )
    return EngineConfig(
        model=TransformerConfig(
            vocab_size=32, dim=24, n_layers=1, n_heads=12, ffn_hidden=24,
            max_seq_len=ELASTIC_SEQ, attn_block_size=4, seed=1,
        ),
        method=method, method_kwargs=method_kwargs, lr=3e-3,
    )


@dataclass
class RankFaultResult:
    """Outcome of one detect -> shrink -> replay scenario."""

    kind: str
    method: str
    ring_mode: str
    victim: int
    detected: bool
    detected_kind: str | None
    world_before: int
    world_after: int
    resume_step: int
    replay_match: bool
    traffic_match: bool
    #: path of the dumped post-mortem bundle (None unless requested)
    postmortem: str | None = None
    #: bundle validated and names the victim on its critical path
    postmortem_ok: bool = True

    @property
    def ok(self) -> bool:
        return (
            self.detected
            and self.detected_kind == self.kind
            and self.world_after == self.world_before - 1
            and self.replay_match
            and self.traffic_match
            and self.postmortem_ok
        )

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {self.kind} rank {self.victim} under "
            f"{self.method}/{self.ring_mode}: detected={self.detected} "
            f"world={self.world_before}->{self.world_after} "
            f"resume@{self.resume_step} "
            f"replay={'bitwise' if self.replay_match else 'DIVERGED'} "
            f"traffic={'match' if self.traffic_match else 'MISMATCH'}"
            + (
                f" postmortem={'valid' if self.postmortem_ok else 'INVALID'}"
                if self.postmortem is not None or not self.postmortem_ok
                else ""
            )
        )


def _log_signature(comm) -> list[tuple]:
    return [
        (r.src, r.dst, r.nbytes, r.nelems, r.phase, r.channel)
        for r in comm.log.records
    ]


def run_rank_fault_scenario(
    kind: str,
    method: str,
    ring_mode: str = "unidirectional",
    *,
    seed: int = 0,
    steps: int = 4,
    fail_step: int = 2,
    victim: int = 1,
    postmortem_dir: str | None = None,
) -> RankFaultResult:
    """One cell of the matrix: kill ``victim`` mid-run, recover, verify.

    The elastic run must (1) *detect* — raise a structured failure instead
    of deadlocking, (2) *shrink* to the ``G - 1`` survivors, and (3)
    *replay* such that both the step history and the full post-resume
    traffic log are bitwise identical to a fresh survivors-only run resumed
    from the same snapshot.  With ``postmortem_dir`` set, the elastic run
    executes under tracing with an installed
    :class:`~repro.obs.FlightRecorder`, and the detection must addition-
    ally have dumped a valid post-mortem bundle whose critical-path table
    names the victim rank.
    """
    config = _make_elastic_config(method, ring_mode)
    batches = _make_batches(seed=0, seq=ELASTIC_SEQ)
    comms: list[FailureDetector] = []

    def comm_factory(topo, incarnation):
        if incarnation == 0:
            kwargs = dict(rank=victim, at_step=fail_step, at_call=1)
            if kind == "straggler":
                kwargs["slowdown_factor"] = FATAL_SLOWDOWN
            inner = make_fault(kind, topo, **kwargs)
        else:
            inner = SimCommunicator(topo)
        detector = FailureDetector(inner)
        comms.append(detector)
        return detector

    recorder = None
    if postmortem_dir is not None:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(
            out_dir=postmortem_dir,
            prefix=f"{method}-{ring_mode}-{kind}-",
        ).install()

    with tempfile.TemporaryDirectory() as tmpdir:
        runner = ElasticRunner(
            lambda topo, comm: BurstEngine(config, comm=comm),
            snapshot_dir=tmpdir,
            comm_factory=comm_factory,
            seed=seed,
        )
        try:
            if recorder is not None:
                from repro.obs import use_tracing

                with use_tracing():
                    result = runner.run(batches, steps, _topology())
            else:
                result = runner.run(batches, steps, _topology())
        finally:
            if recorder is not None:
                recorder.uninstall()
        detected = len(result.failures) == 1
        record = result.failures[0] if detected else None

        postmortem = None
        postmortem_ok = True
        if recorder is not None:
            postmortem = recorder.dumps[0] if recorder.dumps else None
            postmortem_ok = _check_postmortem(postmortem, victim)

        replay_match = traffic_match = False
        if record is not None and record.resume_path is not None:
            # Ground truth: a fresh process on the survivor topology,
            # resumed from the very snapshot the elastic run replayed.
            fresh_comm = FailureDetector(SimCommunicator(result.topology))
            set_seed(seed)
            fresh = Trainer(BurstEngine(config, comm=fresh_comm), clip_norm=1.0)
            fresh.fit(batches, steps, resume_from=record.resume_path)
            replay_match = (
                [asdict(r) for r in fresh.history]
                == [asdict(r) for r in result.history]
            )
            traffic_match = (
                _log_signature(fresh_comm) == _log_signature(comms[-1])
            )

    return RankFaultResult(
        kind=kind,
        method=method,
        ring_mode=ring_mode,
        victim=victim,
        detected=detected,
        detected_kind=record.failure.kind if record else None,
        world_before=record.world_before if record else NUM_GPUS,
        world_after=record.world_after if record else NUM_GPUS,
        resume_step=record.resume_step if record else -1,
        replay_match=replay_match,
        traffic_match=traffic_match,
        postmortem=postmortem,
        postmortem_ok=postmortem_ok,
    )


def _check_postmortem(path: str | None, victim: int) -> bool:
    """Check a dumped bundle and require the victim on its critical path."""
    from repro.obs.export import POSTMORTEM_SCHEMA, check_artifact

    if path is None:
        return False
    try:
        with open(path) as fh:
            bundle = check_artifact(fh.read(), POSTMORTEM_SCHEMA)
    except (OSError, ValueError):
        return False
    return any(
        entry.get("rank") == victim for entry in bundle["critical_path"]
    )


def run_rank_fault_matrix(
    seed: int = 0, steps: int = 4, postmortem_dir: str | None = None
) -> list[RankFaultResult]:
    """The full {crash, hang, straggler} x method/ring-mode matrix."""
    rng = np.random.default_rng(seed)
    results = []
    for method, ring_mode in RANK_FAULT_CELLS:
        for kind in sorted(RANK_FAULT_REGISTRY):
            victim = int(rng.integers(NUM_GPUS))
            results.append(
                run_rank_fault_scenario(
                    kind, method, ring_mode,
                    seed=seed, steps=steps, victim=victim,
                    postmortem_dir=postmortem_dir,
                )
            )
    return results


# --- pytest integration ------------------------------------------------------

try:  # pragma: no cover - import guard
    import pytest as _pytest
except ImportError:  # pragma: no cover
    _pytest = None

if _pytest is not None:
    @_pytest.fixture(scope="session")
    def chaos_report() -> ChaosReport:
        """One shared chaos-recovery run (seed 0) for the whole session."""
        return run_chaos(seed=0, n_faults=2)


# --- CLI ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Chaos-recovery runner: inject faults mid-run and assert "
        "the recovered loss trajectories match the fault-free run.",
    )
    parser.add_argument("--seed", type=int, default=0, help="scenario RNG seed")
    parser.add_argument("--faults", type=int, default=3,
                        help="number of seeded fault scenarios")
    parser.add_argument("--steps", type=int, default=4,
                        help="training steps per scenario")
    parser.add_argument("--method", default="burst",
                        help="distributed attention method under test")
    parser.add_argument("--ring-mode", default="unidirectional",
                        choices=("unidirectional", "bidirectional"),
                        help="ring circulation mode; bidirectional pins "
                        "every other fault to the reverse channel")
    parser.add_argument("--skip-crash", action="store_true",
                        help="skip the crash-and-resume scenario")
    parser.add_argument("--rank-faults", action="store_true",
                        help="run the rank-failure matrix instead: "
                        "{crash, hang, straggler} x method/ring-mode; every "
                        "cell must detect, shrink to the survivors, and "
                        "replay bitwise")
    parser.add_argument("--report", metavar="PATH",
                        help="also write the results as JSON to PATH")
    parser.add_argument("--postmortem-dir", metavar="DIR",
                        help="with --rank-faults: run each cell under "
                        "tracing with a flight recorder and dump a "
                        "validated post-mortem bundle per detected failure "
                        "into DIR")
    args = parser.parse_args(argv)

    if args.postmortem_dir and not args.rank_faults:
        parser.error("--postmortem-dir requires --rank-faults")

    if args.rank_faults:
        results = run_rank_fault_matrix(
            seed=args.seed, steps=args.steps,
            postmortem_dir=args.postmortem_dir,
        )
        for r in results:
            print(r.summary())
        ok = all(r.ok for r in results)
        print(f"rank-failure matrix: {len(results)} cells, "
              f"{'ALL RECOVERED' if ok else 'FAILURES'}")
        if args.report:
            payload = {
                "mode": "rank-faults", "seed": args.seed, "ok": ok,
                "cells": [dict(asdict(r), ok=r.ok) for r in results],
            }
            with open(args.report, "w") as fh:
                json.dump(payload, fh, indent=2)
        return 0 if ok else 1

    report = run_chaos(
        seed=args.seed, n_faults=args.faults, steps=args.steps,
        method=args.method, crash=not args.skip_crash,
        ring_mode=args.ring_mode,
    )
    print(report.summary())
    if args.report:
        payload = dict(asdict(report), mode="chaos", ok=report.ok)
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

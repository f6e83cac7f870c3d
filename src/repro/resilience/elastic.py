"""Elastic rank-failure recovery: shrink the topology and replay.

When a :class:`~repro.comm.FailureDetector` declares a rank dead mid-step,
nothing about that step can be salvaged — partial collectives and half-
accumulated gradients are garbage.  Real elastic runtimes (and the
month-long 1M-token runs the paper targets) recover by *re-planning*:

1. **abort** — the :class:`~repro.comm.RankFailure` propagates out of the
   in-flight ``Trainer.fit`` step on every survivor;
2. **shrink** — :func:`repro.topology.shrink_cluster` rebuilds the
   :class:`~repro.topology.ClusterTopology` over the ``G - k`` survivors,
   and the method's partitioner re-solves the sequence partition for the
   new world size (DCP-style: shard layout is a per-incarnation decision,
   not a launch-time constant) — ring schedules, including the PR-6
   bidirectional variant, re-derive from the shrunk topology when the
   engine is rebuilt;
3. **replay** — the run resumes from the newest *valid* snapshot in the
   :class:`SnapshotStore` (corrupt or partial snapshots are rejected by
   :func:`repro.nn.serialization.verify_train_state` and the previous
   complete one is used), restoring parameters, optimizer moments, RNG
   stream and history so the continued losses are bitwise-identical to a
   fresh ``G - k``-rank run resumed from the same snapshot.

:class:`ElasticRunner` drives the loop; :class:`ElasticResult` reports the
full history, every :class:`FailureRecord`, and the final topology whose
traffic the healthy closed forms of :mod:`repro.perf.cost`, evaluated on
the survivors, pin.
Every recovery emits a ``failure.recover`` trace span and the
``resilience.rank_recoveries`` counter, completing the ``rank_failures``
metrics family the detector opens.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.comm import FailureDetector, LeaseConfig, RankFailure, SimCommunicator
from repro.nn.rng import set_seed
from repro.nn.serialization import CheckpointError, verify_train_state
from repro.obs.metrics import get_registry
from repro.obs.tracer import trace_span
from repro.topology import ClusterTopology, shrink_cluster

__all__ = [
    "ElasticResult",
    "ElasticRunner",
    "FailureRecord",
    "SnapshotStore",
]

_SNAPSHOT_RE = re.compile(r"^snapshot_(\d+)\.npz$")


class SnapshotStore:
    """Rotated per-step train-state snapshots with integrity-gated reads.

    One file per snapshotted step (``snapshot_000007.npz``), pruned to the
    newest ``keep``.  :meth:`latest_valid` walks the files newest-first and
    returns the first one that passes
    :func:`~repro.nn.serialization.verify_train_state` — a snapshot
    truncated or corrupted by a crash mid-recovery is skipped, never
    trained from.
    """

    def __init__(self, directory: str, keep: int = 5):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = directory
        self.keep = keep
        os.makedirs(directory, exist_ok=True)

    def path_for(self, step: int) -> str:
        return os.path.join(self.directory, f"snapshot_{step:06d}.npz")

    def steps(self) -> list[int]:
        """Snapshotted steps present on disk, ascending."""
        out = []
        for name in os.listdir(self.directory):
            m = _SNAPSHOT_RE.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def prune(self) -> list[int]:
        """Delete all but the newest ``keep`` snapshots; returns removals."""
        steps = self.steps()
        removed = steps[:-self.keep] if len(steps) > self.keep else []
        for step in removed:
            try:
                os.unlink(self.path_for(step))
            except OSError:
                pass
        return removed

    def latest_valid(self) -> tuple[int, str] | None:
        """Newest snapshot that passes verification, or ``None``."""
        for step in reversed(self.steps()):
            path = self.path_for(step)
            try:
                verify_train_state(path)
            except CheckpointError:
                continue
            return step, path
        return None


@dataclass
class FailureRecord:
    """One detected rank failure and the recovery that followed."""

    failure: RankFailure
    incarnation: int
    world_before: int
    world_after: int
    resume_step: int
    resume_path: str | None

    def summary(self) -> str:
        f = self.failure
        src = (
            f"snapshot step {self.resume_step}" if self.resume_path
            else "scratch"
        )
        return (
            f"rank {f.rank} {f.kind} in {f.op}@step {f.step} -> "
            f"{self.world_before}->{self.world_after} ranks, resumed from "
            f"{src}"
        )


@dataclass
class ElasticResult:
    """Outcome of one elastic training run."""

    history: list = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    incarnations: int = 1
    topology: ClusterTopology | None = None
    #: per-rank shard sizes of the final partition plan
    shard_sizes: list[int] = field(default_factory=list)
    #: lease extensions granted to tolerated stragglers (rank, op, count)
    tolerated_stragglers: list[tuple[int, str, int]] = field(
        default_factory=list
    )

    def losses(self) -> list[float]:
        return [r.loss for r in self.history]

    @property
    def final_world_size(self) -> int:
        return self.topology.world_size if self.topology else 0

    def summary(self) -> str:
        lines = [
            f"elastic run: {len(self.history)} steps, "
            f"{len(self.failures)} failure(s), "
            f"{self.incarnations} incarnation(s), final world "
            f"{self.final_world_size}"
        ]
        lines += [f"  {f.summary()}" for f in self.failures]
        return "\n".join(lines)


class ElasticRunner:
    """Failure-detecting training loop with topology shrink + replay.

    Parameters
    ----------
    engine_factory:
        ``(topology, comm) -> BurstEngine`` — rebuilt per incarnation so
        ring schedules and the sequence partition re-derive from the
        current topology.
    snapshot_dir:
        Directory for the rotated :class:`SnapshotStore`.
    comm_factory:
        ``(topology, incarnation) -> communicator`` — defaults to a
        :class:`~repro.comm.FailureDetector` over a plain
        :class:`~repro.comm.SimCommunicator`.  Chaos scenarios return a
        detector over a rank-fault injector for incarnation 0 and a clean
        detector afterwards (the dead rank stays gone).
    trainer_factory:
        ``(engine) -> Trainer`` for custom schedules / clipping; the
        runner chains its snapshot hook after any ``on_step_end`` the
        factory installed.
    seed:
        :func:`repro.nn.rng.set_seed` value for the from-scratch start
        (resumed incarnations restore the snapshot's RNG stream instead).
    max_failures:
        Failure budget; one more failure re-raises the
        :class:`~repro.comm.RankFailure`.
    keep:
        Snapshot rotation depth.
    """

    def __init__(
        self,
        engine_factory: Callable,
        *,
        snapshot_dir: str,
        comm_factory: Callable | None = None,
        trainer_factory: Callable | None = None,
        lease: LeaseConfig | None = None,
        seed: int = 0,
        max_failures: int = 3,
        keep: int = 5,
    ):
        self.engine_factory = engine_factory
        self.store = SnapshotStore(snapshot_dir, keep=keep)
        self.comm_factory = comm_factory or self._default_comm
        self.trainer_factory = trainer_factory
        self.lease = lease
        self.seed = seed
        self.max_failures = max_failures

    def _default_comm(self, topology: ClusterTopology, incarnation: int):
        return FailureDetector(SimCommunicator(topology), lease=self.lease)

    def _make_trainer(self, engine):
        if self.trainer_factory is not None:
            trainer = self.trainer_factory(engine)
        else:
            from repro.engine import Trainer

            trainer = Trainer(engine, clip_norm=1.0)
        user_hook = trainer.on_step_end

        def snapshot(tr, record) -> None:
            tr.save_state(self.store.path_for(record.step))
            self.store.prune()
            if user_hook is not None:
                user_hook(tr, record)

        trainer.on_step_end = snapshot
        return trainer

    def run(
        self,
        batches: Sequence,
        steps: int,
        topology: ClusterTopology,
    ) -> ElasticResult:
        """Train ``steps`` steps, surviving up to ``max_failures`` ranks."""
        result = ElasticResult(topology=topology)
        incarnation = 0
        while True:
            comm = self.comm_factory(topology, incarnation)
            set_seed(self.seed)
            engine = self.engine_factory(topology, comm)
            # Re-solve the partition for this world size; an infeasible
            # shrink raises ``ValueError`` here, before any step runs.
            shards = engine.method.partitioner.indices(
                engine.config.model.max_seq_len, topology.world_size
            )
            result.shard_sizes = [len(s) for s in shards]
            trainer = self._make_trainer(engine)
            latest = self.store.latest_valid()
            try:
                if latest is None:
                    trainer.fit(batches, steps)
                else:
                    trainer.fit(batches, steps, resume_from=latest[1])
                result.history = list(trainer.history)
                result.incarnations = incarnation + 1
                result.topology = topology
                if isinstance(comm, FailureDetector):
                    result.tolerated_stragglers = list(comm.tolerated)
                return result
            except RankFailure as failure:
                if len(result.failures) >= self.max_failures:
                    raise
                shrunk = shrink_cluster(topology, [failure.rank])
                resume = self.store.latest_valid()
                record = FailureRecord(
                    failure=failure,
                    incarnation=incarnation,
                    world_before=topology.world_size,
                    world_after=shrunk.world_size,
                    resume_step=resume[0] if resume else -1,
                    resume_path=resume[1] if resume else None,
                )
                result.failures.append(record)
                get_registry().counter("resilience.rank_recoveries").inc(
                    kind=failure.kind
                )
                with trace_span(
                    "failure.recover", phase="resilience",
                    rank=failure.rank, kind=failure.kind,
                    step=failure.step,
                    world_before=topology.world_size,
                    world_after=shrunk.world_size,
                    resume_step=record.resume_step,
                ):
                    pass
                topology = shrunk
                incarnation += 1

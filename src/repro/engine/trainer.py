"""High-level training loop around :class:`~repro.engine.BurstEngine`.

Adds the pieces a real training run needs on top of ``train_step``:
learning-rate scheduling, gradient clipping, periodic evaluation,
best-checkpoint saving, a structured history the examples and tests
consume — and crash recovery: periodic atomic train-state snapshots
(:func:`repro.nn.serialization.save_train_state`) plus
``fit(resume_from=...)``, which restores model, optimizer moments, RNG
stream, history, best-eval watermark and batch cursor so an interrupted
run replays into a bitwise-identical :class:`TrainRecord` history.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.engine.engine import BurstEngine
from repro.nn.schedule import ConstantLR, LRSchedule
from repro.nn.serialization import load_train_state, save_model, save_train_state
from repro.nn.tensor import no_grad
from repro.obs.mem import MemoryBudget, use_memory_budget


@dataclass
class TrainRecord:
    """One step's log entry."""

    step: int
    loss: float
    lr: float
    grad_norm: float
    eval_loss: float | None = None


@dataclass
class Trainer:
    """Schedule-aware training loop.

    Parameters
    ----------
    engine:
        The distributed engine to drive.
    schedule:
        LR schedule (defaults to constant at the engine's configured lr).
    clip_norm:
        Global-norm gradient clipping threshold; ``None`` disables.
    eval_fn:
        Optional callable ``model -> float`` run every ``eval_every``
        steps (e.g. held-out loss or recall accuracy).
    checkpoint_path:
        If set, the best-eval model is saved there (npz, atomic).
    state_path:
        If set (together with ``save_every``), a full train-state snapshot
        is written there atomically every ``save_every`` steps; pass the
        same path to ``fit(resume_from=...)`` after a crash.
    save_every:
        Snapshot period in steps; ``0`` disables periodic snapshots.
    on_step_end:
        Optional callback ``(trainer, record) -> None`` invoked after each
        step's bookkeeping (snapshot included) — the chaos harness uses it
        to simulate mid-run crashes.
    metrics_path:
        If set, one JSON line of step metrics (loss/lr/grad-norm, comm
        volume by phase and link class, per-rank send elements, tile and
        recompute tallies) is appended there after every step.  The comm
        numbers are aggregated from the exact slice of the engine's
        :class:`~repro.comm.TrafficLog` this step appended, so summing
        the lines reproduces the log's totals precisely.
    memory_budget:
        Optional :class:`~repro.obs.mem.MemoryBudget` watchdog installed
        for the duration of :meth:`fit`.  The first allocation that
        pushes the combined saved+transient watermark past the budget
        dumps an ``oom/v1`` flight-recorder bundle and (if the budget
        says so) aborts the run — the admission-control primitive the
        serving scheduler consumes.
    """

    engine: BurstEngine
    schedule: LRSchedule | None = None
    clip_norm: float | None = 1.0
    eval_fn: Callable | None = None
    eval_every: int = 10
    checkpoint_path: str | None = None
    state_path: str | None = None
    save_every: int = 0
    grad_accumulation: int = 1
    on_step_end: Callable[["Trainer", TrainRecord], None] | None = None
    metrics_path: str | None = None
    memory_budget: MemoryBudget | None = None
    history: list[TrainRecord] = field(default_factory=list)
    best_eval: float = float("inf")
    micro: int = 0

    def __post_init__(self) -> None:
        if self.schedule is None:
            self.schedule = ConstantLR(self.engine.optimizer.lr)

    @property
    def model(self):
        return self.engine.model

    def fit(
        self,
        batches: Sequence[tuple[np.ndarray, np.ndarray]],
        steps: int,
        resume_from: str | None = None,
    ) -> list[TrainRecord]:
        if self.memory_budget is None:
            return self._fit(batches, steps, resume_from)
        with use_memory_budget(self.memory_budget):
            return self._fit(batches, steps, resume_from)

    def _fit(
        self,
        batches: Sequence[tuple[np.ndarray, np.ndarray]],
        steps: int,
        resume_from: str | None = None,
    ) -> list[TrainRecord]:
        """Run ``steps`` optimizer updates cycling through ``batches``.

        With ``grad_accumulation = k``, each update backpropagates ``k``
        consecutive micro-batches (scaled by ``1/k``) before stepping —
        the standard way to grow the effective batch without growing the
        activation footprint.  Gradient clipping happens between backward
        and the optimizer step.  The step itself is the engine's one
        executor, the same ``train_step`` runs.

        With ``resume_from`` set, the trainer first restores a train-state
        snapshot (model, optimizer, RNG stream, history, best-eval, batch
        cursor) and continues from the snapshot's step; the resulting
        history is bitwise identical to an uninterrupted run.
        """
        if not batches:
            raise ValueError("need at least one (ids, targets) batch")
        if self.grad_accumulation < 1:
            raise ValueError("grad_accumulation must be >= 1")
        start_step = 0
        if resume_from is not None:
            start_step = self.load_state(resume_from)
        engine = self.engine
        for step in range(start_step, steps):
            comm_mark = len(engine.comm.log.records)
            tiles_mark = self._tile_snapshot()
            lr = self.schedule.apply(engine.optimizer, step)
            micro_batches = [
                batches[(self.micro + i) % len(batches)]
                for i in range(self.grad_accumulation)
            ]
            self.micro += self.grad_accumulation
            loss_value, grad_norm, _ = engine._step(
                step, micro_batches, self.clip_norm
            )

            record = TrainRecord(
                step=step, loss=loss_value, lr=lr, grad_norm=grad_norm
            )
            if self.eval_fn is not None and (step + 1) % self.eval_every == 0:
                with no_grad():
                    record.eval_loss = float(self.eval_fn(engine.model))
                if record.eval_loss < self.best_eval:
                    self.best_eval = record.eval_loss
                    if self.checkpoint_path is not None:
                        save_model(engine.model, self.checkpoint_path)
            self.history.append(record)
            if (
                self.state_path is not None
                and self.save_every > 0
                and (step + 1) % self.save_every == 0
            ):
                self.save_state(self.state_path)
            if self.on_step_end is not None:
                self.on_step_end(self, record)
            if self.metrics_path is not None:
                self._emit_step_metrics(record, comm_mark, tiles_mark)
        return self.history

    # --- per-step metrics ----------------------------------------------------

    def _tile_snapshot(self) -> dict | None:
        if self.metrics_path is None:
            return None
        from repro.kernels.tileplan import counters as tile_counters

        return tile_counters.snapshot()

    def _emit_step_metrics(
        self, record: TrainRecord, comm_mark: int, tiles_mark: dict
    ) -> None:
        """Append one JSONL metrics line aggregating this step's traffic.

        Aggregation runs over exactly ``log.records[comm_mark:]`` — the
        transfers this step appended (eval / callbacks included) — so the
        per-step comm volumes sum to the :class:`TrafficLog` totals.  The
        same deltas are mirrored into the global registry's ``comm.elems``
        / ``comm.bytes`` counters, labeled by phase and by link class.
        """
        from repro.kernels.tileplan import counters as tile_counters
        from repro.nn.memory import get_tracker
        from repro.obs.export import write_step_metrics
        from repro.obs.metrics import get_registry

        new = self.engine.comm.log.records[comm_mark:]
        total_elems = total_bytes = 0
        by_phase: dict[str, dict[str, int]] = {}
        by_link: dict[str, dict[str, int]] = {}
        per_rank: dict[str, dict[str, int]] = {}
        for rec in new:
            total_elems += rec.nelems
            total_bytes += rec.nbytes
            d = by_phase.setdefault(rec.phase, {"elems": 0, "bytes": 0})
            d["elems"] += rec.nelems
            d["bytes"] += rec.nbytes
            l = by_link.setdefault(rec.link.value, {"elems": 0, "bytes": 0})
            l["elems"] += rec.nelems
            l["bytes"] += rec.nbytes
            pr = per_rank.setdefault(rec.phase, {})
            key = str(rec.src)
            pr[key] = pr.get(key, 0) + rec.nelems
        reg = get_registry()
        for phase, d in by_phase.items():
            reg.counter("comm.elems").inc(d["elems"], phase=phase)
            reg.counter("comm.bytes").inc(d["bytes"], phase=phase)
        for link, d in by_link.items():
            reg.counter("comm.elems").inc(d["elems"], link=link)
            reg.counter("comm.bytes").inc(d["bytes"], link=link)
        tiles_now = tile_counters.snapshot()
        tracker = get_tracker()
        write_step_metrics(self.metrics_path, {
            "step": record.step,
            "loss": record.loss,
            "lr": record.lr,
            "grad_norm": record.grad_norm,
            "comm_elems": total_elems,
            "comm_bytes": total_bytes,
            "comm_transfers": len(new),
            "comm_by_phase": by_phase,
            "comm_by_link": by_link,
            "per_rank_send_elems": per_rank,
            "tiles_computed": tiles_now["tiles_computed"] - tiles_mark["tiles_computed"],
            "tiles_skipped": tiles_now["tiles_skipped"] - tiles_mark["tiles_skipped"],
            "peak_activation_bytes": tracker.peak_saved_bytes,
            "recompute_flops": tracker.recompute_flops,
        })

    # --- crash recovery ------------------------------------------------------

    def save_state(self, path: str) -> str:
        """Atomically snapshot the full training run to ``path``.

        Captures everything ``fit(resume_from=path)`` needs to continue
        bitwise: parameters, optimizer moments, the RNG stream, history,
        best-eval watermark, batch cursor and the engine step counter.
        Returns the snapshot's manifest digest.
        """
        return save_train_state(
            path,
            self.engine.model,
            self.engine.optimizer,
            step=len(self.history),
            micro=self.micro,
            history=[asdict(r) for r in self.history],
            best_eval=self.best_eval,
            engine_step=self.engine.step_count,
        )

    def load_state(self, path: str) -> int:
        """Restore a :meth:`save_state` snapshot; returns the resume step."""
        meta = load_train_state(path, self.engine.model, self.engine.optimizer)
        self.history = [TrainRecord(**r) for r in meta["history"]]
        best = meta.get("best_eval")
        self.best_eval = float("inf") if best is None else float(best)
        self.micro = int(meta["micro"])
        if meta.get("engine_step") is not None:
            self.engine.step_count = int(meta["engine_step"])
        return int(meta["step"])

    def losses(self) -> list[float]:
        return [r.loss for r in self.history]

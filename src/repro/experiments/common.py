"""Shared scaffolding for the paper-experiment harness.

Each experiment function returns an :class:`ExperimentResult` whose rows
regenerate one table or figure of the paper; ``format()`` renders the
paper-style text table and ``to_dict()`` a JSON-friendly record of the
same cells.

Baseline configuration conventions (used across Fig. 12/13/14):

* Megatron-CP has no FSDP / optimizer offload (the paper attributes its
  OOM to replicated weights and optimizer states) and uses full gradient
  checkpointing.
* DeepSpeed-Ulysses uses FSDP (ZeRO-3) with full checkpointing.
* LoongTrain (DoubleRing and USP) is configured with standard full
  gradient checkpointing and an unfused LM head.  (Its selective++ mode
  trades memory for speed; EXPERIMENTS.md discusses the effect of that
  choice on the Fig. 13 comparison.)
* BurstEngine = Burst attention + sequence-level selective checkpointing
  + fused LM head/loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.engine import EngineConfig
from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy
from repro.utils.format import format_table


@dataclass
class ExperimentResult:
    """Rows reproducing one table/figure."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"[{self.exp_id}] {self.title}",
                 format_table(self.headers, self.rows)]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "id": self.exp_id,
            "title": self.title,
            "headers": self.headers,
            "rows": [[str(c) for c in row] for row in self.rows],
            "notes": self.notes,
        }

    def column(self, name: str) -> list[object]:
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]


#: The checkpoint policies the cells run.
FULL = CheckpointPolicy(CheckpointMode.FULL)
SELECTIVE_PP = CheckpointPolicy(CheckpointMode.SELECTIVE_PP)
#: The paper's operating point: the front half of each layer recomputed.
SEQUENCE_LEVEL = CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.5)

#: Per-method end-to-end configuration used in Fig. 12 / Fig. 13; a cell
#: sets its ``model`` with ``dataclasses.replace``.
BASELINE_CONFIGS: dict[str, EngineConfig] = {
    "megatron-cp": EngineConfig(method="megatron-cp", fsdp=False,
                                checkpoint=FULL, head_impl="naive"),
    "ulysses": EngineConfig(method="ulysses", checkpoint=FULL,
                            head_impl="naive"),
    "loongtrain-double": EngineConfig(method="loongtrain-double",
                                      checkpoint=FULL, head_impl="naive"),
    "usp": EngineConfig(method="usp", checkpoint=FULL, head_impl="naive"),
    "burst": EngineConfig(method="burst", checkpoint=SEQUENCE_LEVEL,
                          head_impl="fused"),
}

METHOD_LABELS = {
    "megatron-cp": "Megatron-CP",
    "ulysses": "DeepSpeed-Ulysses",
    "loongtrain-double": "LoongTrain-DoubleRing",
    "usp": "LoongTrain-USP",
    "burst": "BurstEngine",
}


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"

"""The four benchmark workloads: an engine configuration, a cluster shape
and a sequence length each.  ``README.md`` records why each one is here.

Every workload uses ``attn_block_size=64``, ``lr=1e-3``, ``fsdp=True``,
float64, the model seed fixed at 0, and the same token batch on every
step; only the batch depends on ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.engine import BurstEngine, EngineConfig
from repro.masks import sliding_window_block_mask
from repro.nn import CheckpointPolicy, TransformerConfig
from repro.nn.checkpoint import CheckpointMode
from repro.partition import BlockwisePartitioner
from repro.topology import ClusterTopology, a800_node, make_cluster

_SEQUENCE_LEVEL = CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.5)


def _small_model(seq_len: int, **overrides) -> TransformerConfig:
    """The long-sequence model: attention dominates, everything else is tiny."""
    return TransformerConfig(
        vocab_size=128, dim=64, n_layers=2, n_heads=8, ffn_hidden=128,
        max_seq_len=seq_len, attn_block_size=64, **overrides,
    )


def _burst_long(seq_len: int) -> EngineConfig:
    return EngineConfig(
        model=_small_model(seq_len), method="burst",
        checkpoint=_SEQUENCE_LEVEL, head_impl="fused", lr=1e-3,
    )


def _wide_short(seq_len: int) -> EngineConfig:
    return EngineConfig(
        model=TransformerConfig(
            vocab_size=4096, dim=256, n_layers=4, n_heads=4, ffn_hidden=1024,
            max_seq_len=seq_len, attn_block_size=64, mlp_chunk_size=64,
        ),
        method="burst", checkpoint=_SEQUENCE_LEVEL, head_impl="fused", lr=1e-3,
    )


def _ulysses_full(seq_len: int) -> EngineConfig:
    return EngineConfig(
        model=_small_model(seq_len), method="ulysses",
        checkpoint=CheckpointPolicy(CheckpointMode.FULL), head_impl="naive",
        lr=1e-3,
    )


def _swa_bidir(seq_len: int) -> EngineConfig:
    # 32 mask blocks at any length, so the smoke run keeps the full run's
    # sparsity (a 4-block causal window allows ~12 % of the block pairs).
    block = seq_len // 32
    return EngineConfig(
        model=_small_model(
            seq_len,
            mask=sliding_window_block_mask(seq_len, block, window_blocks=4),
        ),
        method="burst",
        method_kwargs={
            "partitioner": BlockwisePartitioner(block),
            "ring_mode": "bidirectional",
        },
        checkpoint=_SEQUENCE_LEVEL, head_impl="fused", lr=1e-3,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], EngineConfig]
    seq_len: int
    smoke_seq_len: int
    ranks: int
    gpus_per_node: int

    def length(self, smoke: bool) -> int:
        return self.smoke_seq_len if smoke else self.seq_len

    def topology(self) -> ClusterTopology:
        return make_cluster(
            self.ranks, node=a800_node(gpus_per_node=self.gpus_per_node)
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("burst_long", _burst_long, 2048, 256, ranks=8, gpus_per_node=4),
        Workload("wide_short", _wide_short, 512, 128, ranks=2, gpus_per_node=2),
        Workload("ulysses_full", _ulysses_full, 2048, 256, ranks=8, gpus_per_node=8),
        Workload("swa_bidir", _swa_bidir, 2048, 256, ranks=8, gpus_per_node=4),
    )
}


def single_rank_engine(config: EngineConfig) -> BurstEngine:
    """The plain single-worker baseline: same model and batch, one rank."""
    return BurstEngine(config, topology=make_cluster(1))


def make_batch(config: EngineConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Next-token batch from ``seed``; the program only ever sees these arrays."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, config.model.vocab_size, size=config.model.max_seq_len)
    return ids, np.roll(ids, -1)

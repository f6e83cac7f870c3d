"""Analytical figures: Fig. 2 (attention share), Fig. 7 (checkpoint
memory), Fig. 8 (LM-head logits memory)."""

from __future__ import annotations

from repro.engine import EngineConfig
from repro.experiments.common import ExperimentResult, fmt
from repro.models import (
    LLAMA2_VOCAB, LLAMA3_VOCAB, LLAMA_7B, attention_fraction, model_name,
)
from repro.nn.checkpoint import CheckpointPolicy
from repro.nn.modules import TransformerConfig
from repro.perf.memory import GB, MemoryModel, TrainingSetup, logits_memory_bytes
from repro.topology import make_cluster


DEFAULT_SEQS = [8192, 32768, 131072, 524288, 1048576]


def fig02_attention_share(
    model: TransformerConfig = LLAMA_7B, seq_lens: list[int] | None = None
) -> ExperimentResult:
    """Fig. 2: share of end-to-end training time spent in attention.

    Attention FLOPs grow linearly in sequence length per token while the
    dense layers are constant, so the share crosses 50% around 64K tokens
    for a 7B model and exceeds 90% past 512K — the motivation for
    attention-centric distributed optimisation.
    """
    seqs = seq_lens or DEFAULT_SEQS
    rows = []
    for s in seqs:
        share = attention_fraction(model, s)
        rows.append([f"{s // 1024}K", fmt(share * 100, 1)])
    return ExperimentResult(
        exp_id="fig02",
        title=f"Attention share of training time ({model_name(model)} model)",
        headers=["seq_len", "attention_%"],
        rows=rows,
        notes=["FLOPs-proportional share; paper measures wall-clock on A800"],
    )


def fig07_checkpoint_memory(
    model: TransformerConfig = LLAMA_7B,
    world: int = 32,
    seq_lens: list[int] | None = None,
) -> ExperimentResult:
    """Fig. 7: total stored-activation memory by checkpointing strategy.

    All curves are linear in sequence length; selective++ stores ~2x the
    full-checkpointing baseline, sequence-level (0.5 split) 1.5x — i.e. it
    removes half of selective++'s overhead, the paper's "50% reduction".
    """
    seqs = seq_lens or DEFAULT_SEQS
    configs = [
        EngineConfig(model=model, checkpoint=CheckpointPolicy.parse(p))
        for p in ("full", "sequence_level", "selective_pp", "none")
    ]
    topo = make_cluster(world)
    rows = [
        [f"{s // 1024}K"] + [
            fmt(MemoryModel().activation_bytes(TrainingSetup(c, topo, s)) / GB)
            for c in configs
        ]
        for s in seqs
    ]
    return ExperimentResult(
        exp_id="fig07",
        title=f"Stored activations per GPU (GB), {model_name(model)} on {world} GPUs",
        headers=["seq_len", "full_ckpt", "sequence_level", "selective_pp", "no_ckpt"],
        rows=rows,
        notes=[
            "sequence-level stores (1 + 1 - split) x layer-input bytes: "
            "half of selective++'s whitelist overhead at split=0.5",
        ],
    )


def fig08_logits_memory(seq_lens: list[int] | None = None) -> ExperimentResult:
    """Fig. 8: total LM-head logits memory, LLaMA-1/2 (32K vocab) vs
    LLaMA-3 (128K vocab).  Grows linearly with sequence length and hits
    hundreds of GB at 1M tokens for large vocabularies — the reason the
    head must be fused with the loss."""
    seqs = seq_lens or DEFAULT_SEQS
    rows = []
    for s in seqs:
        m2 = logits_memory_bytes(s, LLAMA2_VOCAB) / 1e9
        m3 = logits_memory_bytes(s, LLAMA3_VOCAB) / 1e9
        rows.append([f"{s // 1024}K", fmt(m2), fmt(m3)])
    return ExperimentResult(
        exp_id="fig08",
        title="LM-head logits memory (GB, bf16, whole sequence)",
        headers=["seq_len", "llama-1/2 (32K vocab)", "llama-3 (128K vocab)"],
        rows=rows,
        notes=["fused head + loss (Alg. 3) stores none of this"],
    )

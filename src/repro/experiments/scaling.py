"""Scalability experiments: Table 4 (inter-node) and Table 5 (intra-node)."""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import BASELINE_CONFIGS, ExperimentResult, fmt
from repro.models import LLAMA_14B, model_name
from repro.nn.modules import TransformerConfig
from repro.perf import EndToEndModel, TrainingSetup
from repro.topology import make_cluster


def tab04_internode(
    model: TransformerConfig = LLAMA_14B,
    node_counts: list[int] | None = None,
    seq_per_gpu: int = 32768,
) -> ExperimentResult:
    """Table 4: scaling node count with 32K tokens per GPU.

    Expected shape: MFU stays flat (>45%) as nodes and sequence grow
    together, TGS halves per doubling (per-GPU work doubles with total
    sequence length while throughput per token is constant), and memory
    per GPU stays stable — near-linear sequence-dimension scaling.
    Optimizer offload is off (states fit once sharded over >=16 GPUs).
    """
    config = replace(BASELINE_CONFIGS["burst"], model=model)
    rows = []
    for nodes in node_counts or [2, 4, 8]:
        gpus = nodes * 8
        seq = gpus * seq_per_gpu
        r = EndToEndModel().step(
            TrainingSetup(config, make_cluster(gpus), seq))
        rows.append([
            nodes, f"{seq // (1 << 20)}M" if seq >= 1 << 20 else f"{seq // 1024}K",
            fmt(r.mfu * 100, 1), fmt(r.tgs, 2), fmt(r.memory.total_gb, 2),
        ])
    return ExperimentResult(
        exp_id="tab04",
        title=f"Inter-node scalability: {model_name(model)}, 8 x A800 per node, "
              f"{seq_per_gpu // 1024}K tokens/GPU",
        headers=["nodes", "sequence", "MFU_%", "TGS", "mem_GB"],
        rows=rows,
        notes=["paper: 53.1/223.25/63.13 | 53.2/118.36/53.96 | 52.7/60.49/50.96"],
    )


def tab05_intranode(
    model: TransformerConfig = LLAMA_14B,
    cp_sizes: list[int] | None = None,
    seq_per_gpu: int = 32768,
) -> ExperimentResult:
    """Table 5: context-parallel size 1..8 inside one 8 x A800 node.

    Optimizer offload is ON (the paper enables it because optimizer
    states are huge at small world sizes).  Expected shape: MFU *rises*
    with CP size (longer sequences raise the attention share, which runs
    at higher arithmetic intensity than the small per-GPU batch pieces),
    crossing 50% of the ideal at CP >= 4; memory stays roughly stable.
    """
    config = replace(BASELINE_CONFIGS["burst"], model=model)
    rows = []
    for cp in cp_sizes or [1, 2, 4, 8]:
        seq = cp * seq_per_gpu
        r = EndToEndModel().step(TrainingSetup(
            config, make_cluster(cp), seq, optimizer_offload=True))
        rows.append([
            cp, f"{seq // 1024}K", fmt(r.mfu * 100, 2), fmt(r.tgs, 2),
            fmt(r.memory.total_gb, 2),
        ])
    return ExperimentResult(
        exp_id="tab05",
        title=f"Intra-node scalability: {model_name(model)}, context-parallel size "
              "on 8 x A800 (optimizer offload on)",
        headers=["CP", "sequence", "MFU_%", "TGS", "mem_GB"],
        rows=rows,
        notes=["paper: 47.34/1201.14 | 48.85/928.24 | 50.55/639.43 | 51.90/393.44"],
    )

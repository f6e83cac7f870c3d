"""End-to-end experiments: Fig. 12 (TGS/MFU) and Fig. 13 (peak memory)
across the full method x model x cluster grid."""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import (
    BASELINE_CONFIGS,
    SELECTIVE_PP,
    ExperimentResult,
    METHOD_LABELS,
    fmt,
)
from repro.models import LLAMA_7B, LLAMA_14B, model_name
from repro.nn.modules import TransformerConfig
from repro.perf import EndToEndModel, TrainingSetup
from repro.topology import make_cluster


#: The paper's evaluation grid: (model, GPUs, sequence length).
FIG12_GRID: list[tuple[TransformerConfig, int, int]] = [
    (LLAMA_7B, 32, 2 << 20),    # 7B, 2M on 32 x A800
    (LLAMA_14B, 32, 1 << 20),   # 14B, 1M on 32 x A800
    (LLAMA_7B, 64, 4 << 20),    # 7B, 4M on 64 x A800
    (LLAMA_14B, 64, 2 << 20),   # 14B, 2M on 64 x A800
]

METHODS = ["megatron-cp", "ulysses", "loongtrain-double", "usp", "burst"]


def _cell(model: TransformerConfig, num_gpus: int, seq: int, method: str):
    config = replace(BASELINE_CONFIGS[method], model=model)
    try:
        return EndToEndModel().step(
            TrainingSetup(config, make_cluster(num_gpus), seq))
    except ValueError:
        return None  # infeasible (e.g. Ulysses head divisibility)


def fig12_end_to_end(grid=None) -> ExperimentResult:
    """Fig. 12: end-to-end training throughput (TGS) and MFU.

    Expected shape (as in the paper): BurstEngine wins every cell
    (~1.15-1.25x over LoongTrain-USP); Megatron-CP OOMs everywhere (no
    FSDP); DeepSpeed-Ulysses OOMs for 14B (head-count limit).
    """
    rows = []
    for model, gpus, seq in grid or FIG12_GRID:
        for method in METHODS:
            r = _cell(model, gpus, seq, method)
            label = METHOD_LABELS[method]
            cell = f"{model_name(model)}/{gpus}GPU/{seq // (1 << 20)}M"
            if r is None:
                rows.append([cell, label, "infeasible", "-", "-"])
            elif r.oom:
                rows.append([cell, label, "OOM", "-",
                             fmt(r.memory.total_gb, 1)])
            else:
                rows.append([cell, label, fmt(r.tgs, 2),
                             fmt(r.mfu * 100, 2), fmt(r.memory.total_gb, 1)])
    return ExperimentResult(
        exp_id="fig12",
        title="End-to-end training throughput (TGS tokens/s/GPU) and MFU (%)",
        headers=["setting", "method", "TGS", "MFU_%", "mem_GB"],
        rows=rows,
        notes=["OOM cells report the modelled requirement vs the 80 GB budget"],
    )


def fig13_peak_memory(grid=None) -> ExperimentResult:
    """Fig. 13: peak per-GPU memory for the same grid.

    BurstEngine is lowest everywhere (fused head + sequence-level
    checkpointing); at 64 GPUs it is the only system that fits, and its
    footprint stays nearly flat as GPUs and sequence scale together —
    near-linear scaling along the sequence dimension.
    """
    rows = []
    burst_vs_tuned: list[float] = []
    for model, gpus, seq in grid or FIG12_GRID:
        cell = f"{model_name(model)}/{gpus}GPU/{seq // (1 << 20)}M"
        totals = {}
        for method in METHODS:
            r = _cell(model, gpus, seq, method)
            label = METHOD_LABELS[method]
            if r is None:
                rows.append([cell, label, "infeasible", "-"])
                continue
            totals[method] = r.memory.total_gb
            rows.append([cell, label, fmt(r.memory.total_gb, 1),
                         "OOM" if r.oom else "ok"])
        # LoongTrain as shipped runs selective checkpointing++ (its
        # speed-tuned mode) — the configuration the paper's 26.4%/24.2%
        # savings are measured against.
        tuned = EndToEndModel().step(TrainingSetup(
            replace(BASELINE_CONFIGS["usp"], model=model,
                    checkpoint=SELECTIVE_PP),
            make_cluster(gpus), seq,
        ))
        rows.append([cell, "LoongTrain-USP (selective++)",
                     fmt(tuned.memory.total_gb, 1),
                     "OOM" if tuned.oom else "ok"])
        if "burst" in totals and not tuned.oom:
            burst_vs_tuned.append(1 - totals["burst"] / tuned.memory.total_gb)
    notes = []
    if burst_vs_tuned:
        notes.append(
            "BurstEngine saves "
            + ", ".join(f"{s * 100:.1f}%" for s in burst_vs_tuned)
            + " vs speed-tuned (selective++) LoongTrain-USP per setting "
            "(paper: 26.4% at 7B/32GPU, 24.2% at 14B/32GPU)"
        )
    return ExperimentResult(
        exp_id="fig13",
        title="Peak memory per GPU (GB)",
        headers=["setting", "method", "mem_GB", "fits_80GB"],
        rows=rows,
        notes=notes,
    )

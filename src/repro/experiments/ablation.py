"""Ablations: Table 2 (optimization stack) and Table 3 (sparse workload
balance)."""

from __future__ import annotations

from dataclasses import replace

from repro.engine import EngineConfig
from repro.experiments.claims import paper
from repro.experiments.common import (
    BASELINE_CONFIGS, FULL, SELECTIVE_PP, SEQUENCE_LEVEL, ExperimentResult, fmt,
)
from repro.models import LLAMA_14B, model_name
from repro.nn.modules import TransformerConfig
from repro.perf import EndToEndModel, TrainingSetup
from repro.topology import make_cluster


#: Table 2 rows: cumulative optimisation stack on 14B / 1M / 32 x A800,
#: as (label, the configuration whose method, policy and head it prices).
TAB02_ROWS = [
    (label, EngineConfig(method=method, checkpoint=ckpt, head_impl=head))
    for label, method, ckpt, head in [
        ("base (flat ring, Alg.1)", "megatron-cp", FULL, "naive"),
        ("+ backward comm opt (Alg.2)", "burst-flat", FULL, "naive"),
        ("+ topology-aware ring", "burst", FULL, "naive"),
        ("+ fused LM head & loss", "burst", FULL, "fused"),
        ("+ sequence-level ckpt", "burst", SEQUENCE_LEVEL, "fused"),
        ("selective++ instead", "burst", SELECTIVE_PP, "fused"),
    ]
]


def tab02_ablation(
    model: TransformerConfig = LLAMA_14B,
    num_gpus: int = 32,
    seq_len: int = 1 << 20,
) -> ExperimentResult:
    """Table 2: contribution of each BurstEngine optimisation."""
    topo = make_cluster(num_gpus)
    rows = []
    base_tgs = None
    for label, config in TAB02_ROWS:
        r = EndToEndModel().step(
            TrainingSetup(replace(config, model=model), topo, seq_len))
        if base_tgs is None:
            base_tgs = r.tgs
        rows.append([
            label, fmt(r.mfu * 100, 2), fmt(r.tgs, 2),
            fmt(r.memory.total_gb, 2), fmt(r.tgs / base_tgs, 2) + "x",
        ])
    return ExperimentResult(
        exp_id="tab02",
        title=f"Ablation: {model_name(model)}, {seq_len // (1 << 20)}M tokens, "
              f"{num_gpus} x A800",
        headers=["configuration", "MFU_%", "TGS", "mem_GB", "vs_base"],
        rows=rows,
        notes=["paper row TGS: " + " / ".join(map(fmt, paper("tab02:tgs-rises")))],
    )


def tab02_split_sweep(
    model: TransformerConfig = LLAMA_14B,
    num_gpus: int = 32,
    seq_len: int = 1 << 20,
    fractions: list[float] | None = None,
) -> ExperimentResult:
    """Design-choice ablation: the sequence-level checkpointing split point.

    ``split_fraction`` is the share of each layer's sequence that is
    *recomputed* (the front); ``1 - split`` is stored.  Small fractions
    approach selective++, large ones full checkpointing: the sweep is the
    memory-throughput frontier the paper's operating point sits on.
    """
    topo = make_cluster(num_gpus)
    split = SEQUENCE_LEVEL.split_fraction
    rows = []
    for frac in fractions or [0.125, 0.25, 0.5, 0.75, 0.875]:
        config = replace(BASELINE_CONFIGS["burst"], model=model,
                         checkpoint=replace(SEQUENCE_LEVEL, split_fraction=frac))
        r = EndToEndModel().step(TrainingSetup(config, topo, seq_len))
        rows.append([
            f"{frac:.3f}", fmt(r.tgs, 2), fmt(r.mfu * 100, 2),
            fmt(r.memory.total_gb, 2),
        ])
    return ExperimentResult(
        exp_id="tab02-split",
        title=f"Sequence-level checkpoint split sweep: {model_name(model)}, "
              f"{seq_len // (1 << 20)}M, {num_gpus} x A800",
        headers=["recomputed_fraction", "TGS", "MFU_%", "mem_GB"],
        rows=rows,
        notes=[f"paper's operating point: {split} (half of selective++'s memory, "
               f"~{split * split:.0%} of full's attention recompute)"],
    )


def tab03_sparse(
    model: TransformerConfig = LLAMA_14B,
    num_gpus: int = 8,
    seq_len: int = 262144,
    window: int = 32768,
) -> ExperimentResult:
    """Table 3: throughput of sparse-attention workload-balance strategies.

    * **attention masking** — causal mask applied with a contiguous
      partition and no balance: barriers make every step as slow as the
      slowest device, erasing the mask's savings (dense-cost attention);
    * **causal attention** — zigzag/striped balance: each device does the
      causal half-work;
    * **SWA** — block-wise balanced sliding window (32K window): only
      ``2w/N`` of the causal pairs remain.
    """
    topo = make_cluster(num_gpus)
    config = replace(BASELINE_CONFIGS["burst"], model=model)
    masking, causal, swa = (
        EndToEndModel().step(TrainingSetup(
            config, topo, seq_len, optimizer_offload=True, **pricing))
        for pricing in (dict(workload_balanced=False), {},
                        dict(sparsity=2 * window / seq_len))
    )
    rows = [
        ["Attention Masking", fmt(masking.tgs, 2), "1.00x"],
        ["Causal Attention", fmt(causal.tgs, 2),
         fmt(causal.tgs / masking.tgs, 2) + "x"],
        [f"SWA ({window // 1024}K window)", fmt(swa.tgs, 2),
         fmt(swa.tgs / masking.tgs, 2) + "x"],
    ]
    return ExperimentResult(
        exp_id="tab03",
        title=f"Sparse workload balance: {model_name(model)}, "
              f"{seq_len // 1024}K tokens, {num_gpus} x A800",
        headers=["implementation", "TGS", "speedup"],
        rows=rows,
        notes=["paper: {} / {} ({}x) / {} ({}x)".format(*map(fmt, (
            *paper("tab03:balance-raises-tgs")[:2], paper("tab03:speedups")[0],
            paper("tab03:balance-raises-tgs")[2], paper("tab03:speedups")[1])))],
    )

"""Extension experiments (beyond the paper's tables and figures).

Four analyses quantifying this repository's extensions; the CLI renders
them alongside the paper set and ``CLAIMS`` holds their bounds::

    python -m repro.experiments ext-gqa ext-selective ext-tp ext-pp
"""

from __future__ import annotations

from repro.attention.gqa import backward_comm_elems, choose_backward_algorithm
from repro.attention.selective import selective_vs_ring_volume
from repro.experiments.common import ExperimentResult
from repro.masks import SlidingWindowMask
from repro.models import LLAMA_14B, model_name
from repro.nn.modules import TransformerConfig
from repro.partition import ContiguousPartitioner
from repro.perf.schedules.pipeline import gpipe_bubble_fraction, pipeline_efficiency
from repro.perf.tensor_parallel import tp_scaling_analysis


def ext_gqa_tradeoff(
    seq_len: int = 1 << 20, head_dim: int = 128, n_q_heads: int = 64
) -> ExperimentResult:
    """GQA flips the Algorithm-1/Algorithm-2 backward payload trade-off:
    grouped KV heads shrink Alg. 1's circulating bundle while Alg. 2's
    query-sized one is unaffected (crossover at group factor 4/3)."""
    rows = []
    for n_kv in (64, 16, 8, 4, 1):
        alg1 = backward_comm_elems("alg1", seq_len, head_dim, n_q_heads, n_kv)
        alg2 = backward_comm_elems("alg2", seq_len, head_dim, n_q_heads, n_kv)
        rows.append([
            f"{n_q_heads}/{n_kv}",
            f"{alg1 / 1e9:.2f}",
            f"{alg2 / 1e9:.2f}",
            choose_backward_algorithm(head_dim, n_q_heads, n_kv),
        ])
    return ExperimentResult(
        exp_id="ext-gqa",
        title=f"GQA backward payload (G-elements/GPU, "
              f"{seq_len // (1 << 20)}M tokens, {n_q_heads} q-heads)",
        headers=["q/kv heads", "Alg.1 (ring KV)", "Alg.2 (burst)",
                 "adaptive pick"],
        rows=rows,
        notes=["crossover at group factor 4/3: every real GQA model "
               "favours Alg.1"],
    )


def ext_selective_comm(
    n: int = 1 << 20, g: int = 32, hidden: int = 5120
) -> ExperimentResult:
    """Sparsity-aware selective fetch vs ring circulation: forward KV
    volume for sliding windows over contiguous shards."""
    shard_elems = n // g * hidden
    rows = []
    for window in (n // 32, n // 8, n // 2, n):
        idxs = ContiguousPartitioner().indices(n, g)
        out = selective_vs_ring_volume(
            SlidingWindowMask(window), idxs, shard_elems
        )
        rows.append([
            f"{window // 1024}K",
            f"{out['ring'] / 1e9:.1f}",
            f"{out['selective'] / 1e9:.1f}",
            f"{out['savings'] * 100:.0f}%",
        ])
    return ExperimentResult(
        exp_id="ext-selective",
        title=f"Forward KV volume (G-elements, cluster total), SWA over "
              f"{n // (1 << 20)}M tokens on {g} GPUs (contiguous shards)",
        headers=["window", "ring", "selective", "saved"],
        rows=rows,
        notes=[
            "requires contiguous (local) shards; balanced partitions "
            "(striped / blockwise) make every tile live and save nothing — "
            "the locality-vs-balance trade-off",
        ],
    )


def ext_tp_scaling(model: TransformerConfig = LLAMA_14B) -> ExperimentResult:
    """Pure tensor parallelism at long context: activations are not
    sequence-sharded, so a 14B model OOMs long before 1M tokens at any TP
    degree — the quantitative motivation for context parallelism."""
    seqs = [65536, 131072, 262144, 524288, 1 << 20]
    rows = []
    for row in tp_scaling_analysis(model, seqs, tp_degree=8):
        rows.append([
            f"{row.seq_len // 1024}K",
            f"{row.comm_gb_per_layer:.2f}",
            f"{row.activation_gb_per_gpu:.1f}",
            "ok" if row.fits_80gb else "OOM",
        ])
    return ExperimentResult(
        exp_id="ext-tp",
        title=f"Pure tensor parallelism at long context ({model_name(model)}, "
              "TP=8, full ckpt)",
        headers=["seq_len", "all-reduce GB/layer", "activations GB/GPU",
                 "80GB"],
        rows=rows,
        notes=[
            "activations are TP-degree independent: adding ranks cannot fix "
            "this — sequence must be sharded (context parallelism)",
        ],
    )


def ext_pp_bubble() -> ExperimentResult:
    """Pipeline parallelism vs long context: one 1M-token sequence is one
    microbatch, so the pipeline bubble collapses efficiency to ~1/P —
    another reason the paper shards the *sequence* dimension."""
    rows = []
    for p in (2, 4, 8):
        for m in (1, p, 4 * p):
            eff = pipeline_efficiency(p, m, 1.0)
            rows.append([
                p, m, f"{gpipe_bubble_fraction(p, m) * 100:.1f}%",
                f"{eff * 100:.1f}%",
            ])
    return ExperimentResult(
        exp_id="ext-pp",
        title="Pipeline bubble vs microbatch count (DES 1F1B schedule)",
        headers=["stages", "microbatches", "bubble", "efficiency"],
        rows=rows,
        notes=["a single long sequence (M=1) leaves only 1/P of the "
               "pipeline busy; context parallelism has no such penalty"],
    )


EXTENSION_EXPERIMENTS = {
    "ext-gqa": ext_gqa_tradeoff,
    "ext-selective": ext_selective_comm,
    "ext-tp": ext_tp_scaling,
    "ext-pp": ext_pp_bubble,
}

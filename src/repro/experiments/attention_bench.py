"""Attention-level experiments: Table 1 (comm-time formulas) and Fig. 14
(attention-only performance across implementations)."""

from __future__ import annotations

from repro.engine import EngineConfig
from repro.experiments.claims import paper
from repro.experiments.common import FULL, ExperimentResult, METHOD_LABELS, fmt
from repro.models import LLAMA_14B, model_name
from repro.nn.modules import TransformerConfig
from repro.perf.cost import table1_comm_times
from repro.perf.memory import MemoryModel, TrainingSetup
from repro.perf.schedules.attention import AttentionWorkload, attention_pass_time
from repro.topology import ClusterTopology, a100_node, make_cluster


def tab01_comm_time(
    topology: ClusterTopology | None = None,
    seq_lens: list[int] | None = None,
    hidden: int = 5120,
) -> ExperimentResult:
    """Table 1: total attention communication time of the three
    ring-family methods, evaluated on concrete link specs.

    BurstAttention's advantage has two sources visible here: the
    topology-aware split (intra/inter overlap; ``max`` instead of
    lockstep-slowest or serialized sums) and Algorithm 2's smaller
    backward payload (5 effective circulations vs 6).
    """
    topo = topology or make_cluster(32)
    seqs = seq_lens or [262144, 524288, 1048576, 2097152]
    rows = []
    for s in seqs:
        t = table1_comm_times(topo, s, hidden)
        rows.append(
            [
                f"{s // 1024}K",
                fmt(t["ring"] * 1e3, 1),
                fmt(t["double_ring"] * 1e3, 1),
                fmt(t["burst"] * 1e3, 1),
                fmt(t["ring"] / t["burst"], 2) + "x",
            ]
        )
    return ExperimentResult(
        exp_id="tab01",
        title=f"Attention comm time (ms) on {topo.describe()}",
        headers=["seq_len", "RingAttention", "DoubleRing", "BurstAttention",
                 "ring/burst"],
        rows=rows,
    )


def fig14_attention_perf(
    num_gpus: int = 32,
    model: TransformerConfig = LLAMA_14B,
    seq_lens: list[int] | None = None,
) -> ExperimentResult:
    """Fig. 14: fwd+bwd time of one distributed attention layer vs
    sequence length, on 32 x A100 with the 14B attention configuration.

    DeepSpeed-Ulysses is infeasible here (40 heads not divisible by 32
    GPUs); Megatron-CP additionally OOMs past 256K (replicated states
    leave no room for its attention buffers).
    """
    topo = make_cluster(num_gpus, node=a100_node())
    seqs = seq_lens or [131072, 262144, 524288, 1048576]
    methods = ["megatron-cp", "loongtrain-double", "usp", "burst"]
    mm = MemoryModel()
    rows = []
    for s in seqs:
        wl = AttentionWorkload(seq_len=s, hidden=model.dim,
                               n_heads=model.n_heads)
        row: list[object] = [f"{s // 1024}K"]
        times = {}
        for m in methods:
            # Megatron's replicated-state OOM kicks in past 256K.
            if m == "megatron-cp":
                setup = TrainingSetup(EngineConfig(
                    model=model, method=m, fsdp=False, checkpoint=FULL,
                ), topo, s)
                if mm.breakdown(setup).oom:
                    row.append("OOM")
                    continue
            t = (attention_pass_time(m, topo, wl)
                 + attention_pass_time(m, topo, wl, backward=True))
            times[m] = t
            row.append(fmt(t * 1e3, 1))
        if "burst" in times:
            others = {m: t / times["burst"] for m, t in times.items() if m != "burst"}
            row.append(
                " ".join(f"{METHOD_LABELS[m].split('-')[-1]}:{v:.2f}x"
                         for m, v in others.items())
            )
        rows.append(row)
    return ExperimentResult(
        exp_id="fig14",
        title=f"Attention fwd+bwd time (ms), {model_name(model)} config, "
              f"{num_gpus} x A100",
        headers=["seq_len", "Megatron-CP", "DoubleRing", "USP", "Burst",
                 "slowdown vs Burst"],
        rows=rows,
        notes=[
            "DeepSpeed-Ulysses infeasible: 40 heads % 32 GPUs != 0",
            f"paper reports {paper('fig14:usp-gap-at-1m'):.2f}x over USP and "
            f"{paper('fig14:doublering-gap-at-1m'):.2f}x over DoubleRing at 1M; "
            "this model reproduces the ordering with a smaller DoubleRing gap",
        ],
    )

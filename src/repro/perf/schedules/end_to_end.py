"""End-to-end training-step model: TGS, MFU, peak memory per method.

One training step is composed per layer out of

* dense-GEMM compute (QKV/O projections, SwiGLU FFN) at calibrated GEMM
  efficiency,
* the distributed attention pass time from the DES schedules
  (:mod:`repro.perf.schedules.attention`),
* checkpoint recomputation (the policy decides how much of the layer,
  and in particular of attention, is re-run),
* FSDP parameter all-gathers / gradient reduce-scatter, overlapped with
  compute at Transformer-block granularity (the BMTrain behaviour the
  paper describes) — per layer the effective time is
  ``max(compute, fsdp_comm)``; Megatron-CP has no FSDP traffic but
  replicates states (its cost shows up in the memory model instead),
* the LM head + loss (fused / tiled / naive FLOPs), and
* the optimizer step (PCIe-bound when offloaded).

The paper's end-to-end observation — "extra communication caused by FSDP
makes perfect overlap impossible, so reducing attention communication cost
yields bigger end-to-end gains than attention-only benchmarks suggest" —
emerges here: the per-layer ``max(compute, fsdp)`` leaves less slack to
hide attention communication, so Burst's lower backward volume buys more
than Fig. 14 alone implies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models import ModelSpec
from repro.nn.checkpoint import CheckpointPolicy
from repro.perf.cost import link_time, matmul_time
from repro.perf.memory import (
    BYTES_BF16, MemoryBreakdown, MemoryModel, TrainingSetup,
)
from repro.perf.schedules.attention import AttentionWorkload, attention_pass_time
from repro.topology import ClusterTopology, LinkClass


GEMM_EFFICIENCY = 0.65
#: Backward of a linear layer: grad-input + grad-weight GEMMs.
LINEAR_BWD_FACTOR = 2.0
PCIE_BANDWIDTH = 16e9  # bytes/s, host <-> device for optimizer offload


@dataclass
class EndToEndResult:
    """Simulated step outcome for one evaluation cell."""

    method: str
    step_time: float
    tgs: float
    mfu: float
    memory: MemoryBreakdown
    breakdown: dict[str, float]

    @property
    def oom(self) -> bool:
        return self.memory.oom


@dataclass
class EndToEndModel:
    """Step-time composer for a (model, cluster, method, policy) cell."""

    model: ModelSpec
    topology: ClusterTopology
    method: str = "burst"
    checkpoint: str = "sequence_level"
    split_fraction: float = 0.5
    head_mode: str = "fused"
    fsdp: bool = True
    optimizer_offload: bool = False
    sparsity: float = 1.0
    causal: bool = True
    workload_balanced: bool = True
    ulysses_degree: int | None = None
    #: ``checkpoint`` / ``split_fraction``, parsed (or ``ValueError``) once.
    policy: CheckpointPolicy = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.policy = CheckpointPolicy.parse(self.checkpoint, self.split_fraction)

    # --- per-piece times -------------------------------------------------------

    def _linear_flops_fwd(self, s_local: float) -> float:
        m = self.model
        per_token = 2.0 * (4 * m.hidden * m.hidden + 3 * m.hidden * m.ffn)
        return per_token * s_local

    def _attention_workload(self, seq_len: int) -> AttentionWorkload:
        sparsity = self.sparsity
        if not self.workload_balanced:
            # Without zigzag/striped balance the slowest device computes as
            # if the mask were dense: barriers erase the sparsity saving.
            sparsity = 2.0 if self.causal else 1.0  # causal: full pairs
        return AttentionWorkload(
            seq_len=seq_len, hidden=self.model.hidden,
            n_heads=self.model.n_heads, causal=self.causal, sparsity=sparsity,
            kv_ratio=self.model.kv_ratio,
        )

    def _attention_times(self, seq_len: int) -> tuple[float, float]:
        wl = self._attention_workload(seq_len)
        kw = dict(ulysses_degree=self.ulysses_degree) if self.method == "usp" else {}
        fwd = attention_pass_time(self.method, self.topology, wl, backward=False, **kw)
        bwd = attention_pass_time(self.method, self.topology, wl, backward=True, **kw)
        return fwd, bwd

    def _fsdp_layer_time(self, passes: int = 1) -> float:
        """Ring all-gather of one layer's parameter shard."""
        if not self.fsdp or self.topology.world_size == 1:
            return 0.0
        m = self.model
        layer_bytes = (4 * m.hidden * m.hidden + 3 * m.hidden * m.ffn) * BYTES_BF16
        g = self.topology.world_size
        cls = LinkClass.INTER if self.topology.num_nodes > 1 else LinkClass.INTRA
        per_gather = (g - 1) * link_time(self.topology, layer_bytes / g, cls)
        return passes * per_gather

    def _head_time(self, s_local: float) -> float:
        m = self.model
        gemms = {"fused": 3, "naive": 3, "tiled": 4}[self.head_mode]
        flops = gemms * 2.0 * s_local * m.vocab * m.hidden
        return matmul_time(flops, self.topology.node.gpu.peak_flops, GEMM_EFFICIENCY)

    def _optimizer_time(self) -> float:
        shard = self.topology.world_size if self.fsdp else 1
        state_bytes = self.model.n_params * 12 / shard
        if self.optimizer_offload:
            # grads down + params up over PCIe
            return 2 * self.model.n_params * BYTES_BF16 / shard / PCIE_BANDWIDTH
        return state_bytes / self.topology.node.gpu.memory_bandwidth

    # --- composition ---------------------------------------------------------

    def step(self, seq_len: int) -> EndToEndResult:
        g = self.topology.world_size
        peak = self.topology.node.gpu.peak_flops
        s_local = seq_len / g
        m = self.model

        lin_fwd = matmul_time(self._linear_flops_fwd(s_local), peak, GEMM_EFFICIENCY)
        lin_bwd = LINEAR_BWD_FACTOR * lin_fwd
        attn_fwd, attn_bwd = self._attention_times(seq_len)

        # A replay re-runs the linears and the attention of the recomputed
        # front c: under causal masking c of the rows hold c² of the pairs.
        c = self.policy.recomputed_front
        recompute = 0.0 if c is None else lin_fwd + c * c * attn_fwd

        layer_compute = lin_fwd + attn_fwd + lin_bwd + attn_bwd + recompute
        # Per layer, as the engine logs it: the forward's gather, the
        # replay's re-gather when there is one, and the gradients'
        # reduce-scatter (priced as one more gather-sized pass).  Only the
        # blocks' parameters are priced, no embeddings or head.
        fsdp_time = self._fsdp_layer_time(2 + self.policy.replays)
        # Block-level overlap (BMTrain): FSDP hides under compute, or the
        # reverse, per layer.
        layer_time = max(layer_compute, fsdp_time)

        head = self._head_time(s_local)
        opt = self._optimizer_time()
        step_time = m.n_layers * layer_time + head + opt

        tgs = s_local / step_time
        mfu = (
            m.flops_per_token(seq_len, causal=self.causal) * seq_len
            / (step_time * g * peak)
        )

        memory = MemoryModel().breakdown(TrainingSetup(
            model=m, seq_len=seq_len, world=g, method=self.method,
            fsdp=self.fsdp, optimizer_offload=self.optimizer_offload,
            checkpoint=self.checkpoint, split_fraction=self.split_fraction,
            head_mode=self.head_mode,
            gpu_memory_bytes=self.topology.node.gpu.memory_bytes,
        ))

        return EndToEndResult(
            method=self.method,
            step_time=step_time,
            tgs=tgs,
            mfu=mfu,
            memory=memory,
            breakdown={
                "linear_fwd": m.n_layers * lin_fwd,
                "linear_bwd": m.n_layers * lin_bwd,
                "attention_fwd": m.n_layers * attn_fwd,
                "attention_bwd": m.n_layers * attn_bwd,
                "recompute": m.n_layers * recompute,
                "fsdp_exposed": m.n_layers * max(0.0, fsdp_time - layer_compute),
                "lm_head": head,
                "optimizer": opt,
            },
        )


def end_to_end_step(
    model: ModelSpec,
    topology: ClusterTopology,
    seq_len: int,
    method: str = "burst",
    **kwargs,
) -> EndToEndResult:
    """Convenience one-call wrapper around :class:`EndToEndModel`."""
    return EndToEndModel(
        model=model, topology=topology, method=method, **kwargs
    ).step(seq_len)

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

from dataclasses import dataclass

from repro.models import flops_per_token, kv_ratio, n_params
from repro.nn.modules import TransformerConfig
from repro.perf.cost import link_time, matmul_time
from repro.perf.memory import (
    BYTES_BF16, MemoryBreakdown, MemoryModel, TrainingSetup,
)
from repro.perf.schedules.attention import AttentionWorkload, attention_pass_time
from repro.topology import LinkClass


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


def _block_weights(m: TransformerConfig) -> int:
    """A block's dense weights as priced: Wq, Wk, Wv, Wo at full width and
    the FFN's gate, up and down."""
    return 4 * m.dim * m.dim + 3 * m.dim * m.ffn_hidden


class EndToEndModel:
    """Step-time composer: prices one :class:`TrainingSetup` cell."""

    # --- per-piece times -------------------------------------------------------

    def _attention_times(self, setup: TrainingSetup) -> tuple[float, float]:
        m, method = setup.model, setup.config.method
        # Without zigzag/striped balance the slowest device computes as if
        # the causal mask were dense (2.0 = every pair): barriers erase the
        # sparsity saving.
        wl = AttentionWorkload(
            seq_len=setup.seq_len, hidden=m.dim, n_heads=m.n_heads,
            sparsity=setup.sparsity if setup.workload_balanced else 2.0,
            kv_ratio=kv_ratio(m),
        )
        degree = (setup.config.method_kwargs.get("ulysses_degree")
                  if method == "usp" else None)
        fwd, bwd = (
            attention_pass_time(method, setup.topology, wl, backward=b,
                                ulysses_degree=degree)
            for b in (False, True)
        )
        return fwd, bwd

    def _fsdp_layer_time(self, setup: TrainingSetup, passes: int) -> float:
        """Ring all-gather of one layer's parameter shard (ZeRO-3 only)."""
        topo = setup.topology
        if setup.zero_stage < 3 or topo.world_size == 1:
            return 0.0
        layer_bytes = _block_weights(setup.model) * BYTES_BF16
        g = topo.world_size
        cls = LinkClass.INTER if topo.num_nodes > 1 else LinkClass.INTRA
        per_gather = (g - 1) * link_time(topo, layer_bytes / g, cls)
        return passes * per_gather

    def _head_time(self, setup: TrainingSetup, s_local: float) -> float:
        m = setup.model
        gemms = {"fused": 3, "naive": 3, "tiled-recompute": 4}[setup.config.head_impl]
        flops = gemms * 2.0 * s_local * m.vocab_size * m.dim
        return matmul_time(flops, setup.topology.node.gpu.peak_flops, GEMM_EFFICIENCY)

    def _optimizer_time(self, setup: TrainingSetup) -> float:
        shard = setup.topology.world_size if setup.zero_stage >= 1 else 1
        n = n_params(setup.model)
        state_bytes = n * 12 / shard
        if setup.optimizer_offload:
            # grads down + params up over PCIe
            return 2 * n * BYTES_BF16 / shard / PCIE_BANDWIDTH
        return state_bytes / setup.topology.node.gpu.memory_bandwidth

    # --- composition ---------------------------------------------------------

    def step(self, setup: TrainingSetup) -> EndToEndResult:
        g = setup.topology.world_size
        peak = setup.topology.node.gpu.peak_flops
        seq_len = setup.seq_len
        s_local = seq_len / g
        m = setup.model
        policy = setup.config.checkpoint

        lin_fwd = matmul_time(
            2.0 * _block_weights(m) * s_local, peak, GEMM_EFFICIENCY)
        lin_bwd = LINEAR_BWD_FACTOR * lin_fwd
        attn_fwd, attn_bwd = self._attention_times(setup)

        # A replay re-runs the linears and the attention of the recomputed
        # front c: under causal masking c of the rows hold c² of the pairs.
        c = policy.recomputed_front
        recompute = 0.0 if c is None else lin_fwd + c * c * attn_fwd

        layer_compute = lin_fwd + attn_fwd + lin_bwd + attn_bwd + recompute
        # Per layer, as the engine logs it: the forward's gather, the
        # replay's re-gather when there is one, and the gradients'
        # reduce-scatter (priced as one more gather-sized pass).  Only the
        # blocks' parameters are priced, no embeddings or head.
        fsdp_time = self._fsdp_layer_time(setup, 2 + policy.replays)
        # Block-level overlap (BMTrain): FSDP hides under compute, or the
        # reverse, per layer.
        layer_time = max(layer_compute, fsdp_time)

        head = self._head_time(setup, s_local)
        opt = self._optimizer_time(setup)
        step_time = m.n_layers * layer_time + head + opt

        tgs = s_local / step_time
        mfu = flops_per_token(m, seq_len) * seq_len / (step_time * g * peak)

        return EndToEndResult(
            method=setup.config.method,
            step_time=step_time,
            tgs=tgs,
            mfu=mfu,
            memory=MemoryModel().breakdown(setup),
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

"""Per-GPU peak-memory model (Figures 7, 8, 13; Tables 2, 4, 5).

Accounts the five stores that dominate long-context training memory:

1. **Parameter / gradient shards** — bf16, divided by the FSDP world size
   (Megatron-CP in the paper has no FSDP, so its replicated weights and
   fp32 optimizer states alone exceed 80 GB: the Fig. 13 OOM).
2. **Optimizer states** — Adam moments + fp32 master copy, 12 B/param,
   FSDP-sharded, zero on-GPU when ZeRO-Offload is enabled (Table 5).
3. **Activations** — per layer, per local token, under the checkpoint
   policy: everything (~17 x S_loc x h elems), only the layer input (1x),
   input + whitelisted attention output (2x, selective++), or input +
   a suffix of the attention output (sequence-level).
4. **LM head** — the ``S_loc x v`` logits (+ their gradient) for a naive
   head, ~nothing for tiled/fused (Fig. 8).
5. **Transient working set** — one layer's full activations live during
   recompute/backward, plus communication buffers.

DeepSpeed-Ulysses' head-divisibility limit is modelled explicitly: its
effective sequence-parallel degree is the largest divisor of the head
count not exceeding the world size, so a 14B model (40 heads) on 32 GPUs
shards the sequence only 8-way — the Fig. 13 OOM at 1M tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.models import n_params
from repro.nn.checkpoint import CheckpointPolicy

if TYPE_CHECKING:
    from repro.engine import EngineConfig
    from repro.nn.modules import TransformerConfig
    from repro.topology import ClusterTopology


#: Stored activation elements per layer per token without checkpointing,
#: in units of the hidden size: block input, q/k/v, attention out, Wo in,
#: two norm outputs, FFN gate/up/silu-product/down-in (ffn/h ~ 2.7 each).
FULL_ACTIVATION_FACTOR = 17.0

BYTES_BF16 = 2
#: Adam moments (2 x fp32) + fp32 master weights.
BYTES_OPTIMIZER_PER_PARAM = 12
GB = 1e9


def ulysses_effective_degree(n_heads: int, world: int) -> int:
    """Largest head-parallel degree Ulysses can actually use.

    The degree must divide both the head count (each rank holds whole
    heads) and the world size (it defines a process-group factorisation) —
    e.g. 40 heads on 32 GPUs caps the degree at 8, so each GPU holds a
    4x longer sequence slice than full context parallelism would: the
    source of the paper's 14B Ulysses OOM (Fig. 13).
    """
    best = 1
    for d in range(1, world + 1):
        if n_heads % d == 0 and world % d == 0:
            best = d
    return best


#: The LM heads the models price, spelt as ``EngineConfig.head_impl``.
PRICED_HEADS = ("naive", "tiled-recompute", "fused")


@dataclass(frozen=True)
class TrainingSetup:
    """One cell of the paper's evaluation grid: the configuration the
    engine runs (model, method, ``fsdp``, checkpoint policy, head), the
    cluster it runs on (world size, GPU memory) and the sequence length,
    plus the inputs only pricing has."""

    config: EngineConfig
    topology: ClusterTopology
    seq_len: int
    #: ZeRO stage: 1/2/3 shard the optimizer / +grads / +params (3 is
    #: FSDP, whose layers gather); None resolves to 3 if ``config.fsdp``
    #: else 0.
    zero_stage: int | None = None
    optimizer_offload: bool = False
    #: Fraction of the causal pairs attention computes (SWA etc.).
    sparsity: float = 1.0
    #: Zigzag/striped balance; without it barriers erase any sparsity.
    workload_balanced: bool = True

    def __post_init__(self) -> None:
        if self.zero_stage is None:
            object.__setattr__(self, "zero_stage", 3 if self.config.fsdp else 0)
        if self.zero_stage not in (0, 1, 2, 3):
            raise ValueError(f"zero_stage must be 0..3, got {self.zero_stage}")
        if self.config.head_impl not in PRICED_HEADS:
            raise ValueError(f"head impl {self.config.head_impl!r} is not "
                             f"priced (priced: {', '.join(PRICED_HEADS)})")

    @property
    def model(self) -> TransformerConfig:
        return self.config.model

    @property
    def world(self) -> int:
        return self.topology.world_size

    def local_seq(self) -> float:
        """Tokens resident per GPU after sequence sharding."""
        if self.config.method == "ulysses":
            degree = ulysses_effective_degree(self.model.n_heads, self.world)
            return self.seq_len / degree
        return self.seq_len / self.world


@dataclass
class MemoryBreakdown:
    """Per-GPU bytes by category."""

    params: float
    grads: float
    optimizer: float
    activations: float
    lm_head: float
    transient: float
    budget: float = 80 * GB
    notes: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return (
            self.params + self.grads + self.optimizer
            + self.activations + self.lm_head + self.transient
        )

    @property
    def total_gb(self) -> float:
        return self.total / GB

    @property
    def oom(self) -> bool:
        return self.total > self.budget

    def as_dict(self) -> dict[str, float]:
        return {
            "params_gb": self.params / GB,
            "grads_gb": self.grads / GB,
            "optimizer_gb": self.optimizer / GB,
            "activations_gb": self.activations / GB,
            "lm_head_gb": self.lm_head / GB,
            "transient_gb": self.transient / GB,
            "total_gb": self.total_gb,
            "oom": self.oom,
        }


class MemoryModel:
    """Evaluate :class:`TrainingSetup` cells into per-GPU peaks."""

    def activation_bytes(self, setup: TrainingSetup) -> float:
        """Stored activations: per layer per token, the layer input plus
        the cached back ``1 - c`` of the attention output (in hidden units),
        or every activation when the layer is not replayed."""
        c = setup.config.checkpoint.recomputed_front
        factor = FULL_ACTIVATION_FACTOR if c is None else 1.0 + (1.0 - c)
        per_layer = factor * setup.local_seq() * setup.model.dim
        return per_layer * setup.model.n_layers * BYTES_BF16

    def lm_head_bytes(self, setup: TrainingSetup) -> float:
        s_loc = setup.local_seq()
        if setup.config.head_impl == "naive":
            # materialised logits (Fig. 8)
            return s_loc * setup.model.vocab_size * BYTES_BF16
        if setup.config.head_impl == "tiled-recompute":
            return s_loc * 4  # fp32 lse row statistics
        return 0.0  # fused

    def state_bytes(self, setup: TrainingSetup) -> tuple[float, float, float]:
        """(params, grads, optimizer) per GPU.

        ZeRO stages shard progressively: stage 1 the optimizer states,
        stage 2 also the gradients, stage 3 (= FSDP) also the parameters.
        With ZeRO-Offload, optimizer states live on the host and gradient
        shards stream there as they are produced, so on-GPU gradient
        memory is roughly one layer's worth rather than the full model.
        """
        n, stage = n_params(setup.model), setup.zero_stage
        g = setup.world
        params = n * BYTES_BF16 / (g if stage >= 3 else 1)
        if setup.optimizer_offload:
            grads = n * BYTES_BF16 / max(setup.model.n_layers, 1)
            optimizer = 0.0
        else:
            grads = n * BYTES_BF16 / (g if stage >= 2 else 1)
            optimizer = n * BYTES_OPTIMIZER_PER_PARAM / (g if stage >= 1 else 1)
        return params, grads, optimizer

    def transient_bytes(self, setup: TrainingSetup) -> float:
        """One layer's live working set plus communication buffers."""
        s_loc = setup.local_seq()
        h = setup.model.dim
        layer_live = FULL_ACTIVATION_FACTOR * s_loc * h * BYTES_BF16
        # Triple-buffered ring communication (compute/intra/inter) of a
        # K+V-sized bundle, or all-to-all staging for Ulysses.
        comm = 3 * 2 * s_loc * h * BYTES_BF16
        return layer_live + comm

    def breakdown(self, setup: TrainingSetup) -> MemoryBreakdown:
        params, grads, optimizer = self.state_bytes(setup)
        bd = MemoryBreakdown(
            params=params,
            grads=grads,
            optimizer=optimizer,
            activations=self.activation_bytes(setup),
            lm_head=self.lm_head_bytes(setup),
            transient=self.transient_bytes(setup),
            budget=setup.topology.node.gpu.memory_bytes,
        )
        if setup.config.method == "ulysses":
            eff = ulysses_effective_degree(setup.model.n_heads, setup.world)
            if eff < setup.world:
                bd.notes.append(
                    f"Ulysses degree limited to {eff} by {setup.model.n_heads} heads"
                )
        if setup.zero_stage == 0:
            bd.notes.append("no FSDP: replicated parameters and optimizer states")
        if bd.oom:
            bd.notes.append(f"OOM: {bd.total_gb:.1f} GB > {bd.budget / GB:.0f} GB")
        return bd


def logits_memory_bytes(seq_len: int, vocab: int, bytes_per_elem: int = BYTES_BF16) -> float:
    """Fig. 8's quantity: total memory of the LM head's logits."""
    return float(seq_len) * vocab * bytes_per_elem


#: The numpy engine's activations are float64.
BYTES_F64 = 8


def swiglu_fused_saved_bytes(
    seq_len: int, dim: int, hidden: int, bytes_per_elem: int = BYTES_F64
) -> int:
    """Bytes the fused blockwise FFN node saves: only ``x`` + weights.

    Independent of ``mlp_chunk_size`` — chunking bounds the *transient*
    backward working set (:func:`swiglu_chunked_transient_bytes`), while
    fusion alone removes every ``(S, hidden)`` intermediate from the
    persistent set.
    """
    return (seq_len * dim + 3 * dim * hidden) * bytes_per_elem


def swiglu_chunked_transient_bytes(
    seq_len: int,
    dim: int,
    hidden: int,
    chunk_size: int | None,
    bytes_per_elem: int = BYTES_F64,
) -> int:
    """Transient working-set model of the fused FFN backward.

    The chunked backward rebuilds three full ``(S, hidden)`` buffers
    (``h``/``dg``/``du`` — kept full-size so the weight-gradient GEMMs
    accumulate in the dense path's exact order) plus roughly eight
    chunk-height ``(chunk, hidden)`` intermediates live per chunk step
    (``g``, ``sig``, ``act``, ``u``, ``dh``, ``dact``, ``dg_c``,
    ``du_c``).  With ``chunk_size=None`` the dense backward materialises
    those eight at full height instead.  Both are bounds on the in-place
    kernels (:mod:`repro.kernels.mlp`), whose chunk step holds five
    ``(chunk, hidden)`` buffers and whose dense backward holds six
    ``(S, hidden)`` buffers.
    """
    chunk = seq_len if chunk_size is None else min(chunk_size, seq_len)
    return (3 * seq_len * hidden + 8 * chunk * hidden) * bytes_per_elem


# --- byte-exact closed forms for the live numpy engine -----------------------
#
# The analytic model above speaks in bf16 bytes and the paper's ~17x
# activation factor; the functions below instead predict — to the byte —
# what the live float64 engine's MemoryTracker registers for a whole
# training step.  A block is one node under every policy and chunk size,
# so one keep-set (``node_kept_elems``) prices both the forward's end and
# the deepest backward.  ``python -m repro.obs memdiff`` holds the tracker
# to these numbers.


def rms_norm_saved_elems(seq_len: int, dim: int) -> int:
    """Elements a standalone RMSNorm saves — the model's final norm: its
    one :class:`~repro.nn.ops.RMSNormFn` node keeps ``x`` (SD) and the
    ``mean(x²) + eps`` row (S); the weight is a parameter, held by
    reference."""
    return seq_len * dim + seq_len


def node_kept_elems(
    seq_len: int,
    dim: int,
    n_heads: int,
    policy: CheckpointPolicy,
    *,
    kv_dim: int | None = None,
    rebuilds_context: bool = True,
) -> tuple[int, int]:
    """``(kept, rebuilt)``: the elements a block's one node
    (:class:`~repro.nn.attention_fn.AttentionFn`) keeps from its forward
    for its backward, and those its backward rebuilds and registers while
    it runs.

    A method that rebuilds its context (the ring family, the local
    kernel) keeps ``x`` (S·D) and the back ``policy.cached_rows(S)`` rows
    of the merged ``O`` and ``lse`` (D + H elements a row), and rebuilds
    the other rows.  Ulysses / USP (``rebuilds_context=False``) keep ``x``,
    ``O`` and their head-layout context ``q_h``/``k_h``/``v_h``/``lse_h``
    (S·D + 2·S·kv + H·S) without a recomputed front, and only ``x`` with
    one: their backward rebuilds the whole forward, context included.
    Nothing else is registered: the weights are parameters, held by
    reference, and the norm rows, q, k, v, ``h`` and the FFN's
    intermediates are rebuilt in the backward — under every policy and
    chunk size."""
    kv = dim if kv_dim is None else kv_dim
    x = seq_len * dim
    if rebuilds_context:
        rows = policy.cached_rows(seq_len)
        return x + rows * (dim + n_heads), (seq_len - rows) * (dim + n_heads)
    whole = 2 * seq_len * dim + 2 * seq_len * kv + n_heads * seq_len
    return (x, whole) if policy.replays else (x + whole, 0)


def lm_head_saved_bytes_live(
    seq_len: int, dim: int, vocab: int, head_impl: str = "fused"
) -> int:
    """Bytes the LM-head loss node registers: the saved ``(dH, dW)``
    gradients plus the implementation's resident footprint (full logits
    for naive, lse rows for tiled-recompute, nothing for fused — the
    Fig. 8 effect, measured)."""
    saved = (seq_len * dim + vocab * dim) * BYTES_F64
    resident = {
        "naive": seq_len * vocab * BYTES_F64,
        "tiled-recompute": seq_len * BYTES_F64,
        "fused": 0,
    }
    try:
        return saved + resident[head_impl]
    except KeyError:
        raise ValueError(f"unknown head impl {head_impl!r}")


def predict_step_peak_saved_bytes(
    *,
    seq_len: int,
    dim: int,
    n_layers: int,
    n_heads: int,
    ffn_hidden: int,
    vocab: int,
    checkpoint: str = "sequence_level",
    split_fraction: float = 0.5,
    head_impl: str = "fused",
    kv_dim: int | None = None,
    fused_mlp: bool = False,
    rebuilds_context: bool = True,
) -> dict:
    """Byte-exact peak of ``MemoryTracker.peak_saved_bytes`` over one step.

    Every layer's node keeps :func:`node_kept_elems`'s keep-set from its
    forward to its backward.  The forward's end holds every layer's keep,
    the final norm and the head; the deepest backward holds every layer's
    keep and the rows the last layer rebuilds (the head and the final
    norm are released by then); the prediction is the max of both.
    ``rebuilds_context=False`` is Ulysses / USP.  An unknown
    ``checkpoint`` or an out-of-range ``split_fraction`` raises
    ``ValueError``.

    ``ffn_hidden`` and ``fused_mlp`` are accepted and ignored: the node
    keeps nothing of the FFN, whatever ``mlp_chunk_size`` says.
    """
    policy = CheckpointPolicy.parse(checkpoint, split_fraction)
    kept, rebuilt = node_kept_elems(
        seq_len, dim, n_heads, policy, kv_dim=kv_dim,
        rebuilds_context=rebuilds_context,
    )
    norm = rms_norm_saved_elems(seq_len, dim)
    head = lm_head_saved_bytes_live(seq_len, dim, vocab, head_impl)
    forward_peak = (n_layers * kept + norm) * BYTES_F64 + head
    backward_peak = (n_layers * kept + rebuilt) * BYTES_F64
    return {
        "peak_saved_bytes": max(forward_peak, backward_peak),
        "forward_peak_bytes": forward_peak,
        "backward_peak_bytes": backward_peak,
        "kept_bytes_per_layer": kept * BYTES_F64,
        "rebuilt_bytes_per_layer": rebuilt * BYTES_F64,
        "lm_head_bytes": head,
        "checkpoint": checkpoint,
    }


def predict_checkpoint_policy_curve(
    *,
    seq_len: int,
    dim: int,
    n_layers: int,
    n_heads: int,
    ffn_hidden: int,
    vocab: int,
    split_fraction: float = 0.5,
    head_impl: str = "fused",
    policies: tuple = ("none", "full", "selective_pp", "sequence_level"),
    **kwargs,
) -> dict:
    """The Fig. 7 curve for the live engine: policy -> predicted step
    peak, byte-exact (``memdiff`` checks the measured curve against it)."""
    return {
        policy: predict_step_peak_saved_bytes(
            seq_len=seq_len, dim=dim, n_layers=n_layers, n_heads=n_heads,
            ffn_hidden=ffn_hidden, vocab=vocab, checkpoint=policy,
            split_fraction=split_fraction, head_impl=head_impl, **kwargs,
        )["peak_saved_bytes"]
        for policy in policies
    }

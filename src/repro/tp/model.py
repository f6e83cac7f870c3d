"""Tensor-parallel transformer modules and model builder."""

from __future__ import annotations

import numpy as np

from repro.comm import SimCommunicator
from repro.masks import CausalMask, MaskPattern
from repro.nn.modules import (
    CausalSelfAttention,
    Linear,
    SwiGLU,
    TransformerConfig,
    TransformerLM,
)
from repro.nn.tensor import Tensor
from repro.tp.layers import tp_attention, tp_mlp


class TPSelfAttention(CausalSelfAttention):
    """Attention module whose projections and heads run tensor-parallel."""

    def __init__(self, dim, n_heads, rng, comm: SimCommunicator,
                 mask: MaskPattern | None = None,
                 block_size: int | None = None):
        super().__init__(dim, n_heads, rng, mask=mask, block_size=block_size)
        if n_heads % comm.world_size != 0:
            raise ValueError(
                f"TP needs heads ({n_heads}) divisible by ranks "
                f"({comm.world_size})"
            )
        self.comm = comm

    def forward(self, x: Tensor) -> Tensor:
        return tp_attention(
            x, self.wq.weight, self.wk.weight, self.wv.weight, self.wo.weight,
            self.comm, self.n_heads, mask=self.mask,
            block_size=self.block_size,
        )


class TPSwiGLU(SwiGLU):
    """SwiGLU whose gate/up are column-parallel and down row-parallel."""

    def __init__(self, dim, hidden, rng, comm: SimCommunicator):
        super().__init__(dim, hidden, rng)
        if hidden % comm.world_size != 0:
            raise ValueError(
                f"TP needs ffn hidden ({hidden}) divisible by ranks "
                f"({comm.world_size})"
            )
        self.comm = comm

    def forward(self, x: Tensor, output_unread: bool = False) -> Tensor:
        # Always computes: the all-reduce is part of the step's traffic.
        return tp_mlp(
            x, self.gate.weight, self.up.weight, self.down.weight, self.comm
        )


def build_tp_model(config: TransformerConfig, comm: SimCommunicator) -> TransformerLM:
    """A :class:`TransformerLM` whose blocks run Megatron tensor parallel.

    The LM head and embeddings stay replicated (Megatron would
    vocab-shard them; :mod:`repro.lmhead.distributed` covers that piece
    separately).
    """
    if config.n_kv_heads not in (None, config.n_heads):
        raise ValueError("tensor parallelism here supports MHA only")

    def attn_factory(dim, n_heads, rng, mask, block_size, n_kv_heads=None):
        return TPSelfAttention(dim, n_heads, rng, comm, mask=mask,
                               block_size=block_size)

    model = TransformerLM(config, attn_factory=attn_factory)
    rng = np.random.default_rng(config.seed + 1)
    for block in model.blocks:
        tp_ffn = TPSwiGLU(config.dim, config.ffn_hidden, rng, comm)
        # Adopt the block's existing weights (same Tensor objects) so a TP
        # model with seed k is parameter-identical to the plain model with
        # seed k — the equivalence tests rely on this.
        tp_ffn.gate = block.ffn.gate
        tp_ffn.up = block.ffn.up
        tp_ffn.down = block.ffn.down
        block.ffn = tp_ffn
    return model

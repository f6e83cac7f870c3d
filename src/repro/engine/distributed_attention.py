"""Autograd node running a layer's attention product over the simulated
cluster.

:class:`DistributedAttentionFn` is the single-device layer node
(:class:`~repro.nn.attention_fn.AttentionFn`) with the whole-sequence
attention product moved onto the cluster: the forward scatters the
``(H, S, Dh)`` q/k/v the node projected into per-rank shards with the
method's index layout, runs the method's distributed forward (all ring /
all-to-all traffic logged on the engine's communicator), and gathers the
outputs; the backward does the same for Algorithm 1 / Algorithm 2 /
Ulysses / USP backward.  Projections, RoPE, merge and ``wo`` are the
inherited node's, and so is a folded block tail (residual, ``norm2``,
fused FFN), which adds nothing to what ``_save`` keeps.

The checkpoint policy is inherited, not mirrored: a ring-family method
keeps ``x`` and the policy's back rows of ``(o, lse)`` and its backward
rebuilds the front rows with the local kernel — *no communication
happens during recompute*, which is precisely why selective++ /
sequence-level checkpointing pays off in a distributed setting — and
re-shards q, k, v (re-projected) and ``lse`` into a context, again
without communication.  Under ``full`` nothing is kept, and the backward
runs the distributed forward again, collectives included, before the
distributed backward.

A method that cannot rebuild its context (Ulysses, USP) hands back, from
its forward, ``o`` alone (no sequence-layout ``lse``: nothing here reads
one) and the head-layout context it built — ``q_h``, ``k_h``, ``v_h``,
``lse_h`` (:data:`~repro.attention.usp.CONTEXT_ARRAYS`).  Without a
recomputed front the node keeps that context and ``o`` through its own
``save_for_backward``, so the one handle is released wherever the node's
is; rebuilding it would repeat an all-to-all.  Under any other policy the
node keeps only ``x``, and its backward re-runs the whole forward,
collectives included, for a fresh context.

Either way the backward hands the method the merged ``o``, re-sharded by
tokens: each rank forms ``D = rowsum(dO ∘ O)`` from it, the one statistic
of ``O`` a ring backward reads, so no context keeps a copy of ``O``.
"""

from __future__ import annotations

import numpy as np

from repro.attention.methods import DistributedAttention
from repro.attention.usp import CONTEXT_ARRAYS
from repro.comm import SimCommunicator
from repro.masks import MaskPattern
from repro.nn.attention_fn import AttentionFn
from repro.nn.modules import CausalSelfAttention


class DistributedAttentionFn(AttentionFn):
    """The attention layer node with its product on the simulated cluster.

    Irregular lengths (autoregressive decoding appends one token at a
    time) cannot be sequence-sharded evenly; they run the inherited exact
    local kernels instead — inference is not this repo's target.
    """

    def _attend(self, q, k, v):
        method, comm = self.layer.method, self.layer.comm
        g, s = comm.world_size, q.shape[-2]
        if s % g:
            return super()._attend(q, k, v)
        os_, lses, ctx = method.forward_shards(
            comm, method.shard(q, g), method.shard(k, g), method.shard(v, g),
            method.indices(s, g), self.mask, self.scale,
        )
        if not method.supports_context_rebuild:
            self.kept_ctx = ctx
            return method.gather(os_), None, tuple(
                arr for name in CONTEXT_ARRAYS for arr in getattr(ctx, name))
        return method.gather(os_), method.gather(lses, axis=-1), ()

    def _save(self, x, o, lse, context):
        if not context:
            super()._save(x, o, lse, context)
        elif self.layer.policy.replays:
            # the backward re-runs the whole forward for a fresh context
            self.kept_ctx, self.split = None, x.shape[0]
            self.save_for_backward(x)
        else:
            self.split = 0
            self.save_for_backward(x, o, lse, *context)

    def _attend_backward(self, qkv, o, lse, grad_out):
        method, comm = self.layer.method, self.layer.comm
        g, s = comm.world_size, o.shape[0]
        if self.kept_ctx is not None:
            ctx, self.kept_ctx = self.kept_ctx, None
        elif s % g:
            return super()._attend_backward(qkv, o, lse, grad_out)
        else:
            q, k, v = qkv
            ctx = method.make_context(
                comm,
                method.shard(q, g), method.shard(k, g), method.shard(v, g),
                method.shard(lse, g, axis=-1),
                method.indices(s, g), self.mask, self.scale,
            )
        dos = method.shard(np.ascontiguousarray(grad_out), g)
        dqs, dks, dvs = method.backward_shards(
            comm, ctx, dos, method.shard(self._heads(o), g))
        return method.gather(dqs), method.gather(dks), method.gather(dvs)


class DistributedCausalSelfAttention(CausalSelfAttention):
    """Drop-in attention module whose attention product runs on the
    cluster.

    It inherits the one ``forward`` and builds
    :class:`DistributedAttentionFn` in place of the local node.  Every
    kernel call that node makes — the sharded path, the sequence-level
    front recompute and the irregular-length local fallback — tiles at
    ``method.block_size``, which becomes the module's ``block_size``; left
    ``None`` (the default) each call derives its tile from the head count
    of the queries it hands the kernel (:func:`repro.kernels.tile_size`).
    The ``block_size`` argument (the model's ``attn_block_size``) is
    validated like the base module's and otherwise not read.
    """

    node = DistributedAttentionFn

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng,
        method: DistributedAttention,
        comm: SimCommunicator,
        mask: MaskPattern | None = None,
        block_size: int | None = None,
        n_kv_heads: int | None = None,
    ):
        super().__init__(dim, n_heads, rng, mask=mask, block_size=block_size,
                         n_kv_heads=n_kv_heads)
        self.method = method
        self.comm = comm
        self.block_size = method.block_size

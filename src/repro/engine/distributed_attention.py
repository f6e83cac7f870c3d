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
fused FFN): it only adds the FFN's three weights to what ``_save`` keeps.

The checkpoint protocol is inherited, not mirrored: on a recomputation
pass with a cache hit a ring-family method skips the distributed forward
entirely — *no communication happens during recompute*, which is precisely
why selective++/sequence-level checkpointing pays off in a distributed
setting — and rebuilds the backward context from shards instead.

What the node saves is what its backward reads, once:

* a ring-family method saves the inherited set — ``x``, the norm row,
  the merged ``o``, ``lse`` and the weights; its backward re-projects
  q, k and v and re-shards them, with ``lse``, into a context (no
  communication);
* a method that cannot rebuild its context (Ulysses, USP) saves, in place
  of ``lse``, the head-layout context its forward built — ``q_h``,
  ``k_h``, ``v_h``, ``lse_h``
  (:data:`~repro.attention.usp.CONTEXT_ARRAYS`) — through the node's own
  ``save_for_backward``, so the one handle is released wherever the
  node's is.  Rebuilding that context would repeat an all-to-all.  Its
  forward hands back ``o`` alone (no sequence-layout ``lse``: nothing
  here reads one).  Such a method recomputes its full forward on a
  replay, collectives included, so its layer has no output cache.

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

    #: A Ulysses / USP forward's context, read (once) by the backward.
    kept_ctx = None

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
            return method.gather(os_), None
        return method.gather(os_), method.gather(lses, axis=-1)

    def _save(self, x, ms, weights, o, lse):
        if self.kept_ctx is None:
            super()._save(x, ms, weights, o, lse)
        else:
            self.save_for_backward(x, ms, *weights, o, *(
                arr for name in CONTEXT_ARRAYS
                for arr in getattr(self.kept_ctx, name)
            ))

    def _attend_backward(self, n, weights, o, context, grad_out):
        method, comm = self.layer.method, self.layer.comm
        g, s = comm.world_size, n.shape[0]
        if self.kept_ctx is not None:
            ctx, self.kept_ctx = self.kept_ctx, None
            o = self._heads(o)
        elif s % g:
            return super()._attend_backward(n, weights, o, context, grad_out)
        else:
            q, k, v, o, lse = self._rebuild(n, weights, o, context)
            ctx = method.make_context(
                comm,
                method.shard(q, g), method.shard(k, g), method.shard(v, g),
                method.shard(lse, g, axis=-1),
                method.indices(s, g), self.mask, self.scale,
            )
        dos = method.shard(np.ascontiguousarray(grad_out), g)
        dqs, dks, dvs = method.backward_shards(comm, ctx, dos, method.shard(o, g))
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
    validated like the base module's and otherwise not read.  A method
    that cannot rebuild its backward context re-runs its whole forward
    in a replay, so its layer keeps no output cache.
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
        if not method.supports_context_rebuild:
            self.cache = None

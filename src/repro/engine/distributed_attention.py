"""Autograd node running distributed attention over the simulated cluster.

:class:`DistributedAttentionFn` is the single-device node
(:class:`~repro.nn.attention_fn.FlashAttentionFn`) with the whole-sequence
pass moved onto the cluster: the forward scatters ``(H, S, Dh)`` tensors
into per-rank shards with the method's index layout, runs the method's
distributed forward (all ring / all-to-all traffic logged on the engine's
communicator), and gathers the outputs; the backward does the same for
Algorithm 1 / Algorithm 2 / Ulysses / USP backward.

The checkpoint protocol is inherited, not mirrored: on a recomputation
pass with a cache hit a ring-family method skips the distributed forward
entirely — *no communication happens during recompute*, which is precisely
why selective++/sequence-level checkpointing pays off in a distributed
setting — and rebuilds the backward context from shards instead.

What the node saves is what its backward reads, once:

* a ring-family method saves the sequence-layout ``(q, k, v, o, lse)``
  its backward re-shards into a context;
* a method that cannot rebuild its context (Ulysses, USP) saves only the
  head-layout context its forward built — ``q_h``, ``k_h``, ``v_h``,
  ``o_h``, ``lse_h`` — through the node's own ``save_for_backward``, so
  the one handle is released wherever the node's is.  Its backward never
  reads the sequence-layout arrays.  Such a method recomputes its full
  forward on a replay, collectives included, so its output cache is off.
"""

from __future__ import annotations

import numpy as np

from repro.attention.methods import DistributedAttention
from repro.comm import SimCommunicator
from repro.masks import MaskPattern
from repro.nn.attention_fn import FlashAttentionFn
from repro.nn.checkpoint import AttentionOutputCache, CheckpointPolicy
from repro.nn.modules import CausalSelfAttention
from repro.nn.tensor import Tensor

#: The arrays of a Ulysses / USP context (lists, one array per rank).
_CONTEXT_ARRAYS = ("q_h", "k_h", "v_h", "o_h", "lse_h")


class DistributedAttentionFn(FlashAttentionFn):
    """``o = distributed_attention(q, k, v)`` on the simulated cluster."""

    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        method: DistributedAttention = None,
        comm: SimCommunicator = None,
        mask: MaskPattern | None = None,
        scale: float | None = None,
        cache: AttentionOutputCache | None = None,
        policy: CheckpointPolicy | None = None,
    ):
        if method is None or comm is None:
            raise ValueError("distributed attention requires method= and comm=")
        self.method = method
        self.comm = comm
        self.kept_ctx = None
        return super().forward(
            q, k, v, mask=mask, scale=scale, block_size=method.block_size,
            # A cached (O, lse) only helps a method that can rebuild its
            # backward context from shards.
            cache=cache if method.supports_context_rebuild else None,
            policy=policy,
        )

    def backward(self, grad_out: np.ndarray):
        if self.kept_ctx is None:
            return super().backward(grad_out)
        ctx, self.kept_ctx = self.kept_ctx, None
        return self._backward_shards(ctx, grad_out)

    def _sharded(self, s: int) -> bool:
        """Irregular lengths (autoregressive decoding appends one token at
        a time) cannot be sequence-sharded evenly; they run the inherited
        exact local kernel instead — inference is not this repo's target."""
        return s % self.comm.world_size == 0

    def _attend(self, q, k, v):
        method, comm = self.method, self.comm
        g = comm.world_size
        s = q.shape[-2]
        if not self._sharded(s):
            return super()._attend(q, k, v)
        os_, lses, ctx = method.forward_shards(
            comm, method.shard(q, g), method.shard(k, g), method.shard(v, g),
            method.indices(s, g), self.mask, self.scale,
        )
        if not method.supports_context_rebuild:
            self.kept_ctx = ctx
        return method.gather(os_), method.gather(lses, axis=-1)

    def _save(self, q, k, v, o, lse):
        if self.kept_ctx is None:
            super()._save(q, k, v, o, lse)
        else:
            self.save_for_backward(*(
                arr for name in _CONTEXT_ARRAYS
                for arr in getattr(self.kept_ctx, name)
            ))

    def _attend_backward(self, q, k, v, o, lse, grad_out):
        method, comm = self.method, self.comm
        g = comm.world_size
        s = q.shape[-2]
        if not self._sharded(s):
            return super()._attend_backward(q, k, v, o, lse, grad_out)
        ctx = method.make_context(
            comm,
            method.shard(q, g), method.shard(k, g), method.shard(v, g),
            method.shard(o, g), method.shard(lse, g, axis=-1),
            method.indices(s, g), self.mask, self.scale,
        )
        return self._backward_shards(ctx, grad_out)

    def _backward_shards(self, ctx, grad_out):
        method, comm = self.method, self.comm
        dos = method.shard(np.ascontiguousarray(grad_out), comm.world_size)
        dqs, dks, dvs = method.backward_shards(comm, ctx, dos)
        return method.gather(dqs), method.gather(dks), method.gather(dvs)


def distributed_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    method: DistributedAttention,
    comm: SimCommunicator,
    mask: MaskPattern | None = None,
    scale: float | None = None,
    cache: AttentionOutputCache | None = None,
    policy: CheckpointPolicy | None = None,
) -> Tensor:
    """Differentiable distributed attention over ``(H, S, Dh)`` tensors."""
    return DistributedAttentionFn.apply(
        q, k, v, method=method, comm=comm, mask=mask, scale=scale,
        cache=cache, policy=policy,
    )


class DistributedCausalSelfAttention(CausalSelfAttention):
    """Drop-in attention module whose inner product runs on the cluster.

    It inherits the one ``forward`` (projections, RoPE, ``wo``) and
    replaces only :meth:`_attend`.  Every kernel call made there — the
    sharded path, the sequence-level front recompute and the
    irregular-length local fallback — tiles at ``method.block_size``; left
    ``None`` (the default) each call derives its tile from the head count
    of the queries it hands the kernel (:func:`repro.kernels.tile_size`).
    ``block_size`` (the model's ``attn_block_size``) is stored for
    interface parity with :class:`~repro.nn.modules.CausalSelfAttention`
    but is not read by :meth:`_attend`.
    """

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

    def _attend(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        return distributed_attention(
            q, k, v, method=self.method, comm=self.comm, mask=self.mask,
            cache=self.cache, policy=self.policy,
        )

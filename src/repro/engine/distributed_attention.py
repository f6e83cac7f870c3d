"""Autograd node running distributed attention over the simulated cluster.

The forward pass scatters ``(H, S, Dh)`` tensors into per-rank shards with
the method's partitioner, runs the method's distributed forward (all ring /
all-to-all traffic logged on the engine's communicator), and gathers the
outputs.  The backward pass does the same for Algorithm 1 / Algorithm 2 /
Ulysses / USP backward.

Checkpoint-policy integration mirrors the single-device node
(:mod:`repro.nn.attention_fn`): on a recomputation pass with a cache hit a
ring-family method skips the distributed forward entirely — *no
communication happens during recompute*, which is precisely why
selective++/sequence-level checkpointing pays off in a distributed setting
— rebuilding the backward context from shards instead.  Methods that need
a richer context (Ulysses, USP) recompute their full forward, collectives
included.
"""

from __future__ import annotations

import numpy as np

from repro.attention.methods import DistributedAttention
from repro.comm import SimCommunicator
from repro.kernels import get_backend
from repro.masks import MaskPattern
from repro.nn.attention_fn import _attention_flops, _local_plan, _mask_pairs
from repro.nn.checkpoint import (
    AttentionOutputCache,
    CheckpointMode,
    CheckpointPolicy,
    in_recompute,
)
from repro.nn.function import Function
from repro.nn.memory import get_tracker
from repro.nn.modules import CausalSelfAttention
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.obs.tracer import trace_span


class DistributedAttentionFn(Function):
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
        if scale is None:
            scale = 1.0 / np.sqrt(q.shape[-1])
        s = q.shape[-2]
        heads = q.shape[0] if q.ndim == 3 else 1
        head_dim = q.shape[-1]
        g = comm.world_size
        policy = policy or CheckpointPolicy()

        self.method = method
        self.comm = comm
        self.mask = mask
        self.scale = scale
        self.ctx_obj = None
        self.local_fallback = s % g != 0

        if self.local_fallback:
            # Irregular lengths (autoregressive decoding appends one token
            # at a time) cannot be sequence-sharded evenly; run the exact
            # local kernel instead — inference is not this repo's target.
            from repro.attention.gqa import repeat_kv

            groups = (q.shape[0] // k.shape[0]) if q.ndim == 3 else 1
            plan = _local_plan(mask, s, s, method.block_size)
            o, lse = get_backend().flash_forward(
                q, repeat_kv(k, groups), repeat_kv(v, groups),
                scale=scale, block_q=method.block_size,
                block_k=method.block_size, plan=plan,
            )
            self.groups = groups
            self.fallback_plan = plan
            self.save_for_backward(q, k, v, o, lse)
            return o

        cached = None
        if (
            cache is not None
            and in_recompute()
            and method.supports_context_rebuild
        ):
            cached = cache.pop(0)

        if cached is not None and policy.mode is CheckpointMode.SELECTIVE_PP:
            o, lse = cached  # zero recompute, zero communication
        elif cached is not None and policy.mode is CheckpointMode.SEQUENCE_LEVEL:
            from repro.attention.gqa import repeat_kv

            split = int(round(s * policy.split_fraction))
            o_back, lse_back = cached
            plan = _local_plan(mask, split, s, method.block_size)
            groups = (q.shape[0] // k.shape[0]) if q.ndim == 3 else 1
            with trace_span("ckpt.recompute-front", phase="ckpt-recompute",
                            split=split, seq=s):
                o_front, lse_front = get_backend().flash_forward(
                    q[..., :split, :], repeat_kv(k, groups), repeat_kv(v, groups),
                    scale=scale,
                    block_q=method.block_size, block_k=method.block_size,
                    plan=plan,
                )
            get_tracker().add_recompute_flops(
                _attention_flops(_mask_pairs(mask, split, s), heads, head_dim)
            )
            o = np.concatenate([o_front, o_back], axis=-2)
            lse = np.concatenate([lse_front, lse_back], axis=-1)
        else:
            idxs = method.indices(s, g)
            qs = method.shard(q, g)
            ks = method.shard(k, g)
            vs = method.shard(v, g)
            os_, lses, ctx = method.forward_shards(
                comm, qs, ks, vs, idxs, mask, scale
            )
            o = _gather(method, os_, s)
            lse = _gather(method, [l[..., None] for l in lses], s)[..., 0]
            if in_recompute():
                get_tracker().add_recompute_flops(
                    _attention_flops(_mask_pairs(mask, s, s), heads, head_dim)
                )
            if not method.supports_context_rebuild and is_grad_enabled():
                # Ulysses/USP keep their forward context (head-layout
                # copies); account those bytes explicitly.
                self.ctx_obj = ctx
                nbytes = sum(
                    arr.nbytes
                    for attr in ("q_h", "k_h", "v_h", "o_h", "lse_h")
                    for arr in getattr(ctx, attr)
                )
                self._ctx_handle = get_tracker().register(
                    nbytes, site="attn.context"
                )

        if (
            cache is not None
            and policy.caches_attention_output
            and method.supports_context_rebuild
            and not in_recompute()
            and not is_grad_enabled()
        ):
            if policy.mode is CheckpointMode.SELECTIVE_PP:
                cache.put(0, o.copy(), lse.copy())
            else:
                split = int(round(s * policy.split_fraction))
                cache.put(0, o[..., split:, :].copy(), lse[..., split:].copy())

        self.save_for_backward(q, k, v, o, lse)
        return o

    def backward(self, grad_out: np.ndarray):
        q, k, v, o, lse = self.saved
        if self.local_fallback:
            from repro.attention.gqa import fold_kv_grad, repeat_kv

            dq, dk, dv = get_backend().flash_backward(
                q, repeat_kv(k, self.groups), repeat_kv(v, self.groups),
                o, lse, grad_out, scale=self.scale,
                block_q=self.method.block_size, block_k=self.method.block_size,
                plan=self.fallback_plan,
            )
            return dq, fold_kv_grad(dk, self.groups), fold_kv_grad(dv, self.groups)
        method, comm = self.method, self.comm
        g = comm.world_size
        s = q.shape[-2]
        dos = method.shard(np.ascontiguousarray(grad_out), g)
        if self.ctx_obj is not None:
            ctx = self.ctx_obj
            get_tracker().release(self._ctx_handle)
        else:
            idxs = method.indices(s, g)
            ctx = method.make_context(
                comm,
                method.shard(q, g), method.shard(k, g), method.shard(v, g),
                method.shard(o, g),
                [l[..., 0] for l in method.shard(lse[..., None], g)],
                idxs, self.mask, self.scale,
            )
        dqs, dks, dvs = method.backward_shards(comm, ctx, dos)
        dq = _gather(method, dqs, s)
        dk = _gather(method, dks, s)
        dv = _gather(method, dvs, s)
        return dq, dk, dv


def _gather(method: DistributedAttention, parts: list[np.ndarray], n: int) -> np.ndarray:
    """Reassemble full arrays using the method's index layout."""
    idxs = method.indices(n, len(parts))
    order = np.concatenate(idxs)
    stacked = np.concatenate(parts, axis=-2)
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)
    return np.take(stacked, inv, axis=-2)


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

    Every kernel call made here — the sharded path, the sequence-level
    front recompute and the irregular-length local fallback — tiles at
    ``method.block_size`` (default 128).  ``block_size`` (the model's
    ``attn_block_size``) is stored for interface parity with
    :class:`~repro.nn.modules.CausalSelfAttention` but is not read by
    :meth:`forward`.
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng,
        method: DistributedAttention,
        comm: SimCommunicator,
        mask: MaskPattern | None = None,
        block_size: int = 64,
        n_kv_heads: int | None = None,
    ):
        super().__init__(dim, n_heads, rng, mask=mask, block_size=block_size,
                         n_kv_heads=n_kv_heads)
        self.method = method
        self.comm = comm

    def forward(self, x: Tensor) -> Tensor:
        from repro.nn import ops

        s = x.shape[0]
        q = self._split_heads(self.wq(x), s)
        k = self._split_heads(self.wk(x), s, self.n_kv_heads)
        v = self._split_heads(self.wv(x), s, self.n_kv_heads)
        # RoPE rotates by *global* position before sequence sharding, so
        # the distributed ring needs no position plumbing at all.
        q, k = self._maybe_rope(q, k, s)
        o = distributed_attention(
            q, k, v, method=self.method, comm=self.comm, mask=self.mask,
            cache=self.cache, policy=self.policy,
        )
        merged = ops.reshape(ops.swapaxes(o, 0, 1), (s, self.n_heads * self.head_dim))
        return self.wo(merged)

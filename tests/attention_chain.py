"""The attention sub-layer as the chain of nodes it used to be — the oracle
that :class:`repro.nn.attention_fn.AttentionFn` is held to, bit for bit.

A literal transcription of that chain: one q/k/v projection node
(``QKVProjectionFn``, the norm folded in), three head views sharing one
gradient buffer (``HeadsFn``), RoPE (``RoPEFn``), the attention node with
the checkpoint cache protocol (``FlashAttentionFn``, or the engine's
``DistributedAttentionFn``, each layer's whitelist in an
:class:`OutputCache`), the merge's ``Swapaxes`` / ``Reshape`` and
``wo``'s ``MatMul``.  :func:`chain_forward` is the layer ``forward`` that
built it; ``tests.block_chain.install_chain`` installs it on
``CausalSelfAttention``, with the block chain and its replay, to train
the oracle model.
"""

from __future__ import annotations

import numpy as np

from repro.attention.gqa import _check_groups, fold_kv_grad, repeat_kv
from repro.attention.usp import CONTEXT_ARRAYS
from repro.kernels import KernelWorkspace, allowed_pairs, get_backend, head_batch
from repro.nn import ops
from repro.nn.attention_fn import _attention_flops, _local_plan, _packed
from repro.nn.checkpoint import CheckpointPolicy
from repro.nn.function import Function
from repro.nn.memory import get_tracker
from repro.nn.rope import apply_rope
from repro.nn.tensor import _wrap, is_grad_enabled
from tests.block_chain import replaying as in_recompute


class OutputCache:
    """A layer's whitelisted ``(O, lse)`` rows, registered with the
    tracker from the first pass until the replay pops them."""

    def __init__(self):
        self._store = {}

    def put(self, key, o, lse):
        self.pop(key)
        handle = get_tracker().register(o.nbytes + lse.nbytes, site="attn.cache")
        self._store[key] = (o, lse, handle)

    def pop(self, key):
        entry = self._store.pop(key, None)
        if entry is None:
            return None
        o, lse, handle = entry
        get_tracker().release(handle)
        return o, lse


class QKVProjectionFn(ops.PreNormFn):
    def forward(self, *args, eps=None):
        x, ms, weights = self._save_inputs(args, eps)
        n = self._normed(x, ms)
        self.blocks = _packed(x.shape[0], [w.shape[0] for w in weights])
        out = np.empty(self.blocks[-1].stop)
        for w, block in zip(weights, self.blocks):
            np.matmul(n, np.swapaxes(w, 0, 1),
                      out=out[block].reshape(x.shape[0], w.shape[0]))
        return out

    def backward(self, g):
        x, ms, *weights = self.saved
        gs = [g[b].reshape(x.shape[0], w.shape[0])
              for b, w in zip(self.blocks, weights)]
        dq, dk, dv = (np.matmul(gw, w) for gw, w in zip(gs, weights))
        nt = np.swapaxes(self._normed(x, ms), 0, 1)
        return (*self._norm_backward(dq + dk + dv, x, ms),
                *(np.swapaxes(np.matmul(nt, gw), 0, 1) for gw in gs))


class HeadsFn(Function):
    def forward(self, y, block=None, shape=None, shared=None):
        self.size, self.block, self.shape = y.size, block, shape
        self.shared = shared
        return np.swapaxes(y[block].reshape(shape), 0, 1)

    def backward(self, g):
        shared, self.shared = self.shared, None
        first = not shared
        if first:
            shared.append(np.zeros(self.size))
        (grad,) = shared
        grad[self.block].reshape(self.shape)[...] = np.swapaxes(g, 0, 1)
        return (grad if first else None,)


def qkv_heads(x, wq, wk, wv, head_dim, norm=None):
    inputs, kwargs = ops.pre_norm_inputs(x, norm)
    weights = [_wrap(w) for w in (wq, wk, wv)]
    fused = QKVProjectionFn.apply(*inputs, *weights, **kwargs)
    s, widths, shared = x.shape[0], [w.shape[0] for w in weights], []
    return tuple(
        HeadsFn.apply(fused, block=block, shape=(s, n // head_dim, head_dim),
                      shared=shared)
        for block, n in zip(_packed(s, widths), widths)
    )


class FlashAttentionFn(Function):
    def forward(self, q, k, v, mask=None, scale=None, block_size=None,
                cache=None, policy=None):
        self.groups = _check_groups(q.shape[0], k.shape[0]) if q.ndim == 3 else 1
        if scale is None:
            scale = 1.0 / np.sqrt(q.shape[-1])
        s = q.shape[-2]
        heads = q.shape[0] if q.ndim == 3 else 1
        head_dim = q.shape[-1]
        self.mask = mask
        self.scale = scale
        self.block_size = block_size
        self.workspace = KernelWorkspace()
        policy = policy or CheckpointPolicy()
        split = s - policy.cached_rows(s) if policy.replays else s
        cached = cache.pop(0) if (cache is not None and in_recompute()) else None
        if cached is None:
            o, lse = self._attend(q, k, v)
            if in_recompute():
                get_tracker().add_recompute_flops(
                    _attention_flops(allowed_pairs(mask, s, s), heads, head_dim))
        else:
            o, lse = cached
            if split:
                o_front, lse_front = self._local_forward(q, k, v, split)
                get_tracker().add_recompute_flops(
                    _attention_flops(allowed_pairs(mask, split, s), heads, head_dim))
                o = np.concatenate([o_front, o], axis=-2)
                lse = np.concatenate([lse_front, lse], axis=-1)
        if (cache is not None and split < s and not in_recompute()
                and not is_grad_enabled()):
            cache.put(0, o[..., split:, :].copy(), lse[..., split:].copy())
        self._save(q, k, v, o, lse)
        return o

    def backward(self, grad_out):
        return self._attend_backward(*self.saved, grad_out)

    def _save(self, q, k, v, o, lse):
        self.save_for_backward(q, k, v, o, lse)

    def _attend(self, q, k, v):
        return self._local_forward(q, k, v, q.shape[-2])

    def _attend_backward(self, q, k, v, o, lse, grad_out):
        dq, dk, dv = get_backend().flash_backward(
            q, repeat_kv(k, self.groups), repeat_kv(v, self.groups),
            o, lse, grad_out, scale=self.scale,
            block_q=self.block_size, block_k=self.block_size,
            plan=_local_plan(self.mask, q.shape[-2], k.shape[-2],
                             self.block_size, head_batch(q)),
            workspace=self.workspace,
        )
        return dq, fold_kv_grad(dk, self.groups), fold_kv_grad(dv, self.groups)

    def _local_forward(self, q, k, v, n_q):
        return get_backend().flash_forward(
            q[..., :n_q, :], repeat_kv(k, self.groups), repeat_kv(v, self.groups),
            scale=self.scale, block_q=self.block_size, block_k=self.block_size,
            plan=_local_plan(self.mask, n_q, k.shape[-2], self.block_size,
                             head_batch(q)),
            workspace=self.workspace,
        )


class DistributedAttentionFn(FlashAttentionFn):
    def forward(self, q, k, v, method=None, comm=None, mask=None, scale=None,
                cache=None, policy=None):
        self.method = method
        self.comm = comm
        self.kept_ctx = None
        return super().forward(
            q, k, v, mask=mask, scale=scale, block_size=method.block_size,
            cache=cache if method.supports_context_rebuild else None,
            policy=policy,
        )

    def backward(self, grad_out):
        if self.kept_ctx is None:
            return super().backward(grad_out)
        ctx, self.kept_ctx = self.kept_ctx, None
        return self._backward_shards(ctx, grad_out, self.saved[0])

    def _sharded(self, s):
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
            return method.gather(os_), None
        return method.gather(os_), method.gather(lses, axis=-1)

    def _save(self, q, k, v, o, lse):
        if self.kept_ctx is None:
            super()._save(q, k, v, o, lse)
        else:
            self.save_for_backward(o, *(
                arr for name in CONTEXT_ARRAYS
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
            method.shard(lse, g, axis=-1),
            method.indices(s, g), self.mask, self.scale,
        )
        return self._backward_shards(ctx, grad_out, o)

    def _backward_shards(self, ctx, grad_out, o):
        method, comm = self.method, self.comm
        g = comm.world_size
        dos = method.shard(np.ascontiguousarray(grad_out), g)
        dqs, dks, dvs = method.backward_shards(comm, ctx, dos, method.shard(o, g))
        return method.gather(dqs), method.gather(dks), method.gather(dvs)


def chain_forward(attn, x, norm=None):
    """``CausalSelfAttention.forward`` as the chain: project → heads →
    RoPE → attend → merge → ``wo``."""
    s = x.shape[0]
    q, k, v = qkv_heads(x, attn.wq.weight, attn.wk.weight, attn.wv.weight,
                        attn.head_dim, norm=norm)
    if attn.rope:
        positions = np.arange(s)
        q = apply_rope(q, positions, theta=attn.rope_theta)
        k = apply_rope(k, positions, theta=attn.rope_theta)
    cache = attn.__dict__.setdefault("chain_cache", OutputCache())
    if hasattr(attn, "method"):
        o = DistributedAttentionFn.apply(
            q, k, v, method=attn.method, comm=attn.comm, mask=attn.mask,
            cache=cache, policy=attn.policy,
        )
    else:
        o = FlashAttentionFn.apply(
            q, k, v, mask=attn.mask, block_size=attn.block_size,
            cache=cache, policy=attn.policy,
        )
    merged = ops.reshape(ops.swapaxes(o, 0, 1), (s, attn.n_heads * attn.head_dim))
    return attn.wo(merged)

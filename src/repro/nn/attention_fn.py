"""Autograd Function for flash attention with checkpoint policy support.

This node is where the checkpointing policies of Section 3.2 act — for
the single-device model directly, and for the engine's distributed node
(:class:`repro.engine.DistributedAttentionFn`) by inheritance: it moves
the whole-sequence pass onto the cluster and keeps this protocol.

* normal forward — compute ``(O, lse)``, save flash-backward state;
* checkpointed first pass (``no_grad``) — additionally stash the back
  :meth:`~repro.nn.checkpoint.CheckpointPolicy.cached_rows` of ``(O, lse)``
  (all of it for selective++, the sequence suffix for sequence-level,
  none for full) in the layer's
  :class:`~repro.nn.checkpoint.AttentionOutputCache`;
* recomputation pass — consume the cache and recompute only the front
  rows it lacks (cheap under causal masking): none for selective++, the
  front segment for sequence-level.  With nothing cached (full) the
  whole-sequence pass runs again.

Recomputed attention work is tallied in the memory tracker's
``recompute_flops`` so the compute/memory trade-off of Fig. 7 is measured.
"""

from __future__ import annotations

import numpy as np

from repro.attention.gqa import _check_groups, fold_kv_grad, repeat_kv
from repro.kernels import (
    KernelWorkspace,
    TilePlan,
    allowed_pairs,
    get_backend,
    head_batch,
)
from repro.masks import MaskPattern
from repro.nn.checkpoint import (
    AttentionOutputCache,
    CheckpointPolicy,
    in_recompute,
)
from repro.nn.function import Function
from repro.nn.memory import get_tracker
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.obs.tracer import trace_span


def _attention_flops(pairs: int, heads: int, head_dim: int) -> float:
    """Matmul FLOPs for ``pairs`` allowed (q, k) pairs: QK^T plus PV."""
    return 4.0 * pairs * heads * head_dim


def _local_plan(
    mask: MaskPattern | None,
    n_q: int,
    n_k: int,
    block_size: int | None,
    batch: int,
) -> TilePlan | None:
    """Tile plan for an unsharded kernel call of the first ``n_q`` query
    rows (``batch`` heads of them) against all ``n_k`` keys (``None``
    without a mask).  Sub-tiles are classified from the pattern and its
    bias resolved per tile — the dense ``n_q x n_k`` mask never exists."""
    if mask is None:
        return None
    return TilePlan.build(
        mask, np.arange(n_q), np.arange(n_k), block_size, block_size,
        batch=batch,
    )


class FlashAttentionFn(Function):
    """``o = attention(q, k, v)`` with mask pattern and checkpoint cache.

    Supports grouped-query attention: when ``k``/``v`` carry fewer heads
    than ``q`` (``H_q % H_kv == 0``), each KV head serves a group of query
    heads; KV gradients are summed back over the group.

    The checkpoint protocol lives here once.  A subclass that runs the
    whole-sequence pass somewhere else (the simulated cluster) overrides
    :meth:`_attend` / :meth:`_attend_backward`, and :meth:`_save` when its
    backward reads something other than ``(q, k, v, o, lse)``.
    """

    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        mask: MaskPattern | None = None,
        scale: float | None = None,
        block_size: int | None = None,
        cache: AttentionOutputCache | None = None,
        policy: CheckpointPolicy | None = None,
    ):
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

        # The replay recomputes the front ``split`` rows and reads the back
        # ``s - split`` from the cache the first pass filled.
        split = s - (policy or CheckpointPolicy()).cached_rows(s)
        cached = cache.pop(0) if (cache is not None and in_recompute()) else None

        if cached is None:
            o, lse = self._attend(q, k, v)
            if in_recompute():
                get_tracker().add_recompute_flops(
                    _attention_flops(allowed_pairs(mask, s, s), heads, head_dim)
                )
        else:
            o, lse = cached
            if split:
                with trace_span("ckpt.recompute-front", phase="ckpt-recompute",
                                split=split, seq=s):
                    o_front, lse_front = self._local_forward(q, k, v, split)
                get_tracker().add_recompute_flops(
                    _attention_flops(allowed_pairs(mask, split, s), heads, head_dim)
                )
                o = np.concatenate([o_front, o], axis=-2)
                lse = np.concatenate([lse_front, lse], axis=-1)

        if (
            cache is not None
            and split < s
            and not in_recompute()
            and not is_grad_enabled()
        ):
            # First (no-grad) pass of a checkpointed layer: whitelist the
            # suffix the recompute pass will not recompute.
            cache.put(0, o[..., split:, :].copy(), lse[..., split:].copy())

        self._save(q, k, v, o, lse)
        return o

    def backward(self, grad_out: np.ndarray):
        return self._attend_backward(*self.saved, grad_out)

    # -- where the whole-sequence pass runs ------------------------------------

    def _save(self, q, k, v, o, lse):
        """Save what :meth:`_attend_backward` reads: the kernel's inputs
        and ``(o, lse)``, once."""
        self.save_for_backward(q, k, v, o, lse)

    def _attend(self, q, k, v):
        """Whole-sequence forward; returns ``(o, lse)``."""
        return self._local_forward(q, k, v, q.shape[-2])

    def _attend_backward(self, q, k, v, o, lse, grad_out):
        """Whole-sequence backward; returns ``(dq, dk, dv)``."""
        dq, dk, dv = get_backend().flash_backward(
            q, repeat_kv(k, self.groups), repeat_kv(v, self.groups),
            o, lse, grad_out, scale=self.scale,
            block_q=self.block_size, block_k=self.block_size,
            plan=_local_plan(
                self.mask, q.shape[-2], k.shape[-2], self.block_size,
                head_batch(q),
            ),
            workspace=self.workspace,
        )
        return dq, fold_kv_grad(dk, self.groups), fold_kv_grad(dv, self.groups)

    def _local_forward(self, q, k, v, n_q: int):
        """Local kernel on the first ``n_q`` query rows against all keys —
        the full pass (``n_q == S``) and the sequence-level front segment."""
        return get_backend().flash_forward(
            q[..., :n_q, :], repeat_kv(k, self.groups), repeat_kv(v, self.groups),
            scale=self.scale, block_q=self.block_size, block_k=self.block_size,
            plan=_local_plan(
                self.mask, n_q, k.shape[-2], self.block_size, head_batch(q)
            ),
            workspace=self.workspace,
        )


def flash_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: MaskPattern | None = None,
    scale: float | None = None,
    block_size: int | None = None,
    cache: AttentionOutputCache | None = None,
    policy: CheckpointPolicy | None = None,
) -> Tensor:
    """Differentiable flash attention over ``(H, S, Dh)`` tensors."""
    return FlashAttentionFn.apply(
        q, k, v, mask=mask, scale=scale, block_size=block_size,
        cache=cache, policy=policy,
    )

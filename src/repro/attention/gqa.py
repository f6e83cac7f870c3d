"""Grouped-query attention (GQA) support and the backward-payload
trade-off it creates.

Modern LLaMA-family models share each K/V head across a *group* of query
heads (e.g. 8 query heads per KV head), shrinking the KV tensors by the
group factor.  This changes BurstAttention's communication arithmetic in
an interesting way the paper does not explore:

* Algorithm 1 circulates ``(K, V, dK, dV)`` — all KV-sized, so its
  backward volume shrinks to ``4 N d / g`` with group factor ``g``;
* Algorithm 2 circulates ``(Q, dQ, dO, D, Lse)`` — all *query*-sized, so
  its ``3 N d + 2 N h_q`` volume does not shrink at all.

The crossover is at ``g = 4/3``: for any real GQA model (g >= 2), the
"unoptimised" Algorithm 1 moves **less** data than BurstAttention's
rewrite.  :func:`choose_backward_algorithm` implements the resulting
adaptive selection, and :func:`backward_comm_elems` exposes the closed
forms the extension benchmark (``bench_ext_gqa.py``) sweeps.

Numerics: :func:`gqa_attention_reference` is the dense oracle;
:class:`GQADistributedAttention` wraps the ring-family machinery with
KV-head expansion on compute and group-summed KV gradients, circulating
only the *small* KV tensors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attention.burst import burst_attention_backward
from repro.attention.ring import (
    _resolve_tiles,
    ring_attention_forward,
)
from repro.comm import BidirectionalFlow, RingSchedule, SimCommunicator
from repro.comm.ring import check_ring_mode
from repro.kernels import (
    BiasTileCache,
    KernelWorkspace,
    attention_reference,
    attention_reference_backward,
    get_backend,
)
from repro.masks import MaskPattern


def repeat_kv(x: np.ndarray, groups: int) -> np.ndarray:
    """Expand ``(H_kv, S, D)`` to ``(H_kv * groups, S, D)`` by repeating
    each KV head for its query group (exact GQA semantics)."""
    if groups == 1:
        return x
    return np.repeat(x, groups, axis=0)


def fold_kv_grad(dx: np.ndarray, groups: int) -> np.ndarray:
    """Sum per-query-head KV gradients back to ``(H_kv, S, D)``."""
    if groups == 1:
        return dx
    h, s, d = dx.shape
    return dx.reshape(h // groups, groups, s, d).sum(axis=1)


def _check_groups(n_q_heads: int, n_kv_heads: int) -> int:
    if n_kv_heads < 1 or n_q_heads % n_kv_heads != 0:
        raise ValueError(
            f"{n_q_heads} query heads not divisible by {n_kv_heads} KV heads"
        )
    return n_q_heads // n_kv_heads


def gqa_attention_reference(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense GQA oracle: ``q`` is ``(H_q, S, D)``, ``k``/``v`` are
    ``(H_kv, S, D)``.  Returns ``(o, lse)`` shaped like ``q``."""
    groups = _check_groups(q.shape[0], k.shape[0])
    return attention_reference(q, repeat_kv(k, groups), repeat_kv(v, groups),
                               mask=mask, scale=scale)


def gqa_attention_reference_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    o: np.ndarray,
    lse: np.ndarray,
    do: np.ndarray,
    mask: np.ndarray | None = None,
    scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense GQA backward: ``dk``/``dv`` come back KV-head shaped."""
    groups = _check_groups(q.shape[0], k.shape[0])
    dq, dk, dv = attention_reference_backward(
        q, repeat_kv(k, groups), repeat_kv(v, groups), o, lse, do,
        mask=mask, scale=scale,
    )
    return dq, fold_kv_grad(dk, groups), fold_kv_grad(dv, groups)


# --- communication arithmetic -------------------------------------------------


def backward_comm_elems(
    algorithm: str, seq_len: int, head_dim: int, n_q_heads: int,
    n_kv_heads: int,
) -> float:
    """Per-GPU backward send volume in elements (both algorithms).

    * Algorithm 1: ``4 * N * h_kv * d`` (K, V, dK, dV are KV-sized).
    * Algorithm 2: ``3 * N * h_q * d + 2 * N * h_q`` (Q-sized bundle).
    """
    if algorithm == "alg1":
        return 4.0 * seq_len * n_kv_heads * head_dim
    if algorithm == "alg2":
        return seq_len * n_q_heads * (3.0 * head_dim + 2.0)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def choose_backward_algorithm(
    head_dim: int, n_q_heads: int, n_kv_heads: int
) -> str:
    """Adaptive selection: pick the cheaper backward payload.

    For MHA (``n_kv_heads == n_q_heads``) this returns ``"alg2"`` — the
    paper's 25 % saving.  For GQA with group factor >= 2 it returns
    ``"alg1"``: circulating the small KV tensors beats circulating the
    full-width query bundle.
    """
    _check_groups(n_q_heads, n_kv_heads)
    alg1 = backward_comm_elems("alg1", 1, head_dim, n_q_heads, n_kv_heads)
    alg2 = backward_comm_elems("alg2", 1, head_dim, n_q_heads, n_kv_heads)
    return "alg1" if alg1 <= alg2 else "alg2"


# --- distributed numerics -----------------------------------------------------


def gqa_ring_backward_kv(
    comm: SimCommunicator,
    schedule: RingSchedule,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    os: Sequence[np.ndarray],
    lses: Sequence[np.ndarray],
    dos: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    groups: int,
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-bwd",
    block_size: int = 128,
    ring_mode: str = "unidirectional",
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Algorithm 1 with GQA: the circulating ``(K, V, dK, dV)`` bundle
    stays KV-head sized (the whole point); expansion to query heads
    happens only inside the local kernel.  ``ring_mode="bidirectional"``
    splits KV delivery across counter-rotating streams exactly as in
    :func:`repro.attention.ring.ring_attention_backward_kv`."""
    check_ring_mode(ring_mode)
    g = comm.world_size
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    origins = schedule.origins()
    steps = schedule.num_steps

    dqs = [np.zeros_like(q) for q in qs]
    bias_cache = BiasTileCache()
    workspace = KernelWorkspace()
    bufs: list[object] = [
        (ks[r].copy(), vs[r].copy(), np.zeros_like(ks[r]), np.zeros_like(vs[r]))
        for r in range(g)
    ]
    flow = (
        BidirectionalFlow(
            comm, schedule, [(bufs[r][0], bufs[r][1]) for r in range(g)],
            phase=phase, tag="gqa-kv+grads",
        )
        if ring_mode == "bidirectional"
        else None
    )
    ro: list[object] | None = None
    for t in range(steps):
        for r in range(g):
            j = origins[t][r]
            k_j, v_j = ro[r] if ro is not None else bufs[r][:2]
            dk_j, dv_j = bufs[r][-2], bufs[r][-1]
            skip, plan = _resolve_tiles(
                mask, idxs[r], idxs[j], block_size, bias_cache
            )
            if skip:
                continue
            dq_part, dk_part, dv_part = get_backend().flash_backward(
                qs[r], repeat_kv(k_j, groups), repeat_kv(v_j, groups),
                os[r], lses[r], dos[r], scale=scale,
                block_q=block_size, block_k=block_size,
                plan=plan, workspace=workspace,
            )
            dqs[r] += dq_part
            dk_j = dk_j + fold_kv_grad(dk_part, groups)
            dv_j = dv_j + fold_kv_grad(dv_part, groups)
            if len(bufs[r]) == 4:
                bufs[r] = (k_j, v_j, dk_j, dv_j)
            else:
                bufs[r] = (dk_j, dv_j)
        if t < steps - 1:
            if flow is not None and t == flow.forward_transitions:
                bufs = [b[-2:] for b in bufs]
            bufs = schedule.apply(comm, bufs, t, phase=phase, tag="gqa-kv+grads")
            if flow is not None:
                flow.poststep(t)
                ro = flow.delivered(t + 1)
    if flow is not None:
        bufs = [b[-2:] for b in bufs]
    bufs = comm.exchange(
        bufs, schedule.return_permutation(), phase=phase, tag="gqa-kv-return"
    )
    dks = [bufs[r][-2] for r in range(g)]
    dvs = [bufs[r][-1] for r in range(g)]
    return dqs, dks, dvs


def gqa_ring_forward(
    comm: SimCommunicator,
    schedule: RingSchedule,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    groups: int,
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-fwd",
    block_size: int = 128,
    ring_mode: str = "unidirectional",
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Ring forward circulating KV-head-sized buffers.

    Mirrors :func:`repro.attention.ring_attention_forward` but the
    expansion to query heads happens locally, after communication.
    """
    from repro.kernels.softmax import NEG_INF, merge_states

    check_ring_mode(ring_mode)
    g = comm.world_size
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    origins = schedule.origins()
    steps = schedule.num_steps
    os = [
        np.zeros(q.shape[:-1] + (vs[i].shape[-1],), dtype=np.float64)
        for i, q in enumerate(qs)
    ]
    lses = [np.full(q.shape[:-1], NEG_INF, dtype=np.float64) for q in qs]
    bias_cache = BiasTileCache()
    workspace = KernelWorkspace()
    bufs: list[object] = [(ks[r].copy(), vs[r].copy()) for r in range(g)]
    flow = (
        BidirectionalFlow(comm, schedule, bufs, phase=phase, tag="gqa-kv")
        if ring_mode == "bidirectional"
        else None
    )
    cur = bufs
    for t in range(steps):
        for r in range(g):
            j = origins[t][r]
            k_j, v_j = cur[r]
            skip, plan = _resolve_tiles(
                mask, idxs[r], idxs[j], block_size, bias_cache
            )
            if skip:
                continue
            o_part, lse_part = get_backend().flash_forward(
                qs[r], repeat_kv(k_j, groups), repeat_kv(v_j, groups),
                scale=scale, block_q=block_size, block_k=block_size,
                plan=plan, workspace=workspace,
            )
            os[r], lses[r] = merge_states(os[r], lses[r], o_part, lse_part)
        if t < steps - 1:
            if flow is None:
                bufs = schedule.apply(comm, bufs, t, phase=phase, tag="gqa-kv")
                cur = bufs
            else:
                if t < flow.forward_transitions:
                    bufs = schedule.apply(comm, bufs, t, phase=phase, tag="gqa-kv")
                flow.poststep(t)
                delivered = flow.delivered(t + 1)
                cur = delivered if delivered is not None else bufs
    return os, lses


def gqa_burst_backward(
    comm: SimCommunicator,
    schedule: RingSchedule,
    qs, ks, vs, os, lses, dos, idxs,
    groups: int,
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-bwd",
    block_size: int = 128,
    ring_mode: str = "unidirectional",
):
    """Algorithm 2 under GQA: the circulating bundle is query-sized (no
    saving from GQA); KV tensors are expanded locally on the pinned side
    and their gradients folded back to KV heads."""
    expanded_k = [repeat_kv(k, groups) for k in ks]
    expanded_v = [repeat_kv(v, groups) for v in vs]
    dqs, dks, dvs = burst_attention_backward(
        comm, schedule, qs, expanded_k, expanded_v, os, lses, dos, idxs,
        mask=mask, scale=scale, phase=phase, block_size=block_size,
        ring_mode=ring_mode,
    )
    dks = [fold_kv_grad(dk, groups) for dk in dks]
    dvs = [fold_kv_grad(dv, groups) for dv in dvs]
    return dqs, dks, dvs

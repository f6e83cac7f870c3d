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
forms the extension benchmark (``bench_ext_gqa.py``) sweeps — both are
calls on the bundle layouts declared in :mod:`repro.comm.ring`, the ones
the ring passes circulate.

Numerics: :func:`gqa_attention_reference` is the dense oracle.  There is
no GQA ring kernel: the ring-family passes (:mod:`repro.attention.ring`,
:mod:`repro.attention.burst`) read the group factor off their shards and
apply :func:`repeat_kv` / :func:`fold_kv_grad` inside their tile step, so
only the *small* KV tensors circulate under Algorithm 1.
"""

from __future__ import annotations

import numpy as np

from repro.comm.ring import backward_bundle, cheaper_backward_bundle
from repro.kernels import attention_reference, attention_reference_backward


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
    """The group factor (query heads per KV head; 1 for MHA), validated."""
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
    """The paper's per-GPU backward send volume in elements (both
    algorithms), ``G`` whole-bundle hops; the executed count is one hop's
    read-only share lower (the return hop ships only ``dK, dV`` / ``dQ``).

    * Algorithm 1: ``4 * N * h_kv * d`` (K, V, dK, dV are KV-sized).
    * Algorithm 2: ``3 * N * h_q * d + 2 * N * h_q`` (Q-sized bundle).
    """
    return float(
        backward_bundle(algorithm).elems(seq_len, n_q_heads, n_kv_heads, head_dim)
    )


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
    return cheaper_backward_bundle(n_q_heads, n_kv_heads, head_dim).name

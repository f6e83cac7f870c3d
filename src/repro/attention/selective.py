"""Sparsity-aware selective communication (the paper's stated future work).

Ring circulation moves every KV shard to every rank even when the mask
makes most (query-shard, KV-shard) tile pairs empty — for a 32K sliding
window over 1M tokens, ~94 % of the circulated data is never read.  The
paper closes with "there remains potential for further optimization in
communication patterns for sparse attention"; this module implements the
natural answer:

* build the **tile dependency matrix** ``need[i, j]`` = does rank ``i``'s
  query shard attend to anything in rank ``j``'s KV shard;
* forward: rank ``j`` point-to-point sends ``(K_j, V_j)`` only to the
  ranks that need it;
* backward: the query-side bundle ``(Q_i, dO_i, D_i, Lse_i)`` travels
  only to needed KV owners, each returning partial ``(dQ, dK, dV)``
  contributions.

With block-balanced partitions the dependency matrix is sparse exactly
when the mask is block-sparse, so communication volume scales with the
mask's live bandwidth (``O(N·w/G)`` for a window ``w``) instead of
``O(N)`` — verified against the ring volumes in the tests and swept by
``python -m repro.experiments ext-selective``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attention.ring import _resolve_tiles
from repro.comm import SimCommunicator
from repro.kernels import KernelWorkspace, SoftmaxState, get_backend
from repro.masks import MaskPattern
from repro.obs.tracer import traced


def tile_dependency_matrix(
    mask: MaskPattern | None, idxs: Sequence[np.ndarray]
) -> np.ndarray:
    """``need[i, j]`` = rank ``i``'s queries attend into rank ``j``'s keys."""
    g = len(idxs)
    need = np.ones((g, g), dtype=bool)
    if mask is None:
        return need
    for i in range(g):
        for j in range(g):
            need[i, j] = mask.tile_state(idxs[i], idxs[j]) != "empty"
    return need


def communication_savings(
    mask: MaskPattern | None, idxs: Sequence[np.ndarray]
) -> float:
    """Fraction of off-diagonal KV transfers a ring would waste."""
    need = tile_dependency_matrix(mask, idxs)
    g = len(idxs)
    off_diag = g * (g - 1)
    if off_diag == 0:
        return 0.0
    needed = int(need.sum() - np.trace(need))
    return 1.0 - needed / off_diag


@traced("attn.pass", "attn", algorithm="selective", direction="fwd")
def selective_attention_forward(
    comm: SimCommunicator,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-fwd",
    block_size: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass fetching only the KV shards the mask requires."""
    g = comm.world_size
    need = tile_dependency_matrix(mask, idxs)
    os, lses = [], []
    workspace = KernelWorkspace()
    for i in range(g):
        # Rank i's running (m, [O | l]) over the KV shards it fetches.
        state = SoftmaxState.begin(qs[i], vs[i].shape[-1], scale)
        for j in range(g):
            if not need[i, j]:
                continue
            k_j, v_j = (
                (ks[j], vs[j])
                if i == j
                else comm.send(j, i, (ks[j], vs[j]), phase=phase, tag="sel-kv")
            )
            skip, plan = _resolve_tiles(
                mask, qs[i], idxs[i], idxs[j], block_size
            )
            if skip:
                continue
            get_backend().flash_forward(
                qs[i], k_j, v_j, block_q=block_size, block_k=block_size,
                plan=plan, workspace=workspace, state=state,
            )
        o_i, lse_i = state.finish()
        os.append(o_i)
        lses.append(lse_i)
    workspace.release()
    return os, lses


@traced("attn.pass", "attn", algorithm="selective", direction="bwd")
def selective_attention_backward(
    comm: SimCommunicator,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    os: Sequence[np.ndarray],
    lses: Sequence[np.ndarray],
    dos: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-bwd",
    block_size: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Backward pass over needed tiles only.

    Follows Algorithm 2's insight — the query-side bundle
    ``(Q, dO, D, Lse)`` travels, KV stays pinned — but point-to-point:
    rank ``i`` sends its bundle to each needed KV owner ``j``, which
    computes the tile's gradients locally and returns ``dQ`` partials
    (``dK``/``dV`` partials accumulate on their owner, no return trip).
    """
    g = comm.world_size
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    need = tile_dependency_matrix(mask, idxs)
    ds = [np.sum(dos[r] * os[r], axis=-1) for r in range(g)]
    dqs = [np.zeros_like(q) for q in qs]
    dks = [np.zeros_like(k) for k in ks]
    dvs = [np.zeros_like(v) for v in vs]

    workspace = KernelWorkspace()
    for i in range(g):
        for j in range(g):
            if not need[i, j]:
                continue
            skip, plan = _resolve_tiles(
                mask, qs[i], idxs[i], idxs[j], block_size
            )
            if skip:
                continue
            if i == j:
                q_i, do_i, d_i, lse_i = qs[i], dos[i], ds[i], lses[i]
            else:
                q_i, do_i, d_i, lse_i = comm.send(
                    i, j, (qs[i], dos[i], ds[i], lses[i]),
                    phase=phase, tag="sel-qbundle",
                )
            dq_part, dk_part, dv_part = get_backend().flash_backward_tiles(
                q_i, ks[j], vs[j], lse_i, d_i, do_i, scale=scale,
                block_q=block_size, block_k=block_size,
                plan=plan, workspace=workspace,
            )
            dks[j] += dk_part
            dvs[j] += dv_part
            if i != j:
                dq_part = comm.send(j, i, dq_part, phase=phase, tag="sel-dq")
            dqs[i] += dq_part
    workspace.release()
    return dqs, dks, dvs


def selective_vs_ring_volume(
    mask: MaskPattern | None,
    idxs: Sequence[np.ndarray],
    shard_elems: int,
) -> dict[str, float]:
    """Closed-form forward KV volume comparison (elements, whole cluster).

    Ring: every rank forwards every shard: ``G * (G-1) * 2 * shard``.
    Selective: ``2 * shard`` per needed off-diagonal tile.
    """
    g = len(idxs)
    need = tile_dependency_matrix(mask, idxs)
    needed = int(need.sum() - np.trace(need))
    return {
        "ring": g * (g - 1) * 2.0 * shard_elems,
        "selective": needed * 2.0 * shard_elems,
        "savings": communication_savings(mask, idxs),
    }

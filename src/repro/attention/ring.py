"""Ring attention: shared forward pass and the Algorithm 1 backward pass.

**Forward** (all ring-family methods share it): each rank keeps its query
shard pinned and a ``(K, V)`` bundle circulates along the ring schedule.
At each of the ``G`` compute steps a rank runs the local FlashAttention
kernel between its queries and the currently-held KV shard, merging the
partial ``(O, lse)`` with the online-softmax rule.  Per-rank send volume is
``(G-1)/G * 2Nd`` elements — the paper's ``2Nd``.

**Backward, Algorithm 1** (RingAttention / Megatron-CP / LoongTrain):
``(K_j, V_j, dK_j, dV_j)`` circulates; each rank uses its locally stored
``Q_i, O_i, dO_i, Lse_i`` to accumulate into the circulating ``dK_j, dV_j``
and its own ``dQ_i``.  The bundle makes a full loop of ``G`` hops so the
gradients return to their owners: per-rank send volume is exactly ``4Nd``
elements.

Both functions accept any :class:`~repro.comm.RingSchedule`, so the same
code runs the flat global ring, the topology-aware double ring, and USP's
grouped rings; masks are global-index predicates, so zigzag/striped/
block-balanced partitions are all handled uniformly (empty tiles are
skipped, full tiles run unmasked — the workload-balance optimisation).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm import BidirectionalFlow, RingSchedule, SimCommunicator
from repro.comm.ring import check_ring_mode
from repro.kernels import (
    BiasTileCache,
    KernelWorkspace,
    TilePlan,
    get_backend,
    record_shard_skip,
)
from repro.kernels.softmax import NEG_INF, merge_states
from repro.masks import MaskPattern
from repro.obs.tracer import traced


def _resolve_tiles(
    mask: MaskPattern | None,
    q_idx: np.ndarray,
    k_idx: np.ndarray,
    block_size: int,
    bias_cache: BiasTileCache | None = None,
) -> tuple[bool, TilePlan | None]:
    """Resolve how the kernel should see one (query-shard, key-shard) pair.

    Returns ``(skip, plan)``.  An ``empty`` shard pair is skipped outright
    (and accounted as skipped tiles); any other pair comes back as a
    :class:`~repro.kernels.TilePlan` — sub-tiles classified per block, the
    pattern's additive bias resolved per tile through ``bias_cache``, the
    dense shard-pair mask never materialised.  ``plan`` is ``None`` only
    when there is no mask at all.
    """
    if mask is None:
        return False, None
    state = mask.tile_state(q_idx, k_idx)
    if state == "empty":
        record_shard_skip(len(q_idx), len(k_idx), block_size, block_size)
        return True, None
    plan = TilePlan.build(
        mask, q_idx, k_idx, block_size, block_size,
        bias_cache=bias_cache, assume_full=(state == "full"),
    )
    return False, plan


@traced("attn.pass", "attn", algorithm="ring", direction="fwd")
def ring_attention_forward(
    comm: SimCommunicator,
    schedule: RingSchedule,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-fwd",
    block_size: int = 128,
    ring_mode: str = "unidirectional",
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Distributed attention forward pass over ``schedule``.

    Parameters
    ----------
    qs, ks, vs:
        Per-rank shards, each ``(..., S/G, D)``.
    idxs:
        Per-rank global token indices (from the partitioner).  These are
        static metadata known to every rank, so they are *not* circulated.
    mask:
        Optional global mask pattern; tiles are resolved per (rank, step).
    ring_mode:
        ``"unidirectional"`` (default) circulates the KV bundle one way;
        ``"bidirectional"`` splits delivery across two counter-rotating
        streams (TokenRing) while keeping the compute and online-softmax
        merge order — and hence the results, bitwise — unchanged.

    Returns
    -------
    (os, lses):
        Per-rank output shards and logsumexp statistics.
    """
    check_ring_mode(ring_mode)
    g = comm.world_size
    if schedule.num_steps != g and schedule.name != "grouped-ring":
        raise ValueError(
            f"schedule covers {schedule.num_steps} steps but world size is {g}"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    origins = schedule.origins()
    steps = schedule.num_steps

    os: list[np.ndarray] = [
        np.zeros(q.shape[:-1] + (vs[i].shape[-1],), dtype=np.float64)
        for i, q in enumerate(qs)
    ]
    lses: list[np.ndarray] = [
        np.full(q.shape[:-1], NEG_INF, dtype=np.float64) for q in qs
    ]

    bias_cache = BiasTileCache()
    workspace = KernelWorkspace()
    bufs: list[object] = [(ks[r].copy(), vs[r].copy()) for r in range(g)]
    flow = (
        BidirectionalFlow(comm, schedule, bufs, phase=phase, tag="kv")
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
                qs[r], k_j, v_j, scale=scale,
                block_q=block_size, block_k=block_size,
                plan=plan, workspace=workspace,
            )
            os[r], lses[r] = merge_states(os[r], lses[r], o_part, lse_part)
        if t < steps - 1:
            if flow is None:
                bufs = schedule.apply(comm, bufs, t, phase=phase, tag="kv")
                cur = bufs
            else:
                # Forward stream only runs its half of the circulation;
                # later steps are fed by the counter-rotating stream.
                if t < flow.forward_transitions:
                    bufs = schedule.apply(comm, bufs, t, phase=phase, tag="kv")
                flow.poststep(t)
                delivered = flow.delivered(t + 1)
                cur = delivered if delivered is not None else bufs
    return os, lses


@traced("attn.pass", "attn", algorithm="ring-alg1", direction="bwd")
def ring_attention_backward_kv(
    comm: SimCommunicator,
    schedule: RingSchedule,
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
    block_size: int = 128,
    ring_mode: str = "unidirectional",
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Algorithm 1: backward pass circulating ``(K, V, dK, dV)``.

    The circulating bundle is 4 shard-sized arrays; with ``G`` hops
    (``G - 1`` transitions plus the final return-to-owner permutation) the
    per-rank send volume is exactly ``4Nd`` elements — the baseline cost
    BurstAttention's Algorithm 2 improves on.

    Under ``ring_mode="bidirectional"`` the read-only ``(K, V)`` halves of
    the bundle are delivered over two counter-rotating streams while the
    ``(dK, dV)`` accumulators keep riding the full forward circulation
    (their addition order cannot change without changing the bits); once
    the reverse stream takes over KV delivery, the forward bundle and the
    return hop shrink to the accumulators alone.

    Returns per-rank ``(dqs, dks, dvs)``.
    """
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
            phase=phase, tag="kv+grads",
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
            # Note: Algorithm 1 recomputes D_i = rowsum(dO_i * O_i) every
            # round on the device — the flash kernel below does exactly
            # that, which is the extra compute Algorithm 2 eliminates.
            dq_part, dk_part, dv_part = get_backend().flash_backward(
                qs[r], k_j, v_j, os[r], lses[r], dos[r], scale=scale,
                block_q=block_size, block_k=block_size,
                plan=plan, workspace=workspace,
            )
            dqs[r] += dq_part
            if len(bufs[r]) == 4:
                bufs[r] = (k_j, v_j, dk_j + dk_part, dv_j + dv_part)
            else:
                bufs[r] = (dk_j + dk_part, dv_j + dv_part)
        if t < steps - 1:
            if flow is not None and t == flow.forward_transitions:
                # KV delivery is now the reverse stream's job; only the
                # gradient accumulators stay on the forward circulation.
                bufs = [b[-2:] for b in bufs]
            bufs = schedule.apply(comm, bufs, t, phase=phase, tag="kv+grads")
            if flow is not None:
                flow.poststep(t)
                ro = flow.delivered(t + 1)

    # Final hop: send each circulating bundle home to its owner.
    if flow is not None:
        bufs = [b[-2:] for b in bufs]
    bufs = comm.exchange(
        bufs, schedule.return_permutation(), phase=phase, tag="kv+grads-return"
    )
    dks = [bufs[r][-2] for r in range(g)]
    dvs = [bufs[r][-1] for r in range(g)]
    return dqs, dks, dvs

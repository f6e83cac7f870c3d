"""Ring attention: the one circulation loop, the shared forward pass and
the Algorithm 1 backward pass.

:func:`ring_pass` is the numeric interpreter of a
:class:`~repro.comm.RingSchedule` (the DES interpreter is
:func:`repro.perf.schedules.attention.attention_pass_sim`): it owns the
per-(ring step, rank) loop, the bidirectional transport and the
return-to-owner hop.  A ring-family pass is a bundle layout — declared in
:mod:`repro.comm.ring`, where the DES reads the same one — plus a tile
function handed to it:

=========  =====================  ==========================
pass       layout                 tile (rank r, origin j)
=========  =====================  ==========================
forward    :data:`KV_BUNDLE`      flash fwd ``Q_r × KV_j``,
                                  continuing ``(m_r, [O_r | l_r])``
Alg. 1     :data:`ALG1_BUNDLE`    flash bwd ``Q_r × KV_j``,
                                  ``dQ_r +=``, ``→ dK_j, dV_j``
Alg. 2     :data:`ALG2_BUNDLE`    flash bwd tiles ``Q_j × KV_r``,
(burst)                           ``dK_r, dV_r +=``, ``→ dQ_j``
=========  =====================  ==========================

**Forward** (all ring-family methods share it): each rank keeps its query
shard pinned and a ``(K, V)`` bundle circulates along the ring schedule.
At each of the ``G`` compute steps a rank runs the local FlashAttention
kernel between its queries and the KV shard delivered this step, which
continues the rank's one running softmax state — the row max ``m`` and the
unnormalised ``[O | l]`` (:class:`~repro.kernels.SoftmaxState`) — and the
state is normalised to ``(O, lse)`` once, after the last step
(BurstAttention's global attention optimisation).  Per-rank send volume is
``(G-1)/G * 2Nd`` elements — the paper's ``2Nd``.

**Backward, Algorithm 1** (RingAttention / Megatron-CP / LoongTrain):
``(K_j, V_j, dK_j, dV_j)`` circulates; each rank uses its locally stored
``Q_i, dO_i, Lse_i`` and ``D_i = rowsum(dO_i ∘ O_i)`` to accumulate into
the circulating ``dK_j, dV_j`` and its own ``dQ_i``.  After ``G - 1``
transitions only ``dK_j, dV_j`` go home, so per-rank send volume is the
paper's ``4Nd`` less ``2Nd/G``.  Both backward passes take each rank's
``D`` in place of its output ``O``: the row statistic is all of ``O``
either reads, and the caller forms it once per pass.

GQA is a property of the shards, not a second code path: when ``ks``/``vs``
carry fewer heads than ``qs`` the KV-head-sized shards circulate and the
tile expands them to query heads (and folds KV gradients back) locally.

The passes accept any :class:`~repro.comm.RingSchedule`, so the same
code runs the flat global ring, the topology-aware double ring, and USP's
grouped rings; masks are global-index predicates, so zigzag/striped/
block-balanced partitions are all handled uniformly (empty tiles are
skipped, full tiles run unmasked — the workload-balance optimisation).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.attention.gqa import _check_groups, fold_kv_grad, repeat_kv
from repro.comm import BidirectionalFlow, RingSchedule, SimCommunicator
from repro.comm.ring import ALG1_BUNDLE, KV_BUNDLE, check_ring_mode
from repro.kernels import (
    KernelWorkspace,
    SoftmaxState,
    TilePlan,
    get_backend,
    head_batch,
)
from repro.masks import MaskPattern
from repro.obs.tracer import traced


def _resolve_tiles(
    mask: MaskPattern | None,
    q: np.ndarray,
    q_idx: np.ndarray,
    k_idx: np.ndarray,
    block_size: int | None,
    heads: slice | None = None,
) -> tuple[bool, TilePlan | None]:
    """Resolve how the kernel should see the (query-shard, key-shard) pair
    it is about to be handed ``q`` for.

    Returns ``(skip, plan)``.  Any pair the mask touches comes back as its
    (memoised) :class:`~repro.kernels.TilePlan` — sub-tiles classified per
    block at ``block_size`` (``None``: derived from ``q``'s head batch),
    the dense shard-pair mask never materialised.  A pair whose plan has
    no sub-tile to compute is skipped outright, and accounted as skipped
    tiles.  ``plan`` is ``None`` only when there is no mask at all.
    ``heads`` is the range of the mask's per-head bias that ``q``'s heads
    are (a head-parallel rank's group); ``None``: all of them.
    """
    if mask is None:
        return False, None
    plan = TilePlan.build(
        mask, q_idx, k_idx, block_size, block_size, batch=head_batch(q)
    )
    if plan.num_empty == plan.num_tiles:
        plan.tally()
        return True, None
    if heads is not None and plan.bias_cache is not None:
        plan = plan.with_head_slice(heads)
    return False, plan


def row_stats(
    dos: Sequence[np.ndarray], os: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Each rank's ``D = rowsum(dO ∘ O)`` — shaped like its ``lse`` — the
    one statistic of ``O`` a backward pass reads, formed once per pass.
    Its rows are the same bits in sequence or head layout."""
    return [np.sum(do * o, axis=-1) for do, o in zip(dos, os)]


def ring_pass(
    comm: SimCommunicator,
    schedule: RingSchedule,
    bundles: Sequence[tuple],
    carried: tuple[int, ...],
    tile: Callable[[int, int, tuple], tuple | None],
    *,
    phase: str,
    tag: str,
    ring_mode: str = "unidirectional",
) -> list[tuple]:
    """Circulate ``bundles`` once around ``schedule`` — the one executed
    ring loop every ring-family pass is an instance of.

    Parameters
    ----------
    bundles:
        ``bundles[r]`` is the tuple of arrays that starts on rank ``r``.
        Its slot (leaf) order is the wire order and never changes.
    carried:
        Slot indices of the bundle's accumulators; every other slot is
        read-only.  The passes hand in their declared
        :class:`~repro.comm.ring.BundleLayout`'s ``carried``.
    tile:
        ``tile(r, j, bundle)`` is rank ``r``'s compute step against the
        bundle that originated on rank ``j``; it returns one increment per
        carried slot (added out of place, ``acc + inc``), or ``None`` for
        an empty shard pair.  Whatever stays pinned on ``r`` is the
        closure's own state.
    ring_mode:
        ``"unidirectional"`` moves the whole bundle along the schedule.
        ``"bidirectional"`` delivers the read-only slots over two
        counter-rotating streams (:class:`~repro.comm.BidirectionalFlow`):
        the forward stream carries the whole bundle for its half of the
        steps, then slims down to the carried slots — which must ride the
        full forward circulation to keep their addition order — or, with
        nothing carried, stops.

    Returns the carried slots per rank, sent home to their owners over a
    final ``<tag>-return`` hop (``[()] * G`` and no hop when nothing is
    carried; no hop either on a one-position ring, whose bundles never
    left home).  In either ring mode the hop ships the carried slots
    alone: the owner reads nothing else.
    """
    check_ring_mode(ring_mode)
    g = comm.world_size
    steps = schedule.num_steps
    if steps != g and schedule.name != "grouped-ring":
        raise ValueError(
            f"schedule covers {steps} steps but world size is {g}"
        )
    origins = schedule.origins()
    read_only = tuple(i for i in range(len(bundles[0])) if i not in carried)

    def split(bufs):
        return (
            [tuple(b[i] for i in read_only) for b in bufs],
            [tuple(b[i] for i in carried) for b in bufs],
        )

    def join(r):
        bundle = [None] * (len(read_only) + len(carried))
        for i, leaf in zip(read_only, ro[r]):
            bundle[i] = leaf
        for i, leaf in zip(carried, acc[r]):
            bundle[i] = leaf
        return tuple(bundle)

    # ro[r]: the read-only slots rank r computes against at this step;
    # acc[r]: the accumulators it currently holds.
    ro, acc = split(bundles)
    flow = (
        BidirectionalFlow(comm, schedule, ro, phase=phase, tag=tag)
        if ring_mode == "bidirectional"
        else None
    )
    for t in range(steps):
        for r in range(g):
            incs = tile(r, origins[t][r], join(r))
            if incs is not None:
                acc[r] = tuple(a + inc for a, inc in zip(acc[r], incs))
        if t == steps - 1:
            break
        if flow is None or t < flow.forward_transitions:
            ro, acc = split(schedule.apply(
                comm, [join(r) for r in range(g)], t, phase=phase, tag=tag
            ))
        elif carried:
            # Read-only delivery is now the reverse stream's job; only the
            # accumulators stay on the forward circulation.
            acc = schedule.apply(comm, acc, t, phase=phase, tag=tag)
        if flow is not None:
            flow.poststep(t)
            delivered = flow.delivered(t + 1)
            if delivered is not None:
                ro = delivered
    if not carried or steps == 1:
        return acc
    # Final hop: the accumulators, all their owner reads, go home.
    return schedule.apply_return(comm, acc, phase=phase, tag=f"{tag}-return")


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
    block_size: int | None = None,
    ring_mode: str = "unidirectional",
    head_slices: Sequence[slice] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Distributed attention forward pass over ``schedule``.

    Parameters
    ----------
    qs, ks, vs:
        Per-rank shards, each ``(..., S/G, D)``.  ``ks``/``vs`` may carry
        fewer heads than ``qs`` (GQA): the KV-head-sized shards circulate
        and each rank expands them to its query heads only for the kernel.
    idxs:
        Per-rank global token indices (from the partitioner).  These are
        static metadata known to every rank, so they are *not* circulated.
    mask:
        Optional global mask pattern; tiles are resolved per (rank, step).
    ring_mode:
        ``"unidirectional"`` (default) circulates the KV bundle one way;
        ``"bidirectional"`` splits delivery across two counter-rotating
        streams (TokenRing) while keeping the compute and online-softmax
        accumulation order — and hence the results, bitwise — unchanged.
    head_slices:
        Per rank, the range of the mask's per-head bias its shards' heads
        are (USP's head groups); ``None``: every rank holds all heads.

    Returns
    -------
    (os, lses):
        Per-rank output shards and logsumexp statistics.
    """
    groups = _check_groups(qs[0].shape[0], ks[0].shape[0])
    # One running (m, [O | l]) per rank for the whole ring, normalised
    # once after the last step.
    states = [
        SoftmaxState.begin(q, v.shape[-1], scale) for q, v in zip(qs, vs)
    ]
    workspace = KernelWorkspace()

    def tile(r, j, bundle):
        k_j, v_j = bundle
        skip, plan = _resolve_tiles(
            mask, qs[r], idxs[r], idxs[j], block_size,
            head_slices and head_slices[r],
        )
        if skip:
            return None
        get_backend().flash_forward(
            qs[r], repeat_kv(k_j, groups), repeat_kv(v_j, groups),
            block_q=block_size, block_k=block_size,
            plan=plan, workspace=workspace, state=states[r],
        )
        return ()

    ring_pass(
        comm, schedule, [(k.copy(), v.copy()) for k, v in zip(ks, vs)],
        KV_BUNDLE.carried, tile, phase=phase, tag=KV_BUNDLE.tag,
        ring_mode=ring_mode,
    )
    os, lses = zip(*(state.finish() for state in states))
    workspace.release()
    return list(os), list(lses)


@traced("attn.pass", "attn", algorithm="ring-alg1", direction="bwd")
def ring_attention_backward_kv(
    comm: SimCommunicator,
    schedule: RingSchedule,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    ds: Sequence[np.ndarray],
    lses: Sequence[np.ndarray],
    dos: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-bwd",
    block_size: int | None = None,
    ring_mode: str = "unidirectional",
    head_slices: Sequence[slice] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Algorithm 1: backward pass circulating ``(K, V, dK, dV)``.

    ``ds[r]`` is rank ``r``'s ``D = rowsum(dO ∘ O)`` (shaped like its
    ``lse``).  The paper's Algorithm 1 re-derives it from ``O`` on the
    device every round; every round reads the same rank-local rows, so
    the pass reads it once instead — the same bits.

    The circulating bundle is 4 shard-sized arrays; ``G - 1`` transitions
    and a return hop carrying ``(dK, dV)`` alone make the per-rank send
    volume the paper's ``4Nd`` — the cost Algorithm 2 improves on — less
    ``2Nd/G``.  Under GQA the bundle stays KV-head sized (``4Nd /
    groups``): each step's ``dK``/``dV`` part is folded back to KV heads
    before it joins the circulating accumulator.

    Under ``ring_mode="bidirectional"`` the read-only ``(K, V)`` halves of
    the bundle are delivered over two counter-rotating streams while the
    ``(dK, dV)`` accumulators keep riding the full forward circulation
    (their addition order cannot change without changing the bits); once
    the reverse stream takes over KV delivery, the forward bundle shrinks
    to the accumulators alone.

    ``head_slices`` is as for :func:`ring_attention_forward`.  Returns
    per-rank ``(dqs, dks, dvs)``.
    """
    groups = _check_groups(qs[0].shape[0], ks[0].shape[0])
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    dqs = [np.zeros_like(q) for q in qs]
    workspace = KernelWorkspace()

    def tile(r, j, bundle):
        k_j, v_j = bundle[:2]
        skip, plan = _resolve_tiles(
            mask, qs[r], idxs[r], idxs[j], block_size,
            head_slices and head_slices[r],
        )
        if skip:
            return None
        dq_part, dk_part, dv_part = get_backend().flash_backward_tiles(
            qs[r], repeat_kv(k_j, groups), repeat_kv(v_j, groups),
            lses[r], ds[r], dos[r], scale=scale,
            block_q=block_size, block_k=block_size,
            plan=plan, workspace=workspace,
        )
        dqs[r] += dq_part
        return fold_kv_grad(dk_part, groups), fold_kv_grad(dv_part, groups)

    home = ring_pass(
        comm, schedule,
        [(k.copy(), v.copy(), np.zeros_like(k), np.zeros_like(v))
         for k, v in zip(ks, vs)],
        ALG1_BUNDLE.carried, tile, phase=phase, tag=ALG1_BUNDLE.tag,
        ring_mode=ring_mode,
    )
    workspace.release()
    return dqs, [dk for dk, _ in home], [dv for _, dv in home]

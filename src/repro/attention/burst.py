"""BurstAttention's Algorithm 2 backward pass.

The key identity (Eq. 7–8 of the paper): with ``P_i = softmax(S_i)`` and
``dP_i = dO_i V^T``,

    dS_i = P_i ∘ dP_i − D_i P_i,     where  D_i = rowsum(dO_i ∘ O_i)

so the full row of output states ``O_i`` never needs to travel — only the
scalar-per-row statistics ``D_i`` and ``Lse_i``.  BurstAttention therefore
pins ``(K_i, V_i, dK_i, dV_i)`` on their owner and circulates
``(Q_j, dQ_j, dO_j, D_j, Lse_j)`` instead:

=================  =======================  ======================
                   Algorithm 1 (Ring)       Algorithm 2 (Burst)
-----------------  -----------------------  ----------------------
circulates         K, V, dK, dV             Q, dQ, dO, D, Lse
per-hop payload    4 (N/G) d                3 (N/G) d + 2 (N/G)
total per rank     4Nd                      3Nd + 2N   (≈ −25 %)
D recomputation    every round              once, before the loop
=================  =======================  ======================

Numerically the result is identical to Algorithm 1 and to the dense
reference — the tests assert both, along with the exact traffic volumes.
The circulation itself is :func:`repro.attention.ring.ring_pass`; this
module fills the bundle :data:`repro.comm.ring.ALG2_BUNDLE` declares (the
executed payload is ``3Nd + 2N·H``: one ``D`` and one ``Lse`` row per head)
and supplies the device step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attention.gqa import _check_groups, fold_kv_grad, repeat_kv
from repro.attention.ring import _resolve_tiles, ring_pass
from repro.comm import RingSchedule, SimCommunicator
from repro.comm.ring import ALG2_BUNDLE
from repro.kernels import KernelWorkspace, PinnedKV, get_backend
from repro.masks import MaskPattern
from repro.obs.tracer import traced


@traced("attn.pass", "attn", algorithm="burst-alg2", direction="bwd")
def burst_attention_backward(
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
    block_size: int | None = None,
    ring_mode: str = "unidirectional",
    head_slices: Sequence[slice] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Algorithm 2: BurstAttention's communication-optimised backward pass.

    Per-rank send volume is exactly ``3Nd + 2N·H`` elements (``H`` = number
    of leading head slots; the paper's single-head statement is ``3Nd+2N``),
    ~25 % below Algorithm 1's ``4Nd``.  Returns per-rank ``(dqs, dks, dvs)``.

    One device step (lines 7–13 of Algorithm 2) takes the circulating
    query-side bundle and the pinned ``(K_i, V_i)`` to ``(dQ_j part, dK_i
    part, dV_i part)``, with ``D_j``/``Lse_j`` taken from the ring instead
    of recomputed (the paper's line 11 writes ``D_i``; the derivation in
    Eq. 7–8 shows the query-side ``D_j`` is the quantity required, which
    is what travels).  It is the backend's ``flash_backward_tiles`` — the
    flash backward core minus the local ``D`` recomputation, tiled so no
    full score matrix forms.  What stays pinned is set up once per pass:
    one :class:`~repro.kernels.PinnedKV` per rank holds ``[K_i | 1]^T``,
    ``[V_i | 1]^T`` and the ``dK_i`` / ``dV_i`` every device step adds
    into; what was delivered this step (``Q_j``, ``dO_j``, ``D_j``,
    ``Lse_j``) is what the kernel augments and reads, once per step.

    Under GQA the bundle is query-sized (no saving — see
    :mod:`repro.attention.gqa`); the pinned ``K, V`` are expanded to query
    heads once and their summed gradients folded back once at the end.

    Under ``ring_mode="bidirectional"`` the read-only ``(Q, dO, D, Lse)``
    parts of the bundle split across two counter-rotating streams while
    the ``dQ`` accumulator rides the full forward circulation (keeping its
    addition order, and therefore the results, bitwise identical); once
    the reverse stream takes over, the forward bundle and the return hop
    carry ``dQ`` alone.

    ``head_slices`` is as for
    :func:`~repro.attention.ring.ring_attention_forward`: a rank's pinned
    keys and every query shard visiting it share one head group.
    """
    groups = _check_groups(qs[0].shape[0], ks[0].shape[0])
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    ks = [repeat_kv(k, groups) for k in ks]
    vs = [repeat_kv(v, groups) for v in vs]
    # (K_r, V_r) never move: their augmented operands are built once per
    # rank, and every device step adds into the same dK_r / dV_r.
    pinned = [PinnedKV(k, v) for k, v in zip(ks, vs)]
    workspace = KernelWorkspace()

    def tile(r, j, bundle):
        q_j, _, do_j, d_j, lse_j = bundle
        # Queries are shard j, keys/values are pinned shard r.
        skip, plan = _resolve_tiles(
            mask, q_j, idxs[j], idxs[r], block_size,
            head_slices and head_slices[r],
        )
        if skip:
            return None
        dq_part, _, _ = get_backend().flash_backward_tiles(
            q_j, ks[r], vs[r], lse_j, d_j, do_j, scale=scale,
            block_q=block_size, block_k=block_size,
            plan=plan, workspace=workspace, pinned=pinned[r],
        )
        return (dq_part,)

    home = ring_pass(
        comm, schedule,
        [
            (
                q.copy(),
                np.zeros_like(q),  # dQ accumulator rides the ring
                do.copy(),
                # D_i computed once, locally, before the ring starts
                # (Alg. 2 line 2).
                np.sum(do * o, axis=-1),
                lse.copy(),
            )
            for q, do, o, lse in zip(qs, dos, os, lses)
        ],
        ALG2_BUNDLE.carried, tile, phase=phase, tag=ALG2_BUNDLE.tag,
        ring_mode=ring_mode,
    )
    for kv in pinned:
        kv.release()
    return (
        [dq for (dq,) in home],
        [fold_kv_grad(kv.dk, groups) for kv in pinned],
        [fold_kv_grad(kv.dv, groups) for kv in pinned],
    )

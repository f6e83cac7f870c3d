"""Blockwise (FlashAttention-style) exact attention in numpy.

The computation is tiled over query and key blocks and never materialises
the full ``Sq x Sk`` score matrix.  Both directions follow FlashAttention-2,
done with in-place arithmetic on one score tile ``S`` (the GEMM's output
buffer) per sub-tile:

* **forward** — the query block is scaled once (``Q~ = Q * scale``) and
  carries a running row max ``m``, row sum ``l`` and *unnormalised* output
  ``O``.  Per key tile: ``S = Q~ K^T``; ``m' = max(m, rowmax S)``;
  ``P = exp(S - m')``; ``l = l*a + rowsum P`` and ``O = O*a + P V`` with
  ``a = exp(m - m')``.  ``O /= l`` and ``lse = m + log l`` are formed once
  per query block, after the key loop.  That is one ``exp`` and 4 full-tile
  passes per tile (max, subtract, exp, sum; 5 on a masked tile), where the
  earlier running-``(O, lse)`` merge took two ``exp`` and 8 (10 masked),
  most of them allocating a tile-sized temporary.
* **backward** — each probability tile is re-formed from the saved ``lse``
  as ``P = exp(Q~ K^T - lse)`` and ``dS = P * (dO V^T - D)`` with
  ``D = rowsum(dO * O)``; ``dK += dS^T Q~`` needs no rescale and ``dQ`` is
  scaled once per query block.  4 full-tile passes per tile (5 masked),
  down from 6 (8 masked).

Masked scores are never exponentiated (``exp(..., where=mask)``, then
zeroed), so no ``-inf`` enters the tile arithmetic.  A query row with no
visible key is handled on row-sized vectors only: its ``m`` stays ``-inf``
(shifted by 0 instead), its ``l`` stays 0, and it leaves the kernel as
``O = 0``, ``lse = -inf``, the identity of
:func:`~repro.kernels.softmax.merge_states`.  These tiled kernels are what
every distributed attention method in :mod:`repro.attention` runs locally
on each simulated device.

Masking comes in two forms:

* a :class:`~repro.kernels.tileplan.TilePlan` (``plan=``) — what every
  call site in the repo passes.  The key loop walks the plan's list of
  non-``empty`` sub-tiles per query block (work proportional to the
  computed tiles, not to the grid), ``full`` sub-tiles run without mask
  handling, and only ``partial`` sub-tiles carry a boolean tile.
  Executed/skipped sub-tiles are tallied in
  :data:`repro.kernels.tileplan.counters`, once per invocation from the
  plan's static classification.
* a dense boolean array (``mask=``, with an optional dense ``bias=``)
  broadcastable to ``(..., Sq, Sk)`` — the oracle form the kernel tests
  and the planned-equals-dense properties compare against; no call site
  outside the tests uses it.  All-``False`` tiles are skipped before their
  GEMM.

Both paths are algebraically exact and perform the same floating-point
operations on every visible score (an all-``True`` mask tile selects
everything), so their outputs are bitwise equal.  A
:class:`~repro.kernels.tileplan.KernelWorkspace` (``workspace=``) only
changes where the GEMM outputs live: reused scratch instead of fresh
arrays.  Peak temporary memory is ``O(block_q * block_k)`` instead of
``O(Sq * Sk)``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.softmax import NEG_INF
from repro.kernels.tileplan import (
    KernelWorkspace,
    TilePlan,
    head_batch,
    tile_size,
)
from repro.obs.tracer import NOOP_SPAN, trace_span


def _mask_tile(
    mask: np.ndarray | None, q0: int, q1: int, k0: int, k1: int
) -> np.ndarray | None:
    """Slice the last two axes of a broadcastable boolean mask."""
    if mask is None:
        return None
    return mask[..., q0:q1, k0:k1]


def _tile_geometry(
    plan: TilePlan | None,
    q: np.ndarray,
    k: np.ndarray,
    mask: np.ndarray | None,
    bias: np.ndarray | None,
    block_q: int | None,
    block_k: int | None,
) -> tuple[int, int]:
    """``(block_q, block_k)`` of one invocation: the plan's geometry when
    there is one (tallied here, once), else the explicit blocks or the
    derived tile size."""
    sq, sk = q.shape[-2], k.shape[-2]
    if plan is None:
        batch = head_batch(q)
        return tile_size(block_q, batch, sq), tile_size(block_k, batch, sk)
    if mask is not None or bias is not None:
        raise ValueError(
            "pass either plan= or dense mask=/bias=, not both"
        )
    plan.check_geometry(sq, sk)
    plan.tally()
    return plan.block_q, plan.block_k


def _key_tiles(
    plan: TilePlan | None,
    mask: np.ndarray | None,
    bias: np.ndarray | None,
    qi: int,
    q0: int,
    q1: int,
    sk: int,
    block_k: int,
):
    """Yield ``(k0, k1, mask_tile, bias_tile)`` for every sub-tile of one
    query block that has work: the plan's precomputed list of non-empty
    sub-tiles, or — on the dense path — slices of the broadcastable
    ``mask``/``bias`` with the all-``False`` tiles dropped."""
    if plan is not None:
        for ki, k0, k1, m in plan.row(qi):
            yield k0, k1, m, plan.bias_tile(qi, ki)
        return
    for k0 in range(0, sk, block_k):
        k1 = min(k0 + block_k, sk)
        m = _mask_tile(mask, q0, q1, k0, k1)
        if m is not None:
            if not m.any():
                continue
            m = m.astype(bool, copy=False)
        yield k0, k1, m, _mask_tile(bias, q0, q1, k0, k1)


def _matmul(
    ws: KernelWorkspace | None, a: np.ndarray, b: np.ndarray, name: str
) -> np.ndarray:
    """``a @ b``, into the workspace's ``name`` scratch when there is one."""
    return np.matmul(a, b) if ws is None else ws.matmul(a, b, name)


def _exp_visible(x: np.ndarray, m: np.ndarray | None) -> None:
    """In place: ``exp(x)`` where ``m`` (everywhere without one), exactly 0
    elsewhere.  Masked scores are never exponentiated — no ``-inf`` is
    written and none reaches ``exp``, whose special-value path costs about
    three times the plain one per element."""
    if m is None:
        np.exp(x, out=x)
    else:
        np.exp(x, out=x, where=m)
        np.copyto(x, 0.0, where=np.logical_not(m))


def flash_attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
    scale: float | None = None,
    block_q: int | None = None,
    block_k: int | None = None,
    bias: np.ndarray | None = None,
    plan: TilePlan | None = None,
    workspace: KernelWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tiled exact attention forward.

    Parameters mirror :func:`repro.kernels.attention_reference`; returns
    the same ``(o, lse)`` pair.  ``block_q``/``block_k`` bound the size of
    any temporary score tile: ``None`` derives them
    (:func:`~repro.kernels.tileplan.tile_size`), and when ``plan`` is
    given its block geometry wins.  ``bias`` is an additive score term (ALiBi) broadcastable to
    ``(..., Sq, Sk)``, tiled alongside the mask; with a plan, bias tiles
    are resolved (and cached) per sub-tile instead.

    One ``flash.fwd`` span covers the whole invocation (never per
    sub-tile — the inner loop stays bench-clean).
    """
    span = trace_span("flash.fwd", phase="compute", backend="reference")
    if span is NOOP_SPAN:
        return _forward_tiles(
            q, k, v, mask, scale, block_q, block_k, bias, plan, workspace
        )
    with span:
        span["sq"], span["sk"] = int(q.shape[-2]), int(k.shape[-2])
        span["planned"] = plan is not None
        return _forward_tiles(
            q, k, v, mask, scale, block_q, block_k, bias, plan, workspace
        )


def _forward_q_block(
    qi: int,
    q0: int,
    q1: int,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None,
    scale: float,
    block_k: int,
    bias: np.ndarray | None,
    plan: TilePlan | None,
    ws: KernelWorkspace | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inner key loop of the forward pass for one query block, which
    touches only its own ``(o_blk, lse_blk)`` running state."""
    q_blk = q[..., q0:q1, :] * scale
    o_blk = np.zeros(q_blk.shape[:-1] + (v.shape[-1],), dtype=np.float64)
    m_run = np.full(q_blk.shape[:-1] + (1,), NEG_INF, dtype=np.float64)
    l_run = np.zeros_like(m_run)
    for k0, k1, m, b in _key_tiles(
        plan, mask, bias, qi, q0, q1, k.shape[-2], block_k
    ):
        k_t = np.swapaxes(k[..., k0:k1, :], -1, -2)
        s = _matmul(ws, q_blk, k_t, "fwd-s")
        if b is not None:
            s += b
        tile_max = s.max(
            axis=-1, keepdims=True, initial=NEG_INF,
            where=True if m is None else m,
        )
        m_new = np.maximum(m_run, tile_max)
        # Rows with no visible key so far keep m = -inf; shift them by 0
        # instead, so that no inf - inf is ever formed.
        m_safe = np.where(m_new == NEG_INF, 0.0, m_new)
        alpha = np.exp(m_run - m_safe)
        s -= m_safe
        _exp_visible(s, m)
        l_run *= alpha
        l_run += s.sum(axis=-1, keepdims=True)
        o_blk *= alpha
        o_blk += _matmul(ws, s, v[..., k0:k1, :], "fwd-pv")
        m_run = m_new
    # Normalise once per q block.  A row that saw no key has l = 0 and
    # m = -inf: dividing by 1 leaves o = 0 and lse = -inf + log 1 = -inf.
    l_run[l_run == 0.0] = 1.0
    o_blk /= l_run
    return o_blk, (m_run + np.log(l_run))[..., 0]


def _forward_tiles(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None,
    scale: float | None,
    block_q: int,
    block_k: int,
    bias: np.ndarray | None,
    plan: TilePlan | None,
    workspace: KernelWorkspace | None,
) -> tuple[np.ndarray, np.ndarray]:
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    sq = q.shape[-2]
    block_q, block_k = _tile_geometry(plan, q, k, mask, bias, block_q, block_k)
    o = np.zeros(q.shape[:-1] + (v.shape[-1],), dtype=np.float64)
    lse = np.full(q.shape[:-1], NEG_INF, dtype=np.float64)

    for qi, q0 in enumerate(range(0, sq, block_q)):
        q1 = min(q0 + block_q, sq)
        o_blk, lse_blk = _forward_q_block(
            qi, q0, q1, q, k, v, mask, scale, block_k, bias, plan, workspace
        )
        o[..., q0:q1, :] = o_blk
        lse[..., q0:q1] = lse_blk
    return o, lse


def flash_attention_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    o: np.ndarray,
    lse: np.ndarray,
    do: np.ndarray,
    mask: np.ndarray | None = None,
    scale: float | None = None,
    block_q: int | None = None,
    block_k: int | None = None,
    bias: np.ndarray | None = None,
    plan: TilePlan | None = None,
    workspace: KernelWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tiled exact attention backward.

    Uses the saved global ``lse`` to re-form each probability tile and the
    FlashAttention identity ``dS = P * (dP - D)``.  Returns ``(dq, dk, dv)``.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    d_stat = np.sum(do * o, axis=-1)  # (..., Sq)
    return flash_backward_tiles(
        q, k, v, lse, d_stat, do, mask=mask, scale=scale,
        block_q=block_q, block_k=block_k, bias=bias,
        plan=plan, workspace=workspace,
    )


def flash_backward_tiles(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    lse: np.ndarray,
    d_stat: np.ndarray,
    do: np.ndarray,
    mask: np.ndarray | None = None,
    scale: float | None = None,
    block_q: int | None = None,
    block_k: int | None = None,
    bias: np.ndarray | None = None,
    plan: TilePlan | None = None,
    workspace: KernelWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward tile loop with caller-supplied row statistics.

    This is the shared core of :func:`flash_attention_backward` (which
    derives ``D = rowsum(dO * O)`` itself) and BurstAttention's
    Algorithm 2 device step (whose ``D``/``Lse`` arrive over the ring
    instead of being recomputed — the saving the paper measures).

    One ``flash.bwd`` span covers the whole invocation.
    """
    span = trace_span("flash.bwd", phase="compute", backend="reference")
    if span is NOOP_SPAN:
        return _backward_tiles(
            q, k, v, lse, d_stat, do, mask, scale, block_q, block_k,
            bias, plan, workspace,
        )
    with span:
        span["sq"], span["sk"] = int(q.shape[-2]), int(k.shape[-2])
        span["planned"] = plan is not None
        return _backward_tiles(
            q, k, v, lse, d_stat, do, mask, scale, block_q, block_k,
            bias, plan, workspace,
        )


def _backward_q_block(
    qi: int,
    q0: int,
    q1: int,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    lse: np.ndarray,
    d_stat: np.ndarray,
    do: np.ndarray,
    mask: np.ndarray | None,
    scale: float,
    block_k: int,
    bias: np.ndarray | None,
    plan: TilePlan | None,
    ws: KernelWorkspace | None,
    dk: np.ndarray,
    dv: np.ndarray,
) -> np.ndarray:
    """Inner key loop of the backward pass for one query block: returns
    its ``dq`` and accumulates the per-tile key/value gradients into
    ``dk``/``dv`` in place."""
    q_blk = q[..., q0:q1, :] * scale
    do_blk = do[..., q0:q1, :]
    d_blk = d_stat[..., q0:q1, None]
    # Rows with lse = -inf saw no key and get p = 0.  The mask already
    # zeroes them when it is what hid the keys, so the explicit zeroing is
    # decided once per q block and costs nothing when no row is dead.
    dead = np.isneginf(lse[..., q0:q1, None])
    zero_dead = dead.any()
    lse_safe = np.where(dead, 0.0, lse[..., q0:q1, None])
    dq_blk = np.zeros_like(q_blk)
    for k0, k1, m, b in _key_tiles(
        plan, mask, bias, qi, q0, q1, k.shape[-2], block_k
    ):
        k_blk = k[..., k0:k1, :]
        v_t = np.swapaxes(v[..., k0:k1, :], -1, -2)
        p = _matmul(ws, q_blk, np.swapaxes(k_blk, -1, -2), "bwd-s")
        if b is not None:
            p += b
        p -= lse_safe
        _exp_visible(p, m)
        if zero_dead:
            np.copyto(p, 0.0, where=dead)
        dv_tile = _matmul(ws, np.swapaxes(p, -1, -2), do_blk, "bwd-dv")
        ds = _matmul(ws, do_blk, v_t, "bwd-dp")
        ds -= d_blk
        ds *= p
        dq_blk += _matmul(ws, ds, k_blk, "bwd-dq")
        # q_blk carries the softmax scale, so dk needs no per-tile rescale.
        dk_tile = _matmul(ws, np.swapaxes(ds, -1, -2), q_blk, "bwd-dk")
        dv[..., k0:k1, :] += dv_tile
        dk[..., k0:k1, :] += dk_tile
    dq_blk *= scale
    return dq_blk


def _backward_tiles(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    lse: np.ndarray,
    d_stat: np.ndarray,
    do: np.ndarray,
    mask: np.ndarray | None,
    scale: float | None,
    block_q: int,
    block_k: int,
    bias: np.ndarray | None,
    plan: TilePlan | None,
    workspace: KernelWorkspace | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    sq = q.shape[-2]
    block_q, block_k = _tile_geometry(plan, q, k, mask, bias, block_q, block_k)
    dq = np.zeros_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)

    for qi, q0 in enumerate(range(0, sq, block_q)):
        q1 = min(q0 + block_q, sq)
        dq[..., q0:q1, :] = _backward_q_block(
            qi, q0, q1, q, k, v, lse, d_stat, do, mask, scale, block_k,
            bias, plan, workspace, dk, dv,
        )
    return dq, dk, dv

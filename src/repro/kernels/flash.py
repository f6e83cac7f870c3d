"""Blockwise (FlashAttention-style) exact attention in numpy.

The computation is tiled over query blocks and key *runs* and never
materialises the full ``Sq x Sk`` score matrix.  One iteration of the key
loop handles one run — a stretch of adjacent sub-tiles of one class that
:func:`~repro.kernels.tileplan.key_runs` merged (up to
:func:`~repro.kernels.tileplan.run_width` keys) and, under a partial
mask, trimmed to the keys some query row sees — because an iteration's
cost at small head dimensions is mostly fixed: a handful of NumPy calls
whose inner loops are one score row long.  Both directions follow
FlashAttention-2, done with in-place arithmetic on one score tile ``S``
(the GEMM's output buffer) per run, and both let the row statistics ride
the GEMMs as one extra column instead of a pass over the tile:

* **forward** — the query block is scaled once (``Q~ = Q * scale``) and
  carries a running row max ``m`` and the *unnormalised* ``[O | l]``.  Per
  run: ``S = Q~ K^T``; ``m' = max(m, rowmax S)``; ``P = exp(S - m')``;
  ``[O | l] = [O | l]*a + P [V | 1]`` with ``a = exp(m - m')`` — the row
  sum ``l`` is the last column of the PV product.  ``O /= l`` and
  ``lse = m + log l`` are formed once per query block, after the key
  loop.  That is one ``exp`` and 3 full-tile passes per run (max,
  subtract, exp; 4 on a masked run), where the separate ``rowsum`` made 4
  (5) and the earlier running-``(O, lse)`` merge took two ``exp`` and 8
  (10 masked), most of them allocating a tile-sized temporary.
* **backward** — each probability tile is re-formed from the saved ``lse``
  as ``P = exp([Q~ | -lse] [K | 1]^T)`` and ``dS = P * ([dO | -D]
  [V | 1]^T)`` with ``D = rowsum(dO * O)``; ``dK += dS^T Q~`` needs no
  rescale and ``dQ`` is scaled once per query block.  2 full-tile passes
  per run (exp, multiply; 3 masked), down from 4 (5) with the two
  broadcast subtractions and 6 (8) before that.  ``[K | 1]`` / ``[V | 1]``
  are built once per call, ``[Q~ | -lse]`` / ``[dO | -D]`` once per query
  block.

Masked scores are never exponentiated (``exp(..., where=mask)``, then
zeroed), so no ``-inf`` enters the tile arithmetic.  A query row with no
visible key is handled on row-sized vectors only: its ``m`` stays ``-inf``
(shifted by 0 instead), its ``l`` comes out of the GEMM as exactly 0 (and
is divided as 1), its ``-lse`` column is 0 with ``P`` zeroed afterwards,
and it leaves the kernel as ``O = 0``, ``lse = -inf``, the identity of
:func:`~repro.kernels.softmax.merge_states`.  These tiled kernels are what
every distributed attention method in :mod:`repro.attention` runs locally
on each simulated device.

Masking comes in two forms:

* a :class:`~repro.kernels.tileplan.TilePlan` (``plan=``) — what every
  call site in the repo passes.  The key loop walks the plan's precomputed
  runs per query block (work proportional to the computed tiles, not to
  the grid), ``full`` runs go without mask handling, and only ``partial``
  runs carry a boolean tile.  Sub-tiles, runs and pairs are tallied in
  :data:`repro.kernels.tileplan.counters`, once per invocation from the
  plan's static lists.
* a dense boolean array (``mask=``, with an optional dense ``bias=``)
  broadcastable to ``(..., Sq, Sk)`` — the oracle form the kernel tests
  and the planned-equals-dense properties compare against; no call site
  outside the tests uses it.  Its runs come from the same
  :func:`~repro.kernels.tileplan.key_runs`, fed the ``any()`` / ``all()``
  of each sub-tile.

Both paths are algebraically exact and perform the same floating-point
operations on every visible score, so their outputs are bitwise equal
(given the same head batch, which sets the geometry).  A
:class:`~repro.kernels.tileplan.KernelWorkspace` (``workspace=``) only
changes where the GEMM outputs live: reused scratch instead of fresh
arrays.  Peak temporary memory is ``O(block_q * run_width)`` instead of
``O(Sq * Sk)``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.softmax import NEG_INF
from repro.kernels.tileplan import (
    EMPTY,
    FULL,
    PARTIAL,
    KernelWorkspace,
    TilePlan,
    _block_bounds,
    head_batch,
    key_runs,
    run_width,
    tile_size,
)
from repro.obs.tracer import NOOP_SPAN, trace_span


def _key_loops(
    plan: TilePlan | None,
    q: np.ndarray,
    k: np.ndarray,
    mask: np.ndarray | None,
    bias: np.ndarray | None,
    block_q: int | None,
    block_k: int | None,
):
    """The work of one invocation: ``(q0, q1, runs)`` per query block,
    ``runs`` yielding ``(k0, k1, mask_tile, bias_tile)`` per iteration of
    its key loop.

    With a plan these are its precomputed runs (tallied here, once).  On
    the dense path the geometry is the explicit blocks or the derived tile
    size, and the runs are what :func:`~repro.kernels.tileplan.key_runs`
    forms from the ``any()`` / ``all()`` of each sub-tile of the
    broadcastable ``mask``, with ``mask``/``bias`` sliced to the run —
    the same function the plan was built by.
    """
    sq, sk = q.shape[-2], k.shape[-2]
    if plan is not None:
        if mask is not None or bias is not None:
            raise ValueError(
                "pass either plan= or dense mask=/bias=, not both"
            )
        plan.check_geometry(sq, sk)
        plan.tally()
        for qi in range(plan.n_q_blocks):
            yield *plan.q_range(qi), (
                (k0, k1, m, plan.bias_tile(qi, k0, k1))
                for k0, k1, m in plan.row(qi)
            )
        return
    batch = head_batch(q)
    block_q = tile_size(block_q, batch, sq)
    block_k = tile_size(block_k, batch, sk)
    k_bounds = _block_bounds(sk, block_k)
    max_keys = run_width(batch, block_q, block_k, sq, sk)
    for q0, q1 in _block_bounds(sq, block_q):
        yield q0, q1, _dense_runs(mask, bias, q0, q1, k_bounds, max_keys)


def _dense_runs(
    mask: np.ndarray | None,
    bias: np.ndarray | None,
    q0: int,
    q1: int,
    k_bounds: list[tuple[int, int]],
    max_keys: int,
):
    """The dense path's key loop for query rows ``[q0, q1)``: each
    sub-tile classified by its ``any()`` / ``all()``, then merged and
    trimmed exactly as a plan's are."""
    if mask is None:
        states = [FULL] * len(k_bounds)
    else:
        rows = mask[..., q0:q1, :]
        states = [
            EMPTY if not (tile := rows[..., k0:k1]).any()
            else FULL if tile.all() else PARTIAL
            for k0, k1 in k_bounds
        ]

    def mask_of(j0: int, j1: int) -> np.ndarray:
        stretch = rows[..., k_bounds[j0][0]:k_bounds[j1 - 1][1]]
        return stretch.astype(bool, copy=False)

    for k0, k1, m in key_runs(states, k_bounds, max_keys, mask_of):
        yield k0, k1, m, None if bias is None else bias[..., q0:q1, k0:k1]


def _scratch(
    ws: KernelWorkspace | None, name: str, shape: tuple
) -> np.ndarray:
    """Uninitialised float64 ``shape``: the workspace's ``name`` buffer
    when there is one, so that no per-call array is page-faulted in."""
    return np.empty(shape) if ws is None else ws.buf(name, shape)


def _augment(
    ws: KernelWorkspace | None,
    x: np.ndarray,
    last: np.ndarray | float,
    name: str,
) -> np.ndarray:
    """``[x | last]``: ``x`` with one more column, in the workspace's
    ``name`` scratch when there is one.  A GEMM against the augmented
    operand carries a row statistic along — ``P [V | 1]`` ends in
    ``rowsum P``, ``[Q~ | -lse] [K | 1]^T`` is ``S - lse`` and
    ``[dO | -D] [V | 1]^T`` is ``dP - D`` — for one more column of a
    product instead of a pass over the score tile."""
    out = _scratch(ws, name, x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = x
    out[..., -1] = last
    return out


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
    given its block geometry wins.  ``bias`` is an additive score term
    (ALiBi) broadcastable to ``(..., Sq, Sk)``, sliced alongside the mask;
    with a plan, bias tiles are resolved (and cached) per run instead.

    One ``flash.fwd`` span covers the whole invocation (never per
    run — the inner loop stays bench-clean).
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
    q_blk: np.ndarray,
    k_t: np.ndarray,
    v1: np.ndarray,
    runs,
    ws: KernelWorkspace | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inner key loop of the forward pass for one (scaled) query block,
    which touches only its own running state: ``m`` and ``[O | l]``, the
    accumulator of ``P [V | 1]`` (``k_t`` is ``K^T``, ``v1`` is
    ``[V | 1]``).  The returned ``o`` is a view of scratch: copy it out
    before the next block runs."""
    acc = _scratch(ws, "fwd-acc", q_blk.shape[:-1] + (v1.shape[-1],))
    acc.fill(0.0)
    m_run = np.full(q_blk.shape[:-1] + (1,), NEG_INF, dtype=np.float64)
    for k0, k1, m, b in runs:
        s = _matmul(ws, q_blk, k_t[..., k0:k1], "fwd-s")
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
        acc *= alpha
        acc += _matmul(ws, s, v1[..., k0:k1, :], "fwd-pv")
        m_run = m_new
    # Normalise once per q block.  A row that saw no key has l = 0 and
    # m = -inf: dividing by 1 leaves o = 0 and lse = -inf + log 1 = -inf.
    o_blk, l_run = acc[..., :-1], acc[..., -1:]
    l_run[l_run == 0.0] = 1.0
    o_blk /= l_run
    return o_blk, (m_run + np.log(l_run))[..., 0]


def _forward_tiles(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None,
    scale: float | None,
    block_q: int | None,
    block_k: int | None,
    bias: np.ndarray | None,
    plan: TilePlan | None,
    workspace: KernelWorkspace | None,
) -> tuple[np.ndarray, np.ndarray]:
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    o = np.zeros(q.shape[:-1] + (v.shape[-1],), dtype=np.float64)
    lse = np.full(q.shape[:-1], NEG_INF, dtype=np.float64)
    k_t = np.swapaxes(k, -1, -2)
    v1 = _augment(workspace, v, 1.0, "fwd-v1")
    for q0, q1, runs in _key_loops(plan, q, k, mask, bias, block_q, block_k):
        o[..., q0:q1, :], lse[..., q0:q1] = _forward_q_block(
            q[..., q0:q1, :] * scale, k_t, v1, runs, workspace
        )
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
    q_blk: np.ndarray,
    do_blk: np.ndarray,
    lse_blk: np.ndarray,
    d_blk: np.ndarray,
    k: np.ndarray,
    k1_t: np.ndarray,
    v1_t: np.ndarray,
    runs,
    ws: KernelWorkspace | None,
    dk: np.ndarray,
    dv: np.ndarray,
) -> np.ndarray:
    """Inner key loop of the backward pass for one (scaled) query block:
    returns its still-unscaled ``dq`` and accumulates the per-run
    key/value gradients into ``dk``/``dv`` in place (``k1_t`` is
    ``[K | 1]^T``, ``v1_t`` is ``[V | 1]^T``)."""
    # Rows with lse = -inf saw no key and get p = 0.  The mask already
    # zeroes them when it is what hid the keys, so the explicit zeroing is
    # decided once per q block and costs nothing when no row is dead.
    dead_rows = np.isneginf(lse_blk)
    zero_dead = dead_rows.any()
    dead = dead_rows[..., None]
    q_lse = _augment(
        ws, q_blk, -np.where(dead_rows, 0.0, lse_blk), "bwd-q1"
    )
    do_d = _augment(ws, do_blk, -d_blk, "bwd-do1")
    dq_blk = np.zeros_like(q_blk)
    for k0, k1, m, b in runs:
        p = _matmul(ws, q_lse, k1_t[..., k0:k1], "bwd-s")
        if b is not None:
            p += b
        _exp_visible(p, m)
        if zero_dead:
            np.copyto(p, 0.0, where=dead)
        dv_run = _matmul(ws, p.swapaxes(-1, -2), do_blk, "bwd-dv")
        ds = _matmul(ws, do_d, v1_t[..., k0:k1], "bwd-dp")
        ds *= p
        dq_blk += _matmul(ws, ds, k[..., k0:k1, :], "bwd-dq")
        # q_blk carries the softmax scale, so dk needs no per-run rescale.
        dk_run = _matmul(ws, ds.swapaxes(-1, -2), q_blk, "bwd-dk")
        dv[..., k0:k1, :] += dv_run
        dk[..., k0:k1, :] += dk_run
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
    block_q: int | None,
    block_k: int | None,
    bias: np.ndarray | None,
    plan: TilePlan | None,
    workspace: KernelWorkspace | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    dq = np.zeros_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    k1_t = np.swapaxes(_augment(workspace, k, 1.0, "bwd-k1"), -1, -2)
    v1_t = np.swapaxes(_augment(workspace, v, 1.0, "bwd-v1"), -1, -2)
    for q0, q1, runs in _key_loops(plan, q, k, mask, bias, block_q, block_k):
        dq_blk = _backward_q_block(
            q[..., q0:q1, :] * scale, do[..., q0:q1, :], lse[..., q0:q1],
            d_stat[..., q0:q1], k, k1_t, v1_t, runs, workspace, dk, dv,
        )
        dq_blk *= scale
        dq[..., q0:q1, :] = dq_blk
    return dq, dk, dv

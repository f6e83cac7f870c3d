"""Blockwise (FlashAttention-style) exact attention in numpy.

The computation is tiled over query blocks and key *runs* and never
materialises the full ``Sq x Sk`` score matrix.  One iteration of the key
loop handles one run — a stretch of adjacent sub-tiles of one class that
:func:`~repro.kernels.tileplan.key_runs` merged (up to
:func:`~repro.kernels.tileplan.run_width` keys) and, under a partial
mask, trimmed to the keys some query row sees — because an iteration's
cost at small head dimensions is mostly fixed: a handful of NumPy calls
whose inner loops are one score row long.  A run is row groups x key
window: a *banded* run (:func:`~repro.kernels.tileplan.banded_runs`)
splits its query block into equal row groups, each reading its own key
window at a constant stride, and is one batched GEMM over heads x groups
against strided views of the key operands (no copy), which carry a zero
margin of ``plan.margin`` keys for the edge windows; the backward sums
the groups' overlapping ``[dK | dV]`` windows key-major, one add per
window stride.  Both directions follow
FlashAttention-2, done with in-place arithmetic on one score tile ``S``
(the GEMM's output buffer) per run, and both let the row statistics ride
the GEMMs as one extra column instead of a pass over the tile:

* **forward** — a recurrence in three steps over one query shard's
  :class:`SoftmaxState`.  *Begin*: the queries are scaled once
  (``Q~ = Q * scale``) and their largest row norm taken, the shift
  ``m = 0``, the *unnormalised* ``[O | l] = 0``.  *Accumulate*, per run of
  each query block: ``S = Q~ K^T``; ``P = exp(S - m)``;
  ``[O | l] += P [V | 1]`` — the row sum ``l`` is the last column of the
  PV product — written into the block's slices of the state in place.
  *Finish*: ``O / l`` and ``lse = m + log l``, once.  Softmax is
  shift-invariant, so the shift only has to keep ``exp`` in range: while
  every call's Cauchy–Schwarz bound ``max ||Q~_i|| * max ||K_j||`` on its
  logits is within :data:`EXP_BUDGET` the shift stays 0 and a run is one
  ``exp`` between two GEMMs (*bounded*: 1 full-tile pass, 2 on a masked
  run).  The first call past the budget, or with a bias, switches the
  state to the FlashAttention-2 running max for good:
  ``m' = max(m, rowmax S)``, ``P = exp(S - m')``,
  ``[O | l] = [O | l]*a + P [V | 1]`` with ``a = exp(m - m')`` — 3 passes
  (max, subtract, exp; 4 masked), where the separate ``rowsum`` made 4
  (5) and the earlier running-``(O, lse)`` merge took two ``exp`` and 8
  (10 masked).  The state outlives a kernel call: a ring pass begins one
  per rank, accumulates once per delivered ``(K_j, V_j)`` and finishes
  after the last ring step (BurstAttention's global attention
  optimisation, arXiv 2403.09347; the scan carry of BPT / RingAttention),
  so no partial output is normalised only to be un-normalised by a merge.
  A call without a carried state is the same three steps run once.
* **backward** — each probability tile is re-formed from the saved ``lse``
  as ``P = exp([Q~ | -lse] [K | 1]^T)`` and ``dS = P * ([dO | -D]
  [V | 1]^T)`` with ``D = rowsum(dO * O)``; ``dK += dS^T Q~`` needs no
  rescale and ``dQ`` is scaled once per call.  2 full-tile passes per run
  (exp, multiply; 3 masked), down from 4 (5) with the two broadcast
  subtractions and 6 (8) before that.  ``[Q~ | -lse]`` / ``[dO | -D]``
  are built once per call from the arrays it was handed; ``[K | 1]^T`` /
  ``[V | 1]^T`` and the ``dK`` / ``dV`` accumulators are a
  :class:`PinnedKV`, built per call or — where the key shard stays put for
  a whole pass (BurstAttention's Algorithm 2) — once per pass, every call
  adding into the same accumulators in place.

Every key operand reaches BLAS C-contiguous: the forward writes ``K^T``
once per call and :class:`PinnedKV` writes ``[K | 1]^T`` / ``[V | 1]^T``,
so a run's operand is a column slice of a row-major matrix (a plain NN
product) instead of a transposed view, which OpenBLAS multiplies 1.3–2x
slower at head dim 8 (the one exception: a band's ``dQ`` GEMM reads its
``K`` windows off ``[K | 1]^T``, as narrow as the band's 8-row groups).

Masked scores are never exponentiated (``exp(..., where=mask)``, then
zeroed) unless the call is bounded (:data:`EXP_BUDGET`, where every score
is a small finite number: one plain ``exp``, then a multiply by the
mask), so no ``-inf`` enters the tile arithmetic.  A query row with no
visible key is handled on row-sized vectors only: its ``l`` comes out of
the GEMM as exactly 0 — every visible key's weight is a normal number, so
``l == 0`` is what decides a dead row — and is divided as 1, its ``-lse``
column is 0 with ``P`` zeroed afterwards, and it leaves a finished state
as ``O = 0``, ``lse = -inf``, the identity of
:func:`~repro.kernels.softmax.merge_states` — whether it met no key in
one delivered shard (its ``[O | l]`` just stays put) or in none.  Under
the running max its ``m`` is ``-inf`` (shifted by 0 instead).
These tiled kernels are what
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
    banded_runs,
    head_batch,
    key_runs,
    run_width,
    tile_size,
    window_pad,
)
from repro.obs.mem import transient_alloc, transient_free
from repro.obs.metrics import get_registry
from repro.obs.tracer import NOOP_SPAN, trace_span

#: Largest Cauchy–Schwarz bound ``B = max ||Q~_i|| * max ||K_j||`` on the
#: logits of a forward call that runs *bounded* (shift 0, no running max).
#: Every logit of such a call lies in ``[-B, B]``.  With ``B <= 512``,
#: ``exp(S) <= e^512 ~ 2.3e222``, so ``[O | l] <= e^512 * N * max|v|``
#: stays below float64's 1.8e308 for any ``N * max|v| < 7e85``; and
#: ``exp(S) >= e^-512 ~ 4.4e-223`` stays above the subnormal floor
#: (2.2e-308), so every visible key's weight is a normal number and
#: ``l == 0`` holds exactly on the rows that met no key.
EXP_BUDGET = 512.0

#: Forward calls that ran bounded (:data:`EXP_BUDGET`), in the registry
#: snapshot beside the ``tileplan.*`` counters.
_bounded_calls = get_registry().counter(
    "kernels.flash_fwd_bounded_calls",
    "flash forward calls that ran without a running max",
)


def _key_loops(
    plan: TilePlan | None,
    q: np.ndarray,
    k: np.ndarray,
    mask: np.ndarray | None,
    bias: np.ndarray | None,
    block_q: int | None,
    block_k: int | None,
):
    """The work of one invocation: ``(pad, loops)``, ``loops`` yielding
    ``(q0, q1, groups, runs)`` per query block and ``runs`` ``(k0, stride,
    width, groups, mask_tile, bias_tile)`` per iteration of its key loop;
    the key operands are laid out with ``pad`` zero keys on either side.

    With a plan these are its precomputed runs (tallied here, once).  On
    the dense path the geometry is the explicit blocks or the derived tile
    size, and the runs are what :func:`~repro.kernels.tileplan.key_runs`
    and :func:`~repro.kernels.tileplan.banded_runs` form from the
    broadcastable ``mask``, with ``mask``/``bias`` sliced to the run —
    the functions the plan was built by.
    """
    sq, sk = q.shape[-2], k.shape[-2]
    if plan is not None:
        if mask is not None or bias is not None:
            raise ValueError(
                "pass either plan= or dense mask=/bias=, not both"
            )
        plan.check_geometry(sq, sk)
        plan.tally()

        def loops():
            for qi in range(plan.n_q_blocks):
                row = plan.row(qi)
                yield *plan.q_range(qi), row[0][3] if row else 1, (
                    (*run, plan.bias_tile(qi, run[0], run[0] + run[2]))
                    for run in row
                )

        return plan.margin, loops()
    batch = head_batch(q)
    block_q = tile_size(block_q, batch, sq)
    block_k = tile_size(block_k, batch, sk)
    k_bounds = _block_bounds(sk, block_k)
    max_keys = run_width(batch, block_q, block_k, sq, sk)
    blocks = [
        (q0, q1, _dense_runs(mask, bias, q0, q1, k_bounds, max_keys))
        for q0, q1 in _block_bounds(sq, block_q)
    ]
    return window_pad([runs for _, _, runs in blocks], sk), [
        (q0, q1, runs[0][3] if runs else 1, [
            (*run, None if bias is None else bias[
                ..., q0:q1, run[0]:run[0] + run[2]
            ])
            for run in runs
        ])
        for q0, q1, runs in blocks
    ]


def _dense_runs(
    mask: np.ndarray | None,
    bias: np.ndarray | None,
    q0: int,
    q1: int,
    k_bounds: list[tuple[int, int]],
    max_keys: int,
):
    """The dense path's key loop for query rows ``[q0, q1)``: each
    sub-tile classified by its ``any()`` / ``all()``, then merged, trimmed
    and banded exactly as a plan's are (never under a bias)."""
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

    return banded_runs(
        key_runs(states, k_bounds, max_keys, mask_of), q1 - q0, max_keys,
        bias is None,
    )


def _scratch(
    ws: KernelWorkspace | None, name: str, shape: tuple
) -> np.ndarray:
    """Uninitialised float64 ``shape``: the workspace's ``name`` buffer
    when there is one, so that no per-call array is page-faulted in."""
    return np.empty(shape) if ws is None else ws.buf(name, shape)


def _augment(
    ws: KernelWorkspace | None,
    x: np.ndarray,
    last: np.ndarray | float | None,
    name: str,
    transposed: bool = False,
    pad: int = 0,
) -> np.ndarray:
    """``[x | last]``: ``x`` with one more column — or, ``transposed``,
    ``[x | last]^T`` written C-contiguous, the right-hand operand a run
    slices columns of — in the workspace's ``name`` scratch when there is
    one.  A GEMM against the augmented operand carries a row statistic
    along — ``P [V | 1]`` ends in ``rowsum P``, ``[Q~ | -lse] [K | 1]^T``
    is ``S - lse`` and ``[dO | -D] [V | 1]^T`` is ``dP - D`` — for one
    more column of a product instead of a pass over the score tile.
    ``last=None`` adds no column; ``pad`` zero rows go before and after
    ``x``'s, the margin a banded run's edge windows read (masked)."""
    rows = x.shape[-2] + 2 * pad
    cols = x.shape[-1] + (last is not None)
    out = _scratch(
        ws, name, x.shape[:-2] + ((cols, rows) if transposed else (rows, cols))
    )
    wide = np.swapaxes(out, -1, -2) if transposed else out
    if pad:
        wide[..., :pad, :] = wide[..., rows - pad:, :] = 0.0
    wide[..., pad:rows - pad, :x.shape[-1]] = x
    if last is not None:
        wide[..., pad:rows - pad, -1] = last
    return out


def _grouped(groups: int, *xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each ``(..., rows, c)`` as ``(..., groups, rows / groups, c)`` — a
    view; the arrays themselves for one group."""
    if groups == 1:
        return xs
    return tuple(
        x.reshape(x.shape[:-2] + (groups, -1, x.shape[-1])) for x in xs
    )


def _window(
    x: np.ndarray, k0: int, stride: int, width: int, groups: int, axis: int
) -> np.ndarray:
    """Keys ``[k0 + g * stride, +width)`` of a laid-out (C-contiguous)
    operand along ``axis`` (-1: columns, -2: rows), stacked over ``g``
    before the last two axes: a strided view; a slice for one group."""
    if groups == 1:
        if axis == -1:
            return x[..., k0:k0 + width]
        return x[..., k0:k0 + width, :]
    shape = list(x.shape[-2:])
    shape[axis] = width
    strides = x.strides[:-2] + (stride * x.strides[axis], *x.strides[-2:])
    return np.ndarray(
        x.shape[:-2] + (groups, *shape), x.dtype, x, k0 * x.strides[axis],
        strides,
    )


def _fold_windows(acc: np.ndarray, x: np.ndarray, k0: int, stride: int):
    """``acc[k0 + g * stride + t] += x[g, t]`` over every group ``g`` and
    window key ``t`` (both key-major): ``ceil(width / stride)`` adds, each
    of the ``j``-th stride of every window (no two of which overlap)."""
    groups, width = x.shape[:2]
    chunks = -(-width // stride)
    out = acc[k0:k0 + (groups + chunks - 1) * stride]
    out = out.reshape((-1, stride) + out.shape[1:])
    for j in range(chunks):
        part = x[:, j * stride:(j + 1) * stride]
        view = out[j:j + groups, :part.shape[1]]
        view += part


def _max_row_norm(x: np.ndarray) -> float:
    """``max_i ||x_i||`` over the rows of ``x`` (0 when it has none)."""
    return float(np.sqrt(np.einsum("...i,...i->...", x, x).max(initial=0.0)))


def _matmul(
    ws: KernelWorkspace | None, a: np.ndarray, b: np.ndarray, name: str
) -> np.ndarray:
    """``a @ b``, into the workspace's ``name`` scratch when there is one."""
    return np.matmul(a, b) if ws is None else ws.matmul(a, b, name)


def _exp_visible(
    x: np.ndarray, m: np.ndarray | None, bounded: bool = False
) -> None:
    """In place: ``exp(x)`` where ``m`` (everywhere without one), exactly 0
    elsewhere.  Masked scores are never exponentiated — no ``-inf`` is
    written and none reaches ``exp``, whose special-value path costs about
    three times the plain one per element — unless the call is
    ``bounded`` (:data:`EXP_BUDGET`): then every score is a small finite
    number, and one plain ``exp`` over the tile and a multiply by the mask
    cost less than ``exp``'s masked loop."""
    if m is None:
        np.exp(x, out=x)
    elif bounded:
        np.exp(x, out=x)
        np.multiply(x, m, out=x)
    else:
        np.exp(x, out=x, where=m)
        np.copyto(x, 0.0, where=np.logical_not(m))


class SoftmaxState:
    """One query shard's running softmax state: the scaled queries
    ``Q~ = Q * scale`` and their largest row norm, the shift ``m`` and the
    *unnormalised* ``[O | l] = sum exp(S - m) [V | 1]``, over every key the
    shard has met so far.

    The forward recurrence is begin → accumulate → finish, and the state
    is what lets it span kernel calls: a ring pass begins one state per
    rank, hands it to :func:`flash_attention_forward` (``state=``) once
    per delivered ``(K_j, V_j)`` — each call advances ``[O | l]`` (and
    ``m``) in place, per query block — and finishes it once, after the
    last ring step (BurstAttention's global attention optimisation; the
    BPT / RingAttention scan carry).  A call without a state begins and
    finishes its own: the same recurrence run for one step.

    A state begins *bounded*, ``m = 0`` on every row: a call whose logits
    :data:`EXP_BUDGET` bounds exponentiates them unshifted.  The first
    call that is not bounded (:meth:`stays_bounded`) switches the state to
    a running max for good.

    The three arrays live from :meth:`begin` to :meth:`finish` and are
    accounted on the transient watermark (site ``flash.fwd-state``).
    """

    __slots__ = ("q", "q_norm", "m", "acc", "bounded", "_handle")

    def __init__(self, q: np.ndarray, m: np.ndarray, acc: np.ndarray):
        self.q, self.m, self.acc = q, m, acc
        self.q_norm = _max_row_norm(q)
        self.bounded = True
        self._handle = transient_alloc(
            q.nbytes + m.nbytes + acc.nbytes, site="flash.fwd-state"
        )

    @classmethod
    def begin(
        cls, q: np.ndarray, v_dim: int, scale: float | None = None
    ) -> "SoftmaxState":
        """The state of ``q`` before any key: ``m = 0``, ``[O | l] = 0``
        (``v_dim`` is the value head dimension)."""
        if scale is None:
            scale = 1.0 / np.sqrt(q.shape[-1])
        rows = q.shape[:-1]
        return cls(
            q * scale,
            np.zeros(rows + (1,), dtype=np.float64),
            np.zeros(rows + (v_dim + 1,), dtype=np.float64),
        )

    def stays_bounded(self, k: np.ndarray, biased: bool) -> bool:
        """Whether a call over the keys ``k`` runs bounded: the state is,
        the call adds no bias, and ``max ||Q~_i|| * max ||K_j||`` is within
        :data:`EXP_BUDGET`.  The first call that is not switches the state
        to the running max: a row that met a key keeps the shift 0 its
        ``[O | l]`` is relative to, the rest get ``m = -inf`` (no key yet)."""
        if self.bounded and (
            biased or self.q_norm * _max_row_norm(k) > EXP_BUDGET
        ):
            self.bounded = False
            self.m[self.acc[..., -1:] == 0.0] = NEG_INF
        return self.bounded

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalise, once: ``(O / l, m + log l)``.  A row that never saw
        a key has ``l = 0`` — exactly, and only such a row (see
        :data:`EXP_BUDGET`) — whatever its ``m``; it is divided by 1 and
        leaves as ``o = 0``, ``lse = -inf``.  Consumes the state."""
        l_run = self.acc[..., -1:]
        dead = l_run == 0.0
        l_run[dead] = 1.0
        o = self.acc[..., :-1] / l_run
        lse = self.m + np.log(l_run)
        lse[dead] = NEG_INF
        transient_free(self._handle)
        return o, lse[..., 0]


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
    state: SoftmaxState | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Tiled exact attention forward.

    Parameters mirror :func:`repro.kernels.attention_reference`; returns
    the same ``(o, lse)`` pair.  ``block_q``/``block_k`` bound the size of
    any temporary score tile: ``None`` derives them
    (:func:`~repro.kernels.tileplan.tile_size`), and when ``plan`` is
    given its block geometry wins.  ``bias`` is an additive score term
    (ALiBi) broadcastable to ``(..., Sq, Sk)``, sliced alongside the mask;
    with a plan, bias tiles are resolved (and cached) per run instead.

    With ``state`` (a :class:`SoftmaxState` begun for these queries, which
    carries their scale) the call *continues* the recurrence over the keys
    ``k`` — disjoint from every key the state has met — and returns
    ``None``; the caller finishes the state after its last call.

    One ``flash.fwd`` span covers the whole invocation (never per
    run — the inner loop stays bench-clean).
    """
    carried = state is not None
    if not carried:
        state = SoftmaxState.begin(q, v.shape[-1], scale)
    elif scale is not None:
        raise ValueError("a carried state already holds the softmax scale")
    span = trace_span("flash.fwd", phase="compute", backend="reference")
    if span is NOOP_SPAN:
        _forward_accumulate(
            state, k, v, mask, block_q, block_k, bias, plan, workspace
        )
    else:
        with span:
            span["sq"], span["sk"] = int(q.shape[-2]), int(k.shape[-2])
            span["planned"] = plan is not None
            _forward_accumulate(
                state, k, v, mask, block_q, block_k, bias, plan, workspace
            )
    return None if carried else state.finish()


def _forward_accumulate(
    state: SoftmaxState,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None,
    block_q: int | None,
    block_k: int | None,
    bias: np.ndarray | None,
    plan: TilePlan | None,
    ws: KernelWorkspace | None,
) -> None:
    """Advance ``state`` over the keys ``(k, v)``: per query block, the
    key loop updates that block's slices of ``[O | l]`` — and, once the
    state tracks a running max, of ``m`` — in place.  ``K^T`` and
    ``[V | 1]`` are written once, from the ``k`` / ``v`` this call was
    handed; a run reads a slice of each."""
    biased = bias is not None or (
        plan is not None and plan.bias_cache is not None
    )
    bounded = state.stays_bounded(k, biased)
    if bounded:
        _bounded_calls.inc()
    pad, loops = _key_loops(plan, state.q, k, mask, bias, block_q, block_k)
    k_t = _augment(ws, k, None, "fwd-kt", transposed=True, pad=pad)
    v1 = _augment(ws, v, 1.0, "fwd-v1", pad=pad)
    for q0, q1, groups, runs in loops:
        q_blk, m_run, acc = _grouped(
            groups, state.q[..., q0:q1, :], state.m[..., q0:q1, :],
            state.acc[..., q0:q1, :],
        )
        for k0, stride, width, _, m, b in runs:
            s = _matmul(
                ws, q_blk, _window(k_t, pad + k0, stride, width, groups, -1),
                "fwd-s",
            )
            if not bounded:
                if b is not None:
                    s += b
                tile_max = s.max(
                    axis=-1, keepdims=True, initial=NEG_INF,
                    where=True if m is None else m,
                )
                m_new = np.maximum(m_run, tile_max)
                # Rows with no visible key so far keep m = -inf; shift
                # them by 0 instead, so that no inf - inf is ever formed.
                m_safe = np.where(m_new == NEG_INF, 0.0, m_new)
                s -= m_safe
                acc *= np.exp(m_run - m_safe)
                m_run[...] = m_new
            _exp_visible(s, m, bounded)
            acc += _matmul(
                ws, s, _window(v1, pad + k0, stride, width, groups, -2),
                "fwd-pv",
            )


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
    d_stat = np.sum(do * o, axis=-1)  # (..., Sq)
    return flash_backward_tiles(
        q, k, v, lse, d_stat, do, mask=mask, scale=scale,
        block_q=block_q, block_k=block_k, bias=bias,
        plan=plan, workspace=workspace,
    )


class PinnedKV:
    """One key shard's backward operands: ``[K | 1]^T`` and ``[V | 1]^T``
    (the augmented GEMM operands every run of every call reads, written
    C-contiguous so that a run's slice is a plain NN operand) and the
    ``dK`` / ``dV`` accumulators the runs add into.

    BurstAttention's backward pins ``(K_r, V_r)`` on their owner for the
    whole ring, so its pass builds one of these per rank and hands it to
    every :func:`flash_backward_tiles` call on that rank (``pinned=``); a
    call without one builds its own from workspace scratch.  Outside a
    workspace the augmented operands are accounted on the transient
    watermark (site ``flash.pinned-kv``) until :meth:`release`.

    The operands carry ``margin`` zero keys on either side: a call whose
    plan's banded runs overhang the shard further lays them out again,
    wider (:meth:`fit`).
    """

    __slots__ = ("k1_t", "v1_t", "k_norm", "margin", "dk", "dv", "_src",
                 "_handle")

    def __init__(
        self,
        k: np.ndarray,
        v: np.ndarray,
        workspace: KernelWorkspace | None = None,
    ):
        self._src, self.margin, self._handle = (k, v, workspace), -1, None
        self.fit(0)
        self.k_norm = None  # max ||K_j||, at the first band that asks
        self.dk = np.zeros_like(k)
        self.dv = np.zeros_like(v)

    def fit(self, pad: int) -> None:
        """Lay the operands out with at least ``pad`` zero keys a side."""
        if pad <= self.margin:
            return
        k, v, ws = self._src
        self.release()
        self.k1_t = _augment(ws, k, 1.0, "bwd-k1", transposed=True, pad=pad)
        self.v1_t = _augment(ws, v, 1.0, "bwd-v1", transposed=True, pad=pad)
        self.margin = pad
        if ws is None:
            self._handle = transient_alloc(
                self.k1_t.nbytes + self.v1_t.nbytes, site="flash.pinned-kv"
            )

    def release(self) -> None:
        """End of the pass: the augmented operands leave the watermark."""
        if self._handle is not None:
            transient_free(self._handle)
            self._handle = None


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
    pinned: PinnedKV | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward tile loop with caller-supplied row statistics.

    This is the shared core of :func:`flash_attention_backward` (which
    derives ``D = rowsum(dO * O)`` itself) and BurstAttention's
    Algorithm 2 device step (whose ``D``/``Lse`` arrive over the ring
    instead of being recomputed — the saving the paper measures).

    With ``pinned`` (a :class:`PinnedKV` built from these ``k``/``v``) the
    call reads its augmented operands and adds into its ``dk``/``dv`` in
    place; the returned ``dk``/``dv`` are then those running accumulators.

    One ``flash.bwd`` span covers the whole invocation.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    if pinned is None:
        pinned = PinnedKV(k, v, workspace)
    span = trace_span("flash.bwd", phase="compute", backend="reference")
    if span is NOOP_SPAN:
        dq = _backward_tiles(
            q, k, lse, d_stat, do, mask, scale, block_q, block_k,
            bias, plan, workspace, pinned,
        )
    else:
        with span:
            span["sq"], span["sk"] = int(q.shape[-2]), int(k.shape[-2])
            span["planned"] = plan is not None
            dq = _backward_tiles(
                q, k, lse, d_stat, do, mask, scale, block_q, block_k,
                bias, plan, workspace, pinned,
            )
    return dq, pinned.dk, pinned.dv


def _backward_tiles(
    q: np.ndarray,
    k: np.ndarray,
    lse: np.ndarray,
    d_stat: np.ndarray,
    do: np.ndarray,
    mask: np.ndarray | None,
    scale: float,
    block_q: int | None,
    block_k: int | None,
    bias: np.ndarray | None,
    plan: TilePlan | None,
    ws: KernelWorkspace | None,
    pinned: PinnedKV,
) -> np.ndarray:
    """The backward of one call: returns ``dq`` and adds the per-run
    key/value gradients into ``pinned.dk`` / ``pinned.dv`` in place.

    ``[Q~ | -lse]`` and ``[dO | -D]`` are built here, once, from the
    arrays this call was handed; a query block reads its rows of them."""
    # Rows with lse = -inf saw no key and get p = 0.  The mask already
    # zeroes them when it is what hid the keys, so the explicit zeroing is
    # decided once per call and costs nothing when no row is dead.
    dead_rows = np.isneginf(lse)
    zero_dead = dead_rows.any()
    neg_lse = -np.where(dead_rows, 0.0, lse)
    q_lse = _augment(ws, q * scale, neg_lse, "bwd-q1")
    q_s = q_lse[..., :-1]
    do_d = _augment(ws, do, -d_stat, "bwd-do1")
    pad, loops = _key_loops(plan, q, k, mask, bias, block_q, block_k)
    bounded = None  # decided at the first band, which is never biased
    pinned.fit(pad)
    pad = pinned.margin
    k1_t, v1_t, dk, dv = pinned.k1_t, pinned.v1_t, pinned.dk, pinned.dv
    dq = np.zeros_like(q)
    folds = None
    for q0, q1, groups, runs in loops:
        q_blk, q_lse_blk, do_blk, do_d_blk, dq_blk, dead = _grouped(
            groups, *(x[..., q0:q1, :] for x in (
                q_s, q_lse, do, do_d, dq, dead_rows[..., None]
            ))
        )
        for k0, stride, width, _, m, b in runs:
            k1_win = _window(k1_t, pad + k0, stride, width, groups, -1)
            p = _matmul(ws, q_lse_blk, k1_win, "bwd-s")
            if b is not None:
                p += b
            if groups > 1 and bounded is None:
                # as the forward's (EXP_BUDGET): no score minus lse, masked
                # ones too, overflows exp, so a band takes the plain one
                if pinned.k_norm is None:
                    pinned.k_norm = _max_row_norm(k)
                bounded = scale * _max_row_norm(q) * pinned.k_norm + (
                    neg_lse.max(initial=0.0)
                ) <= EXP_BUDGET
            _exp_visible(p, m, groups > 1 and bounded)
            if zero_dead:
                np.copyto(p, 0.0, where=dead)
            v1_win = _window(v1_t, pad + k0, stride, width, groups, -1)
            ds = _matmul(ws, do_d_blk, v1_win, "bwd-dp")
            ds *= p
            # A band reads its K windows off [K | 1]^T, transposed.
            k_win = (
                k[..., k0:k0 + width, :] if groups == 1
                else k1_win.swapaxes(-1, -2)[..., :-1]
            )
            dq_blk += _matmul(ws, ds, k_win, "bwd-dq")
            # Q~ carries the softmax scale, so dk needs no per-run rescale.
            if groups == 1:
                dv[..., k0:k0 + width, :] += _matmul(
                    ws, p.swapaxes(-1, -2), do_blk, "bwd-dv"
                )
                dk[..., k0:k0 + width, :] += _matmul(
                    ws, ds.swapaxes(-1, -2), q_blk, "bwd-dk"
                )
                continue
            # A band's overlapping windows are summed key-major, as
            # [dK | dV] rows over the keys and the margin (contiguous
            # adds), and added into the accumulators once per call.
            if folds is None:
                n, split = k.shape[-2], dk.shape[-1]
                lead = dk.shape[:-2] + (split + dv.shape[-1],)
                # key-major (keys, ..., [dK | dV]) to (..., keys, [dK | dV])
                to_rows = (*range(2, dk.ndim), 0, 1, dk.ndim)
                folds = _scratch(ws, "bwd-dkv-fold", (n + 2 * pad,) + lead)
                folds[...] = 0.0
            dkv = _scratch(ws, "bwd-dkv", (groups, width) + lead)
            rows = dkv.transpose(to_rows)
            np.matmul(ds.swapaxes(-1, -2), q_blk, out=rows[..., :split])
            np.matmul(p.swapaxes(-1, -2), do_blk, out=rows[..., split:])
            _fold_windows(folds, dkv, pad + k0, stride)
    if folds is not None:
        folds = folds[pad:pad + n].transpose(
            (*range(1, dk.ndim - 1), 0, dk.ndim - 1)
        )
        dk += folds[..., :split]
        dv += folds[..., split:]
    dq *= scale
    return dq

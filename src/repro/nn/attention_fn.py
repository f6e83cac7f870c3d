"""A layer's attention half — or its whole block — as one autograd node,
which owns the layer's recompute.

:class:`AttentionFn` runs ``norm1 → q/k/v → RoPE → attend → merge → wo``
— everything between a block's input and its first residual ``add`` —
as one node; handed the block's :class:`FFNTail` it runs the rest of the
block too, ``→ +x → norm2 → SwiGLU → +h``.  It is where the
checkpointing policies of Section 3.2 act: for the single-device model
directly, and for the engine's distributed node
(:class:`repro.engine.DistributedAttentionFn`) by inheritance — that
subclass moves the whole-sequence attention product onto the cluster and
keeps this protocol.

What the node keeps from its forward to its backward is ``x`` and the
back :meth:`~repro.nn.checkpoint.CheckpointPolicy.cached_rows` rows of
``(O, lse)`` — every row under ``none`` and ``selective_pp``, the
sequence suffix under ``sequence_level``, none under ``full`` — as a
copy, never a view (a view would pin the whole ``O`` while the tracker
counted the suffix).  The weights are parameters, held by reference and
not registered.  A product that keeps its own backward context (the
engine's Ulysses / USP) keeps that context and ``O`` without a recomputed
front, and only ``x`` with one.

The backward rebuilds ``norm1``'s row, ``n`` and ``q``, ``k``, ``v``
with the forward's expressions — three ``(S×D)·(D×D)`` GEMMs, once — and
then the rows it did not keep: the front rows by the local kernel (no
communication, cheap under causal masking), or, with nothing kept, the
whole product again, collectives included.  Those rebuilt rows (and a
rebuilt context) are registered with the tracker while the backward
runs, under the ``recompute`` memory phase and the ``attn.recompute``
span, and their attention work is tallied in the tracker's
``recompute_flops`` so the compute/memory trade-off of Fig. 7 is
measured.  Only the attention product counts there: the q/k/v GEMMs are
not recomputed *attention*.  Then it runs ``wo``'s expressions, the
attention backward and the projections' and the norm's.  That is
FlashAttention's bargain one level up: ``q``, ``k``, ``v`` and a second
copy of ``O`` are ``4·S·D`` elements that three GEMMs rebuild.

With a block's tail folded in the backward also rebuilds the
mid-residual ``h = x + o·Woᵀ`` and ``norm2``'s row — one ``(S×D)·(D×D)``
GEMM away from ``x`` and ``O`` — and the block's two dropout masks, which
it redraws from the block's seed, and runs the fused FFN's backward
(:class:`~repro.nn.mlp_fn.BlockwiseMLPFn`'s expressions), the residual
and then the attention half's, letting ``x``'s gradient terms leave in
the order of the node chain it replaced (residual first, then
``norm1``'s three).
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.nn.function import Function
from repro.nn.memory import get_tracker
from repro.nn.mlp_fn import BlockwiseMLPFn
from repro.nn.ops import PreNormFn, dropout_mask
from repro.nn.rng import scoped_rng
from repro.nn.rope import rope_angles, rotate_half_split
from repro.nn.tensor import Tensor
from repro.obs.mem import current_memory_scope, memory_scope
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


def _packed(rows: int, widths) -> list[slice]:
    """Flat slices of ``(rows, width)`` blocks stored back to back."""
    edges = np.cumsum([0] + [rows * n for n in widths])
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


class FlashAttentionFn(Function):
    """``o = attention(q, k, v)`` over ``(H, S, Dh)`` arrays: the local
    flash kernels as a plain op, with no checkpoint protocol.

    Supports grouped-query attention: when ``k``/``v`` carry fewer heads
    than ``q`` (``H_q % H_kv == 0``), each KV head serves a group of query
    heads; KV gradients are summed back over the group.  The kernel calls
    are written here once; :class:`AttentionFn` runs its local product
    through them.
    """

    def forward(self, q, k, v, mask: MaskPattern | None = None,
                scale: float | None = None, block_size: int | None = None):
        if scale is None:
            scale = 1.0 / np.sqrt(q.shape[-1])
        groups = _check_groups(q.shape[0], k.shape[0]) if q.ndim == 3 else 1
        self._use_kernels(mask, scale, block_size, groups)
        o, lse = self._local_forward(q, k, v, q.shape[-2])
        self.save_for_backward(q, k, v, o, lse)
        return o

    def backward(self, grad_out: np.ndarray):
        return self._local_backward(*self.saved, grad_out)

    def _use_kernels(self, mask, scale, block_size, groups: int) -> None:
        """What every local kernel call of this node reads; one scratch
        workspace per node."""
        self.groups = groups
        self.mask = mask
        self.scale = scale
        self.block_size = block_size
        self.workspace = KernelWorkspace()

    def release_saved(self) -> None:
        # The scratch goes with the saved set: the graph holds a node
        # until the whole backward has run, and a backward that rebuilt
        # rows grew it.
        self.workspace.release()
        self.workspace = None
        super().release_saved()

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

    def _local_backward(self, q, k, v, o, lse, grad_out):
        """Local whole-sequence backward; returns ``(dq, dk, dv)``.  ``o``
        is read C-contiguous, the layout the forward kernel wrote it in."""
        dq, dk, dv = get_backend().flash_backward(
            q, repeat_kv(k, self.groups), repeat_kv(v, self.groups),
            np.ascontiguousarray(o), lse, grad_out, scale=self.scale,
            block_q=self.block_size, block_k=self.block_size,
            plan=_local_plan(
                self.mask, q.shape[-2], k.shape[-2], self.block_size,
                head_batch(q),
            ),
            workspace=self.workspace,
        )
        return dq, fold_kv_grad(dk, self.groups), fold_kv_grad(dv, self.groups)


@dataclass(frozen=True)
class FFNTail:
    """What a block hands its attention node to fold in the rest of the
    block: ``h = x + drop(attn)``, ``y = h + drop(ffn(norm(h)))``.

    ``norm`` and ``ffn`` are the block's ``norm2`` and its SwiGLU (their
    weights and ``mlp_chunk_size`` are read); ``dropout`` is ``(p,
    seed)``, the block's dropout rate and the seed it drew for this
    forward (``None`` without dropout), from which the node draws the two
    masks — and redraws them in its backward.
    """

    norm: object
    ffn: object
    dropout: tuple | None = None

    @property
    def weights(self) -> tuple:
        """The tail's parameters, in the node's input order."""
        ffn = self.ffn
        return (self.norm.weight, ffn.gate.weight, ffn.up.weight,
                ffn.down.weight)


class AttentionFn(PreNormFn, FlashAttentionFn):
    """``wo(attend(rope(q), rope(k), v))`` with ``q, k, v = n·Wqᵀ, n·Wkᵀ,
    n·Wvᵀ`` as one node, ``n`` being the input or the
    :class:`~repro.nn.ops.PreNormFn` RMSNorm of it.

    Applied as ``apply(x, wq, wk, wv, wo, layer=attn)`` or, with the norm
    folded in, ``apply(x, x, x, w, wq, wk, wv, wo, eps=eps, layer=attn)``;
    ``layer`` is the :class:`~repro.nn.modules.CausalSelfAttention` whose
    heads, RoPE, mask, tile edge and checkpoint policy the node reads.

    Applied with ``tail=FFNTail(...)`` and the tail's four parameters
    after ``wo`` (``norm2``'s weight, then the FFN's gate, up and down)
    it is the whole block, ``h = x + drop(wo(…))``, ``y = h +
    drop(ffn(norm2(h)))``, with ``h`` rebuilt in the backward.

    The checkpoint policy acts here once: :meth:`_save` keeps the rows
    the policy keeps and :meth:`_recompute` rebuilds the rest in the
    backward.  A subclass that runs the attention product somewhere else
    (the simulated cluster) overrides :meth:`_attend` (its forward),
    :meth:`_attend_backward` (its backward) and :meth:`_save` (what it
    keeps), nothing else; the block tail is inherited.

    Values and gradients are the bits of the node chain this replaced —
    a q/k/v projection node, three head views, RoPE, the attention node,
    the merge's ``Swapaxes`` / ``Reshape`` and ``wo``'s ``MatMul``: each
    step runs that node's expressions on operands of the same layout
    (each projection is one GEMM into its own C-contiguous block of one
    flat array), and ``x``'s gradient terms leave in that graph's order.
    """

    #: A folded block tail's FFN expressions (a :class:`BlockwiseMLPFn`
    #: run inside this node) and its ``(p, seed)`` dropout; ``None``
    #: without one.
    ffn = None
    dropout = None
    #: A product's own backward context (the engine's Ulysses / USP),
    #: read by :meth:`_attend_backward` in place of re-projected q/k/v.
    kept_ctx = None

    def forward(self, *args, eps: float | None = None, layer=None, tail=None):
        x, ms, weights = self._norm_inputs(args, eps)
        self.eps, self.layer = eps, layer
        # Parameters, held by reference: the tracker counts activations.
        self.weights = weights
        # The backward's rebuilt rows are attributed to this forward's layer.
        self.mem_layer = current_memory_scope().get("layer")
        self._use_kernels(layer.mask, 1.0 / np.sqrt(layer.head_dim),
                          layer.block_size, layer.n_heads // layer.n_kv_heads)
        s = x.shape[0]
        self.blocks = _packed(s, [w.shape[0] for w in weights[:3]])
        self.rope = (
            rope_angles(np.arange(s), layer.head_dim, layer.rope_theta)
            if layer.rope else None
        )
        o, lse, context = self._attend(*self._qkv(self._normed(x, ms), weights[:3]))
        merged = np.swapaxes(o, 0, 1).reshape(s, -1)
        self._save(x, merged, lse, context)
        if tail is None:
            return self._out(merged, weights[3])
        self.ffn, self.dropout = BlockwiseMLPFn(), tail.dropout
        self.ffn.chunk_size = tail.ffn.mlp_chunk_size
        self.ffn_norm = weights[4], tail.norm.eps
        masks = self._masks(x.shape)
        h = self._residual(x, merged, weights[3], masks)
        f = self.ffn._ffn(h, self._ffn_row(h), weights[5:])
        if masks is not None:
            f *= masks[1]
        f += h  # h + f: IEEE addition commutes, so in place is the same bits
        return f

    def backward(self, g):
        x, *kept = self.saved
        wq, wk, wv, wo = self.weights[:4]
        s = x.shape[0]
        # norm1's row, by the forward's expression
        _, ms, _ = self._norm_inputs(
            (x,) if self.eps is None else (x, x, x, self.norm_weight), self.eps)
        qkv = handle = None
        if self.split:
            qkv = self._qkv(self._normed(x, ms), (wq, wk, wv))
            o, lse, handle = self._recompute(*qkv, kept)
            if self.kept_ctx is not None:
                qkv = None  # the rebuilt context replaces them
        else:
            o, lse = kept[:2]
        if self.ffn is not None:
            g_h, g, tail_grads = self._tail_backward(
                x, o, wo, self.weights[5:], g, self._masks(x.shape))
        # wo's MatMul, then the merge's Reshape and Swapaxes
        g_wo = np.swapaxes(np.matmul(np.swapaxes(o, 0, 1), g), 0, 1)
        g_o = np.swapaxes(np.matmul(g, wo).reshape(s, self.layer.n_heads, -1), 0, 1)
        # n and q/k/v rebuilt as late as they are read: the tail's
        # backward runs without them when nothing was recomputed
        n = self._normed(x, ms)
        if qkv is None and self.kept_ctx is None:
            qkv = self._qkv(n, (wq, wk, wv))
        dq, dk, dv = self._attend_backward(qkv, o, lse, g_o)
        if handle is not None:
            get_tracker().release(handle)
        if self.rope is not None:
            dq, dk = (rotate_half_split(d, *self.rope, inverse=True)
                      for d in (dq, dk))
        # the head views' gradients, each block of one flat array, then
        # each projection's MatMul; n's terms are added q, k, then v
        flat = np.empty(self.blocks[-1].stop)
        gs = []
        for d, w, block in zip((dq, dk, dv), (wq, wk, wv), self.blocks):
            gw = flat[block].reshape(s, w.shape[0])
            gw.reshape(s, -1, d.shape[-1])[...] = np.swapaxes(d, 0, 1)
            gs.append(gw)
        g_n = np.matmul(gs[0], wq) + np.matmul(gs[1], wk) + np.matmul(gs[2], wv)
        nt = np.swapaxes(n, 0, 1)
        x_terms = self._norm_backward(g_n, x, ms)
        grads = (*(np.swapaxes(np.matmul(nt, gw), 0, 1) for gw in gs), g_wo)
        if self.ffn is None:
            return (*x_terms, *grads)
        # the residual add's term for x leaves first, then the norm's
        return (g_h + x_terms[0], *x_terms[1:], *grads, *tail_grads)

    @staticmethod
    def _out(merged, wo):
        """``wo`` applied to the merged attention output."""
        return np.matmul(merged, np.swapaxes(wo, 0, 1))

    # -- a folded block tail: h = x + drop(attn); y = h + drop(ffn(norm2(h)))

    def _masks(self, shape):
        """The block's two dropout masks, in the order they apply, drawn
        from its seed — the same bits in the forward and the backward
        (``None`` without dropout)."""
        if self.dropout is None:
            return None
        p, seed = self.dropout
        with scoped_rng(seed):
            return tuple(dropout_mask(shape, p) for _ in range(2))

    def _residual(self, x, merged, wo, masks):
        """``h``, the block's mid-residual: the forward's expressions,
        which the backward re-runs on ``x`` and the merged ``o``.  They
        run in place on ``wo``'s output (``x + a`` is ``a + x``): a
        backward that allocated them afresh took 1.6× the page faults a
        step on ``wide_short``."""
        a = self._out(merged, wo)
        if masks is not None:
            a *= masks[0]
        a += x
        return a

    def _ffn_row(self, h):
        """``norm2``'s ``(S, 1)`` row of ``h``."""
        w, eps = self.ffn_norm
        return self.ffn._norm_inputs((h, h, h, w), eps)[1]

    def _tail_backward(self, x, o, wo, ffn_weights, g, masks):
        """Rebuild ``h`` and ``norm2``'s row, run the fused FFN's and
        ``norm2``'s backward; returns ``h``'s gradient, the attention
        output's and the gradients of ``norm2``'s and the FFN's
        weights."""
        h = self._residual(x, o, wo, masks)
        g_f = g if masks is None else g * masks[1]
        *h_terms, g_norm, g_gate, g_up, g_down = self.ffn._ffn_backward(
            h, self._ffn_row(h), ffn_weights, g_f)
        # h's terms in the graph's order: the residual add's, then the norm's
        g_h = g + h_terms[0]
        for term in h_terms[1:]:
            g_h += term
        g_attn = g_h if masks is None else g_h * masks[0]
        return g_h, g_attn, (g_norm, g_gate, g_up, g_down)

    def _qkv(self, n, weights):
        """``(q, k, v)`` in ``(heads, S, head_dim)`` layout, RoPE applied:
        the forward's expressions, which the backward re-runs."""
        s = n.shape[0]
        flat = np.empty(self.blocks[-1].stop)
        heads = []
        for w, block in zip(weights, self.blocks):
            y = flat[block].reshape(s, w.shape[0])
            np.matmul(n, np.swapaxes(w, 0, 1), out=y)
            heads.append(np.swapaxes(y.reshape(s, -1, self.layer.head_dim), 0, 1))
        q, k, v = heads
        if self.rope is not None:
            q, k = (rotate_half_split(t, *self.rope) for t in (q, k))
        return q, k, v

    def _recompute(self, q, k, v, kept):
        """The merged ``o`` and ``lse`` with the front :attr:`split` rows
        rebuilt before the ``kept`` back rows — the whole product when
        none are kept, else the local kernel on the front rows (no
        communication) — and the tracker handle of what was rebuilt, which
        the backward releases once the attention backward has run."""
        s, split = q.shape[-2], self.split
        with trace_span("attn.recompute", phase="ckpt-recompute",
                        split=split, seq=s), \
                memory_scope(layer=self.mem_layer, mem_phase="recompute"):
            if split == s:
                o, lse, context = self._attend(q, k, v)
            else:
                o, lse = self._local_forward(q, k, v, split)
                context = ()
            get_tracker().add_recompute_flops(_attention_flops(
                allowed_pairs(self.mask, split, s), q.shape[0], q.shape[-1]))
            handle = get_tracker().register(
                sum(a.nbytes for a in (o, lse, *context) if a is not None),
                site=type(self).__name__)
        o = np.swapaxes(o, 0, 1).reshape(split, -1)
        if split < s:
            o = np.concatenate([o, kept[0]])
            lse = np.concatenate([lse, kept[1]], axis=-1)
        return o, lse, handle

    # -- where the attention product runs --------------------------------------

    def _save(self, x, o, lse, context):
        """Keep ``x`` and the back ``policy.cached_rows(s)`` rows of the
        merged ``o`` and ``lse``, copied; the front :attr:`split` rows are
        rebuilt in the backward.  The local product has no ``context``."""
        s = x.shape[0]
        self.split = split = s - self.layer.policy.cached_rows(s)
        if split:
            o, lse = o[split:].copy(), lse[..., split:].copy()
        self.save_for_backward(x, o, lse)

    def _attend(self, q, k, v):
        """Whole-sequence forward; returns ``(o, lse, context)``: a product
        that keeps its own backward context returns its arrays as
        ``context`` (``lse`` may then be ``None``)."""
        return (*self._local_forward(q, k, v, q.shape[-2]), ())

    def _attend_backward(self, qkv, o, lse, grad_out):
        """Whole-sequence backward from the re-projected ``qkv`` (``None``
        when :attr:`kept_ctx` holds the context), the merged ``o`` and
        ``lse``; returns ``(dq, dk, dv)``."""
        return self._local_backward(*qkv, self._heads(o), lse, grad_out)

    def _heads(self, o):
        """The merged ``(S, D)`` output viewed in ``(H, S, Dh)`` layout."""
        return np.swapaxes(o.reshape(o.shape[0], self.layer.n_heads, -1), 0, 1)


def flash_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: MaskPattern | None = None,
    scale: float | None = None,
    block_size: int | None = None,
) -> Tensor:
    """Differentiable flash attention over ``(H, S, Dh)`` tensors."""
    return FlashAttentionFn.apply(
        q, k, v, mask=mask, scale=scale, block_size=block_size,
    )

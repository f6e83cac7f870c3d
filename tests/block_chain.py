"""A transformer block as the chain of nodes it used to be — the oracle
that the block's one node (:class:`repro.nn.attention_fn.AttentionFn`
with its FFN tail folded in) is held to, bit for bit.

A literal transcription of that chain: the attention node (``norm1``
folded in), dropout, the residual ``Add``, the fused FFN node with
``norm2`` folded in (``BlockwiseMLPFn``, applied graph-only — zeros, no
forward kernel — in the block's own checkpoint replay), dropout and the
second ``Add``; or, for an unchunked FFN outside a replay, ``norm2`` as
its own node and the composed five-node SwiGLU graph of ``repro.nn.ops``
nodes, which the model no longer builds (:func:`ffn_forward` is the one
composed FFN left, the reference every FFN kernel is held to).  Each
dropout draws its mask from the block's scoped generator when it runs.  :func:`chain_body` is the block's
``_body`` that built it; a test installs it on ``TransformerBlock`` to
train the oracle model.

:class:`SplitPeaks` measures a training step's saved-bytes peak in two
halves, so a test can hold each to its closed-form move.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend
from repro.nn import ops
from repro.nn.function import Function
from repro.nn.memory import get_tracker
from repro.nn.rng import current_rng
from repro.nn.tensor import Tensor


class DropoutFn(Function):
    def forward(self, a, p=0.1, rng=None):
        keep = 1.0 - p
        self.mask = (rng.random(a.shape) < keep) / keep
        return a * self.mask

    def backward(self, g):
        return (g * self.mask,)


def dropout(a, p, training):
    if not training or p == 0.0:
        return a
    return DropoutFn.apply(a, p=p, rng=current_rng())


class BlockwiseMLPFn(ops.PreNormFn):
    def forward(self, *args, chunk_size=None, graph_only=False, eps=None):
        self.chunk_size = chunk_size
        x, ms, (w_gate, w_up, w_down) = self._save_inputs(args, eps)
        if graph_only:
            return np.zeros(x.shape[:-1] + (w_down.shape[0],), dtype=x.dtype)
        return get_backend().mlp_forward(
            self._normed(x, ms), w_gate, w_up, w_down, chunk_size=chunk_size
        )

    def backward(self, grad_out):
        x, ms, *weights = self.saved
        dn, *weight_grads = get_backend().mlp_backward(
            self._normed(x, ms), *weights, grad_out, chunk_size=self.chunk_size
        )
        return (*self._norm_backward(dn, x, ms), *weight_grads)


def ffn_forward(ffn, x, output_unread, norm):
    """``SwiGLU.forward(x, output_unread=, norm=)`` as it was."""
    if ffn.mlp_chunk_size is not None or output_unread:
        inputs, kwargs = ops.pre_norm_inputs(x, norm)
        return BlockwiseMLPFn.apply(
            *inputs, ffn.gate.weight, ffn.up.weight, ffn.down.weight,
            chunk_size=ffn.mlp_chunk_size, graph_only=output_unread, **kwargs,
        )
    if norm is not None:
        x = norm(x)
    return ffn.down(ops.mul(ops.silu(ffn.gate(x)), ffn.up(x)))


def chain_ffn_saved_elems(s, d, hidden, fused):
    """What the chain's FFN saves beyond its three weights, all of which
    the block's one node rebuilds: a fused FFN its input ``h`` and
    ``norm2``'s row; a composed one ``norm2``'s ``RMSNormFn`` (``h`` and
    the row), ``norm2(h)`` twice (the two projection ``MatMul`` nodes) and
    four ``(S, hidden)`` intermediates (``SiLU``'s input, ``Mul``'s two
    operands and the down ``MatMul``'s input)."""
    if fused:
        return s * d + s
    return 3 * s * d + s + 4 * s * hidden


def chain_body(block, x, tail_unread=False):
    """``TransformerBlock._body`` as the chain: attend → dropout → add →
    FFN → dropout → add."""
    attn_out = block.attn(x, norm=block.norm1)
    if block.dropout_p > 0:
        attn_out = dropout(attn_out, block.dropout_p, block.training)
    h = ops.add(x, attn_out)
    ffn_out = ffn_forward(block.ffn, h, tail_unread, block.norm2)
    if block.dropout_p > 0:
        ffn_out = dropout(ffn_out, block.dropout_p, block.training)
    return ops.add(h, ffn_out)


class SplitPeaks:
    """Per training step, the tracker's saved-bytes peak at the start of
    the outermost ``Tensor.backward`` (:attr:`forward`: the forward's
    peak) and the most bytes saved when a checkpoint replay starts its
    backward (:attr:`replay`: the deepest replay's peak; 0 without a
    replay).  Installed on ``Tensor.backward`` through ``monkeypatch``."""

    def __init__(self, monkeypatch):
        self.forward: list[int] = []
        self.replay: list[int] = []
        original, depth = Tensor.backward, [0]

        def backward(tensor, *args, **kwargs):
            tracker = get_tracker()
            if depth[0] == 0:
                self.forward.append(tracker.peak_saved_bytes)
                self.replay.append(0)
            else:
                self.replay[-1] = max(self.replay[-1],
                                      tracker.current_saved_bytes)
            depth[0] += 1
            try:
                return original(tensor, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Tensor, "backward", backward)

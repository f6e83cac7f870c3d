"""A transformer block as the chain of nodes it used to be — the oracle
that the block's one node (:class:`repro.nn.attention_fn.AttentionFn`
with its FFN tail folded in) is held to, bit for bit.

A literal transcription of that chain and of the layer replay it ran
under: the block's forward (:func:`chain_block_forward`), which drew the
layer's seed once and, under a replaying policy, wrapped the body in a
store-inputs / re-run node whose first pass and replay were flagged
(:class:`ReplayFn`, :func:`replaying`, :func:`first_pass`); the body
(:func:`chain_body`): the attention node (``norm1`` folded in), dropout,
the residual ``Add``, the fused FFN node with ``norm2`` folded in
(``BlockwiseMLPFn``, applied graph-only — zeros, no forward kernel — in
the block's own replay), dropout and the second ``Add``; or, for an
unchunked FFN outside a replay, ``norm2`` as its own node and the
composed five-node SwiGLU graph of ``repro.nn.ops`` nodes, which the
model no longer builds (:func:`ffn_forward` is the one composed FFN
left, the reference every FFN kernel is held to).  Each dropout draws its
mask from the block's scoped generator when it runs.
:func:`install_chain` installs the chain, with the attention chain of
``tests/attention_chain.py``, on the model's classes.

:class:`SplitPeaks` measures a training step's saved-bytes peak in two
halves, so a test can hold each to its closed-form move.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend
from repro.nn import ops
from repro.nn.function import Function
from repro.nn.memory import MemoryTracker, get_tracker
from repro.nn.rng import current_rng, draw_seed, scoped_rng
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.obs.mem import current_memory_scope, memory_phase, memory_scope

_replaying = False
_first_pass = False


def replaying() -> bool:
    """True while a :class:`ReplayFn` re-runs its layer (and for
    everything that replay calls)."""
    return _replaying


def first_pass() -> bool:
    """True while a :class:`ReplayFn` applied with gradients enabled runs
    its layer's first (no-grad) pass — one whose replay will come."""
    return _first_pass


class ReplayFn(Function):
    """Store the layer input, re-run the layer in backward, flagged."""

    def forward(self, x, fn=None):
        global _first_pass
        self.fn = fn
        self.save_for_backward(x)
        prev, _first_pass = _first_pass, is_grad_enabled()
        try:
            with no_grad():
                out = fn(Tensor(x))
        finally:
            _first_pass = prev
        return out.data

    def backward(self, grad_out):
        global _replaying
        x = Tensor(self.saved[0], requires_grad=True)
        self.release_saved()
        prev, _replaying = _replaying, True
        try:
            with memory_phase("recompute"):
                out = self.fn(x)
        finally:
            _replaying = prev
        out.backward(grad_out)
        return (x.grad,)


def chain_block_forward(block, x):
    """``TransformerBlock.forward`` as it was: the layer's seed drawn
    once, the body replayed under a replaying policy, and the FFN's
    output unread in the block's own replay."""
    seed = draw_seed() if (block.dropout_p > 0 and block.training) else None

    def seeded_body(x_):
        unread = block.policy.replays and replaying() and is_grad_enabled()
        with memory_scope(layer=block.layer_index):
            with scoped_rng(seed):
                return block._body(x_, tail_unread=unread)

    if block.policy.replays:
        return ReplayFn.apply(x, fn=seeded_body)
    return seeded_body(x)


def install_chain(m):
    """Install the old chain — block forward, body and attention layer —
    through the ``monkeypatch`` context ``m``."""
    from repro.nn.modules import CausalSelfAttention, TransformerBlock
    from tests.attention_chain import chain_forward

    m.setattr(CausalSelfAttention, "forward", chain_forward)
    m.setattr(TransformerBlock, "forward", chain_block_forward)
    m.setattr(TransformerBlock, "_body", chain_body)


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
    peak) and the most bytes saved right after a registration in the
    ``recompute`` memory phase (:attr:`replay`: the deepest replay's peak
    for the chain, the deepest rebuilt rows' for the node; 0 when nothing
    is rebuilt).  Installed through ``monkeypatch``."""

    def __init__(self, monkeypatch):
        self.forward: list[int] = []
        self.replay: list[int] = []
        backward, register, depth = Tensor.backward, MemoryTracker.register, [0]

        def outermost(tensor, *args, **kwargs):
            if depth[0] == 0:
                self.forward.append(get_tracker().peak_saved_bytes)
                self.replay.append(0)
            depth[0] += 1
            try:
                return backward(tensor, *args, **kwargs)
            finally:
                depth[0] -= 1

        def sampled(tracker, *args, **kwargs):
            handle = register(tracker, *args, **kwargs)
            if depth[0] and current_memory_scope()["mem_phase"] == "recompute":
                self.replay[-1] = max(self.replay[-1],
                                      tracker.current_saved_bytes)
            return handle

        monkeypatch.setattr(Tensor, "backward", outermost)
        monkeypatch.setattr(MemoryTracker, "register", sampled)

"""Blockwise SwiGLU FFN as a single autograd Function.

The FFN ``down(silu(gate(x)) * up(x))`` is one node,
:class:`BlockwiseMLPFn`, that saves only ``x`` and the three weights:
the ``(S, hidden)`` intermediates are rematerialised chunk-by-chunk in
backward by the active kernel backend
(:meth:`~repro.kernels.KernelBackend.mlp_backward`), which is the
Blockwise-Parallel-Transformer FFN trick.  ``chunk_size`` is
``mlp_chunk_size`` at the module/config layer; ``None`` computes in one
dense chunk.  Outputs and all four gradients are bitwise-identical to the
composed five-node graph (two projection matmuls, silu, mul, down
matmul) for every chunk size; that graph is kept only as the tests'
reference (``tests/block_chain.py``, pinned by
``tests/test_blockwise_mlp.py``).

The pre-FFN RMSNorm folds into the node
(:class:`~repro.nn.ops.PreNormFn`): the node saves the norm's input and
one ``(S, 1)`` row, not the normed activations, and its backward rebuilds
them with one elementwise pass before the FFN kernel's backward.

The FFN's expressions are written here once (:meth:`BlockwiseMLPFn._ffn`
and :meth:`BlockwiseMLPFn._ffn_backward`).  Inside a
:class:`~repro.nn.modules.TransformerBlock` the FFN is not a node of its
own: the block's attention node
(:class:`~repro.nn.attention_fn.AttentionFn`) folds the residual and this
FFN in and runs these two methods, rebuilding the FFN's input ``h`` in its
backward instead of saving it.  :class:`~repro.nn.modules.SwiGLU` called
on its own builds this node.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_backend
from repro.nn.ops import PreNormFn, pre_norm_inputs
from repro.nn.tensor import Tensor


class BlockwiseMLPFn(PreNormFn):
    """``y = silu(n @ Wg^T) * (n @ Wu^T) @ Wd^T`` as one graph node, ``n``
    being ``x`` or, folded in, its :class:`~repro.nn.ops.PreNormFn`
    RMSNorm (then ``x`` and the ``(S, 1)`` row are saved, not ``n``)."""

    def forward(
        self,
        *args: np.ndarray,
        chunk_size: int | None = None,
        eps: float | None = None,
    ) -> np.ndarray:
        self.chunk_size = chunk_size
        x, ms, weights = self._save_inputs(args, eps)
        return self._ffn(x, ms, weights)

    def backward(self, grad_out: np.ndarray):
        x, ms, *weights = self.saved
        return self._ffn_backward(x, ms, weights, grad_out)

    def _ffn(self, x, ms, weights) -> np.ndarray:
        """The FFN of ``x`` (normed when ``ms`` is a norm row)."""
        return get_backend().mlp_forward(
            self._normed(x, ms), *weights, chunk_size=self.chunk_size
        )

    def _ffn_backward(self, x, ms, weights, grad_out) -> tuple:
        """``x``'s gradient terms, the norm weight's (with a norm) and the
        three FFN weights', from the output gradient."""
        dn, *weight_grads = get_backend().mlp_backward(
            self._normed(x, ms), *weights, grad_out, chunk_size=self.chunk_size
        )
        return (*self._norm_backward(dn, x, ms), *weight_grads)


def blockwise_mlp(
    x: Tensor,
    w_gate: Tensor,
    w_up: Tensor,
    w_down: Tensor,
    chunk_size: int | None = None,
    norm=None,
) -> Tensor:
    """Functional wrapper: fused SwiGLU FFN through the kernel backend,
    reading ``norm(x)`` when ``norm`` (an ``RMSNorm``) is given."""
    inputs, kwargs = pre_norm_inputs(x, norm)
    return BlockwiseMLPFn.apply(
        *inputs, w_gate, w_up, w_down, chunk_size=chunk_size, **kwargs,
    )

"""Blockwise SwiGLU FFN as a single autograd Function.

The composed :class:`~repro.nn.modules.SwiGLU` path builds five graph
nodes (two projection matmuls, silu, mul, down matmul) and saves every
``(S, hidden)`` intermediate for backward.  :class:`BlockwiseMLPFn` fuses
the whole FFN into one node that saves only ``x`` and the three weights —
the intermediates are rematerialised chunk-by-chunk in backward by the
active kernel backend (:meth:`~repro.kernels.KernelBackend.mlp_backward`),
which is the Blockwise-Parallel-Transformer FFN trick.  Outputs and all
four gradients are bitwise-identical to the composed path (pinned by
``tests/test_blockwise_mlp.py``).

``chunk_size`` is ``mlp_chunk_size`` at the module/config layer;
``None`` still fuses (one node, only ``x`` saved) but computes densely.

Because backward needs nothing the forward computed, the node can be
applied ``graph_only``: it saves exactly what it always saves (same
tracker registration, same bytes) and returns finite zeros without
running the forward kernel.  That is only sound when *nobody reads the
output's values* — a caller-side fact this module cannot know, so the
node never decides it: it has no view of the checkpoint state, and the
one caller that passes ``graph_only`` is
:class:`~repro.nn.modules.TransformerBlock`, whose FFN is the tail of
its own checkpointed region (see ``docs/algorithms.md`` §5).  There the
FFN is this node even when ``mlp_chunk_size`` is ``None``: the dense
kernels are bitwise the composed graph, which would save ``x`` twice and
four ``(S, hidden)`` intermediates.

Wherever the FFN is this node, the block's pre-FFN RMSNorm folds into it
(:class:`~repro.nn.ops.PreNormFn`): the node saves the norm's input and
one ``(S, 1)`` row, not the normed activations, and its backward rebuilds
them with one elementwise pass before the FFN kernel's backward.
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
        graph_only: bool = False,
        eps: float | None = None,
    ) -> np.ndarray:
        self.chunk_size = chunk_size
        x, ms, (w_gate, w_up, w_down) = self._save_inputs(args, eps)
        if graph_only:
            # Zeros, not np.empty: the caller's add / dropout still touch
            # the placeholder and must stay finite under np.errstate.
            return np.zeros(x.shape[:-1] + (w_down.shape[0],), dtype=x.dtype)
        return get_backend().mlp_forward(
            self._normed(x, ms), w_gate, w_up, w_down, chunk_size=chunk_size
        )

    def backward(self, grad_out: np.ndarray):
        x, ms, *weights = self.saved
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
    graph_only: bool = False,
    norm=None,
) -> Tensor:
    """Functional wrapper: fused SwiGLU FFN through the kernel backend,
    reading ``norm(x)`` when ``norm`` (an ``RMSNorm``) is given.

    ``graph_only`` builds the node without computing its output (zeros);
    pass it only when the output's values are provably never read.
    """
    inputs, kwargs = pre_norm_inputs(x, norm)
    return BlockwiseMLPFn.apply(
        *inputs, w_gate, w_up, w_down,
        chunk_size=chunk_size, graph_only=graph_only, **kwargs,
    )

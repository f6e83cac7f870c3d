"""The model's final norm and LM head as the chain of two nodes they used
to be — the oracle that the folded head node
(:class:`repro.nn.modules.FusedLMHeadLossFn`, and the engine's
``VocabParallelHeadLossFn``) is held to.

A literal transcription: ``final_norm`` as its own ``RMSNormFn`` node,
then the head node, which ran the implementation on the normed input,
saved ``(dH, dW)`` and scaled them by the upstream gradient in its
backward.  The norm's backward then ran on the scaled ``dH``; the folded
node runs it on the unscaled one in its forward and scales after.
"""

from __future__ import annotations

import numpy as np

from repro.lmhead import HEAD_IMPLEMENTATIONS
from repro.lmhead.distributed import shard_vocab, vocab_parallel_fused_loss
from repro.nn.function import Function


class ChainHeadLossFn(Function):
    """The head node as it was: ``(loss, dH, dW)`` on its input, the two
    gradients saved and scaled by the upstream gradient."""

    def forward(self, h, w, targets=None, impl="fused", comm=None):
        targets = np.asarray(targets)
        if impl == "vocab-parallel":
            loss, dh, dw_shards = vocab_parallel_fused_loss(
                comm, h, shard_vocab(w, comm.world_size), targets)
            dw = np.concatenate(dw_shards, axis=0)
        else:
            res = HEAD_IMPLEMENTATIONS[impl](h, w, targets)
            loss, dh, dw = res.loss, res.dh, res.dw
        self.save_for_backward(dh, dw)
        return np.asarray(loss)

    def backward(self, grad_out):
        dh, dw = self.saved
        g = float(grad_out)
        return g * dh, g * dw


def chain_head_loss(x, final_norm, w, targets, impl="fused", comm=None):
    """``final_norm(x)`` as its own node, then :class:`ChainHeadLossFn`."""
    return ChainHeadLossFn.apply(final_norm(x), w, targets=targets,
                                 impl=impl, comm=comm)

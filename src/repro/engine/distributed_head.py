"""Vocab-parallel LM head as the engine's head node.

Runs :func:`repro.lmhead.distributed.vocab_parallel_fused_loss` inside
the model's final-norm + head + loss node so the end-to-end engine can
shard the vocabulary matrix across ranks
(``EngineConfig(head_impl="vocab-parallel")``): the Algorithm-3 tile loop
runs per vocab shard, two small all-reduces (row LSEs and dH partials)
merge the shards, and the logged traffic is independent of the vocabulary
size.
"""

from __future__ import annotations

import numpy as np

from repro.comm import SimCommunicator
from repro.lmhead.distributed import shard_vocab, vocab_parallel_fused_loss
from repro.nn.modules import FusedLMHeadLossFn


class VocabParallelHeadLossFn(FusedLMHeadLossFn):
    """Scalar CE loss with the vocab matrix sharded across the cluster;
    the final norm folds in as in every head node (only :meth:`_head`
    differs)."""

    def _head(self, n, w, targets, comm: SimCommunicator = None,
              block_seq: int = 128):
        if comm is None:
            raise ValueError("vocab-parallel head requires comm=")
        loss, dh, dw_shards = vocab_parallel_fused_loss(
            comm, n, shard_vocab(w, comm.world_size), np.asarray(targets),
            block_seq=block_seq,
        )
        return loss, dh, np.concatenate(dw_shards, axis=0), 0

"""Gradient checkpointing with the paper's policy menu (Section 3.2).

Policies
--------
``none``
    No checkpointing: a block's node keeps ``x`` and every row of its
    attention output ``(O, lse)``; zero recomputation.
``full``
    Classic gradient checkpointing [Chen et al. 2016]: the node keeps only
    ``x``, and its backward re-runs the whole attention forward.
``selective_pp``
    Selective checkpointing++ [DISTFLASHATTN / LoongTrain]: the attention
    outputs ``(O, lse)`` are whitelisted and kept, so the expensive
    attention forward is never recomputed.  The node keeps the same set
    as under ``none``; the two stay apart because Fig. 7 labels them
    apart (and :mod:`repro.experiments` prices them apart).
``sequence_level``
    The paper's scheme: keep ``(O, lse)`` only for the *latter*
    ``1 - split_fraction`` of the sequence (whose causal recomputation
    would be expensive) and recompute attention only for the cheap front
    segment.  With ``split_fraction = 0.5`` this keeps half of
    selective++'s whitelist while re-doing only ~25 % of the attention
    forward FLOPs.

Every policy is one scheme with a different front: a block's backward
recomputes the attention of the first ``c`` of its sequence and reads the
back ``1 - c`` from what the forward kept — ``full`` is ``c = 1``,
``selective_pp`` is ``c = 0`` and ``sequence_level`` is ``c =
split_fraction``; ``none`` recomputes nothing either.
:attr:`CheckpointPolicy.recomputed_front` is that declaration; the
attention node (:class:`~repro.nn.attention_fn.AttentionFn`), both memory
models and the time model derive what they need from it and never branch
on the mode.  The node owns the recompute: it keeps the policy's rows and
rebuilds the rest in its own backward, so no block is re-run.

:class:`Checkpoint` is the generic store-inputs / re-run-in-backward
Function, for any function of Tensors; no model layer applies it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.nn.function import Function
from repro.nn.tensor import Tensor, no_grad
from repro.obs.mem import memory_phase
from repro.obs.tracer import trace_span


class CheckpointMode(enum.Enum):
    NONE = "none"
    FULL = "full"
    SELECTIVE_PP = "selective_pp"
    SEQUENCE_LEVEL = "sequence_level"


@dataclass(frozen=True)
class CheckpointPolicy:
    """Layer recomputation policy.

    ``split_fraction`` only applies to ``sequence_level``: the fraction of
    the sequence (the front) that is recomputed rather than kept.
    (A layer's FFN is always folded into the layer's attention node,
    which rebuilds its input and intermediates in backward;
    ``TransformerConfig.mlp_chunk_size`` sets only its chunking.)
    """

    mode: CheckpointMode = CheckpointMode.NONE
    split_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.split_fraction < 1.0:
            if self.mode is CheckpointMode.SEQUENCE_LEVEL:
                raise ValueError(
                    f"split_fraction must be in (0, 1), got {self.split_fraction}"
                )

    @classmethod
    def parse(
        cls, spec: str, split_fraction: float = 0.5
    ) -> "CheckpointPolicy":
        return cls(mode=CheckpointMode(spec), split_fraction=split_fraction)

    @property
    def recomputed_front(self) -> float | None:
        """The fraction ``c`` of each layer's sequence, from the front,
        whose attention the backward recomputes; ``None`` if the layer
        recomputes nothing."""
        return {
            CheckpointMode.NONE: None,
            CheckpointMode.FULL: 1.0,
            CheckpointMode.SELECTIVE_PP: 0.0,
            CheckpointMode.SEQUENCE_LEVEL: self.split_fraction,
        }[self.mode]

    @property
    def replays(self) -> bool:
        """True under a checkpointing policy: FSDP re-gathers the layer's
        parameters for its backward (``BurstEngine.replayed_parameters``)."""
        return self.recomputed_front is not None

    def cached_rows(self, seq_len: int) -> int:
        """Rows of ``(O, lse)`` a layer keeps for its backward: the back
        ``s - round(s * c)`` of the sequence (every row without a
        recomputed front)."""
        c = self.recomputed_front
        return seq_len if c is None else seq_len - int(round(seq_len * c))


class Checkpoint(Function):
    """Store the inputs, re-run ``fn`` in backward.

    ``fn`` maps input Tensors to a single output Tensor.  The first pass
    runs under ``no_grad`` so no intermediate state is registered; the
    backward re-runs ``fn`` with gradients enabled and backpropagates
    through the fresh subgraph.
    """

    def forward(self, *raw_inputs, fn=None):
        if fn is None:
            raise ValueError("Checkpoint requires fn=")
        self.fn = fn
        self.save_for_backward(*raw_inputs)
        with no_grad():
            out = fn(*[Tensor(r) for r in raw_inputs])
        return out.data

    def backward(self, grad_out: np.ndarray):
        inputs = [Tensor(r, requires_grad=True) for r in self.saved]
        # The replayed nodes register what they keep of the inputs.
        self.release_saved()
        with trace_span("ckpt.replay", phase="ckpt-recompute"):
            with memory_phase("recompute"):
                out = self.fn(*inputs)
        out.backward(grad_out)
        return tuple(inp.grad for inp in inputs)


def checkpoint(fn, *inputs: Tensor) -> Tensor:
    """Apply ``fn`` with gradient checkpointing."""
    return Checkpoint.apply(*inputs, fn=fn)

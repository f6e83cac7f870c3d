"""Gradient checkpointing with the paper's policy menu (Section 3.2).

Policies
--------
``none``
    No checkpointing: every Function saves its backward state; maximal
    memory, zero recomputation.
``full``
    Classic gradient checkpointing [Chen et al. 2016]: only the layer
    *inputs* persist; the whole layer — including attention — is re-run in
    the backward pass.
``selective_pp``
    Selective checkpointing++ [DISTFLASHATTN / LoongTrain]: like ``full``
    but the attention outputs ``(O, lse)`` are whitelisted and stored, so
    the expensive attention forward is never recomputed.  Costs ``O(N d)``
    extra memory per layer — the Fig. 7 blow-up.
``sequence_level``
    The paper's scheme: store ``(O, lse)`` only for the *latter*
    ``1 - split_fraction`` of the sequence (whose causal recomputation
    would be expensive) and recompute attention only for the cheap front
    segment.  With ``split_fraction = 0.5`` this stores half of
    selective++'s whitelist while re-doing only ~25 % of the attention
    forward FLOPs.

The three replaying policies are one scheme with a different front: a
replay recomputes the attention of the first ``c`` of each layer's
sequence and reads the back ``1 - c`` from the cache — ``full`` is
``c = 1``, ``selective_pp`` is ``c = 0`` and ``sequence_level`` is
``c = split_fraction``.  :attr:`CheckpointPolicy.recomputed_front` is that
declaration; the replay, both memory models and the time model derive what
they need from it and never branch on the mode.

:class:`Checkpoint` is the Function that implements the store-inputs /
re-run-in-backward mechanics; :func:`in_recompute` lets the attention
node know the current forward is a recomputation so it can consult its
output cache, and :func:`in_first_pass` that it is the first pass of a
checkpoint whose replay will read that cache — the only pass that fills
it (a forward under ``no_grad``, inference, never does).

What a replay is for
--------------------
A replay exists to rebuild the *graph* (each node's saved state) that the
first pass ran without; the values it recomputes matter only where some
node saves them.  The replayed function's final output is dropped —
:meth:`Checkpoint.backward` seeds ``out.backward`` with the upstream
gradient and never reads ``out.data`` — so the node at the tail of the
region may skip whatever of its forward only feeds that output.  A
block's replay is one node (:class:`~repro.nn.attention_fn.AttentionFn`
with the block's residual, ``norm2`` and FFN folded in, as every block
is): it runs the attention product, whose ``(O, lse)`` it saves, and
skips ``wo``, the residual, ``norm2``'s row and the FFN, which its
backward rebuilds from the saved ``x`` and ``O`` anyway.
Whether a node *is* at the tail is a fact about the replayed function,
not about the node: inside ``checkpoint(lambda t: ffn2(ffn1(t)), x)`` the
first FFN's output is saved by the second.  Hence the rule, guarded in
``tests/test_public_api.py``: ``in_recompute`` is read by the
attention-output cache protocol
(:class:`~repro.nn.attention_fn.AttentionFn`, which also reads
``in_first_pass``) and by :class:`~repro.nn.modules.TransformerBlock`
(which owns both the region and its tail) and by nothing else — never
by another node or a kernel.

The same reasoning covers the rest of the layer: its node saves the
block input ``x``, which the replay hands it anyway, and rebuilds ``q``,
``k``, ``v`` and the mid-residual ``h`` from it in its backward rather
than save them; only ``(O, lse)`` — or, for the cached rows, the
whitelist — persists, because no GEMM rebuilds attention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.nn.function import Function
from repro.nn.memory import get_tracker
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
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
    the sequence (the front) that is recomputed rather than stored.
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
        whose attention a replay recomputes; ``None`` if the layer is
        never replayed."""
        return {
            CheckpointMode.NONE: None,
            CheckpointMode.FULL: 1.0,
            CheckpointMode.SELECTIVE_PP: 0.0,
            CheckpointMode.SEQUENCE_LEVEL: self.split_fraction,
        }[self.mode]

    @property
    def replays(self) -> bool:
        """True when the layer keeps only its input and re-runs in backward."""
        return self.recomputed_front is not None

    def cached_rows(self, seq_len: int) -> int:
        """Rows of ``(O, lse)`` the first pass keeps for the replay: the
        back ``s - round(s * c)`` of the sequence (0 without a replay)."""
        c = self.recomputed_front
        return 0 if c is None else seq_len - int(round(seq_len * c))


_in_recompute: bool = False
_in_first_pass: bool = False


def in_recompute() -> bool:
    """True while a :class:`Checkpoint` node is re-running its layer.

    Also true for everything that replay calls, including the *first*
    pass of a checkpoint nested inside it — whose output is real.
    """
    return _in_recompute


def in_first_pass() -> bool:
    """True while a :class:`Checkpoint` node applied with gradients
    enabled runs its layer's first (no-grad) pass — a pass whose replay
    will come.  Under an outer ``no_grad`` (inference, evaluation) no
    backward follows, so nothing is stashed for one.
    """
    return _in_first_pass


class Checkpoint(Function):
    """Store layer inputs, re-run the layer in backward.

    ``fn`` maps input Tensors to a single output Tensor.  The first pass
    runs under ``no_grad`` so no intermediate state is registered; the
    backward pass replays ``fn`` with gradients enabled (flagged via
    :func:`in_recompute` so attention caches engage) and backpropagates
    through the fresh subgraph.
    """

    def forward(self, *raw_inputs, fn=None):
        if fn is None:
            raise ValueError("Checkpoint requires fn=")
        global _in_first_pass
        self.fn = fn
        self.save_for_backward(*raw_inputs)
        prev, _in_first_pass = _in_first_pass, is_grad_enabled()
        try:
            with no_grad():
                out = fn(*[Tensor(r) for r in raw_inputs])
        finally:
            _in_first_pass = prev
        return out.data

    def backward(self, grad_out: np.ndarray):
        global _in_recompute
        inputs = [Tensor(r, requires_grad=True) for r in self.saved]
        # The replayed nodes register what they keep of the inputs.
        self.release_saved()
        prev = _in_recompute
        _in_recompute = True
        try:
            with trace_span("ckpt.replay", phase="ckpt-recompute"):
                with memory_phase("recompute"):
                    out = self.fn(*inputs)
        finally:
            _in_recompute = prev
        out.backward(grad_out)
        return tuple(inp.grad for inp in inputs)


def checkpoint(fn, *inputs: Tensor) -> Tensor:
    """Apply ``fn`` with gradient checkpointing."""
    return Checkpoint.apply(*inputs, fn=fn)


class AttentionOutputCache:
    """Whitelisted attention outputs that survive until backward.

    Holds ``(O, lse)`` (possibly only a sequence suffix) registered with
    the memory tracker so the extra footprint of selective++ /
    sequence-level checkpointing is measured.  Entries are consumed by the
    recompute pass; :meth:`clear` drops anything left (e.g. at step end).
    A :meth:`put` over a live entry releases the entry it replaces.
    """

    def __init__(self):
        self._store: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}

    def put(self, key: int, o: np.ndarray, lse: np.ndarray) -> None:
        self.pop(key)
        handle = get_tracker().register(
            o.nbytes + lse.nbytes, site="attn.cache"
        )
        self._store[key] = (o, lse, handle)

    def pop(self, key: int) -> tuple[np.ndarray, np.ndarray] | None:
        entry = self._store.pop(key, None)
        if entry is None:
            return None
        o, lse, handle = entry
        get_tracker().release(handle)
        return o, lse

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        for _, _, handle in self._store.values():
            get_tracker().release(handle)
        self._store.clear()

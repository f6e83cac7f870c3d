"""Blockwise (BPT-style) SwiGLU FFN: bitwise identity and memory pins.

The fused FFN's contract has two halves:

* **Numerics** — ``swiglu_mlp_forward/backward`` (and the fused
  :func:`~repro.nn.mlp_fn.blockwise_mlp` node above them) are
  bitwise-identical to the composed five-node SwiGLU graph for every
  chunk size, including chunks that don't divide the sequence, chunks at
  or past the sequence length, and shapes below the chunking engagement
  gates (which must fall back to the literal dense code path).
* **Memory** — the fused node saves only ``x`` + weights; the closed
  forms in :mod:`repro.perf.memory` must match the live
  :class:`~repro.nn.memory.MemoryTracker` byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    MIN_FULL_GEMM_OUT,
    chunk_bounds,
    swiglu_dense_backward,
    swiglu_dense_forward,
    swiglu_mlp_backward,
    swiglu_mlp_forward,
    uses_chunking,
)
from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy
from repro.nn.memory import get_tracker
from repro.nn.modules import SwiGLU, TransformerBlock
from repro.nn.tensor import Tensor
from repro.perf.memory import (
    swiglu_chunked_transient_bytes,
    swiglu_dense_saved_bytes,
    swiglu_fused_saved_bytes,
)


def _weights(rng, dim, hidden):
    wg = rng.normal(size=(hidden, dim))
    wu = rng.normal(size=(hidden, dim))
    wd = rng.normal(size=(dim, hidden))
    return wg, wu, wd


def _kernel_case(seq, dim, hidden, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(seq, dim))
    dy = rng.normal(size=(seq, dim))
    return (x, dy, *_weights(rng, dim, hidden))


class TestChunkBounds:
    def test_covers_sequence_with_ragged_tail(self):
        bounds = chunk_bounds(70, 32)
        assert bounds == [(0, 32), (32, 64), (64, 70)]
        assert chunk_bounds(64, 32) == [(0, 32), (32, 64)]


class TestKernelBitwise:
    # S=64, dim=32, hidden=64 clears both engagement gates
    # (S*hidden = 4096, S*dim = 2048 >= MIN_FULL_GEMM_OUT).
    @pytest.mark.parametrize("chunk", [5, 7, 16, 24, 31, 48])
    def test_chunked_matches_dense_bitwise(self, chunk):
        x, dy, wg, wu, wd = _kernel_case(64, 32, 64)
        assert uses_chunking(x, wg, wd, chunk)
        y_ref = swiglu_dense_forward(x, wg, wu, wd)
        g_ref = swiglu_dense_backward(x, wg, wu, wd, dy)
        y = swiglu_mlp_forward(x, wg, wu, wd, chunk_size=chunk)
        grads = swiglu_mlp_backward(x, wg, wu, wd, dy, chunk_size=chunk)
        assert np.array_equal(y, y_ref)
        for name, a, b in zip(("dx", "dwg", "dwu", "dwd"), grads, g_ref):
            assert np.array_equal(a, b), f"chunk={chunk}: {name} diverged"

    @pytest.mark.parametrize("chunk", [64, 65, 1000, None])
    def test_chunk_at_or_past_seq_degenerates_to_dense(self, chunk):
        x, dy, wg, wu, wd = _kernel_case(64, 32, 64)
        assert not uses_chunking(x, wg, wd, chunk)
        y = swiglu_mlp_forward(x, wg, wu, wd, chunk_size=chunk)
        assert np.array_equal(y, swiglu_dense_forward(x, wg, wu, wd))

    def test_short_sequence_falls_back(self):
        x, dy, wg, wu, wd = _kernel_case(8, 32, 64)
        assert not uses_chunking(x, wg, wd, 4)
        y = swiglu_mlp_forward(x, wg, wu, wd, chunk_size=4)
        assert np.array_equal(y, swiglu_dense_forward(x, wg, wu, wd))

    def test_small_output_gate_falls_back(self):
        # S*hidden = 1024 < MIN_FULL_GEMM_OUT: below the empirically
        # mapped BLAS small-output kernel boundary, so chunking must not
        # engage (the tiny-GEMM accumulation order differs there).
        x, dy, wg, wu, wd = _kernel_case(32, 8, 32)
        assert 32 * 32 < MIN_FULL_GEMM_OUT
        assert not uses_chunking(x, wg, wd, 16)
        grads = swiglu_mlp_backward(x, wg, wu, wd, dy, chunk_size=16)
        g_ref = swiglu_dense_backward(x, wg, wu, wd, dy)
        for a, b in zip(grads, g_ref):
            assert np.array_equal(a, b)


def _run_module(seq, dim, hidden, chunk, x_data, dy):
    module = SwiGLU(dim, hidden, np.random.default_rng(9),
                    mlp_chunk_size=chunk)
    x = Tensor(x_data.copy(), requires_grad=True)
    y = module(x)
    y.backward(dy)
    return (
        y.data, x.grad, module.gate.weight.grad, module.up.weight.grad,
        module.down.weight.grad,
    )


class TestModuleBitwise:
    @settings(deadline=None, max_examples=12)
    @given(
        seq=st.integers(16, 80),
        dim=st.integers(4, 24),
        hidden=st.integers(8, 48),
        chunk=st.integers(1, 96),
        seed=st.integers(0, 5),
    )
    def test_fused_matches_composed_bitwise(self, seq, dim, hidden, chunk,
                                            seed):
        rng = np.random.default_rng(seed)
        x_data = rng.normal(size=(seq, dim))
        dy = rng.normal(size=(seq, dim))
        ref = _run_module(seq, dim, hidden, None, x_data, dy)
        fused = _run_module(seq, dim, hidden, chunk, x_data, dy)
        names = ("y", "dx", "dwg", "dwu", "dwd")
        for name, a, b in zip(names, ref, fused):
            assert np.array_equal(a, b), f"reference fused: {name} diverged"

    def test_checkpoint_replay_matches_eager(self):
        # FULL checkpointing (layer re-run in backward) composed with the
        # blockwise FFN must reproduce the eager blockwise gradients.
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(48, 16))
        dy = rng.normal(size=(48, 16))

        def run(policy):
            block = TransformerBlock(
                16, 2, 32, np.random.default_rng(4), policy=policy,
                mlp_chunk_size=16,
            )
            x = Tensor(x_data.copy(), requires_grad=True)
            block(x).backward(dy)
            return (
                x.grad, block.ffn.gate.weight.grad,
                block.ffn.up.weight.grad, block.ffn.down.weight.grad,
            )

        eager = run(CheckpointPolicy())
        ckpt = run(CheckpointPolicy(mode=CheckpointMode.FULL))
        for a, b in zip(eager, ckpt):
            assert np.array_equal(a, b)


class TestMemoryPins:
    SEQ, DIM, HID = 200, 24, 96

    def _saved_during_forward(self, chunk):
        tracker = get_tracker()
        module = SwiGLU(self.DIM, self.HID, np.random.default_rng(2),
                        mlp_chunk_size=chunk)
        x = Tensor(np.random.default_rng(3).normal(size=(self.SEQ, self.DIM)),
                   requires_grad=True)
        base = tracker.current_saved_bytes
        y = module(x)
        saved = tracker.current_saved_bytes - base
        y.backward(np.ones_like(y.data))  # drain saves
        return saved

    def test_closed_forms_match_live_tracker(self):
        dense = self._saved_during_forward(None)
        fused = self._saved_during_forward(64)
        assert dense == swiglu_dense_saved_bytes(self.SEQ, self.DIM, self.HID)
        assert fused == swiglu_fused_saved_bytes(self.SEQ, self.DIM, self.HID)
        assert dense > fused  # the point of the exercise

    def test_transient_model_shrinks_with_chunk(self):
        full = swiglu_chunked_transient_bytes(self.SEQ, self.DIM, self.HID,
                                              None)
        assert full == swiglu_chunked_transient_bytes(
            self.SEQ, self.DIM, self.HID, self.SEQ
        )
        sizes = [swiglu_chunked_transient_bytes(self.SEQ, self.DIM, self.HID,
                                                c)
                 for c in (200, 100, 50, 25)]
        assert sizes[0] == full
        assert sizes == sorted(sizes, reverse=True)

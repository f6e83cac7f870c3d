"""Blockwise (BPT-style) SwiGLU FFN: bitwise identity and memory pins.

The fused FFN's contract has two halves:

* **Numerics** — ``swiglu_mlp_forward/backward`` (and the fused
  :func:`~repro.nn.mlp_fn.blockwise_mlp` node above them) are
  bitwise-identical to the composed five-node SwiGLU graph
  (``tests/block_chain.py``) for every chunk size, ``None`` included, including chunks that don't divide the sequence, chunks at
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
from repro.kernels import get_backend
from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy, checkpoint
from repro.nn.memory import get_tracker
from repro.nn.modules import SwiGLU, TransformerBlock, TransformerConfig, TransformerLM
from repro.nn.tensor import Tensor
from repro.perf.memory import (
    swiglu_chunked_transient_bytes,
    swiglu_fused_saved_bytes,
)

from tests.block_chain import ffn_forward


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


def allocating_dense_forward(x, wg, wu, wd):
    """``swiglu_dense_forward`` as it was: every expression allocates."""
    g = np.matmul(x, np.swapaxes(wg, 0, 1))
    sig = 1.0 / (1.0 + np.exp(-g))
    act = g * sig
    u = np.matmul(x, np.swapaxes(wu, 0, 1))
    h = act * u
    return np.matmul(h, np.swapaxes(wd, 0, 1))


def allocating_dense_backward(x, wg, wu, wd, dy):
    """``swiglu_dense_backward`` as it was, transcribed literally."""
    g = np.matmul(x, np.swapaxes(wg, 0, 1))
    sig = 1.0 / (1.0 + np.exp(-g))
    act = g * sig
    u = np.matmul(x, np.swapaxes(wu, 0, 1))
    h = act * u
    dh = np.matmul(dy, wd)
    dwd = np.swapaxes(np.matmul(np.swapaxes(h, -1, -2), dy), 0, 1)
    dact = dh * u
    du = dh * act
    dg = dact * (sig * (1.0 + g * (1.0 - sig)))
    dx = np.matmul(dg, wg) + np.matmul(du, wu)
    dwg = np.swapaxes(np.matmul(np.swapaxes(x, -1, -2), dg), 0, 1)
    dwu = np.swapaxes(np.matmul(np.swapaxes(x, -1, -2), du), 0, 1)
    return dx, dwg, dwu, dwd


#: (S, dim, hidden): ``ulysses_full``'s FFN, and ``wide_short``'s.
ORACLE_SHAPES = [(2048, 64, 128), (512, 256, 1024)]


class TestInPlaceCoreMatchesTheAllocatingExpressions:
    """The kernels' elementwise steps run in place on reused buffers; each
    is the allocating expression's IEEE operation on the same operands,
    so every output is the oracle's bits."""

    @staticmethod
    def _assert_bitwise(got, want):
        for name, a, b in zip(("y", "dx", "dwg", "dwu", "dwd"), got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("shape", ORACLE_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("chunk", [None, 64], ids=["dense", "chunk64"])
    def test_bitwise_equal_to_the_oracle(self, shape, chunk):
        x, dy, wg, wu, wd = _kernel_case(*shape)
        assert uses_chunking(x, wg, wd, chunk) == (chunk is not None)
        got = (
            swiglu_mlp_forward(x, wg, wu, wd, chunk_size=chunk),
            *swiglu_mlp_backward(x, wg, wu, wd, dy, chunk_size=chunk),
        )
        want = (
            allocating_dense_forward(x, wg, wu, wd),
            *allocating_dense_backward(x, wg, wu, wd, dy),
        )
        self._assert_bitwise(got, want)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    def test_dense_backward_holds_six_hidden_buffers(self, shape):
        """``g``, ``sig``, ``act``/``du``, ``u``, ``h``/``dg`` and
        ``dh``/``dact`` plus ``dwd``; the allocating expressions peak at
        ten and more ``(S, hidden)`` buffers."""
        import tracemalloc

        s, d, hid = shape
        x, dy, wg, wu, wd = _kernel_case(*shape)
        tracemalloc.start()
        try:
            swiglu_dense_backward(x, wg, wu, wd, dy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (6 * s * hid + d * hid) * 8 + 65536


def _run_module(seq, dim, hidden, chunk, x_data, dy, composed=False):
    """The module's outputs and gradients; ``composed`` runs its weights
    through the five-node reference graph instead."""
    module = SwiGLU(dim, hidden, np.random.default_rng(9),
                    mlp_chunk_size=chunk)
    x = Tensor(x_data.copy(), requires_grad=True)
    y = ffn_forward(module, x, False, None) if composed else module(x)
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
        ref = _run_module(seq, dim, hidden, None, x_data, dy, composed=True)
        names = ("y", "dx", "dwg", "dwu", "dwd")
        for size in (None, chunk):
            fused = _run_module(seq, dim, hidden, size, x_data, dy)
            for name, a, b in zip(names, ref, fused):
                assert np.array_equal(a, b), f"chunk={size}: {name} diverged"

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


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` with a call counter; returns the counter list."""
    calls = []
    raw = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return raw(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


_CHECKPOINTING = [
    CheckpointMode.FULL, CheckpointMode.SELECTIVE_PP,
    CheckpointMode.SEQUENCE_LEVEL,
]


class TestReplayElidesTheBlockTail:
    """No policy re-runs a ``TransformerBlock``: the fused FFN is folded
    into the block's node, whose backward rebuilds the attention rows it
    did not keep and never the FFN's output.  Inside a generic
    :func:`~repro.nn.checkpoint.checkpoint` every node still computes its
    output, which a later node may save.
    """

    SEQ, DIM, HID, CHUNK = 64, 32, 64, 16

    def _block_grads(self, policy, chunk):
        from repro.nn.rng import set_seed

        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(self.SEQ, self.DIM))
        dy = rng.normal(size=(self.SEQ, self.DIM))
        set_seed(5)  # same dropout masks under every policy
        block = TransformerBlock(
            self.DIM, 2, self.HID, np.random.default_rng(4),
            policy=CheckpointPolicy(mode=policy), mlp_chunk_size=chunk,
            dropout_p=0.2,
        )
        x = Tensor(x_data, requires_grad=True)
        with np.errstate(all="raise"):
            out = block(x)
            out.backward(dy)
        return [out.data, x.grad] + [p.grad for p in block.parameters()]

    @pytest.mark.parametrize("policy", _CHECKPOINTING, ids=lambda m: m.value)
    def test_fused_ffn_forward_runs_once_per_layer(self, monkeypatch, policy):
        """Chunked or one dense chunk alike."""
        calls = _count_calls(monkeypatch, get_backend(), "mlp_forward")
        bwd = _count_calls(monkeypatch, get_backend(), "mlp_backward")
        for chunk in (self.CHUNK, None):
            del calls[:], bwd[:]
            plain = self._block_grads(CheckpointMode.NONE, chunk)
            assert (len(calls), len(bwd)) == (1, 1)
            del calls[:], bwd[:]
            ckpt = self._block_grads(policy, chunk)
            # forward only: nothing is replayed
            assert (len(calls), len(bwd)) == (1, 1), chunk
            assert len(plain) == len(ckpt) == 11
            for a, b in zip(plain, ckpt):
                assert a.tobytes() == b.tobytes(), chunk

    def test_replayed_composed_ffn_registers_only_the_fused_node(self):
        """Under ``full`` the block's one node rebuilds, in its backward,
        the attention rows it kept none of — ``o`` and ``lse``, the only
        registration in the ``recompute`` phase.  No composed FFN node
        (``SiLU``, ``Mul``, the three FFN ``MatMul`` nodes), no
        ``BlockwiseMLPFn`` and no standalone norm registers: ``h``,
        ``norm2``'s row and the FFN's intermediates are rebuilt and not
        registered."""
        from repro.nn.memory import reset_tracker
        from repro.obs import use_memory_timeline
        from repro.perf.memory import node_kept_elems

        rng = np.random.default_rng(1)
        policy = CheckpointPolicy(mode=CheckpointMode.FULL)
        block = TransformerBlock(
            self.DIM, 2, self.HID, np.random.default_rng(4), policy=policy,
        )
        x = Tensor(rng.normal(size=(self.SEQ, self.DIM)), requires_grad=True)
        reset_tracker()
        with use_memory_timeline() as timeline:
            block(x).backward(rng.normal(size=(self.SEQ, self.DIM)))
        rebuilt = [
            (e.site, e.delta) for e in timeline.events()
            if e.series == "saved" and e.kind == "alloc"
            and e.owner.get("mem_phase") == "recompute"
        ]
        kept, rows = node_kept_elems(self.SEQ, self.DIM, 2, policy)
        assert (kept, rows) == (self.SEQ * self.DIM, self.SEQ * (self.DIM + 2))
        assert rebuilt == [("AttentionFn", rows * 8)]
        assert get_tracker().current_saved_bytes == 0

    def test_a_none_block_registers_only_its_node(self):
        """Without a replay (``none``) the block is the same one node, with
        dropout too: one handle, ``AttentionFn``, of the layer's closed
        form.  No FFN node, no standalone norm and no ``Add`` registers,
        and the handle drains in the backward."""
        from repro.nn.memory import reset_tracker
        from repro.obs import use_memory_timeline
        from repro.perf.memory import node_kept_elems

        rng = np.random.default_rng(1)
        block = TransformerBlock(
            self.DIM, 2, self.HID, np.random.default_rng(4),
            policy=CheckpointPolicy(mode=CheckpointMode.NONE), dropout_p=0.2,
        )
        x = Tensor(rng.normal(size=(self.SEQ, self.DIM)), requires_grad=True)
        reset_tracker()
        with use_memory_timeline() as timeline:
            out = block(x)
        allocs = [(e.site, e.delta) for e in timeline.events()
                  if e.series == "saved" and e.kind == "alloc"]
        layer, _ = node_kept_elems(self.SEQ, self.DIM, 2, CheckpointPolicy())
        assert allocs == [("AttentionFn", layer * 8)]
        assert get_tracker().live_handles == 1
        out.backward(rng.normal(size=(self.SEQ, self.DIM)))
        assert get_tracker().current_saved_bytes == 0
        assert get_tracker().live_handles == 0

    def _two_ffns(self):
        rng = np.random.default_rng(7)
        return [SwiGLU(self.DIM, self.HID, rng, mlp_chunk_size=self.CHUNK)
                for _ in range(2)]

    def _chain_grads(self, wrap):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(self.SEQ, self.DIM)), requires_grad=True)
        dy = rng.normal(size=(self.SEQ, self.DIM))
        ffn1, ffn2 = self._two_ffns()
        wrap(lambda t: ffn2(ffn1(t)), x).backward(dy)
        return [x.grad] + [p.grad for f in (ffn1, ffn2) for p in f.parameters()]

    def test_a_fused_ffn_that_feeds_another_is_recomputed(self):
        """The hazard: inside a generic checkpoint the first FFN's output
        is *saved* by the second, so a node that skipped its forward on
        its own whenever a replay is running would hand the second FFN a
        placeholder and return wrong ``dx`` / ``dW`` with every other test
        green."""
        plain = self._chain_grads(lambda fn, x: fn(x))
        ckpt = self._chain_grads(checkpoint)
        assert len(plain) == len(ckpt) == 7
        for a, b in zip(plain, ckpt):
            assert np.array_equal(a, b)

    def test_block_inside_an_outer_replay_keeps_its_output(self, monkeypatch):
        """An outer checkpoint replaying two blocks runs each block once
        in its first pass and once in its replay; each block's output is
        read by the next block, so it must be computed."""
        rng = np.random.default_rng(3)
        x_data = rng.normal(size=(self.SEQ, self.DIM))
        dy = rng.normal(size=(self.SEQ, self.DIM))

        def run(outer):
            blocks = [
                TransformerBlock(
                    self.DIM, 2, self.HID, np.random.default_rng(4 + i),
                    policy=CheckpointPolicy(mode=CheckpointMode.FULL),
                    mlp_chunk_size=self.CHUNK,
                )
                for i in range(2)
            ]
            x = Tensor(x_data, requires_grad=True)
            outer(lambda t: blocks[1](blocks[0](t)), x).backward(dy)
            return [x.grad] + [p.grad for b in blocks for p in b.parameters()]

        plain = run(lambda fn, x: fn(x))
        calls = _count_calls(monkeypatch, get_backend(), "mlp_forward")
        nested = run(checkpoint)
        # per block: the outer first pass and the outer replay; the block
        # itself re-runs nothing.
        assert len(calls) == 4
        for a, b in zip(plain, nested):
            assert np.array_equal(a, b)


class TestChunkSizeIsValidated:
    """A non-positive ``mlp_chunk_size`` used to train on the dense path
    without a word (the kernels take it for "do not chunk")."""

    @pytest.mark.parametrize("chunk", [0, -4])
    def test_config_rejects_a_non_positive_chunk(self, chunk):
        with pytest.raises(ValueError, match="mlp_chunk_size"):
            TransformerConfig(mlp_chunk_size=chunk)

    @pytest.mark.parametrize("chunk", [0, -4])
    def test_module_rejects_a_non_positive_chunk(self, chunk):
        with pytest.raises(ValueError, match="mlp_chunk_size"):
            SwiGLU(8, 16, np.random.default_rng(0), mlp_chunk_size=chunk)

    @pytest.mark.parametrize("chunk", [None, 1, 64])
    def test_none_and_positive_chunks_build(self, chunk):
        model = TransformerLM(TransformerConfig(n_layers=1, mlp_chunk_size=chunk))
        assert model.blocks[0].ffn.mlp_chunk_size == chunk


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
        """Dense or chunked, the node saves ``x`` and the weights only."""
        fused = swiglu_fused_saved_bytes(self.SEQ, self.DIM, self.HID)
        assert fused == 93_696  # no (S, hidden) intermediate
        for chunk in (None, 64):
            assert self._saved_during_forward(chunk) == fused, chunk

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

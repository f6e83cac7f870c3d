"""Tests for single-device kernels: softmax/LSE, dense reference attention,
and the blockwise FlashAttention-style implementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    KernelWorkspace,
    attention_reference,
    attention_reference_backward,
    flash_attention_forward,
    flash_attention_backward,
    logsumexp,
    merge_lse,
    merge_states,
    softmax,
)
from repro.kernels.softmax import empty_state
from repro.masks import CausalMask, SlidingWindowMask


RNG = np.random.default_rng(1234)


def rand_qkv(s=32, d=8, heads=None, sk=None):
    shape_q = (s, d) if heads is None else (heads, s, d)
    sk = sk or s
    shape_k = (sk, d) if heads is None else (heads, sk, d)
    q = RNG.normal(size=shape_q)
    k = RNG.normal(size=shape_k)
    v = RNG.normal(size=shape_k)
    return q, k, v


class TestSoftmaxPrimitives:
    def test_logsumexp_matches_naive(self):
        x = RNG.normal(size=(5, 7))
        np.testing.assert_allclose(
            logsumexp(x), np.log(np.exp(x).sum(axis=-1)), rtol=1e-12
        )

    def test_logsumexp_stable_for_large_values(self):
        x = np.array([[1000.0, 1000.0]])
        assert np.isfinite(logsumexp(x)).all()

    def test_logsumexp_all_masked_row(self):
        x = np.array([[-np.inf, -np.inf], [0.0, 0.0]])
        out = logsumexp(x)
        assert np.isneginf(out[0])
        assert out[1] == pytest.approx(np.log(2.0))

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(4, 9))
        np.testing.assert_allclose(softmax(x).sum(axis=-1), 1.0, rtol=1e-12)

    def test_softmax_fully_masked_row_is_zero(self):
        x = np.array([[-np.inf, -np.inf]])
        np.testing.assert_array_equal(softmax(x), np.zeros((1, 2)))

    def test_merge_states_equals_joint_softmax(self):
        q, k, v = rand_qkv(s=16, d=4, sk=24)
        k1, k2 = k[:10], k[10:]
        v1, v2 = v[:10], v[10:]
        o1, l1 = attention_reference(q, k1, v1)
        o2, l2 = attention_reference(q, k2, v2)
        o, lse = merge_states(o1, l1, o2, l2)
        o_ref, lse_ref = attention_reference(q, k, v)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-10)

    def test_merge_with_empty_state_is_identity(self):
        q, k, v = rand_qkv(s=8, d=4)
        o, lse = attention_reference(q, k, v)
        o0, l0 = empty_state(o.shape)
        o2, l2 = merge_states(o0, l0, o, lse)
        np.testing.assert_allclose(o2, o, rtol=1e-12)
        np.testing.assert_allclose(l2, lse, rtol=1e-12)

    def test_merge_is_commutative(self):
        q, k, v = rand_qkv(s=8, d=4, sk=16)
        o1, l1 = attention_reference(q, k[:8], v[:8])
        o2, l2 = attention_reference(q, k[8:], v[8:])
        oa, la = merge_states(o1, l1, o2, l2)
        ob, lb = merge_states(o2, l2, o1, l1)
        np.testing.assert_allclose(oa, ob, rtol=1e-12)
        np.testing.assert_allclose(la, lb, rtol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(split=st.integers(1, 23), seed=st.integers(0, 2**16))
    def test_merge_property_any_split(self, split, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(6, 4))
        k = rng.normal(size=(24, 4))
        v = rng.normal(size=(24, 4))
        o1, l1 = attention_reference(q, k[:split], v[:split])
        o2, l2 = attention_reference(q, k[split:], v[split:])
        o, lse = merge_states(o1, l1, o2, l2)
        o_ref, lse_ref = attention_reference(q, k, v)
        np.testing.assert_allclose(o, o_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-9)


class TestReferenceAttention:
    def test_matches_naive_softmax_attention(self):
        q, k, v = rand_qkv(s=12, d=4)
        scale = 1.0 / np.sqrt(4)
        s = q @ k.T * scale
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        o, _ = attention_reference(q, k, v)
        np.testing.assert_allclose(o, p @ v, rtol=1e-12)

    def test_causal_mask_blocks_future(self):
        q, k, v = rand_qkv(s=8, d=4)
        mask = CausalMask().dense(8)
        o, _ = attention_reference(q, k, v, mask=mask)
        # Row 0 attends only to key 0 -> output equals v[0].
        np.testing.assert_allclose(o[0], v[0], rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        q, k, v = rand_qkv(s=6, d=3)
        mask = CausalMask().dense(6)
        o, lse = attention_reference(q, k, v, mask=mask)
        do = RNG.normal(size=o.shape)
        dq, dk, dv = attention_reference_backward(q, k, v, o, lse, do, mask=mask)

        def loss(q_, k_, v_):
            o_, _ = attention_reference(q_, k_, v_, mask=mask)
            return float(np.sum(o_ * do))

        eps = 1e-6
        for arr, grad, which in ((q, dq, 0), (k, dk, 1), (v, dv, 2)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in range(5):  # spot-check a few coordinates
                idx = tuple(
                    RNG.integers(0, dim) for dim in arr.shape
                )
                args = [q.copy(), k.copy(), v.copy()]
                args[which][idx] += eps
                up = loss(*args)
                args[which][idx] -= 2 * eps
                down = loss(*args)
                fd = (up - down) / (2 * eps)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_multi_head_batching(self):
        q, k, v = rand_qkv(s=10, d=4, heads=3)
        o, lse = attention_reference(q, k, v)
        assert o.shape == (3, 10, 4)
        assert lse.shape == (3, 10)
        o0, _ = attention_reference(q[0], k[0], v[0])
        np.testing.assert_allclose(o[0], o0, rtol=1e-12)


class TestFlashAttention:
    @pytest.mark.parametrize("block", [4, 7, 16, 64])
    def test_forward_matches_reference(self, block):
        q, k, v = rand_qkv(s=33, d=8)
        o_ref, lse_ref = attention_reference(q, k, v)
        o, lse = flash_attention_forward(q, k, v, block_q=block, block_k=block)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-10)

    @pytest.mark.parametrize("mask_cls", [CausalMask, lambda: SlidingWindowMask(5)])
    def test_forward_masked_matches_reference(self, mask_cls):
        q, k, v = rand_qkv(s=29, d=4)
        mask = mask_cls().dense(29)
        o_ref, lse_ref = attention_reference(q, k, v, mask=mask)
        o, lse = flash_attention_forward(q, k, v, mask=mask, block_q=8, block_k=8)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-10)

    def test_backward_matches_reference(self):
        q, k, v = rand_qkv(s=31, d=4)
        mask = CausalMask().dense(31)
        o, lse = flash_attention_forward(q, k, v, mask=mask, block_q=8, block_k=8)
        do = RNG.normal(size=o.shape)
        dq, dk, dv = flash_attention_backward(
            q, k, v, o, lse, do, mask=mask, block_q=8, block_k=8
        )
        dq_ref, dk_ref, dv_ref = attention_reference_backward(
            q, k, v, o, lse, do, mask=mask
        )
        np.testing.assert_allclose(dq, dq_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dv, dv_ref, rtol=1e-9, atol=1e-11)

    def test_sliding_window_skips_empty_tiles(self):
        # With a tiny window and aligned blocks, far-off-diagonal tiles are
        # empty and must be skipped without corrupting the result.
        q, k, v = rand_qkv(s=64, d=4)
        mask = SlidingWindowMask(4).dense(64)
        o_ref, _ = attention_reference(q, k, v, mask=mask)
        o, _ = flash_attention_forward(q, k, v, mask=mask, block_q=8, block_k=8)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)

    def test_multi_head(self):
        q, k, v = rand_qkv(s=16, d=4, heads=2)
        o_ref, _ = attention_reference(q, k, v)
        o, _ = flash_attention_forward(q, k, v, block_q=8, block_k=8)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(
        s=st.integers(2, 40),
        d=st.sampled_from([2, 4, 8]),
        block=st.integers(2, 16),
        seed=st.integers(0, 2**16),
    )
    def test_flash_equals_reference_property(self, s, d, block, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(s, d))
        k = rng.normal(size=(s, d))
        v = rng.normal(size=(s, d))
        mask = CausalMask().dense(s)
        o_ref, lse_ref = attention_reference(q, k, v, mask=mask)
        o, lse = flash_attention_forward(
            q, k, v, mask=mask, block_q=block, block_k=block
        )
        np.testing.assert_allclose(o, o_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-9)


class TestFoldedStatisticsAndScratch:
    """The row sum, ``-lse`` and ``-D`` travel as an extra GEMM column, and
    the scratch they land in is one flat buffer per name."""

    @pytest.mark.parametrize("d", [4, 64], ids=["K=5", "K=65"])
    @pytest.mark.parametrize("block", [7, 16])
    def test_forward_and_backward_at_1e12(self, d, block):
        """Ragged blocks, keys != queries, two heads: every run but the
        last spans several sub-tiles (``run_width`` is the whole axis)."""
        q, k, v = rand_qkv(s=45, d=d, heads=2, sk=61)
        do = RNG.normal(size=q.shape)
        mask = RNG.random((45, 61)) > 0.3
        mask[:, 20:40] = True  # a FULL stretch between PARTIAL ones
        mask[7] = False  # a row that sees no key
        o_ref, lse_ref = attention_reference(q, k, v, mask=mask)
        grads_ref = attention_reference_backward(
            q, k, v, o_ref, lse_ref, do, mask=mask
        )
        ws = KernelWorkspace()
        with np.errstate(all="raise"):
            o, lse = flash_attention_forward(
                q, k, v, mask=mask, block_q=block, block_k=block,
                workspace=ws,
            )
            grads = flash_attention_backward(
                q, k, v, o, lse, do, mask=mask, block_q=block,
                block_k=block, workspace=ws,
            )
        assert np.isneginf(lse[:, 7]).all() and not o[:, 7].any()
        assert not grads[0][:, 7].any()
        for got, want in zip((o, lse, *grads), (o_ref, lse_ref, *grads_ref)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_workspace_keeps_one_grow_only_buffer_per_name(self):
        ws = KernelWorkspace()
        small = ws.buf("s", (2, 4, 8))
        assert small.shape == (2, 4, 8) and small.flags.c_contiguous
        assert ws.buf("s", (4, 16)).base is small.base  # same 64 floats
        assert ws.buf("s", (3, 5)).base is small.base  # a narrower run
        assert (len(ws), ws.nbytes) == (1, 64 * 8)
        wide = ws.buf("s", (2, 4, 16))  # grows, once
        assert wide.base is not small.base
        assert ws.buf("s", (2, 4, 8)).base is wide.base
        ws.buf("t", (3,))
        assert (len(ws), ws.nbytes) == (2, (128 + 3) * 8)
        a, b = RNG.normal(size=(2, 4, 3)), RNG.normal(size=(3, 16))
        out = ws.matmul(a, b, "s")
        assert out.base is wide.base
        np.testing.assert_array_equal(out, a @ b)

    def test_workspace_growth_is_accounted_as_transient_scratch(self):
        from repro.obs.mem import reset_transients
        from repro.obs.metrics import get_registry

        reset_transients()
        ws = KernelWorkspace()
        ws.buf("s", (8, 8))
        ws.buf("s", (4, 4))  # served from the same buffer: no event
        ws.buf("s", (16, 8))  # replaces the 64-float buffer
        snap = get_registry().snapshot()
        assert snap["memory.transient_bytes"] == 128 * 8
        assert snap["memory.peak_transient_bytes"] == (64 + 128) * 8
        reset_transients()


class TestKeyOperandLayout:
    """Every key operand reaches BLAS C-contiguous: a run multiplies by a
    column slice of a row-major ``K^T`` / ``[K | 1]^T`` / ``[V | 1]^T``
    (an NN product) where a transposed view took BLAS's NT path, 1.3–2x
    slower at head dim 8.  The two paths round alike at the kernel shapes
    probed here, so the layout changes no bits there; at head dim >= 16
    they can differ in the last bit on small or ragged products."""

    # (heads, rows, keys): ring shard pairs at the step benchmark's 8 heads
    # (64-row blocks, runs of up to 128 keys, trimmed ones ragged), whole-
    # sequence Ulysses calls (1 head, 128 rows, runs of up to 512 keys).
    SHAPES = [(8, 64, 128), (8, 64, 64), (8, 64, 37), (1, 128, 512),
              (1, 128, 200), (1, 128, 128)]

    @pytest.mark.parametrize("k_dim", [8, 9], ids=["QK", "folded"])
    @pytest.mark.parametrize("heads,rows,keys", SHAPES)
    def test_nn_and_nt_products_are_bitwise_equal(self, heads, rows, keys, k_dim):
        a = RNG.normal(size=(heads, rows, k_dim))
        keys_t = np.swapaxes(RNG.normal(size=(heads, keys + 16, k_dim)), -1, -2)
        view = keys_t[..., 16:]  # a run's columns of the transposed view
        row_major = np.ascontiguousarray(keys_t)[..., 16:]
        assert np.array_equal(np.matmul(a, view), np.matmul(a, row_major))

    @pytest.mark.parametrize("k_dim", [64, 65], ids=["QK", "folded"])
    def test_nn_and_nt_agree_on_a_head_dim_64_full_tile(self, k_dim):
        """The wide workload's full run: 4 heads x 128 rows x 128 keys."""
        a = RNG.normal(size=(4, 128, k_dim))
        keys_t = np.swapaxes(RNG.normal(size=(4, 128, k_dim)), -1, -2)
        assert np.array_equal(
            np.matmul(a, keys_t), np.matmul(a, np.ascontiguousarray(keys_t))
        )

    def test_the_kernels_hand_blas_row_major_key_operands(self, monkeypatch):
        from repro.kernels import PinnedKV, flash

        seen = []

        def spy(ws, a, b, name):
            seen.append((name, b.strides[-1] == b.itemsize))
            return np.matmul(a, b)

        monkeypatch.setattr(flash, "_matmul", spy)
        q, k, v = rand_qkv(s=40, d=8, heads=2)
        do = RNG.normal(size=q.shape)
        o, lse = flash_attention_forward(q, k, v, block_q=16, block_k=16)
        flash_attention_backward(q, k, v, o, lse, do, block_q=16, block_k=16)
        # QK^T, [Q~ | -lse] [K | 1]^T and [dO | -D] [V | 1]^T among them;
        # every right-hand operand is read along unit-stride rows
        assert {name for name, _ in seen} >= {"fwd-s", "bwd-s", "bwd-dp"}
        assert all(unit for _, unit in seen)

        ws = KernelWorkspace()
        flash_attention_forward(q, k, v, workspace=ws)
        k_t = ws.buf("fwd-kt", (2, 8, 40))  # what the call wrote
        assert k_t.flags.c_contiguous
        np.testing.assert_array_equal(k_t, np.swapaxes(k, -1, -2))
        for pinned in (PinnedKV(k, v), PinnedKV(k, v, ws)):
            for op, x in ((pinned.k1_t, k), (pinned.v1_t, v)):
                assert op.flags.c_contiguous and op.shape == (2, 9, 40)
                np.testing.assert_array_equal(
                    op[..., :-1, :], np.swapaxes(x, -1, -2)
                )
                assert (op[..., -1, :] == 1.0).all()
            pinned.release()

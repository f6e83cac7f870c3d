"""Tests for the LM head + loss implementations (Section 3.3 / Alg. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lmhead import (
    HEAD_IMPLEMENTATIONS,
    fused_lm_head_loss,
    naive_lm_head_loss,
    tiled_lm_head_loss,
)


RNG = np.random.default_rng(99)


def make_case(n=50, d=16, v=37):
    h = RNG.normal(size=(n, d))
    w = RNG.normal(size=(v, d)) * 0.3
    y = RNG.integers(0, v, size=n)
    return h, w, y


class TestEquivalence:
    @pytest.mark.parametrize("impl_name", ["tiled-recompute", "fused"])
    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_matches_naive(self, impl_name, reduction):
        h, w, y = make_case()
        ref = naive_lm_head_loss(h, w, y, reduction=reduction)
        impl = HEAD_IMPLEMENTATIONS[impl_name]
        out = impl(h, w, y, reduction=reduction, block_seq=16, block_vocab=8)
        assert out.loss == pytest.approx(ref.loss, rel=1e-12)
        np.testing.assert_allclose(out.dh, ref.dh, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out.dw, ref.dw, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out.lse, ref.lse, rtol=1e-10)

    def test_block_sizes_larger_than_problem(self):
        h, w, y = make_case(n=5, d=4, v=7)
        ref = naive_lm_head_loss(h, w, y)
        out = fused_lm_head_loss(h, w, y, block_seq=100, block_vocab=100)
        assert out.loss == pytest.approx(ref.loss, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        h, w, y = make_case(n=8, d=4, v=6)
        res = fused_lm_head_loss(h, w, y, block_seq=4, block_vocab=4)
        eps = 1e-6
        for _ in range(6):
            i, j = RNG.integers(0, h.shape[0]), RNG.integers(0, h.shape[1])
            hp = h.copy(); hp[i, j] += eps
            hm = h.copy(); hm[i, j] -= eps
            fd = (
                naive_lm_head_loss(hp, w, y).loss
                - naive_lm_head_loss(hm, w, y).loss
            ) / (2 * eps)
            assert res.dh[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        for _ in range(6):
            i, j = RNG.integers(0, w.shape[0]), RNG.integers(0, w.shape[1])
            wp = w.copy(); wp[i, j] += eps
            wm = w.copy(); wm[i, j] -= eps
            fd = (
                naive_lm_head_loss(h, wp, y).loss
                - naive_lm_head_loss(h, wm, y).loss
            ) / (2 * eps)
            assert res.dw[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_loss_is_cross_entropy(self):
        """Sanity: uniform logits -> loss = log(v)."""
        n, d, v = 10, 4, 32
        h = np.zeros((n, d))
        w = np.zeros((v, d))
        y = RNG.integers(0, v, size=n)
        for impl in HEAD_IMPLEMENTATIONS.values():
            assert impl(h, w, y).loss == pytest.approx(np.log(v), rel=1e-12)

    @settings(deadline=None, max_examples=20)
    @given(
        n=st.integers(1, 40),
        v=st.integers(2, 50),
        bs=st.integers(1, 16),
        bv=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    def test_fused_equals_naive_property(self, n, v, bs, bv, seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n, 5))
        w = rng.normal(size=(v, 5))
        y = rng.integers(0, v, size=n)
        ref = naive_lm_head_loss(h, w, y)
        out = fused_lm_head_loss(h, w, y, block_seq=bs, block_vocab=bv)
        assert out.loss == pytest.approx(ref.loss, rel=1e-10)
        np.testing.assert_allclose(out.dh, ref.dh, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(out.dw, ref.dw, rtol=1e-8, atol=1e-10)


class TestValidation:
    def test_bad_shapes(self):
        h, w, y = make_case()
        with pytest.raises(ValueError):
            naive_lm_head_loss(h, w[:, :-1], y)
        with pytest.raises(ValueError):
            naive_lm_head_loss(h, w, y[:-1])

    def test_target_out_of_range(self):
        h, w, y = make_case(v=10)
        y = y.copy()
        y[0] = 10
        with pytest.raises(ValueError):
            fused_lm_head_loss(h, w, y)

    def test_bad_reduction(self):
        h, w, y = make_case()
        with pytest.raises(ValueError):
            naive_lm_head_loss(h, w, y, reduction="max")


class TestCostAccounting:
    """The memory/compute trade-off the paper's Fig. 8 and Table 2 rest on."""

    def test_resident_memory_ordering(self):
        h, w, y = make_case(n=64, d=8, v=128)
        naive = naive_lm_head_loss(h, w, y)
        tiled = tiled_lm_head_loss(h, w, y, block_seq=8, block_vocab=16)
        fused = fused_lm_head_loss(h, w, y, block_seq=8, block_vocab=16)
        assert fused.stats.peak_resident_bytes == 0
        assert fused.stats.peak_resident_bytes < tiled.stats.peak_resident_bytes
        assert tiled.stats.peak_resident_bytes < naive.stats.peak_resident_bytes
        assert naive.stats.peak_resident_bytes == 64 * 128 * 8

    def test_flops_tiled_pays_recompute(self):
        h, w, y = make_case(n=32, d=8, v=64)
        naive = naive_lm_head_loss(h, w, y)
        tiled = tiled_lm_head_loss(h, w, y)
        fused = fused_lm_head_loss(h, w, y)
        assert fused.stats.matmul_flops == naive.stats.matmul_flops
        assert tiled.stats.matmul_flops == pytest.approx(
            naive.stats.matmul_flops * 4 / 3
        )

    def test_fused_temp_bounded_by_block(self):
        h, w, y = make_case(n=64, d=8, v=128)
        fused = fused_lm_head_loss(h, w, y, block_seq=8, block_vocab=16)
        assert fused.stats.peak_temp_bytes == 8 * 128 * 8  # one seq block x v

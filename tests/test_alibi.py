"""Tests for ALiBi / additive score bias through the whole stack."""

import numpy as np
import pytest

from repro.attention import get_method
from repro.kernels import (
    attention_reference,
    attention_reference_backward,
    flash_attention_backward,
    flash_attention_forward,
)
from repro.masks import ALiBiMask, CausalMask
from repro.nn import Tensor, TransformerConfig, TransformerLM, Adam
from repro.nn.attention_fn import flash_attention
from repro.topology import a800_node, make_cluster


RNG = np.random.default_rng(77)
TOPO = make_cluster(8, node=a800_node(gpus_per_node=4))


def inputs(n=48, d=8, h=4):
    return tuple(RNG.normal(size=(h, n, d)) for _ in range(4))


class TestALiBiMask:
    def test_slopes_geometric(self):
        m = ALiBiMask(8)
        ratios = m.slopes[1:] / m.slopes[:-1]
        np.testing.assert_allclose(ratios, ratios[0])
        assert m.slopes[0] == pytest.approx(2 ** (-1.0))

    def test_bias_is_negative_distance(self):
        m = ALiBiMask(2)
        b = m.bias_block(np.array([5]), np.array([2, 5]))
        assert b.shape == (2, 1, 2)
        assert b[0, 0, 0] == pytest.approx(-m.slopes[0] * 3)
        assert b[0, 0, 1] == 0.0

    def test_mask_part_is_causal(self):
        m = ALiBiMask(2)
        np.testing.assert_array_equal(m.dense(6), CausalMask().dense(6))

    def test_validation(self):
        with pytest.raises(ValueError):
            ALiBiMask(0)


class TestKernelBias:
    def test_reference_with_bias_matches_manual(self):
        q, k, v, _ = inputs(n=12, h=2)
        bias = RNG.normal(size=(2, 12, 12))
        o, lse = attention_reference(q, k, v, bias=bias)
        scale = 1 / np.sqrt(8)
        s = np.matmul(q, np.swapaxes(k, -1, -2)) * scale + bias
        p = np.exp(s - s.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        np.testing.assert_allclose(o, np.matmul(p, v), rtol=1e-12)

    def test_flash_with_bias_matches_reference(self):
        q, k, v, _ = inputs(n=33, h=2)
        mask = ALiBiMask(2)
        dense, bias = mask.dense(33), mask.dense_bias(33)
        o_ref, lse_ref = attention_reference(q, k, v, mask=dense, bias=bias)
        o, lse = flash_attention_forward(q, k, v, mask=dense, bias=bias,
                                         block_q=8, block_k=8)
        np.testing.assert_allclose(o, o_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-10)

    def test_flash_backward_with_bias(self):
        q, k, v, do = inputs(n=24, h=2)
        mask = ALiBiMask(2)
        dense, bias = mask.dense(24), mask.dense_bias(24)
        o, lse = flash_attention_forward(q, k, v, mask=dense, bias=bias,
                                         block_q=8, block_k=8)
        dq, dk, dv = flash_attention_backward(
            q, k, v, o, lse, do, mask=dense, bias=bias, block_q=8, block_k=8
        )
        dq_ref, dk_ref, dv_ref = attention_reference_backward(
            q, k, v, o, lse, do, mask=dense, bias=bias
        )
        np.testing.assert_allclose(dq, dq_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(dk, dk_ref, rtol=1e-9, atol=1e-11)


class TestDistributedALiBi:
    @pytest.mark.parametrize(
        "method,kwargs",
        [("megatron-cp", {}), ("loongtrain-double", {}), ("burst", {}),
         ("ulysses", {}), ("usp", {"ulysses_degree": 2}),
         ("usp", {"ulysses_degree": 4}), ("selective", {})],
        ids=lambda m: m if isinstance(m, str) else "".join(
            f"u{u}" for u in m.values()
        ),
    )
    def test_distributed_matches_dense(self, method, kwargs):
        h = 8  # ulysses-feasible
        q, k, v, do = inputs(n=64, h=h)
        mask = ALiBiMask(h)
        m = get_method(method, block_size=16, **kwargs)
        res = m.run(TOPO, q, k, v, mask=mask, do=do)
        dense, bias = mask.dense(64), mask.dense_bias(64)
        o_ref, lse_ref = attention_reference(q, k, v, mask=dense, bias=bias)
        dq_ref, dk_ref, dv_ref = attention_reference_backward(
            q, k, v, o_ref, lse_ref, do, mask=dense, bias=bias
        )
        np.testing.assert_allclose(res.o, o_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(res.dq, dq_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(res.dk, dk_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(res.dv, dv_ref, rtol=1e-8, atol=1e-10)

    def test_alibi_breaks_translation_blindness(self):
        """With ALiBi, the same token content at different distances gets
        different attention — unlike pure causal."""
        n, h, d = 16, 2, 4
        q = np.tile(RNG.normal(size=(h, 1, d)), (1, n, 1))
        k = np.tile(RNG.normal(size=(h, 1, d)), (1, n, 1))
        v = RNG.normal(size=(h, n, d))
        mask = ALiBiMask(h)
        o, _ = attention_reference(
            q, k, v, mask=mask.dense(n), bias=mask.dense_bias(n)
        )
        o_plain, _ = attention_reference(q, k, v, mask=mask.dense(n))
        # plain causal with identical q/k attends uniformly; ALiBi skews
        # toward recent positions, so the outputs must differ.
        assert not np.allclose(o, o_plain)


class TestALiBiModel:
    def test_model_with_alibi_trains(self):
        cfg = TransformerConfig(
            vocab_size=32, dim=16, n_layers=1, n_heads=2, ffn_hidden=24,
            max_seq_len=32, attn_block_size=16, mask=ALiBiMask(2), seed=3,
        )
        model = TransformerLM(cfg)
        opt = Adam(model.parameters(), lr=3e-3)
        ids = RNG.integers(0, 32, size=24)
        targets = np.roll(ids, -1)
        losses = []
        for _ in range(15):
            opt.zero_grad()
            loss = model(ids, targets)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_alibi_grad_check(self):
        """Bias path gradients via autograd match finite differences."""
        mask = ALiBiMask(2)
        q = Tensor(RNG.normal(size=(2, 8, 4)), requires_grad=True)
        k = Tensor(RNG.normal(size=(2, 8, 4)), requires_grad=True)
        v = Tensor(RNG.normal(size=(2, 8, 4)), requires_grad=True)
        flash_attention(q, k, v, mask=mask, block_size=4).sum().backward()
        eps = 1e-6

        def loss(k_np):
            o, _ = attention_reference(
                q.data, k_np, v.data, mask=mask.dense(8),
                bias=mask.dense_bias(8),
            )
            return o.sum()

        kp = k.data.copy(); kp[1, 2, 3] += eps
        km = k.data.copy(); km[1, 2, 3] -= eps
        fd = (loss(kp) - loss(km)) / (2 * eps)
        assert k.grad[1, 2, 3] == pytest.approx(fd, rel=1e-5)

"""Tensor parallelism: numerics vs plain layers, traffic volumes, and the
long-context scaling analysis."""

import numpy as np
import pytest

from repro.comm import SimCommunicator
from repro.masks import ALiBiMask, CausalMask, SlidingWindowMask
from repro.models import LLAMA_14B
from repro.nn import Adam, Tensor, TransformerConfig, TransformerLM
from repro.topology import a800_node, make_cluster
from repro.tp import (
    build_tp_model,
    shard_columns,
    shard_rows,
    tp_attention,
    tp_layer_comm_bytes,
    tp_mlp,
    tp_scaling_analysis,
)


RNG = np.random.default_rng(13)
TOPO = make_cluster(4, node=a800_node(gpus_per_node=4))


def cfg(**kw):
    base = dict(vocab_size=32, dim=16, n_layers=2, n_heads=4, ffn_hidden=24,
                max_seq_len=32, attn_block_size=16, seed=2)
    base.update(kw)
    return TransformerConfig(**base)


class TestShardHelpers:
    def test_row_and_column_shards_cover(self):
        w = RNG.normal(size=(8, 6))
        np.testing.assert_array_equal(np.concatenate(shard_rows(w, 4)), w)
        np.testing.assert_array_equal(
            np.concatenate(shard_columns(w, 3), axis=1), w
        )

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            shard_rows(RNG.normal(size=(7, 4)), 4)
        with pytest.raises(ValueError):
            shard_columns(RNG.normal(size=(4, 7)), 4)


class TestTPLayersNumerics:
    def test_tp_mlp_matches_plain(self):
        s, d, f = 12, 8, 16
        x_np = RNG.normal(size=(s, d))
        wg = RNG.normal(size=(f, d))
        wu = RNG.normal(size=(f, d))
        wd = RNG.normal(size=(d, f))

        def plain(x_):
            h = (x_ @ wg.T) / (1 + np.exp(-(x_ @ wg.T))) * (x_ @ wu.T)
            return h @ wd.T

        comm = SimCommunicator(TOPO)
        x = Tensor(x_np, requires_grad=True)
        y = tp_mlp(x, Tensor(wg, requires_grad=True),
                   Tensor(wu, requires_grad=True),
                   Tensor(wd, requires_grad=True), comm)
        np.testing.assert_allclose(y.data, plain(x_np), rtol=1e-10, atol=1e-12)

    def test_tp_mlp_gradients_match_finite_differences(self):
        s, d, f = 6, 4, 8
        x_np = RNG.normal(size=(s, d))
        wg = Tensor(RNG.normal(size=(f, d)), requires_grad=True)
        wu = Tensor(RNG.normal(size=(f, d)), requires_grad=True)
        wd = Tensor(RNG.normal(size=(d, f)), requires_grad=True)
        comm = SimCommunicator(TOPO)
        x = Tensor(x_np, requires_grad=True)
        tp_mlp(x, wg, wu, wd, comm).sum().backward()

        eps = 1e-6
        for tensor, name in ((x, "x"), (wg, "wg"), (wd, "wd")):
            for _ in range(3):
                idx = tuple(RNG.integers(0, s_) for s_ in tensor.shape)
                orig = tensor.data[idx]
                tensor.data[idx] = orig + eps
                up = tp_mlp(Tensor(x_np), Tensor(wg.data), Tensor(wu.data),
                            Tensor(wd.data), comm).data.sum()
                tensor.data[idx] = orig - eps
                dn = tp_mlp(Tensor(x_np), Tensor(wg.data), Tensor(wu.data),
                            Tensor(wd.data), comm).data.sum()
                tensor.data[idx] = orig
                fd = (up - dn) / (2 * eps)
                assert tensor.grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7), name

    @pytest.mark.parametrize(
        "mask",
        # note: the module defaults mask=None to causal, so pass FullMask
        # explicitly for the unmasked comparison
        [__import__("repro.masks", fromlist=["FullMask"]).FullMask(),
         CausalMask(), SlidingWindowMask(8), ALiBiMask(4)],
        ids=["full", "causal", "swa", "alibi"],
    )
    def test_tp_attention_matches_plain_module(self, mask):
        from repro.nn.modules import CausalSelfAttention

        s, d, h = 16, 16, 4
        x_np = RNG.normal(size=(s, d))
        rng = np.random.default_rng(9)
        plain = CausalSelfAttention(d, h, rng, mask=mask, block_size=8)
        y_ref = plain(Tensor(x_np))
        y_ref.sum().backward()
        ref_grads = {n: p.grad.copy() for n, p in plain.named_parameters()}

        comm = SimCommunicator(TOPO)
        x = Tensor(x_np, requires_grad=True)
        y = tp_attention(
            x, plain.wq.weight, plain.wk.weight, plain.wv.weight,
            plain.wo.weight, comm, h, mask=mask, block_size=8,
        )
        np.testing.assert_allclose(y.data, y_ref.data, rtol=1e-9, atol=1e-11)
        plain.zero_grad()
        y.sum().backward()
        for name, p in plain.named_parameters():
            np.testing.assert_allclose(p.grad, ref_grads[name], rtol=1e-8,
                                       atol=1e-10, err_msg=name)

    def test_heads_divisibility_enforced(self):
        x = Tensor(RNG.normal(size=(8, 6)))
        w = Tensor(RNG.normal(size=(6, 6)))
        comm = SimCommunicator(TOPO)
        with pytest.raises(ValueError, match="divisible"):
            tp_attention(x, w, w, w, w, comm, n_heads=3)


class TestTPModel:
    def test_tp_model_equals_plain_model(self):
        ids = RNG.integers(0, 32, size=16)
        targets = np.roll(ids, -1)
        plain = TransformerLM(cfg())
        loss_ref = plain(ids, targets)
        loss_ref.backward()
        ref = {n: p.grad.copy() for n, p in plain.named_parameters()}

        comm = SimCommunicator(TOPO)
        tp = build_tp_model(cfg(), comm)
        loss = tp(ids, targets)
        loss.backward()
        assert loss.item() == pytest.approx(loss_ref.item(), rel=1e-10)
        for name, p in tp.named_parameters():
            np.testing.assert_allclose(p.grad, ref[name], rtol=1e-8,
                                       atol=1e-10, err_msg=name)

    def test_tp_model_trains(self):
        comm = SimCommunicator(TOPO)
        model = build_tp_model(cfg(), comm)
        opt = Adam(model.parameters(), lr=3e-3)
        ids = RNG.integers(0, 32, size=16)
        targets = np.roll(ids, -1)
        losses = []
        for _ in range(15):
            opt.zero_grad()
            loss = model(ids, targets)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.8

    def test_gqa_rejected(self):
        comm = SimCommunicator(TOPO)
        with pytest.raises(ValueError, match="MHA"):
            build_tp_model(cfg(n_kv_heads=2), comm)

    def test_traffic_volume_matches_formula(self):
        """Per step: 4 all-reduces per layer of S x D elements; ring
        all-reduce sends 2 * (G-1)/G * elems per rank."""
        comm = SimCommunicator(TOPO)
        model = build_tp_model(cfg(), comm)
        ids = RNG.integers(0, 32, size=16)
        loss = model(ids, np.roll(ids, -1))
        loss.backward()
        g = TOPO.world_size
        elems = 16 * 16  # S x D
        per_ar_per_rank = 2 * (g - 1) * (elems // g)
        layers = 2
        expected = layers * 4 * per_ar_per_rank  # attn fwd/bwd + mlp fwd/bwd
        for phase in ("tp-attn", "tp-mlp"):
            vol = comm.log.per_rank_send_elems(phase=phase)
            assert all(v == expected // 2 for v in vol.values()), phase


class TestScalingAnalysis:
    def test_comm_scales_linearly_with_sequence(self):
        assert tp_layer_comm_bytes(2 << 20, 5120) == pytest.approx(
            2 * tp_layer_comm_bytes(1 << 20, 5120)
        )

    def test_tp_cannot_reach_1m_tokens(self):
        """The motivational claim: pure TP OOMs long before 1M tokens."""
        rows = tp_scaling_analysis(LLAMA_14B, [65536, 262144, 1 << 20],
                                   tp_degree=8)
        assert rows[0].fits_80gb            # 64K still fits
        assert not rows[-1].fits_80gb       # 1M cannot (activations alone)
        assert rows[-1].activation_gb_per_gpu > 150

    def test_adding_tp_ranks_does_not_help_activations(self):
        a = tp_scaling_analysis(LLAMA_14B, [1 << 20], tp_degree=8)[0]
        b = tp_scaling_analysis(LLAMA_14B, [1 << 20], tp_degree=64)[0]
        # stored activations dominate and are TP-degree independent
        assert b.activation_gb_per_gpu > 0.9 * a.activation_gb_per_gpu

"""GQA integration: model-level grouped-query attention through the full
single-device and distributed stacks, including adaptive backward
algorithm selection."""

import numpy as np
import pytest

from repro.attention import get_method
from repro.attention.gqa import gqa_attention_reference
from repro.engine import BurstEngine, EngineConfig
from repro.masks import CausalMask
from repro.nn import Adam, CheckpointPolicy, Tensor, TransformerConfig, TransformerLM
from repro.nn.attention_fn import flash_attention
from repro.nn.checkpoint import CheckpointMode
from repro.nn.memory import get_tracker, reset_tracker
from repro.topology import a800_node, make_cluster


RNG = np.random.default_rng(31)
TOPO = make_cluster(8, node=a800_node(gpus_per_node=4))


def gqa_cfg(**overrides):
    base = dict(
        vocab_size=61, dim=16, n_layers=2, n_heads=4, n_kv_heads=2,
        ffn_hidden=24, max_seq_len=64, attn_block_size=16, seed=5,
    )
    base.update(overrides)
    return TransformerConfig(**base)


class TestFlashAttentionGQA:
    def test_forward_matches_reference(self):
        q = Tensor(RNG.normal(size=(8, 24, 4)), requires_grad=True)
        k = Tensor(RNG.normal(size=(2, 24, 4)), requires_grad=True)
        v = Tensor(RNG.normal(size=(2, 24, 4)), requires_grad=True)
        o = flash_attention(q, k, v, mask=CausalMask(), block_size=8)
        o_ref, _ = gqa_attention_reference(
            q.data, k.data, v.data, mask=CausalMask().dense(24)
        )
        np.testing.assert_allclose(o.data, o_ref, rtol=1e-10)

    def test_backward_folds_kv_grads(self):
        q = Tensor(RNG.normal(size=(4, 16, 4)), requires_grad=True)
        k = Tensor(RNG.normal(size=(2, 16, 4)), requires_grad=True)
        v = Tensor(RNG.normal(size=(2, 16, 4)), requires_grad=True)
        flash_attention(q, k, v, block_size=8).sum().backward()
        assert k.grad.shape == (2, 16, 4)
        assert v.grad.shape == (2, 16, 4)
        assert np.isfinite(k.grad).all()

    def test_indivisible_heads_rejected(self):
        q = Tensor(RNG.normal(size=(5, 8, 4)))
        k = Tensor(RNG.normal(size=(2, 8, 4)))
        with pytest.raises(ValueError):
            flash_attention(q, k, k)


class TestGQAModel:
    def test_kv_projection_shapes(self):
        model = TransformerLM(gqa_cfg())
        attn = model.blocks[0].attn
        assert attn.wk.weight.shape == (8, 16)  # 2 kv heads x head_dim 4
        assert attn.wq.weight.shape == (16, 16)

    def test_gqa_model_has_fewer_params(self):
        mha = TransformerLM(gqa_cfg(n_kv_heads=4))
        gqa = TransformerLM(gqa_cfg(n_kv_heads=2))
        assert gqa.num_parameters() < mha.num_parameters()

    def test_invalid_kv_heads(self):
        with pytest.raises(ValueError):
            TransformerLM(gqa_cfg(n_kv_heads=3))

    def test_gqa_model_trains(self):
        model = TransformerLM(gqa_cfg())
        opt = Adam(model.parameters(), lr=3e-3)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 61, size=32)
        targets = np.roll(ids, -1)
        losses = []
        for _ in range(20):
            opt.zero_grad()
            loss = model(ids, targets)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.8


class TestGQADistributed:
    @pytest.mark.parametrize("mode", list(CheckpointMode), ids=lambda m: m.value)
    def test_distributed_gqa_matches_local(self, mode):
        """The single-device and the distributed node share one checkpoint
        protocol, so they agree under every policy — on the numbers and on
        how much attention they recompute."""
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 61, size=32)
        targets = np.roll(ids, -1)
        ckpt = CheckpointPolicy(mode)

        reset_tracker()
        local = TransformerLM(gqa_cfg(checkpoint=ckpt))
        loss_local = local(ids, targets)
        loss_local.backward()
        local_grads = {n: p.grad.copy() for n, p in local.named_parameters()}
        local_recompute = get_tracker().recompute_flops

        reset_tracker()
        engine = BurstEngine(
            EngineConfig(model=gqa_cfg(), checkpoint=ckpt, fsdp=False),
            topology=TOPO,
        )
        loss_dist = engine.model(ids, targets)
        loss_dist.backward()
        assert get_tracker().recompute_flops == local_recompute
        assert (local_recompute > 0) == (
            mode in (CheckpointMode.FULL, CheckpointMode.SEQUENCE_LEVEL)
        )
        assert loss_dist.item() == pytest.approx(loss_local.item(), rel=1e-10)
        for name, p in engine.model.named_parameters():
            np.testing.assert_allclose(
                p.grad, local_grads[name], rtol=1e-8, atol=1e-10, err_msg=name
            )

    def test_distributed_gqa_with_checkpointing(self):
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 61, size=32)
        targets = np.roll(ids, -1)
        engine = BurstEngine(EngineConfig(model=gqa_cfg()), topology=TOPO)
        losses = engine.train(ids, targets, steps=5)
        assert losses[-1] < losses[0]

    def test_adaptive_backward_reduces_traffic(self):
        """With 4x-grouped KV heads, the adaptive burst method should pick
        Algorithm 1 and move less backward data than fixed Algorithm 2."""
        n, d, hq, hkv = 64, 8, 8, 2
        q = RNG.normal(size=(hq, n, d))
        k = RNG.normal(size=(hkv, n, d))
        v = RNG.normal(size=(hkv, n, d))
        do = RNG.normal(size=(hq, n, d))
        volumes = {}
        for adaptive in (False, True):
            method = get_method("burst", block_size=16,
                                adaptive_backward=adaptive)
            res = method.run(TOPO, q, k, v, mask=CausalMask(), do=do)
            volumes[adaptive] = res.comm.log.total_elems(phase="attn-bwd")
        assert volumes[True] < volumes[False]

    def test_adaptive_backward_same_gradients(self):
        n, d, hq, hkv = 64, 8, 8, 2
        q = RNG.normal(size=(hq, n, d))
        k = RNG.normal(size=(hkv, n, d))
        v = RNG.normal(size=(hkv, n, d))
        do = RNG.normal(size=(hq, n, d))
        outs = []
        for adaptive in (False, True):
            method = get_method("burst", block_size=16,
                                adaptive_backward=adaptive)
            outs.append(method.run(TOPO, q, k, v, mask=CausalMask(), do=do))
        np.testing.assert_allclose(outs[0].dq, outs[1].dq, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(outs[0].dk, outs[1].dk, rtol=1e-9, atol=1e-11)

    def test_ulysses_rejects_gqa(self):
        n, d = 64, 8
        q = RNG.normal(size=(8, n, d))
        k = RNG.normal(size=(2, n, d))
        method = get_method("ulysses", block_size=16)
        with pytest.raises(ValueError, match="equal query/KV"):
            method.run(TOPO, q, k, k)

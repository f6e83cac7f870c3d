"""RoPE: rotation algebra, relative-position property, model integration,
and distributed correctness."""

import numpy as np
import pytest

from repro.engine import BurstEngine, EngineConfig
from repro.nn import Adam, CheckpointPolicy, Tensor, TransformerConfig, TransformerLM
from repro.nn.checkpoint import CheckpointMode
from repro.nn.rope import apply_rope, rope_angles, rotate_half_split
from repro.topology import a800_node, make_cluster


RNG = np.random.default_rng(23)


def rope_cfg(**kw):
    base = dict(vocab_size=32, dim=16, n_layers=2, n_heads=2, ffn_hidden=24,
                max_seq_len=64, attn_block_size=16, seed=4,
                position_encoding="rope")
    base.update(kw)
    return TransformerConfig(**base)


class TestRotationAlgebra:
    def test_rotation_preserves_norm(self):
        x = RNG.normal(size=(2, 10, 8))
        cos, sin = rope_angles(np.arange(10), 8)
        y = rotate_half_split(x, cos, sin)
        np.testing.assert_allclose(
            np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-12
        )

    def test_inverse_rotation_roundtrips(self):
        x = RNG.normal(size=(2, 6, 8))
        cos, sin = rope_angles(np.arange(6), 8)
        y = rotate_half_split(rotate_half_split(x, cos, sin), cos, sin,
                              inverse=True)
        np.testing.assert_allclose(y, x, rtol=1e-12)

    def test_position_zero_is_identity(self):
        x = RNG.normal(size=(1, 1, 8))
        cos, sin = rope_angles(np.array([0]), 8)
        np.testing.assert_allclose(rotate_half_split(x, cos, sin), x)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_angles(np.arange(4), 7)

    def test_relative_position_property(self):
        """<R_m q, R_n k> depends only on m - n (RoPE's defining trait)."""
        q = RNG.normal(size=8)
        k = RNG.normal(size=8)

        def score(m, n):
            cq, sq_ = rope_angles(np.array([m]), 8)
            ck, sk_ = rope_angles(np.array([n]), 8)
            qr = rotate_half_split(q[None, :], cq, sq_)
            kr = rotate_half_split(k[None, :], ck, sk_)
            return (qr @ kr.T).item()

        assert score(5, 2) == pytest.approx(score(105, 102), rel=1e-9)
        assert score(7, 7) == pytest.approx(score(0, 0), rel=1e-9)

    def test_autograd_backward_is_inverse_rotation(self):
        x = Tensor(RNG.normal(size=(2, 5, 8)), requires_grad=True)
        y = apply_rope(x, np.arange(5))
        g = RNG.normal(size=(2, 5, 8))
        y.backward(g)
        cos, sin = rope_angles(np.arange(5), 8)
        np.testing.assert_allclose(
            x.grad, rotate_half_split(g, cos, sin, inverse=True), rtol=1e-12
        )

    def test_gradient_finite_difference(self):
        x_np = RNG.normal(size=(1, 3, 4))
        x = Tensor(x_np, requires_grad=True)
        (apply_rope(x, np.array([1, 5, 9])) ** 2.0).sum().backward()
        eps = 1e-6
        for idx in [(0, 0, 0), (0, 2, 3), (0, 1, 2)]:
            xp = x_np.copy(); xp[idx] += eps
            xm = x_np.copy(); xm[idx] -= eps
            from repro.nn.rope import RoPEFn

            up = (RoPEFn().forward(xp, np.array([1, 5, 9])) ** 2).sum()
            dn = (RoPEFn().forward(xm, np.array([1, 5, 9])) ** 2).sum()
            fd = (up - dn) / (2 * eps)
            assert x.grad[idx] == pytest.approx(fd, rel=1e-5)


class TestModelIntegration:
    def test_rope_model_has_position_sensitivity(self):
        """Without learned positions, RoPE must still make the model
        order-sensitive: permuting the prompt changes the last logits."""
        model = TransformerLM(rope_cfg())
        ids = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        a = model.logits(ids).data[-1]
        b = model.logits(ids[::-1].copy()).data[-1]
        assert not np.allclose(a, b)

    def test_rope_model_trains(self):
        model = TransformerLM(rope_cfg())
        opt = Adam(model.parameters(), lr=3e-3)
        ids = RNG.integers(0, 32, size=32)
        targets = np.roll(ids, -1)
        losses = []
        for _ in range(15):
            opt.zero_grad()
            loss = model(ids, targets)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.85

    def test_odd_head_dim_rejected_at_block(self):
        with pytest.raises(ValueError, match="even head"):
            TransformerLM(rope_cfg(dim=6, n_heads=2))  # head_dim 3


class TestNoPositionTable:
    """A RoPE model builds no ``pos_emb``: nothing reads it, so it would
    only be counted, gathered, reduce-scattered and given Adam moments.
    Its initialiser's draws are still taken, so every other weight is the
    one a learned-position model of the same seed has."""

    def test_parameters_are_the_learned_models_but_the_table(self):
        rope = TransformerLM(rope_cfg())
        learned = dict(TransformerLM(
            rope_cfg(position_encoding="learned")).named_parameters())
        table = learned.pop("pos_emb.weight")
        assert table.shape == (64, 16)
        params = dict(rope.named_parameters())
        assert list(params) == list(learned)
        for name, p in params.items():
            assert p.data.tobytes() == learned[name].data.tobytes(), name
        assert rope.pos_emb is None

    def test_engine_bytes_and_losses(self):
        engine = BurstEngine(
            EngineConfig(model=rope_cfg()),
            topology=make_cluster(8, node=a800_node(gpus_per_node=4)),
        )
        assert engine.param_bytes == 43648 == 51840 - 64 * 16 * 8
        ids = np.random.default_rng(5).integers(0, 32, size=64)
        losses = [float(engine.train_step(ids, np.roll(ids, -1)).loss).hex()
                  for _ in range(4)]
        # bitwise those of a model that builds the table and never reads it
        assert losses == [
            "0x1.eec39cdc5712fp+1", "0x1.dce41bad563c0p+1",
            "0x1.cee15b8b8aaa9p+1", "0x1.c25dbf7850aefp+1",
        ]


class TestDistributedRoPE:
    def test_distributed_rope_matches_local(self):
        ids = RNG.integers(0, 32, size=32)
        targets = np.roll(ids, -1)
        ckpt = CheckpointPolicy(CheckpointMode.NONE)

        local = TransformerLM(rope_cfg(checkpoint=ckpt))
        loss_ref = local(ids, targets)
        loss_ref.backward()
        # every parameter is read (a RoPE model has no position table)
        ref = {n: p.grad.copy() for n, p in local.named_parameters()}

        engine = BurstEngine(
            EngineConfig(model=rope_cfg(), checkpoint=ckpt, fsdp=False),
            topology=make_cluster(8, node=a800_node(gpus_per_node=4)),
        )
        loss = engine.model(ids, targets)
        loss.backward()
        assert loss.item() == pytest.approx(loss_ref.item(), rel=1e-10)
        for name, p in engine.model.named_parameters():
            np.testing.assert_allclose(p.grad, ref[name], rtol=1e-8,
                                       atol=1e-10, err_msg=name)

    def test_rope_with_gqa_and_checkpointing(self):
        ids = RNG.integers(0, 32, size=32)
        engine = BurstEngine(
            EngineConfig(model=rope_cfg(n_heads=4, n_kv_heads=2)),
            topology=make_cluster(4, node=a800_node(gpus_per_node=4)),
        )
        losses = engine.train(ids, np.roll(ids, -1), steps=5)
        assert losses[-1] < losses[0]

"""Dropout x checkpointing: the RNG-replay machinery must make recomputed
dropout masks identical, or gradients are silently wrong."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CheckpointPolicy,
    Tensor,
    TransformerConfig,
    TransformerLM,
)
from repro.nn.checkpoint import CheckpointMode
from repro.nn.modules import TransformerBlock
from repro.nn.rng import current_rng, draw_seed, scoped_rng, set_seed


def drop_cfg(**kw):
    base = dict(vocab_size=32, dim=16, n_layers=2, n_heads=2, ffn_hidden=24,
                max_seq_len=32, attn_block_size=16, seed=9, dropout_p=0.2)
    base.update(kw)
    return TransformerConfig(**base)


class TestRNGScoping:
    def test_scoped_rng_is_deterministic(self):
        with scoped_rng(42):
            a = current_rng().random(5)
        with scoped_rng(42):
            b = current_rng().random(5)
        np.testing.assert_array_equal(a, b)

    def test_nested_scopes(self):
        with scoped_rng(1):
            with scoped_rng(2):
                inner = current_rng().random()
            outer = current_rng().random()
        with scoped_rng(2):
            assert current_rng().random() == inner
        assert outer != inner

    def test_none_scope_is_passthrough(self):
        set_seed(123)
        with scoped_rng(None):
            a = draw_seed()
        set_seed(123)
        b = draw_seed()
        assert a == b

    def test_draw_seed_advances(self):
        set_seed(0)
        assert draw_seed() != draw_seed()


class TestDropoutModel:
    def test_eval_mode_is_deterministic(self):
        model = TransformerLM(drop_cfg()).eval()
        ids = np.arange(16) % 32
        a = model.logits(ids).data
        b = model.logits(ids).data
        np.testing.assert_array_equal(a, b)

    def test_train_mode_is_stochastic(self):
        set_seed(7)
        model = TransformerLM(drop_cfg())
        ids = np.arange(16) % 32
        targets = np.roll(ids, -1)
        a = model(ids, targets).item()
        b = model(ids, targets).item()
        assert a != b  # different masks drawn from the global stream

    def test_train_eval_recursive_flag(self):
        model = TransformerLM(drop_cfg())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    @pytest.mark.parametrize(
        "policy",
        [CheckpointMode.FULL, CheckpointMode.SELECTIVE_PP,
         CheckpointMode.SEQUENCE_LEVEL],
        ids=lambda m: m.value,
    )
    def test_checkpointed_dropout_matches_plain(self, policy):
        """Same global seed => identical loss AND gradients whether or not
        the layer is checkpointed: recompute replays the masks exactly."""
        ids = np.arange(24) % 32
        targets = np.roll(ids, -1)

        set_seed(1234)
        plain = TransformerLM(drop_cfg(checkpoint=CheckpointPolicy(CheckpointMode.NONE)))
        loss_ref = plain(ids, targets)
        loss_ref.backward()
        ref = {n: p.grad.copy() for n, p in plain.named_parameters()}

        set_seed(1234)
        ckpt = TransformerLM(drop_cfg(checkpoint=CheckpointPolicy(policy, 0.5)))
        loss = ckpt(ids, targets)
        loss.backward()
        assert loss.item() == pytest.approx(loss_ref.item(), rel=1e-12)
        for name, p in ckpt.named_parameters():
            np.testing.assert_allclose(p.grad, ref[name], rtol=1e-9,
                                       atol=1e-11, err_msg=f"{policy}:{name}")

    def test_dropout_model_trains(self):
        set_seed(5)
        model = TransformerLM(drop_cfg(dropout_p=0.1))
        opt = Adam(model.parameters(), lr=3e-3)
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 32, size=24)
        targets = np.roll(ids, -1)
        first = last = None
        for i in range(25):
            opt.zero_grad()
            loss = model(ids, targets)
            loss.backward()
            opt.step()
            if i == 0:
                first = loss.item()
            last = loss.item()
        assert last < first

    def test_invalid_dropout_p(self):
        with pytest.raises(ValueError):
            TransformerLM(drop_cfg(dropout_p=1.0))


def _arrays(value):
    """Every numpy array reachable through tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


class TestTheNodeKeepsTheSeed:
    def test_no_unregistered_mask_after_a_dropout_forward(self):
        """The block's node keeps its dropout seed, not the two ``S×D``
        masks the tracker would never see: after a dropout forward under
        ``none`` every ``S×D`` array the node references is one of the
        arrays it registered.  Its backward redraws the masks from the
        seed (``test_checkpointed_dropout_matches_plain``)."""
        s, d = 24, 16
        set_seed(3)
        block = TransformerBlock(d, 2, 40, np.random.default_rng(0),
                                 dropout_p=0.2)
        x = Tensor(np.random.default_rng(1).normal(size=(s, d)),
                   requires_grad=True)
        out = block(x)
        node, _ = out._ctx
        saved = [a for a in node.saved if isinstance(a, np.ndarray)]
        held = [a for value in vars(node).values() for a in _arrays(value)
                if a.shape == (s, d)]
        assert any(a is x.data for a in held)
        assert all(any(a is b for b in saved) for a in held)
        out.backward(np.ones((s, d)))

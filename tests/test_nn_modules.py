"""Tests for transformer modules, checkpoint policies, and training.

The checkpointing tests *measure* the Fig. 7 trade-off: gradients must be
identical under every policy, while peak saved activation bytes order as

    full  <  sequence-level  <  selective++  <  none

and recompute FLOPs order the opposite way.
"""

import numpy as np
import pytest

from repro.masks import SlidingWindowMask
from repro.nn import (
    Adam,
    AdamW,
    CheckpointPolicy,
    SGD,
    Tensor,
    TransformerConfig,
    TransformerLM,
    get_tracker,
    reset_tracker,
)
from repro.nn.checkpoint import CheckpointMode, checkpoint
from repro.nn.modules import CausalSelfAttention, Linear, RMSNorm, SwiGLU, TransformerBlock
from repro.nn import ops


RNG = np.random.default_rng(3)


def small_config(**overrides) -> TransformerConfig:
    base = dict(
        vocab_size=61, dim=16, n_layers=2, n_heads=2, ffn_hidden=24,
        max_seq_len=64, attn_block_size=16, seed=5,
    )
    base.update(overrides)
    return TransformerConfig(**base)


def batch(s=32, vocab=61, seed=11):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, size=s)
    targets = np.roll(ids, -1)
    return ids, targets


class TestModules:
    def test_linear_shapes_and_grad(self):
        lin = Linear(4, 6, RNG)
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        out = lin(x)
        assert out.shape == (3, 6)
        out.sum().backward()
        assert lin.weight.grad.shape == (6, 4)

    def test_rmsnorm_unit_scale(self):
        norm = RMSNorm(8)
        x = Tensor(RNG.normal(size=(5, 8)) * 10)
        out = norm(x)
        rms = np.sqrt((out.data**2).mean(-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_swiglu_forward(self):
        ffn = SwiGLU(8, 16, RNG)
        x = Tensor(RNG.normal(size=(4, 8)))
        assert ffn(x).shape == (4, 8)

    def test_attention_head_split_invalid(self):
        with pytest.raises(ValueError):
            CausalSelfAttention(10, 3, RNG)

    def test_attention_is_causal(self):
        """Changing a future token must not affect earlier outputs."""
        attn = CausalSelfAttention(8, 2, RNG, block_size=8)
        x1 = RNG.normal(size=(6, 8))
        x2 = x1.copy()
        x2[5] += 1.0
        o1 = attn(Tensor(x1)).data
        o2 = attn(Tensor(x2)).data
        np.testing.assert_allclose(o1[:5], o2[:5], rtol=1e-12)
        assert not np.allclose(o1[5], o2[5])

    def test_attention_sparse_mask(self):
        attn = CausalSelfAttention(8, 2, RNG, mask=SlidingWindowMask(2), block_size=8)
        x = RNG.normal(size=(8, 8))
        x2 = x.copy()
        x2[0] += 5.0  # outside window of the last token
        o1 = attn(Tensor(x)).data
        o2 = attn(Tensor(x2)).data
        np.testing.assert_allclose(o1[-1], o2[-1], rtol=1e-12)

    def test_named_parameters_coverage(self):
        model = TransformerLM(small_config())
        names = dict(model.named_parameters())
        assert any("blocks.0.attn.wq" in n for n in names)
        assert any("tok_emb" in n for n in names)
        assert model.num_parameters() == sum(p.size for p in names.values())


class TestCheckpointMechanics:
    def test_checkpoint_matches_plain(self):
        lin = Linear(6, 6, RNG)

        def body(x):
            return ops.silu(lin(x)).sum()

        x_np = RNG.normal(size=(4, 6))
        x1 = Tensor(x_np, requires_grad=True)
        body(x1).backward()
        g_plain = (x1.grad.copy(), lin.weight.grad.copy())

        lin.zero_grad()
        x2 = Tensor(x_np, requires_grad=True)
        checkpoint(body, x2).backward()
        np.testing.assert_allclose(x2.grad, g_plain[0], rtol=1e-12)
        np.testing.assert_allclose(lin.weight.grad, g_plain[1], rtol=1e-12)

    def test_checkpoint_saves_less_memory(self):
        lin = Linear(32, 32, RNG)

        def body(x):
            return ops.silu(lin(ops.silu(lin(x))))

        x_np = RNG.normal(size=(64, 32))
        reset_tracker()
        y = body(Tensor(x_np, requires_grad=True))
        peak_plain = get_tracker().peak_saved_bytes

        reset_tracker()
        y = checkpoint(body, Tensor(x_np, requires_grad=True))
        peak_ckpt = get_tracker().peak_saved_bytes
        assert peak_ckpt < peak_plain

    def test_a_replay_counts_its_input_once(self):
        """The replayed node saves the very array the ``Checkpoint`` node
        holds, so the tracker's backward peak counts its bytes once."""
        from repro.nn.function import Function

        class Scale(Function):
            def forward(self, x):
                self.save_for_backward(x)
                return 2.0 * x

            def backward(self, g):
                (x,) = self.saved
                return np.full_like(x, 2.0) * g

        x = Tensor(RNG.normal(size=(64, 32)), requires_grad=True)
        reset_tracker()
        checkpoint(Scale.apply, x).sum().backward()
        assert get_tracker().peak_saved_bytes == x.data.nbytes
        np.testing.assert_array_equal(x.grad, np.full((64, 32), 2.0))


POLICIES = {
    "none": CheckpointPolicy(CheckpointMode.NONE),
    "full": CheckpointPolicy(CheckpointMode.FULL),
    "selective_pp": CheckpointPolicy(CheckpointMode.SELECTIVE_PP),
    "sequence_level": CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.5),
}


class TestCheckpointPolicies:
    def _run(self, policy: CheckpointPolicy):
        reset_tracker()
        model = TransformerLM(small_config(checkpoint=policy))
        ids, targets = batch()
        loss = model(ids, targets)
        fwd_peak = get_tracker().peak_saved_bytes
        loss.backward()
        grads = {n: p.grad.copy() for n, p in model.named_parameters()}
        stats = get_tracker()
        return loss.item(), grads, fwd_peak, stats.recompute_flops

    def test_all_policies_identical_loss_and_grads(self):
        ref_loss, ref_grads, _, _ = self._run(POLICIES["none"])
        for name, policy in POLICIES.items():
            if name == "none":
                continue
            loss, grads, _, _ = self._run(policy)
            assert loss == pytest.approx(ref_loss, rel=1e-12), name
            for pname, g in ref_grads.items():
                np.testing.assert_allclose(
                    grads[pname], g, rtol=1e-9, atol=1e-11,
                    err_msg=f"{name}:{pname}",
                )

    def test_forward_memory_ordering(self):
        """Fig. 7: full < sequence-level < selective++.  ``none`` keeps
        what selective++ keeps — ``x`` and every row of ``(O, lse)``: the
        block's node rebuilds everything else under any policy — so the
        two peak alike here (the analytic model prices the paper's
        ``none``)."""
        peaks = {n: self._run(p)[2] for n, p in POLICIES.items()}
        assert peaks["full"] < peaks["sequence_level"]
        assert peaks["sequence_level"] < peaks["selective_pp"]
        assert peaks["selective_pp"] == peaks["none"]

    def test_sequence_level_stores_half_of_selective(self):
        """The whitelisted bytes of sequence-level (0.5 split) are half of
        selective++'s, so the *difference* over full checkpointing halves."""
        full = self._run(POLICIES["full"])[2]
        spp = self._run(POLICIES["selective_pp"])[2]
        seq = self._run(POLICIES["sequence_level"])[2]
        assert (seq - full) == pytest.approx((spp - full) / 2, rel=0.05)

    def test_recompute_flops_ordering(self):
        """selective++ skips attention recompute; sequence-level pays ~25%
        of full's attention recompute (causal, 0.5 split)."""
        flops = {n: self._run(p)[3] for n, p in POLICIES.items()}
        assert flops["none"] == 0
        assert flops["selective_pp"] == 0
        assert 0 < flops["sequence_level"] < flops["full"]
        # causal: front half of queries covers ~25% of allowed pairs
        ratio = flops["sequence_level"] / flops["full"]
        assert 0.15 < ratio < 0.35


class TestEndToEndTraining:
    @pytest.mark.parametrize("head_impl", ["naive", "tiled-recompute", "fused"])
    def test_loss_decreases(self, head_impl):
        model = TransformerLM(small_config(head_impl=head_impl))
        opt = Adam(model.parameters(), lr=3e-3)
        ids, targets = batch(s=24)
        losses = []
        for _ in range(30):
            opt.zero_grad()
            loss = model(ids, targets)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.7

    def test_training_with_checkpointing_matches_without(self):
        ids, targets = batch(s=16)
        results = []
        for policy in (POLICIES["none"], POLICIES["sequence_level"]):
            model = TransformerLM(small_config(checkpoint=policy))
            opt = SGD(model.parameters(), lr=1e-2)
            for _ in range(5):
                opt.zero_grad()
                loss = model(ids, targets)
                loss.backward()
                opt.step()
            results.append(loss.item())
        assert results[0] == pytest.approx(results[1], rel=1e-10)

    def test_adamw_decays_weights(self):
        p = Tensor(np.ones(4), requires_grad=True)
        p.grad = np.zeros(4)
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.step()
        assert (p.data < 1.0).all()

    def test_optimizer_state_bytes(self):
        model = TransformerLM(small_config())
        opt = Adam(model.parameters())
        # m and v: 2x parameter bytes
        assert opt.state_bytes() == 2 * sum(p.nbytes for p in model.parameters())

    def test_logits_path_matches_loss_path(self):
        """model.forward loss == CE computed from model.logits."""
        model = TransformerLM(small_config())
        ids, targets = batch(s=16)
        loss = model(ids, targets).item()
        logits = model.logits(ids).data
        lse = np.log(np.exp(logits - logits.max(-1, keepdims=True)).sum(-1)) + logits.max(-1)
        manual = (lse - logits[np.arange(len(ids)), targets]).mean()
        assert loss == pytest.approx(manual, rel=1e-10)

    def test_too_long_sequence_rejected(self):
        model = TransformerLM(small_config(max_seq_len=8))
        ids, targets = batch(s=16)
        with pytest.raises(ValueError):
            model(ids, targets)

    def test_unknown_head_impl_rejected_on_construction(self):
        """A misspelt head fails where the config is made, naming the
        choices, not as a ``KeyError`` at the first training forward."""
        with pytest.raises(ValueError, match="'fsued'.*fused.*vocab-parallel"):
            small_config(head_impl="fsued")

"""Per-layer mask schedules and ZeRO-stage memory refinement."""

import numpy as np
import pytest

from repro.engine import BurstEngine, EngineConfig
from repro.masks import CausalMask, SlidingWindowMask
from repro.models import LLAMA_7B, LLAMA_14B
from repro.nn import Adam, CheckpointPolicy, TransformerConfig, TransformerLM
from repro.nn.checkpoint import CheckpointMode
from repro.perf import EndToEndModel
from repro.perf.memory import MemoryModel, TrainingSetup
from repro.topology import a800_node, make_cluster


RNG = np.random.default_rng(61)


def layered_cfg(**kw):
    base = dict(
        vocab_size=32, dim=16, n_layers=4, n_heads=2, ffn_hidden=24,
        max_seq_len=32, attn_block_size=16, seed=8,
        layer_masks=[SlidingWindowMask(8), CausalMask(),
                     SlidingWindowMask(8), CausalMask()],
    )
    base.update(kw)
    return TransformerConfig(**base)


class TestLayerMaskSchedule:
    def test_masks_assigned_per_layer(self):
        model = TransformerLM(layered_cfg())
        kinds = [type(b.attn.mask).__name__ for b in model.blocks]
        assert kinds == ["SlidingWindowMask", "CausalMask",
                        "SlidingWindowMask", "CausalMask"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="layer_masks"):
            TransformerLM(layered_cfg(n_layers=3))

    def test_alternating_model_trains(self):
        model = TransformerLM(layered_cfg())
        opt = Adam(model.parameters(), lr=3e-3)
        ids = RNG.integers(0, 32, size=24)
        targets = np.roll(ids, -1)
        losses = []
        for _ in range(12):
            opt.zero_grad()
            loss = model(ids, targets)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_distributed_layered_matches_local(self):
        ids = RNG.integers(0, 32, size=32)
        targets = np.roll(ids, -1)
        ckpt = CheckpointPolicy(CheckpointMode.NONE)
        local = TransformerLM(layered_cfg(checkpoint=ckpt))
        loss_ref = local(ids, targets)
        loss_ref.backward()
        ref = {n: p.grad.copy() for n, p in local.named_parameters()}

        engine = BurstEngine(
            EngineConfig(model=layered_cfg(), checkpoint=ckpt, fsdp=False),
            topology=make_cluster(4, node=a800_node(gpus_per_node=4)),
        )
        loss = engine.model(ids, targets)
        loss.backward()
        assert loss.item() == pytest.approx(loss_ref.item(), rel=1e-10)
        for name, p in engine.model.named_parameters():
            np.testing.assert_allclose(p.grad, ref[name], rtol=1e-8,
                                       atol=1e-10, err_msg=name)

    def test_window_layers_attend_locally_only(self):
        """Changing a token outside every window must not affect a model
        whose layers are all sliding-window... within one layer's reach."""
        cfg = layered_cfg(
            n_layers=1, layer_masks=[SlidingWindowMask(4)], max_seq_len=32,
        )
        model = TransformerLM(cfg)
        ids = RNG.integers(0, 32, size=16)
        base = model.logits(ids).data[-1].copy()
        ids2 = ids.copy()
        ids2[0] = (ids2[0] + 1) % 32  # 15 positions away, window is 4
        np.testing.assert_allclose(model.logits(ids2).data[-1], base,
                                   rtol=1e-12)


class TestZeroStages:
    def _bd(self, stage, offload=False):
        return MemoryModel().breakdown(TrainingSetup(
            EngineConfig(model=LLAMA_7B), make_cluster(32), 262144,
            zero_stage=stage, optimizer_offload=offload,
        ))

    def test_stage_progression_monotone(self):
        totals = [self._bd(s).total for s in (0, 1, 2, 3)]
        assert totals == sorted(totals, reverse=True)

    def test_stage_semantics(self):
        s0, s1, s2, s3 = (self._bd(s) for s in (0, 1, 2, 3))
        # stage 1 shards only optimizer
        assert s1.optimizer == pytest.approx(s0.optimizer / 32)
        assert s1.params == s0.params and s1.grads == s0.grads
        # stage 2 also shards grads
        assert s2.grads == pytest.approx(s0.grads / 32)
        assert s2.params == s0.params
        # stage 3 shards everything
        assert s3.params == pytest.approx(s0.params / 32)

    def test_default_derivation_from_fsdp(self):
        mm = MemoryModel()
        topo = make_cluster(8)
        fsdp = mm.breakdown(TrainingSetup(
            EngineConfig(model=LLAMA_7B, fsdp=True), topo, 65536))
        stage3 = mm.breakdown(TrainingSetup(
            EngineConfig(model=LLAMA_7B, fsdp=False), topo, 65536,
            zero_stage=3))
        assert fsdp.total == stage3.total

    def test_invalid_stage(self):
        with pytest.raises(ValueError, match="zero_stage must be 0..3"):
            TrainingSetup(EngineConfig(model=LLAMA_7B), make_cluster(32), 262144,
                          zero_stage=4)

    def test_one_stage_shards_memory_and_time(self):
        """A ``zero_stage`` beside ``fsdp=False`` is the stage the time model
        reads too: the optimizer step shards 32-way with the states and the
        layers gather, so the step prices as the FSDP config's does."""
        topo = make_cluster(32)
        stage3, fsdp = (EndToEndModel().step(TrainingSetup(
            EngineConfig(model=LLAMA_14B, fsdp=fsdp), topo, 1 << 20, zero_stage=stage))
            for fsdp, stage in ((False, 3), (True, None)))
        assert stage3.breakdown["optimizer"] == pytest.approx(0.00256, rel=1e-3)
        assert stage3.step_time == fsdp.step_time
        assert stage3.memory.total == fsdp.memory.total

    def test_stage1_alone_insufficient_for_megatron_case(self):
        """Even ZeRO-1 leaves replicated 14B bf16 params+grads at ~56 GB —
        tight but no longer the 250 GB catastrophe; the paper's Megatron
        setup (stage 0) is the one that OOMs on states alone."""
        config, topo = EngineConfig(model=LLAMA_14B), make_cluster(32)
        s0 = MemoryModel().breakdown(
            TrainingSetup(config, topo, 1 << 20, zero_stage=0))
        s1 = MemoryModel().breakdown(
            TrainingSetup(config, topo, 1 << 20, zero_stage=1))
        assert s0.params + s0.grads + s0.optimizer > 200e9
        assert s1.optimizer < 6e9

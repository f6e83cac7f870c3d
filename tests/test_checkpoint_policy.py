"""Checkpoint policies: one recomputed-front fraction per policy, and pins
for the analytic, byte-exact and time models that read it.

Every pinned value is exact (``float.hex`` for floats): the models'
per-policy arithmetic may be restructured, never changed.
"""

from dataclasses import fields

import pytest

from repro.engine import EngineConfig
from repro.models import LLAMA_7B
from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy
from repro.perf import MemoryModel, TrainingSetup
from repro.perf.memory import (
    predict_checkpoint_policy_curve,
    predict_step_peak_saved_bytes,
)
from repro.perf.schedules.end_to_end import EndToEndModel
from repro.topology import make_cluster


POLICIES = ("none", "full", "selective_pp", "sequence_level")


def setup_7b(policy: str, world: int, seq_len: int, split: float = 0.5):
    """LLAMA_7B under ``policy`` (burst, FSDP, fused head) on ``world``
    GPUs at ``seq_len`` tokens."""
    config = EngineConfig(model=LLAMA_7B,
                          checkpoint=CheckpointPolicy.parse(policy, split))
    return TrainingSetup(config, make_cluster(world), seq_len)

#: (split, policy) -> (activation_bytes, breakdown["recompute"], step_time)
#: for LLAMA_7B at 64 K tokens on one 8-GPU node.
ANALYTIC_PINS = {
    (0.25, "none"): ("0x1.1000000000000p+35", "0x0.0p+0", "0x1.15e20573b6cf8p+2"),
    (0.25, "full"): ("0x1.0000000000000p+31", "0x1.4d08e1847cf68p+0", "0x1.69243dd4d60d2p+2"),
    (0.25, "selective_pp"): ("0x1.0000000000000p+32", "0x1.0bdf855d31488p-1", "0x1.375df61f5cf89p+2"),
    (0.25, "sequence_level"): ("0x1.c000000000000p+31", "0x1.24c2a937edd2cp-1", "0x1.3a7a5a9ab489ep+2"),
    (0.5, "none"): ("0x1.1000000000000p+35", "0x0.0p+0", "0x1.15e20573b6cf8p+2"),
    (0.5, "full"): ("0x1.0000000000000p+31", "0x1.4d08e1847cf68p+0", "0x1.69243dd4d60d2p+2"),
    (0.5, "selective_pp"): ("0x1.0000000000000p+32", "0x1.0bdf855d31488p-1", "0x1.375df61f5cf89p+2"),
    (0.5, "sequence_level"): ("0x1.8000000000000p+31", "0x1.6f6c14c82371ap-1", "0x1.43cf880cbb3dbp+2"),
    (0.75, "none"): ("0x1.1000000000000p+35", "0x0.0p+0", "0x1.15e20573b6cf8p+2"),
    (0.75, "full"): ("0x1.0000000000000p+31", "0x1.4d08e1847cf68p+0", "0x1.69243dd4d60d2p+2"),
    (0.75, "selective_pp"): ("0x1.0000000000000p+32", "0x1.0bdf855d31488p-1", "0x1.375df61f5cf89p+2"),
    (0.75, "sequence_level"): ("0x1.4000000000000p+31", "0x1.ebdbc80dd2250p-1", "0x1.535d7e7571142p+2"),
}

#: policy -> (breakdown["fsdp_exposed"], step_time) for LLAMA_7B at 4 K
#: tokens on 32 GPUs, where the FSDP gathers outlast a layer's compute:
#: ``none`` prices two gather passes, every replaying policy three.  The
#: step time is the gathers'; the exposed share is what the layer's
#: compute leaves of them, and that compute includes the burst backward's
#: return hop, which crosses nodes (its slowest pair).
FSDP_BOUND_PINS = {
    "none": ("0x1.f5f91d5376c3ap+0", "0x1.043ccb8eef0b7p+1"),
    "full": ("0x1.79b6e89c1811fp+1", "0x1.863ec179ec96cp+1"),
    "selective_pp": ("0x1.7bf2a50f5bbbep+1", "0x1.863ec179ec96cp+1"),
    "sequence_level": ("0x1.7b63b5f28ad16p+1", "0x1.863ec179ec96cp+1"),
}

#: (split, rebuilds_context) -> byte-exact step peaks at seq 66 (an odd
#: quarter, so ``round`` is exercised), dim 32, 2 layers, 4 heads.  Every
#: layer is one node that keeps ``x`` and the policy's back rows of
#: ``(O, lse)`` — every row under ``none`` and ``selective_pp``, so the two
#: peak alike — and registers the rows it rebuilds while its backward runs;
#: no weights (parameters, held by reference) and no norm row, ``q``,
#: ``k``, ``v``, ``h`` or FFN intermediate (rebuilt).  Without a context
#: rebuild a layer keeps ``O`` and its head-layout context ``q``, ``k``,
#: ``v``, ``lse`` under ``none`` and only ``x`` under every other policy,
#: whose backward rebuilds the whole forward (the deepest backward binds).
CURVE_PINS = {
    (0.25, True): {"none": 138896, "full": 100880,
                   "selective_pp": 138896, "sequence_level": 129680},
    (0.25, False): {"none": 240272, "full": 103488,
                    "selective_pp": 103488, "sequence_level": 103488},
    (0.5, True): {"none": 138896, "full": 100880,
                  "selective_pp": 138896, "sequence_level": 119888},
    (0.5, False): {"none": 240272, "full": 103488,
                   "selective_pp": 103488, "sequence_level": 103488},
}


class TestModelsArePinned:
    @pytest.mark.parametrize("split", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_activation_bytes_and_step_time(self, policy, split):
        act, recompute, step_time = ANALYTIC_PINS[(split, policy)]
        setup = setup_7b(policy, 8, 65536, split)
        assert MemoryModel().activation_bytes(setup).hex() == act
        res = EndToEndModel().step(setup)
        assert res.breakdown["recompute"].hex() == recompute
        assert res.step_time.hex() == step_time

    @pytest.mark.parametrize("policy", POLICIES)
    def test_fsdp_gather_passes(self, policy):
        exposed, step_time = FSDP_BOUND_PINS[policy]
        res = EndToEndModel().step(setup_7b(policy, 32, 4096))
        assert res.breakdown["fsdp_exposed"].hex() == exposed
        assert res.step_time.hex() == step_time

    @pytest.mark.parametrize("rebuilds_context", [True, False])
    @pytest.mark.parametrize("split", [0.25, 0.5])
    def test_byte_exact_policy_curve(self, split, rebuilds_context):
        curve = predict_checkpoint_policy_curve(
            seq_len=66, dim=32, n_layers=2, n_heads=4, ffn_hidden=64,
            vocab=128, split_fraction=split, rebuilds_context=rebuilds_context,
        )
        assert curve == CURVE_PINS[(split, rebuilds_context)]


class TestOnePolicyOneFraction:
    def test_every_policy_is_a_recomputed_front(self):
        fronts = {
            "none": None, "full": 1.0, "selective_pp": 0.0,
            "sequence_level": 0.25,
        }
        for name, c in fronts.items():
            policy = CheckpointPolicy.parse(name, 0.25)
            assert policy.recomputed_front == c
            assert policy.replays is (c is not None)

    def test_cached_rows_are_the_back_of_the_sequence(self):
        rows = {
            "none": 66, "full": 0, "selective_pp": 66,
            "sequence_level": 66 - round(66 * 0.25),
        }
        for name, n in rows.items():
            assert CheckpointPolicy.parse(name, 0.25).cached_rows(66) == n


SMALL = dict(seq_len=64, dim=32, n_layers=2, n_heads=4, ffn_hidden=64,
             vocab=128)


class TestInvalidPoliciesRaiseWhereTheyEnter:
    """A misspelt policy or an out-of-range split used to be priced: the
    byte-exact model fell through to ``full``'s cache, and the analytic
    and time models accepted ``split_fraction=1.5`` (a stored factor below
    ``full``'s)."""

    def test_byte_exact_model_rejects_a_typo(self):
        with pytest.raises(ValueError):
            predict_step_peak_saved_bytes(checkpoint="selctive_pp", **SMALL)

    @pytest.mark.parametrize("kw", [
        dict(mode="selctive_pp"),
        dict(mode="sequence_level", split_fraction=1.5),
    ], ids=["typo", "split"])
    def test_a_policy_rejects_on_construction(self, kw):
        """The pricing reads the policy the engine runs, so a bad one
        fails where it is made, before any setup holds it."""
        with pytest.raises(ValueError):
            CheckpointPolicy.parse(kw.pop("mode"), **kw)

    @pytest.mark.parametrize("head_impl", ["vocab-parallel", "tiled"])
    def test_training_setup_rejects_on_construction(self, head_impl):
        """A head the models do not price (or the pre-engine spelling of
        ``tiled-recompute``) is a ``ValueError`` when the setup is made,
        not a ``KeyError`` mid-pricing."""
        config = EngineConfig(model=LLAMA_7B, head_impl=head_impl)
        with pytest.raises(ValueError, match="not priced"):
            TrainingSetup(config, make_cluster(8), 65536)

    def test_setup_resolves_its_policy_once(self):
        """The one policy is the config's: the setup keeps no checkpoint
        field of its own, and the models read ``config.checkpoint``."""
        names = {f.name for f in fields(TrainingSetup)}
        assert not names & {"checkpoint", "split_fraction", "policy"}
        quarter = CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.25)
        setup = setup_7b("sequence_level", 8, 65536, 0.25)
        assert setup.config.checkpoint == quarter
        assert setup == setup_7b("sequence_level", 8, 65536, 0.25)

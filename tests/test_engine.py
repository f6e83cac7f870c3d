"""End-to-end engine tests: distributed training equals single-device
training, every method trains, ablation flags behave, FSDP accounting."""

from dataclasses import replace

import numpy as np
import pytest

from repro.comm import SimCommunicator
from repro.engine import BurstEngine, EngineConfig, fsdp_step_traffic
from repro.kernels import counters
from repro.masks import ALiBiMask, CausalMask
from repro.nn import CheckpointPolicy, TransformerConfig, TransformerLM, Adam
from repro.nn.checkpoint import CheckpointMode
from repro.obs.metrics import get_registry
from repro.topology import a800_node, make_cluster


def model_cfg(**overrides) -> TransformerConfig:
    base = dict(
        vocab_size=61, dim=16, n_layers=2, n_heads=4, ffn_hidden=24,
        max_seq_len=64, attn_block_size=16, seed=5,
    )
    base.update(overrides)
    return TransformerConfig(**base)


def batch(s=32, vocab=61, seed=2):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, size=s)
    return ids, np.roll(ids, -1)


TOPO = make_cluster(8, node=a800_node(gpus_per_node=4))


class TestDistributedEqualsLocal:
    @pytest.mark.parametrize(
        "method,kwargs",
        [
            ("megatron-cp", {}),
            ("loongtrain-double", {}),
            ("burst", {}),
            ("ulysses", {}),
            ("usp", {"ulysses_degree": 2}),
        ],
        ids=lambda m: m if isinstance(m, str) else "",
    )
    def test_loss_and_grads_match_single_device(self, method, kwargs):
        ids, targets = batch(s=32)
        ckpt = CheckpointPolicy(CheckpointMode.NONE)
        heads = 8 if method == "ulysses" else 4  # Ulysses needs H % G == 0

        local = TransformerLM(model_cfg(checkpoint=ckpt, n_heads=heads))
        loss_local = local(ids, targets)
        loss_local.backward()
        local_grads = {n: p.grad.copy() for n, p in local.named_parameters()}

        engine = BurstEngine(
            EngineConfig(
                model=model_cfg(n_heads=heads), method=method,
                method_kwargs=kwargs, checkpoint=ckpt, fsdp=False,
            ),
            topology=TOPO,
        )
        loss_dist = engine.model(ids, targets)
        loss_dist.backward()

        assert loss_dist.item() == pytest.approx(loss_local.item(), rel=1e-10)
        for name, p in engine.model.named_parameters():
            np.testing.assert_allclose(
                p.grad, local_grads[name], rtol=1e-8, atol=1e-10,
                err_msg=f"{method}:{name}",
            )

    def test_distributed_training_with_all_optimizations(self):
        """Full BurstEngine (Alg.2 + topo ring + fused head + seq ckpt)
        trains to the same loss as the plain single-device model."""
        ids, targets = batch(s=32)
        local = TransformerLM(model_cfg())
        opt = Adam(local.parameters(), lr=1e-3)
        for _ in range(4):
            opt.zero_grad()
            ref_loss = local(ids, targets)
            ref_loss.backward()
            opt.step()

        engine = BurstEngine(EngineConfig(model=model_cfg()), topology=TOPO)
        losses = engine.train(ids, targets, steps=4)
        assert losses[-1] == pytest.approx(ref_loss.item(), rel=1e-9)

    def test_loss_decreases_under_training(self):
        ids, targets = batch(s=32)
        engine = BurstEngine(EngineConfig(model=model_cfg(), lr=3e-3), topology=TOPO)
        losses = engine.train(ids, targets, steps=15)
        assert losses[-1] < losses[0] * 0.8


@pytest.mark.parametrize("block", [-8, 0])
class TestNonPositiveTileEdgeRejected:
    """A tile edge below 1 fails at construction, before it can build a
    plan with no blocks (a silently wrong loss) or fail mid-step (0)."""

    def test_single_device_model(self, block):
        with pytest.raises(ValueError, match="block_size"):
            TransformerLM(model_cfg(attn_block_size=block))

    def test_engine_method_block_size(self, block):
        config = EngineConfig(
            model=model_cfg(attn_block_size=None),
            method_kwargs={"block_size": block},
        )
        with pytest.raises(ValueError, match="block_size"):
            BurstEngine(config, topology=TOPO)


@pytest.mark.parametrize(
    "mask", [CausalMask(), ALiBiMask(4)], ids=["causal", "alibi"]
)
class TestMaskReachesEveryKernelCall:
    """The sharded ring, the sequence-level front recompute and the
    irregular-length local fallback all see the same pattern, additive
    bias included."""

    TOPO4 = make_cluster(4, node=a800_node(gpus_per_node=4))

    def test_checkpoint_policies_agree(self, mask):
        ids, targets = batch(s=64)
        losses = {}
        for policy in (
            CheckpointPolicy(CheckpointMode.NONE),
            CheckpointPolicy(CheckpointMode.FULL),
            CheckpointPolicy(CheckpointMode.SELECTIVE_PP),
            CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.5),
        ):
            engine = BurstEngine(
                EngineConfig(model=model_cfg(mask=mask), checkpoint=policy),
                topology=self.TOPO4,
            )
            losses[policy.mode] = [
                engine.train_step(ids, targets).loss for _ in range(3)
            ]
        for mode, got in losses.items():
            np.testing.assert_allclose(
                got, losses[CheckpointMode.NONE], rtol=0, atol=1e-12,
                err_msg=mode.name,
            )

    def test_irregular_length_matches_single_rank(self, mask):
        ids, _ = batch(s=30)  # 30 % 4 != 0: the local-kernel fallback
        hidden = [
            BurstEngine(
                EngineConfig(model=model_cfg(mask=mask)),
                topology=make_cluster(g, node=a800_node(gpus_per_node=g)),
            ).model.hidden_states(ids).data
            for g in (4, 1)
        ]
        assert np.abs(hidden[0] - hidden[1]).max() <= 1e-12


class TestTilePlansBuiltOnce:
    """The memo without the retile: on the step benchmark's four workloads
    (smoke lengths) at an explicit ``block_size=128``, a step over
    memoised plans is bit-for-bit a step that builds them, and
    both do exactly the tile work and the traffic the pre-memo engine did
    (integers recorded from the parent commit of the PR that added the
    memo; its ``float.hex`` losses and gradients were compared equal
    there too, see CHANGES.md)."""

    #: name -> (TrafficLog records, their bytes, computed_partial,
    #: computed_full, skipped_empty, computed_pairs) of one train_step.
    PARENT = {
        "burst_long": (408, 29807104, 258, 0, 2, 294912),
        "wide_short": (30, 160290816, 36, 0, 0, 163840),
        "ulysses_full": (840, 22131200, 96, 48, 48, 2359296),
        "swa_bidir": (456, 29217280, 258, 0, 2, 294912),
    }

    @pytest.mark.parametrize("name", sorted(PARENT))
    def test_memo_hit_is_bitwise_a_fresh_build(self, name):
        from benchmarks.step.workloads import WORKLOADS, make_batch

        spec = WORKLOADS[name]
        config = spec.config(spec.smoke_seq_len)
        # One mask instance for both engines, so the second meets the
        # first's plans; the tile every call used before it was derived.
        mask = config.model.mask or CausalMask()
        config = replace(
            config, model=replace(config.model, mask=mask),
            method_kwargs={**config.method_kwargs, "block_size": 128},
        )
        topo = spec.topology()
        ids, targets = make_batch(config, seed=7)
        steps = []
        for _ in range(2):  # the first engine builds, the second only hits
            engine = BurstEngine(config, topology=topo)
            counters.reset()
            loss = engine.train_step(ids, targets).loss
            steps.append((
                float(loss).hex(),
                [p.grad.tobytes() for p in engine.model.parameters()],
                list(engine.comm.log.records),
                counters.snapshot(),
                dict(mask._tile_plans.plans),
            ))
        cold, warm = steps
        assert cold[0] == warm[0]
        assert cold[1] == warm[1]
        assert cold[2] == warm[2]
        assert cold[3] == warm[3]
        assert list(cold[4].items()) == list(warm[4].items())  # same objects
        tiles = warm[3]
        assert (
            len(warm[2]), sum(r.nbytes for r in warm[2]),
            tiles["computed_partial"], tiles["computed_full"],
            tiles["skipped_empty"], tiles["computed_pairs"],
        ) == self.PARENT[name]


class TestKeyRunCounters:
    """``key_runs`` / ``run_pairs`` say what the kernels executed, next to
    the tile fields that say what the plans classified: a run is one or
    more computed sub-tiles, and column trimming puts the pairs it forms
    between the mask's allowed pairs and the computed sub-tiles' pairs."""

    #: name -> (key_runs, tiles computed, run_pairs, computed_pairs) of one
    #: smoke-length train_step at the derived tile.
    WANT = {
        "burst_long": (262, 262, 283136, 286720),
        "wide_short": (36, 36, 146944, 163840),
        "ulysses_full": (144, 144, 2359296, 2359296),
        "swa_bidir": (260, 262, 278016, 286720),
    }

    @pytest.mark.parametrize("name", sorted(WANT))
    def test_runs_and_pairs_of_a_smoke_step(self, name):
        from benchmarks.step.workloads import WORKLOADS, make_batch

        spec = WORKLOADS[name]
        config = spec.config(spec.smoke_seq_len)
        mask = config.model.mask or CausalMask()
        config = replace(config, model=replace(config.model, mask=mask))
        engine = BurstEngine(config, topology=spec.topology())
        ids, targets = make_batch(config, seed=7)
        counters.reset()
        engine.train_step(ids, targets)
        tiles = counters.snapshot()
        assert (
            tiles["key_runs"], tiles["tiles_computed"],
            tiles["run_pairs"], tiles["computed_pairs"],
        ) == self.WANT[name]
        assert tiles["key_runs"] <= tiles["tiles_computed"]
        assert tiles["run_pairs"] <= tiles["computed_pairs"]
        registry = get_registry().snapshot()
        assert registry["tileplan.key_runs"] == tiles["key_runs"]
        assert registry["tileplan.run_pairs"] == tiles["run_pairs"]
        mergeable = False
        for plan in mask._tile_plans.plans.values():
            full, partial, _, computed_pairs, _, runs, run_pairs = plan._tally
            allowed = int(mask.block(plan.q_idx, plan.k_idx).sum())
            assert plan.allowed_pairs == allowed
            assert allowed <= run_pairs <= computed_pairs
            assert runs <= full + partial
            adjacent = (
                (plan.states[:, 1:] == plan.states[:, :-1])
                & (plan.states[:, 1:] != 0)
            ).any()
            mergeable |= bool(adjacent)
            if not adjacent:
                assert runs == full + partial
        # Equality exactly where no plan has two adjacent same-class tiles.
        assert (tiles["key_runs"] < tiles["tiles_computed"]) == mergeable


def _smoke_engine(name):
    """A step-benchmark workload at its smoke length, stepped once so
    every memo (plans, layouts, allowed pairs) is warm."""
    from benchmarks.step.workloads import WORKLOADS, make_batch

    spec = WORKLOADS[name]
    config = spec.config(spec.smoke_seq_len)
    engine = BurstEngine(config, topology=spec.topology())
    ids, targets = make_batch(config, seed=7)
    engine.train_step(ids, targets)
    return engine, ids, targets


SMOKE_WORKLOADS = ["burst_long", "swa_bidir", "ulysses_full", "wide_short"]


@pytest.mark.parametrize("name", SMOKE_WORKLOADS)
def test_train_step_leaves_nothing_to_the_cyclic_gc(name):
    """Every object a step creates dies by reference count — a delivered
    bundle pinned by a reference cycle (``tree_flatten``'s old recursive
    closure: 3 600 objects per ``burst_long`` step) is host memory that
    grows until a generation-2 collection."""
    import gc

    engine, ids, targets = _smoke_engine(name)
    gc.collect()
    gc.disable()
    try:
        engine.train_step(ids, targets)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", SMOKE_WORKLOADS)
def test_every_forward_call_of_a_step_runs_bounded(name):
    """The workloads' logits sit far inside the flash forward's
    ``EXP_BUDGET``: every kernel call of a step — ring shard pairs,
    whole-sequence Ulysses calls, the sequence-level front, the
    checkpoint replay — runs without a running max, and the registry
    counter says so."""
    from repro.obs import use_tracing

    engine, ids, targets = _smoke_engine(name)
    bounded = get_registry().counter("kernels.flash_fwd_bounded_calls")
    before = bounded.value()
    with use_tracing() as tracer:
        engine.train_step(ids, targets)
    calls = sum(span.name == "flash.fwd" for span in tracer.spans())
    assert calls > 0
    assert bounded.value() - before == calls


@pytest.mark.parametrize("name", SMOKE_WORKLOADS)
def test_train_step_never_forms_a_mask_wider_than_a_tile(name, monkeypatch):
    """No caller — the recompute-FLOP tally included — asks a pattern for
    a boolean tile beyond one tile edge: masks reach the step as plans."""
    from repro.kernels.tileplan import MAX_TILE
    from repro.masks import BlockSparseMask

    seen = []
    for cls in (CausalMask, BlockSparseMask):
        original = cls.block

        def spy(self, q_idx, k_idx, _original=original):
            seen.append(max(len(q_idx), len(k_idx)))
            return _original(self, q_idx, k_idx)

        monkeypatch.setattr(cls, "block", spy)
    # The cold step builds every plan and every count; the warm one only
    # reads them.
    engine, ids, targets = _smoke_engine(name)
    engine.train_step(ids, targets)
    assert seen and max(seen) <= MAX_TILE


class TestEngineAccounting:
    def test_step_result_fields(self):
        ids, targets = batch(s=32)
        engine = BurstEngine(EngineConfig(model=model_cfg()), topology=TOPO)
        res = engine.train_step(ids, targets)
        assert res.step_comm_bytes > 0
        assert res.peak_activation_bytes > 0
        assert res.fsdp is not None and res.fsdp.total_bytes > 0
        assert np.isfinite(res.loss)

    def test_burst_step_moves_fewer_attention_bytes_than_ring(self):
        ids, targets = batch(s=32)
        volumes = {}
        for method in ("megatron-cp", "burst"):
            engine = BurstEngine(
                EngineConfig(model=model_cfg(), method=method, fsdp=False,
                             checkpoint=CheckpointPolicy(CheckpointMode.NONE)),
                topology=TOPO,
            )
            engine.train_step(ids, targets)
            volumes[method] = engine.comm.log.total_elems(phase="attn-bwd")
        assert volumes["burst"] < volumes["megatron-cp"]

    def test_checkpointing_reduces_peak_activation(self):
        ids, targets = batch(s=32)
        peaks = {}
        for name, policy in {
            "none": CheckpointPolicy(CheckpointMode.NONE),
            "seq": CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.5),
            "spp": CheckpointPolicy(CheckpointMode.SELECTIVE_PP),
        }.items():
            engine = BurstEngine(
                EngineConfig(model=model_cfg(), checkpoint=policy, fsdp=False),
                topology=TOPO,
            )
            peaks[name] = engine.train_step(ids, targets).peak_activation_bytes
        assert peaks["seq"] < peaks["spp"] < peaks["none"]

    def test_selective_pp_skips_recompute_comm(self):
        """With selective++ the recompute pass must not redo attention
        communication: attention fwd traffic equals exactly one pass."""
        ids, targets = batch(s=32)
        engine_ckpt = BurstEngine(
            EngineConfig(model=model_cfg(),
                         checkpoint=CheckpointPolicy(CheckpointMode.SELECTIVE_PP),
                         fsdp=False),
            topology=TOPO,
        )
        engine_ckpt.train_step(ids, targets)
        fwd_ckpt = engine_ckpt.comm.log.total_elems(phase="attn-fwd")

        engine_full = BurstEngine(
            EngineConfig(model=model_cfg(),
                         checkpoint=CheckpointPolicy(CheckpointMode.FULL),
                         fsdp=False),
            topology=TOPO,
        )
        engine_full.train_step(ids, targets)
        fwd_full = engine_full.comm.log.total_elems(phase="attn-fwd")
        # full checkpointing re-runs attention (and its ring) once more
        assert fwd_full == 2 * fwd_ckpt

    def test_fsdp_traffic_formula(self):
        t = fsdp_step_traffic(param_bytes=800, world_size=8, gather_passes=2)
        assert t.allgather_bytes == int(2 * (7 / 8) * 800)
        assert t.reduce_scatter_bytes == int((7 / 8) * 800)

    def test_fsdp_single_gpu_is_free(self):
        t = fsdp_step_traffic(param_bytes=800, world_size=1)
        assert t.total_bytes == 0

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="divisible"):
            BurstEngine(
                EngineConfig(model=model_cfg(max_seq_len=30)), topology=TOPO
            )
        with pytest.raises(ValueError, match="infeasible"):
            BurstEngine(
                EngineConfig(model=model_cfg(n_heads=4), method="ulysses"),
                topology=make_cluster(8, node=a800_node(gpus_per_node=8)),
            )

    @pytest.mark.parametrize(
        "model,method,kwargs,message",
        [
            (dict(n_heads=8, n_kv_heads=2), "ulysses", {}, "equal query/KV"),
            (dict(n_kv_heads=2), "usp", {"ulysses_degree": 2}, "equal query/KV"),
            ({}, "usp", {"ulysses_degree": 3}, "world size 8 not divisible"),
            (dict(n_heads=2), "usp", {"ulysses_degree": 4},
             "2 heads not divisible by ulysses degree 4"),
            ({}, "usp", {"ulysses_degree": 0}, "ulysses_degree must be >= 1"),
            ({}, "usp", {"ulysses_degree": -2}, "ulysses_degree must be >= 1"),
            ({}, "selective", {}, "no backward context rebuild"),
        ],
        ids=["ulysses-gqa", "usp-gqa", "usp-world", "usp-heads", "usp-zero",
             "usp-negative", "selective-context"],
    )
    def test_head_parallel_misfit_fails_before_compute(
        self, model, method, kwargs, message
    ):
        """What the head-parallel methods would reject inside the first
        ``train_step`` — after layer 0's norm and projections ran — the
        engine rejects at construction.  ``selective`` failed there with
        an ``AttributeError``: the attention node took its ring context
        for a head-layout one."""
        comm = SimCommunicator(TOPO)
        with pytest.raises(ValueError, match=message):
            BurstEngine(
                EngineConfig(model=model_cfg(**model), method=method,
                             method_kwargs=kwargs),
                comm=comm,
            )
        assert comm.log.records == []

"""Tests for cost formulas, the memory model, end-to-end shapes, and the
tensor- and pipeline-parallel analyses behind ``ext-tp`` / ``ext-pp``.

These encode the *reproduction targets*: the orderings and rough factors
of the paper's evaluation must come out of the models (who wins, where
OOMs happen, how scaling behaves).
"""

import dataclasses
from pathlib import Path

import pytest

from repro.engine import EngineConfig
from repro.models import (
    LLAMA_7B, LLAMA_14B, LLAMA_70B_GQA, PAPER_MODELS, attention_fraction,
    flops_per_token, kv_ratio, n_params,
)
from repro.nn import CheckpointPolicy, TransformerConfig, TransformerLM
from repro.perf import (
    METHOD_DES_FLAGS,
    EndToEndModel,
    MemoryModel,
    TrainingSetup,
    attention_pass_sim,
    attention_pass_time,
    matmul_time,
    summarize_sim,
    table1_comm_times,
)
from repro.perf.cost import attention_step_sizes
from repro.perf.memory import GB, logits_memory_bytes, ulysses_effective_degree
from repro.attention.usp import default_ulysses_degree
from repro.comm.ring import RING_METHODS, RING_MODES
from repro.perf.schedules.attention import (
    AttentionWorkload,
    attention_pass_hops,
)
from repro.perf.schedules.pipeline import (
    gpipe_bubble_fraction,
    in_flight_microbatches,
    pipeline_efficiency,
    pipeline_step_time,
)
from repro.perf.tensor_parallel import tp_layer_comm_bytes, tp_scaling_analysis
from repro.topology import LinkClass, a800_node, make_cluster


TOPO32 = make_cluster(32)
TOPO8 = make_cluster(8)
SEQ_1M = 1 << 20


def cell(model, topology, seq_len, method="burst", checkpoint="full",
         head_impl="fused", fsdp=True, **pricing):
    """One priced cell of ``model`` run by ``method`` on ``topology``."""
    config = EngineConfig(model=model, method=method, fsdp=fsdp,
                          checkpoint=CheckpointPolicy.parse(checkpoint),
                          head_impl=head_impl)
    return TrainingSetup(config, topology, seq_len, **pricing)


def step(*args, **kwargs):
    return EndToEndModel().step(cell(*args, **kwargs))


class TestModelSpecs:
    def test_param_counts_match_names(self):
        assert n_params(LLAMA_7B) == pytest.approx(7e9, rel=0.08)
        assert n_params(LLAMA_14B) == pytest.approx(14e9, rel=0.08)

    def test_70b_gqa_spec(self):
        assert n_params(LLAMA_70B_GQA) == pytest.approx(70e9, rel=0.05)
        assert kv_ratio(LLAMA_70B_GQA) == pytest.approx(1 / 8)
        # GQA narrows the KV projections: fewer params than the MHA twin
        mha_twin = dataclasses.replace(LLAMA_70B_GQA, n_kv_heads=None)
        assert n_params(LLAMA_70B_GQA) < n_params(mha_twin)

    def test_paper_configs_carry_llama_ffn_widths(self):
        """LLaMA's SwiGLU sizing, 8/3 * h rounded up to a multiple of 256
        (7B: LLaMA-1's actual 11 008), is written into each config."""
        for config in (LLAMA_7B, LLAMA_14B):
            assert config.ffn_hidden == -(-int(8 * config.dim / 3) // 256) * 256
        assert LLAMA_7B.ffn_hidden == 11008
        assert PAPER_MODELS["14B"] is LLAMA_14B

    @pytest.mark.parametrize("n_kv_heads", [None, 2], ids=["mha", "gqa"])
    @pytest.mark.parametrize("position_encoding", ["rope", "learned"])
    def test_n_params_counts_the_instantiated_model(
        self, position_encoding, n_kv_heads
    ):
        """The analytic count is what ``TransformerLM`` allocates; learned
        positions add their ``max_seq_len x dim`` table."""
        config = TransformerConfig(
            vocab_size=96, dim=32, n_layers=2, n_heads=4,
            n_kv_heads=n_kv_heads, max_seq_len=128,
            position_encoding=position_encoding,
        )
        model = TransformerLM(config)
        assert n_params(config) == sum(p.data.size for p in model.parameters())
        rope = dataclasses.replace(config, position_encoding="rope")
        positions = 0 if position_encoding == "rope" else 128 * 32
        assert n_params(config) == n_params(rope) + positions

    def test_attention_fraction_grows_with_sequence(self):
        """Fig. 2: attention share grows from minor to dominant."""
        f8k = attention_fraction(LLAMA_7B, 8192)
        f128k = attention_fraction(LLAMA_7B, 131072)
        f1m = attention_fraction(LLAMA_7B, SEQ_1M)
        assert f8k < 0.25
        assert f128k > 0.5       # past 128K attention dominates
        assert f1m > 0.9
        assert f8k < f128k < f1m

    def test_flops_per_token_monotone(self):
        assert flops_per_token(LLAMA_7B, SEQ_1M) > flops_per_token(LLAMA_7B, 8192)


class TestCostFormulas:
    def test_step_sizes_match_algorithms(self):
        sizes = attention_step_sizes(1024, 64, 8, bytes_per_elem=2)
        shard = 1024 / 8
        assert sizes["fwd"] == 2 * shard * 64 * 2
        assert sizes["bwd_alg1"] == 4 * shard * 64 * 2
        assert sizes["bwd_alg2"] == (3 * 64 + 2) * shard * 2

    def test_alg2_payload_is_25pct_smaller(self):
        sizes = attention_step_sizes(SEQ_1M, 5120, 32)
        saving = 1 - sizes["bwd_alg2"] / sizes["bwd_alg1"]
        assert saving == pytest.approx(0.25, abs=0.01)

    def test_table1_ordering(self):
        """burst < double_ring < ring on a multi-node cluster."""
        times = table1_comm_times(TOPO32, SEQ_1M, 5120)
        assert times["burst"] < times["double_ring"] < times["ring"]

    def test_table1_single_node_converges(self):
        """On one node there is no inter-node link to exploit: the gap
        between methods shrinks to the payload difference."""
        times = table1_comm_times(TOPO8, 262144, 5120)
        assert times["burst"] < times["ring"]
        # ring/burst ratio ~ 6/5 payload rounds (plus lockstep effects)
        assert times["ring"] / times["burst"] < 1.5

    def test_matmul_time_validation(self):
        with pytest.raises(ValueError):
            matmul_time(1e9, 0.0)
        with pytest.raises(ValueError):
            matmul_time(1e9, 1e12, efficiency=1.5)


class TestAttentionPassTimes:
    WL = AttentionWorkload(seq_len=SEQ_1M, hidden=5120, n_heads=40)

    def _total(self, method):
        return attention_pass_time(method, TOPO32, self.WL) + attention_pass_time(
            method, TOPO32, self.WL, backward=True
        )

    def test_fig14_ordering(self):
        """Burst fastest; Megatron-CP worst (lockstep inter-gated ring)."""
        t = {m: self._total(m) for m in
             ("burst", "usp", "loongtrain-double", "megatron-cp")}
        assert t["burst"] <= t["usp"]
        assert t["burst"] < t["loongtrain-double"]
        assert t["loongtrain-double"] < t["megatron-cp"]

    def test_fig14_factors(self):
        """Rough factors: USP within ~10% of Burst, Megatron >= 1.15x."""
        t_burst = self._total("burst")
        assert self._total("usp") / t_burst < 1.10
        assert self._total("megatron-cp") / t_burst > 1.15

    def test_backward_slower_than_forward(self):
        for m in ("burst", "megatron-cp"):
            fwd = attention_pass_time(m, TOPO32, self.WL)
            bwd = attention_pass_time(m, TOPO32, self.WL, backward=True)
            assert bwd > fwd

    def test_sparsity_reduces_time(self):
        dense = attention_pass_time("burst", TOPO32, self.WL)
        sparse_wl = AttentionWorkload(
            seq_len=SEQ_1M, hidden=5120, n_heads=40, sparsity=0.1
        )
        assert attention_pass_time("burst", TOPO32, sparse_wl) < dense / 3

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            attention_pass_time("bogus", TOPO32, self.WL)

    def test_gqa_workload_shrinks_kv_payload_not_compute(self):
        mha = AttentionWorkload(seq_len=SEQ_1M, hidden=8192, n_heads=64)
        gqa = AttentionWorkload(seq_len=SEQ_1M, hidden=8192, n_heads=64,
                                kv_ratio=1 / 8)
        from repro.comm.ring import KV_BUNDLE

        assert gqa.bundle_bytes(KV_BUNDLE, 32) == pytest.approx(
            mha.bundle_bytes(KV_BUNDLE, 32) / 8
        )
        assert gqa.fwd_flops_per_gpu(32) == mha.fwd_flops_per_gpu(32)

    def test_burst_adaptive_never_slower(self):
        for ratio in (1.0, 0.5, 1 / 8):
            wl = AttentionWorkload(seq_len=262144, hidden=8192, n_heads=64,
                                   kv_ratio=ratio)
            fixed = attention_pass_time("burst", TOPO32, wl, backward=True)
            adaptive = attention_pass_time("burst-adaptive", TOPO32, wl,
                                           backward=True)
            assert adaptive <= fixed * 1.0001

    @pytest.mark.parametrize("ring_mode", ["unidirectional", "bidirectional"])
    @pytest.mark.parametrize("backward", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("gpus,per_node", [(8, 4), (8, 8), (16, 8), (32, 8)])
    @pytest.mark.parametrize("method", sorted(METHOD_DES_FLAGS))
    def test_pass_time_is_the_one_graphs_makespan(
        self, method, gpus, per_node, backward, ring_mode
    ):
        """Every ring-family pass time is the makespan of the graph the
        predicted trace draws — return hop and gradient drain included."""
        topo = make_cluster(gpus, node=a800_node(gpus_per_node=per_node))
        wl = AttentionWorkload(seq_len=131072, hidden=4096, n_heads=32)
        sim = attention_pass_sim(
            method, topo, wl, backward=backward, ring_mode=ring_mode
        )
        assert summarize_sim(sim)["makespan_s"] == attention_pass_time(
            method, topo, wl, backward=backward, ring_mode=ring_mode
        )
        hops = [t for t in sim.timeline() if t.name.endswith("/return")]
        assert len(hops) == (1 if backward else 0)
        assert all(t.end == sim.makespan for t in hops)

    def test_single_gpu_has_no_comm(self):
        topo1 = make_cluster(1)
        wl = AttentionWorkload(seq_len=32768, hidden=5120, n_heads=40)
        t = attention_pass_time("burst", topo1, wl)
        # pure compute: flops / (peak * eff)
        from repro.perf.schedules.attention import ATTENTION_EFFICIENCY

        expected = wl.fwd_flops_per_gpu(1) / (
            topo1.node.gpu.peak_flops * ATTENTION_EFFICIENCY
        )
        assert t == pytest.approx(expected, rel=1e-9)



#: (method, model, GPUs, seq) -> ``float.hex`` of the (forward, backward)
#: pass times the hand-written Ulysses / USP pricers gave before both
#: became the one pass graph (8 GPUs per node, USP's default degree).
HEAD_PARALLEL_PINS = {
    ("ulysses", "7B", 8, 131072): ("0x1.9a435bf5db794p-4", "0x1.f7ca5de4400b9p-3"),
    ("ulysses", "7B", 8, 1048576): ("0x1.8fb33bdb1d82bp+2", "0x1.f27fac6374b72p+3"),
    ("ulysses", "7B", 8, 2097152): ("0x1.8ef2b247184f2p+4", "0x1.f21f377eea603p+5"),
    ("ulysses", "7B", 16, 131072): ("0x1.e65a92189058ap-5", "0x1.0ef47a6680109p-3"),
    ("ulysses", "7B", 16, 1048576): ("0x1.9931c6f020df5p+1", "0x1.f7415168e31a3p+2"),
    ("ulysses", "7B", 16, 2097152): ("0x1.93b1cff90ddfdp+3", "0x1.f47ff6155b82dp+4"),
    ("ulysses", "7B", 32, 131072): ("0x1.0943f36132a1cp-5", "0x1.1a054ef0eda9ap-4"),
    ("ulysses", "7B", 32, 1048576): ("0x1.9eb1f03c1ac10p+0", "0x1.fa02c5e6de22ap+1"),
    ("ulysses", "7B", 32, 2097152): ("0x1.9671b24a23ee8p+2", "0x1.f5e09729e5960p+3"),
    ("ulysses", "7B", 64, 131072): ("0x1.14750838d175ep-6", "0x1.1fa0990cb942ep-5"),
    ("ulysses", "7B", 64, 1048576): ("0x1.a17332df80feap-1", "0x1.fb641724904d4p+0"),
    ("ulysses", "7B", 64, 2097152): ("0x1.97d1eef209490p+1", "0x1.f6910d73d7c93p+2"),
    ("ulysses", "14B", 8, 131072): ("0x1.0068c9ee509d9p-3", "0x1.3addd2e8fbc02p-2"),
    ("ulysses", "14B", 8, 1048576): ("0x1.f3a000558a1eep+2", "0x1.378fc91f12416p+4"),
    ("ulysses", "14B", 8, 2097152): ("0x1.f2af5c39c7b1cp+4", "0x1.375382078ccfdp+6"),
    ("ulysses", "14B", 16, 131072): ("0x1.2ff250b27df33p-4", "0x1.52ae73b1b1f28p-3"),
    ("ulysses", "14B", 16, 1048576): ("0x1.ff7e065742351p+1", "0x1.3a88c64c5437ep+3"),
    ("ulysses", "14B", 16, 2097152): ("0x1.f89e3762179f3p+3", "0x1.38cff6a80ac3bp+5"),
    ("ulysses", "14B", 32, 131072): ("0x1.4b885affc6c1dp-5", "0x1.608058104ccfcp-4"),
    ("ulysses", "14B", 32, 1048576): ("0x1.032f03d0a9d68p+1", "0x1.3c41a285d7649p+2"),
    ("ulysses", "14B", 32, 2097152): ("0x1.fc0e05b239791p+2", "0x1.39ac582f92a17p+4"),
    ("ulysses", "14B", 64, 131072): ("0x1.59791fd394c27p-6", "0x1.677c2a162f0b2p-5"),
    ("ulysses", "14B", 64, 1048576): ("0x1.04e79b21e2daep+0", "0x1.3d1e5c21f34e2p+1"),
    ("ulysses", "14B", 64, 2097152): ("0x1.fdc63859a4b92p+1", "0x1.3a1a9bd32d253p+3"),
    ("usp", "7B", 8, 131072): ("0x1.9a435bf5db793p-4", "0x1.f7ca5de4400b9p-3"),
    ("usp", "7B", 8, 1048576): ("0x1.8fb33bdb1d82ap+2", "0x1.f27fac6374b72p+3"),
    ("usp", "7B", 8, 2097152): ("0x1.8ef2b247184f2p+4", "0x1.f21f377eea603p+5"),
    ("usp", "7B", 16, 131072): ("0x1.9a4dd8509feafp-5", "0x1.27ef63057c73dp-3"),
    ("usp", "7B", 16, 1048576): ("0x1.8fb365cc88947p+1", "0x1.fd7ee5f6b4b6ap+2"),
    ("usp", "7B", 16, 2097152): ("0x1.8ef2bcc373139p+3", "0x1.f79eb5dfe98c9p+4"),
    ("usp", "7B", 32, 131072): ("0x1.9a62d10628ce5p-6", "0x1.541560a2fb0f3p-4"),
    ("usp", "7B", 32, 1048576): ("0x1.8fb3b9af5eb80p+0", "0x1.043f7eeb22e3cp+2"),
    ("usp", "7B", 32, 2097152): ("0x1.8ef2d1bc289c7p+2", "0x1.fd1e6bd3fcfd6p+3"),
    ("usp", "7B", 64, 131072): ("0x1.544db6e247ef3p-6", "0x1.acacdb384b788p-5"),
    ("usp", "7B", 64, 1048576): ("0x1.8fb461750aff1p-1", "0x1.0f40c4c81d416p+1"),
    ("usp", "7B", 64, 2097152): ("0x1.8ef2fbad93ae4p+1", "0x1.040f375d6c42bp+3"),
    ("usp", "14B", 8, 131072): ("0x1.0068c9ee509d9p-3", "0x1.3addd2e8fbc02p-2"),
    ("usp", "14B", 8, 1048576): ("0x1.f3a000558a1eep+2", "0x1.378fc91f12415p+4"),
    ("usp", "14B", 8, 2097152): ("0x1.f2af5c39c7b1dp+4", "0x1.375382078ccfdp+6"),
    ("usp", "14B", 16, 131072): ("0x1.006e081bb2d66p-4", "0x1.71e6c6ed14e07p-3"),
    ("usp", "14B", 16, 1048576): ("0x1.f3a02a46f530ap+1", "0x1.3e6f3de6c9d76p+3"),
    ("usp", "14B", 16, 2097152): ("0x1.f2af66b622764p+3", "0x1.3ac32d3718313p+5"),
    ("usp", "14B", 32, 131072): ("0x1.0078847677482p-5", "0x1.a90b847b502e1p-4"),
    ("usp", "14B", 32, 1048576): ("0x1.f3a07e29cb543p+0", "0x1.454f21d4a9f61p+2"),
    ("usp", "14B", 32, 2097152): ("0x1.f2af7baed7ff2p+2", "0x1.3e32f4302db4bp+4"),
    ("usp", "14B", 64, 131072): ("0x1.a8fe93ac09be4p-6", "0x1.0bd03f790cfe1p-4"),
    ("usp", "14B", 64, 1048576): ("0x1.f3a125ef779b4p-1", "0x1.531017add3805p+1"),
    ("usp", "14B", 64, 2097152): ("0x1.f2afa5a04310ep+1", "0x1.4512cda1b30efp+3"),
}


class TestHeadParallelPassGraph:
    """Ulysses and USP are priced by the graph every method's pass is: the
    executor's grid, Algorithm 1 over its grouped rings, and the two
    relayouts as tasks of the graph."""

    @pytest.mark.parametrize(
        "cell", list(HEAD_PARALLEL_PINS), ids=lambda c: "-".join(map(str, c))
    )
    def test_pass_times_keep_the_hand_written_pricers_values(self, cell):
        """Ulysses bit for bit; USP to rounding (its relayouts now start
        and end the graph instead of being added to its makespan)."""
        method, model, gpus, seq = cell
        spec = PAPER_MODELS[model]
        topo = make_cluster(gpus)
        wl = AttentionWorkload(seq_len=seq, hidden=spec.dim,
                               n_heads=spec.n_heads)
        for backward, pinned in zip((False, True), HEAD_PARALLEL_PINS[cell]):
            sim = attention_pass_sim(method, topo, wl, backward=backward)
            t = attention_pass_time(method, topo, wl, backward=backward)
            assert t == sim.makespan
            names = [task.name.split("/")[1] for task in sim.timeline()]
            assert names[0] == "relayout-in" and names[-1] == "relayout-out"
            if method == "ulysses":
                assert names == ["relayout-in", "c0", "relayout-out"]
                assert t.hex() == pinned
            else:
                assert t == pytest.approx(float.fromhex(pinned), rel=1e-12)

    def test_a_strided_ring_that_leaves_the_node_is_priced_inter(self):
        """16 GPUs x 8 per node, 4 heads: USP's default degree 4 strides
        its rings ``[0, 4, 8, 12]`` across both nodes, so every hop is
        inter-node (the hand-written pricer took it intra: 0.01580 s)."""
        topo = make_cluster(16)
        wl = AttentionWorkload(seq_len=131072, hidden=512, n_heads=4)
        for backward in (False, True):
            fwd, rev = attention_pass_hops("usp", topo, wl, backward=backward)
            assert len(fwd) == 3 + backward and rev == []
            assert {cls for cls, _ in fwd} == {LinkClass.INTER}
        bwd = attention_pass_time("usp", topo, wl, backward=True)
        assert bwd.hex() == "0x1.545da9eec7b70p-6"  # 0.02077 s

    def test_a_grid_that_does_not_fit_the_world_is_rejected(self):
        """12 heads on 16 GPUs x 8: an explicit degree 6 leaves no whole
        ring count, which the engine rejects too.  The default degree is
        4 there (it divides the world), which prices."""
        wl = AttentionWorkload(seq_len=131072, hidden=1536, n_heads=12)
        with pytest.raises(ValueError, match="not divisible by ulysses degree 6"):
            attention_pass_time("usp", make_cluster(16), wl, ulysses_degree=6)
        assert attention_pass_time("usp", make_cluster(16), wl) == (
            attention_pass_time("usp", make_cluster(16), wl, ulysses_degree=4))

    def test_default_degree_is_the_largest_head_divisor_in_a_node(self):
        """... that also divides the world: (heads, world, per node) -> u."""
        cases = {(40, 32, 8): 8, (12, 24, 8): 6, (12, 16, 8): 4,
                 (4, 16, 8): 4, (7, 7, 8): 7, (9, 12, 4): 3, (6, 8, 4): 2}
        for (heads, world, per_node), u in cases.items():
            assert default_ulysses_degree(heads, world, per_node) == u


DES_GOLDEN = Path(__file__).parent / "golden" / "des_pass_times.txt"


def des_pass_time_lines():
    """One ``method cluster seq direction ring_mode hex`` line per cell of
    the DES pass-time golden: every ring-family method in both ring modes,
    Ulysses, and USP at degrees 2, 4 and 8, forward and backward, on 2x4
    and 4x8 A800 ranks, for the 7B attention shape at 128K and 1M tokens.
    Regenerate with ``PYTHONPATH=src python -m tests.test_perf_models >
    tests/golden/des_pass_times.txt``."""
    clusters = {
        "2x4": make_cluster(8, node=a800_node(gpus_per_node=4)),
        "4x8": make_cluster(32, node=a800_node(gpus_per_node=8)),
    }
    rows = [(m, m, {"ring_mode": mode}) for m in RING_METHODS
            for mode in RING_MODES]
    rows += [("ulysses", "ulysses", {})]
    rows += [(f"usp-u{u}", "usp", {"ulysses_degree": u}) for u in (2, 4, 8)]
    for label, method, kw in rows:
        for name, topo in clusters.items():
            for seq in (131072, 1 << 20):
                wl = AttentionWorkload(seq_len=seq, hidden=LLAMA_7B.dim,
                                       n_heads=LLAMA_7B.n_heads)
                for backward in (False, True):
                    t = attention_pass_time(method, topo, wl,
                                            backward=backward, **kw)
                    yield " ".join((
                        label, name, str(seq), "bwd" if backward else "fwd",
                        kw.get("ring_mode", "unidirectional"), t.hex(),
                    ))


class TestPassTimeGolden:
    def test_pass_times_match_the_golden_bit_for_bit(self):
        """Every cell's ``attention_pass_time`` is ``float.hex``-equal to
        the committed golden; a pricing change shows up as its diff."""
        assert list(des_pass_time_lines()) == DES_GOLDEN.read_text().splitlines()


class TestMemoryModel:
    def test_megatron_oom_from_replicated_states(self):
        """Fig. 13: Megatron-CP (no FSDP) exceeds 80 GB on states alone."""
        setup = cell(LLAMA_14B, TOPO32, SEQ_1M, method="megatron-cp",
                     fsdp=False)
        bd = MemoryModel().breakdown(setup)
        assert bd.oom
        assert bd.params + bd.grads + bd.optimizer > 80e9

    def test_ulysses_14b_oom_from_head_limit(self):
        """Fig. 13: 40 heads on 32 GPUs -> degree 8 -> 4x activations -> OOM."""
        assert ulysses_effective_degree(40, 32) == 8
        setup = cell(LLAMA_14B, TOPO32, SEQ_1M, method="ulysses",
                     head_impl="naive")
        assert MemoryModel().breakdown(setup).oom

    def test_ulysses_7b_fits(self):
        assert ulysses_effective_degree(32, 32) == 32
        setup = cell(LLAMA_7B, TOPO32, 2 * SEQ_1M, method="ulysses",
                     head_impl="naive")
        assert not MemoryModel().breakdown(setup).oom

    def test_burst_saves_vs_best_baseline_14b(self):
        """Fig. 13 headline: ~24% saving at 14B/1M/32 GPUs."""
        mm = MemoryModel()
        burst = mm.breakdown(cell(LLAMA_14B, TOPO32, SEQ_1M,
                                  checkpoint="sequence_level"))
        baseline = mm.breakdown(cell(LLAMA_14B, TOPO32, SEQ_1M,
                                     checkpoint="selective_pp",
                                     head_impl="naive"))
        saving = 1 - burst.total / baseline.total
        assert 0.15 < saving < 0.45

    def test_checkpoint_curve_ordering(self):
        """Fig. 7: full < sequence-level < selective++ < none, linear in S."""
        seqs = [65536, 131072, 262144]
        mm = MemoryModel()
        curves = {
            p: [mm.activation_bytes(cell(LLAMA_7B, TOPO32, s, checkpoint=p)) / GB
                for s in seqs]
            for p in ("full", "sequence_level", "selective_pp", "none")
        }
        for i in range(len(seqs)):
            assert (curves["full"][i] < curves["sequence_level"][i]
                    < curves["selective_pp"][i] < curves["none"][i])
        # sequence-level stores exactly half of selective++'s extra
        extra_seq = curves["sequence_level"][0] - curves["full"][0]
        extra_spp = curves["selective_pp"][0] - curves["full"][0]
        assert extra_seq == pytest.approx(extra_spp / 2, rel=1e-9)

    def test_logits_memory_fig8(self):
        """Fig. 8: LLaMA-3's 128K vocab is ~4x LLaMA-2's logits memory."""
        m2 = logits_memory_bytes(SEQ_1M, 32_000)
        m3 = logits_memory_bytes(SEQ_1M, 128_256)
        assert m3 / m2 == pytest.approx(128_256 / 32_000)
        assert m3 > 250e9  # hundreds of GB at 1M tokens

    def test_offload_removes_optimizer_memory(self):
        on = MemoryModel().breakdown(
            cell(LLAMA_14B, TOPO8, 262144, optimizer_offload=True))
        off = MemoryModel().breakdown(
            cell(LLAMA_14B, TOPO8, 262144, optimizer_offload=False))
        assert on.optimizer == 0
        assert off.optimizer > 0
        assert on.total < off.total

    def test_memory_as_dict(self):
        bd = MemoryModel().breakdown(cell(LLAMA_7B, TOPO8, 262144))
        d = bd.as_dict()
        assert set(d) >= {"params_gb", "activations_gb", "total_gb", "oom"}


class TestEndToEndShapes:
    BASE = dict(checkpoint="full", head_impl="naive")
    BURST = dict(method="burst", checkpoint="sequence_level")

    def test_fig12_burst_speedup_over_usp(self):
        """Headline: ~1.2x end-to-end speedup over LoongTrain-USP."""
        usp = step(LLAMA_14B, TOPO32, SEQ_1M, method="usp", **self.BASE)
        burst = step(LLAMA_14B, TOPO32, SEQ_1M, **self.BURST)
        speedup = burst.tgs / usp.tgs
        assert 1.10 < speedup < 1.35

    def test_fig12_burst_mfu_near_paper(self):
        """Paper Table 2 row 5: MFU 47.7%, TGS 108.8 (14B, 1M, 32 GPUs)."""
        r = step(LLAMA_14B, TOPO32, SEQ_1M, **self.BURST)
        assert 0.40 < r.mfu < 0.55
        assert 90 < r.tgs < 125

    def test_table4_mfu_stable_across_nodes(self):
        """Inter-node scaling: MFU stays flat as nodes x sequence grow."""
        mfus = []
        for nodes in (2, 4, 8):
            topo = make_cluster(nodes * 8)
            r = step(LLAMA_14B, topo, nodes * 8 * 32768, **self.BURST)
            mfus.append(r.mfu)
        assert max(mfus) - min(mfus) < 0.02

    def test_table4_tgs_halves_as_sequence_doubles(self):
        tgs = {}
        for nodes in (2, 4):
            topo = make_cluster(nodes * 8)
            tgs[nodes] = step(
                LLAMA_14B, topo, nodes * 8 * 32768, **self.BURST).tgs
        assert tgs[2] / tgs[4] == pytest.approx(2.0, rel=0.1)

    def test_table5_mfu_rises_with_cp(self):
        """Intra-node: longer sequences amortise fixed costs -> MFU rises."""
        mfus = []
        for cp in (1, 2, 4, 8):
            topo = make_cluster(cp)
            r = step(LLAMA_14B, topo, cp * 32768, optimizer_offload=True,
                     **self.BURST)
            mfus.append(r.mfu)
        assert mfus == sorted(mfus)
        assert mfus[-1] > 0.40

    def test_table3_sparse_speedups(self):
        """Causal balance ~1.7-2x; SWA ~3.5-5x over unbalanced masking."""
        kw = dict(optimizer_offload=True, **self.BURST)
        masking = step(LLAMA_14B, TOPO8, 262144, workload_balanced=False, **kw)
        causal = step(LLAMA_14B, TOPO8, 262144, **kw)
        swa = step(LLAMA_14B, TOPO8, 262144, sparsity=2 * 32768 / 262144, **kw)
        assert 1.5 < causal.tgs / masking.tgs < 2.2
        assert 3.0 < swa.tgs / masking.tgs < 5.5

    def test_table2_ablation_monotone(self):
        """Each added optimisation must not hurt TGS; memory moves per
        paper: fused head saves, seq-ckpt costs some back vs full."""
        rows = [
            ("megatron-cp", "full", "naive"),
            ("burst-flat", "full", "naive"),
            ("burst", "full", "naive"),
            ("burst", "full", "fused"),
            ("burst", "sequence_level", "fused"),
        ]
        tgs = [
            step(LLAMA_14B, TOPO32, SEQ_1M, method=m, checkpoint=c,
                 head_impl=h).tgs
            for m, c, h in rows
        ]
        for a, b in zip(tgs, tgs[1:]):
            assert b >= a * 0.995
        assert tgs[-1] / tgs[0] > 1.3  # paper: 1.4x base -> full stack

    def test_ablation_spp_trades_memory_for_speed(self):
        seq = step(LLAMA_14B, TOPO32, SEQ_1M, **self.BURST)
        spp = step(LLAMA_14B, TOPO32, SEQ_1M, checkpoint="selective_pp")
        assert spp.tgs > seq.tgs
        assert spp.memory.total > seq.memory.total

    def test_breakdown_sums_consistently(self):
        r = step(LLAMA_14B, TOPO32, SEQ_1M, **self.BURST)
        assert sum(r.breakdown.values()) <= r.step_time * 1.001
        assert r.breakdown["attention_bwd"] > r.breakdown["attention_fwd"]

    def test_gqa_linears_price_the_narrow_kv_projections(self):
        """A block's linears are priced over the weights ``n_params``
        counts: under GQA, Wk and Wv at the KV width (855 638 016 per
        70B block, not the 973 078 528 of four full-width projections)."""
        from repro.perf.schedules.end_to_end import GEMM_EFFICIENCY

        gqa = step(LLAMA_70B_GQA, TOPO32, SEQ_1M, **self.BURST)
        per_layer = matmul_time(2.0 * 855_638_016 * SEQ_1M / 32,
                                TOPO32.node.gpu.peak_flops, GEMM_EFFICIENCY)
        assert gqa.breakdown["linear_fwd"] == pytest.approx(
            LLAMA_70B_GQA.n_layers * per_layer, rel=1e-12)
        mha = step(dataclasses.replace(LLAMA_70B_GQA, n_kv_heads=None),
                   TOPO32, SEQ_1M, **self.BURST)
        assert gqa.breakdown["linear_fwd"] < mha.breakdown["linear_fwd"]


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


class TestScheduleModels:
    def test_bubble_formula(self):
        assert gpipe_bubble_fraction(4, 1) == pytest.approx(3 / 4)
        assert gpipe_bubble_fraction(4, 16) == pytest.approx(3 / 19)
        assert gpipe_bubble_fraction(1, 8) == 0.0

    def test_des_matches_bubble_formula_gpipe(self):
        """With equal fwd/bwd chunks and no comm, the DES makespan equals
        (M + P - 1) slots of (fwd+bwd) work spread per the formula."""
        p, m, t = 4, 8, 1.0
        makespan = pipeline_step_time(p, m, t, t, 0.0, schedule="gpipe")
        ideal = m * 2 * t
        eff = ideal / makespan
        assert eff == pytest.approx(1 - gpipe_bubble_fraction(p, m), rel=0.01)

    def test_1f1b_same_makespan_less_memory(self):
        p, m, t = 4, 8, 1.0
        t_gpipe = pipeline_step_time(p, m, t, t, 0.0, schedule="gpipe")
        t_1f1b = pipeline_step_time(p, m, t, t, 0.0, schedule="1f1b")
        assert t_1f1b <= t_gpipe * 1.01
        assert in_flight_microbatches(p, m, "1f1b") == 4
        assert in_flight_microbatches(p, m, "gpipe") == 8

    def test_more_microbatches_higher_efficiency(self):
        effs = [pipeline_efficiency(4, m, 1.0) for m in (1, 4, 16)]
        assert effs == sorted(effs)
        assert effs[0] == pytest.approx(0.25, rel=0.05)  # 1 microbatch: 1/P

    def test_comm_reduces_efficiency(self):
        fast = pipeline_efficiency(4, 8, 1.0, t_comm=0.0)
        slow = pipeline_efficiency(4, 8, 1.0, t_comm=0.5)
        assert slow < fast

    def test_single_stage_no_bubble(self):
        assert pipeline_efficiency(1, 4, 1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gpipe_bubble_fraction(0, 4)
        with pytest.raises(ValueError):
            pipeline_step_time(2, 2, 1.0, schedule="2f2b")
        with pytest.raises(ValueError):
            in_flight_microbatches(2, 2, "nope")

    def test_long_context_implication(self):
        """One 1M-token sequence = one microbatch: pipeline efficiency
        collapses to ~1/P — the reason the paper shards the sequence."""
        eff = pipeline_efficiency(8, 1, 1.0)
        assert eff == pytest.approx(1 / 8, rel=0.05)


if __name__ == "__main__":
    print("\n".join(des_pass_time_lines()))

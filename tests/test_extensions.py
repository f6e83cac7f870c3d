"""Tests for the extensions: GQA support (and the Alg.1/Alg.2 payload
crossover it creates) and sparsity-aware selective communication."""

import numpy as np
import pytest

from repro.attention import (
    burst_attention_backward,
    ring_attention_backward_kv,
    ring_attention_forward,
)
from repro.attention.ring import row_stats
from repro.attention.gqa import (
    backward_comm_elems,
    choose_backward_algorithm,
    fold_kv_grad,
    gqa_attention_reference,
    gqa_attention_reference_backward,
    repeat_kv,
)
from repro.attention.selective import (
    communication_savings,
    selective_attention_backward,
    selective_attention_forward,
    selective_vs_ring_volume,
    tile_dependency_matrix,
)
from repro.comm import SimCommunicator, double_ring_schedule
from repro.comm.ring import ALG1_BUNDLE, ALG2_BUNDLE, backward_bundle
from repro.kernels import attention_reference, attention_reference_backward
from repro.masks import CausalMask, SlidingWindowMask, sliding_window_block_mask
from repro.partition import BlockwisePartitioner, ContiguousPartitioner, StripedPartitioner
from repro.topology import a800_node, make_cluster


RNG = np.random.default_rng(17)
TOPO = make_cluster(8, node=a800_node(gpus_per_node=4))


def gqa_inputs(n=64, d=8, hq=8, hkv=2):
    q = RNG.normal(size=(hq, n, d))
    k = RNG.normal(size=(hkv, n, d))
    v = RNG.normal(size=(hkv, n, d))
    do = RNG.normal(size=(hq, n, d))
    return q, k, v, do


class TestGQAPrimitives:
    def test_repeat_and_fold_roundtrip(self):
        x = RNG.normal(size=(2, 5, 3))
        expanded = repeat_kv(x, 4)
        assert expanded.shape == (8, 5, 3)
        # folding the expansion of ones-grad gives groups * original
        np.testing.assert_allclose(fold_kv_grad(expanded, 4), 4 * x)

    def test_repeat_groups_one_identity(self):
        x = RNG.normal(size=(3, 4, 2))
        assert repeat_kv(x, 1) is x

    def test_invalid_head_ratio(self):
        q, k, v, _ = gqa_inputs(hq=6, hkv=4)
        with pytest.raises(ValueError):
            gqa_attention_reference(q, k, v)

    def test_reference_matches_expanded_mha(self):
        q, k, v, do = gqa_inputs()
        o, lse = gqa_attention_reference(q, k, v)
        o_ref, lse_ref = attention_reference(q, repeat_kv(k, 4), repeat_kv(v, 4))
        np.testing.assert_allclose(o, o_ref, rtol=1e-12)

    def test_reference_backward_folds_grads(self):
        q, k, v, do = gqa_inputs()
        mask = CausalMask().dense(64)
        o, lse = gqa_attention_reference(q, k, v, mask=mask)
        dq, dk, dv = gqa_attention_reference_backward(q, k, v, o, lse, do, mask=mask)
        assert dk.shape == k.shape and dv.shape == v.shape
        # finite-difference spot check on a KV entry (uses group summing)
        eps = 1e-6

        def loss(k_):
            o_, _ = gqa_attention_reference(q, k_, v, mask=mask)
            return float((o_ * do).sum())

        kp = k.copy(); kp[1, 3, 2] += eps
        km = k.copy(); km[1, 3, 2] -= eps
        fd = (loss(kp) - loss(km)) / (2 * eps)
        assert dk[1, 3, 2] == pytest.approx(fd, rel=1e-5)


BACKWARDS = (
    ("alg1", ring_attention_backward_kv), ("alg2", burst_attention_backward),
)


class TestGQADistributed:
    def _setup(self, hq=8, hkv=2, n=64, d=8):
        q, k, v, do = gqa_inputs(n=n, d=d, hq=hq, hkv=hkv)
        part = StripedPartitioner()
        g = TOPO.world_size
        idxs = part.indices(n, g)
        shards = lambda x: part.scatter(x, g)
        return q, k, v, do, idxs, shards, part, g

    @pytest.mark.parametrize("mask", [None, CausalMask()], ids=["full", "causal"])
    def test_gqa_ring_forward_matches_reference(self, mask):
        q, k, v, do, idxs, shards, part, g = self._setup()
        comm = SimCommunicator(TOPO)
        sched = double_ring_schedule(TOPO)
        os, lses = ring_attention_forward(
            comm, sched, shards(q), shards(k), shards(v), idxs,
            mask=mask, block_size=16,
        )
        dense = mask.dense(64) if mask else None
        o_ref, lse_ref = gqa_attention_reference(q, k, v, mask=dense)
        np.testing.assert_allclose(part.gather(os), o_ref, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("backward", ["alg1", "alg2"])
    def test_gqa_distributed_backward_matches_reference(self, backward):
        q, k, v, do, idxs, shards, part, g = self._setup()
        mask = CausalMask()
        comm = SimCommunicator(TOPO)
        sched = double_ring_schedule(TOPO)
        os, lses = ring_attention_forward(
            comm, sched, shards(q), shards(k), shards(v), idxs,
            mask=mask, block_size=16,
        )
        fn = (
            ring_attention_backward_kv if backward == "alg1"
            else burst_attention_backward
        )
        dqs, dks, dvs = fn(
            comm, sched, shards(q), shards(k), shards(v),
            row_stats(shards(do), os), lses, shards(do), idxs, mask=mask,
            block_size=16,
        )
        dense = mask.dense(64)
        o_ref, lse_ref = gqa_attention_reference(q, k, v, mask=dense)
        dq_ref, dk_ref, dv_ref = gqa_attention_reference_backward(
            q, k, v, o_ref, lse_ref, do, mask=dense
        )
        np.testing.assert_allclose(part.gather(dqs), dq_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(part.gather(dks), dk_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(part.gather(dvs), dv_ref, rtol=1e-8, atol=1e-10)

    def test_alg1_circulates_less_than_alg2_under_gqa(self):
        """The extension's headline: with 4x grouped KV heads, Algorithm 1
        moves less backward data than BurstAttention's Algorithm 2."""
        q, k, v, do, idxs, shards, part, g = self._setup(hq=8, hkv=2)
        volumes = {}
        for name, fn in BACKWARDS:
            comm = SimCommunicator(TOPO)
            sched = double_ring_schedule(TOPO)
            os, lses = ring_attention_forward(
                comm, sched, shards(q), shards(k), shards(v), idxs,
                block_size=16,
            )
            comm.log.clear()
            fn(comm, sched, shards(q), shards(k), shards(v),
               row_stats(shards(do), os), lses, shards(do), idxs,
               block_size=16)
            volumes[name] = comm.log.total_elems(phase="attn-bwd")
        assert volumes["alg1"] < volumes["alg2"]

    def test_comm_formula_matches_measured(self):
        q, k, v, do, idxs, shards, part, g = self._setup(hq=8, hkv=2)
        for name, fn in BACKWARDS:
            comm = SimCommunicator(TOPO)
            sched = double_ring_schedule(TOPO)
            os, lses = ring_attention_forward(
                comm, sched, shards(q), shards(k), shards(v), idxs,
                block_size=16,
            )
            comm.log.clear()
            fn(comm, sched, shards(q), shards(k), shards(v),
               row_stats(shards(do), os), lses, shards(do), idxs,
               block_size=16)
            per_rank = comm.log.per_rank_send_elems(phase="attn-bwd")
            # the paper's count minus the read-only slots the return hop
            # leaves out
            expected = backward_comm_elems(name, 64, 8, 8, 2) - (
                backward_bundle(name).elems(64 // g, 8, 2, 8, "read-only")
            )
            assert all(v == expected for v in per_rank.values()), name


class TestAdaptiveSelection:
    def test_mha_prefers_alg2(self):
        assert choose_backward_algorithm(128, 32, 32) == "alg2"

    def test_gqa_prefers_alg1(self):
        # LLaMA-3 70B style: 64 query heads, 8 KV heads
        assert choose_backward_algorithm(128, 64, 8) == "alg1"

    def test_crossover_at_4_3(self):
        # group factor 4/3 is the break-even (ignoring the small 2N term)
        d = 1024  # large d so the 2N term is negligible
        alg1_g1 = backward_comm_elems("alg1", 100, d, 12, 12)
        alg2 = backward_comm_elems("alg2", 100, d, 12, 12)
        assert alg1_g1 > alg2  # MHA: alg2 wins
        alg1_g2 = backward_comm_elems("alg1", 100, d, 12, 6)
        assert alg1_g2 < alg2  # group 2: alg1 wins

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            backward_comm_elems("alg3", 1, 1, 1, 1)

    def test_per_hop_pick_never_has_the_larger_executed_total(self):
        """The pick compares one hop; a rank sends ``G - 1`` whole bundles
        plus the carried slots home.  On this grid the per-hop pick never
        has the larger executed total."""
        gs = np.arange(2, 65)
        for n_kv in range(1, 17):
            for group in range(1, 9):
                for d in range(3, 129):
                    n_q = n_kv * group
                    total = {
                        bundle.name: (gs - 1) * bundle.elems(1, n_q, n_kv, d)
                        + bundle.elems(1, n_q, n_kv, d, "carried")
                        for bundle in (ALG1_BUNDLE, ALG2_BUNDLE)
                    }
                    picked = choose_backward_algorithm(d, n_q, n_kv)
                    other = "alg1" if picked == "alg2" else "alg2"
                    assert (total[picked] <= total[other]).all(), (
                        n_kv, group, d
                    )

    @pytest.mark.parametrize("heads", [1, 4, 16])
    def test_mha_head_dim_2_tie_goes_to_alg2(self, heads):
        """At MHA ``head_dim = 2`` one hop ties (``8h`` elements per token
        either way), but Alg. 2 carries only ``dQ`` (``2h``) home where
        Alg. 1 carries ``dK, dV`` (``4h``): the tie goes to Alg. 2."""
        alg1 = backward_comm_elems("alg1", 64, 2, heads, heads)
        alg2 = backward_comm_elems("alg2", 64, 2, heads, heads)
        assert alg1 == alg2 == 8 * heads * 64
        assert choose_backward_algorithm(2, heads, heads) == "alg2"


class TestSelectiveCommunication:
    N, D, H = 64, 8, 2

    def _mha_inputs(self):
        q = RNG.normal(size=(self.H, self.N, self.D))
        k = RNG.normal(size=(self.H, self.N, self.D))
        v = RNG.normal(size=(self.H, self.N, self.D))
        do = RNG.normal(size=(self.H, self.N, self.D))
        return q, k, v, do

    def test_dependency_matrix_causal_contiguous(self):
        idxs = ContiguousPartitioner().indices(self.N, 8)
        need = tile_dependency_matrix(CausalMask(), idxs)
        # lower-triangular: rank i needs shards j <= i
        np.testing.assert_array_equal(need, np.tril(np.ones((8, 8), dtype=bool)))

    def test_savings_sliding_window(self):
        idxs = ContiguousPartitioner().indices(self.N, 8)
        # window of one shard: each rank needs only itself and predecessor
        savings = communication_savings(SlidingWindowMask(self.N // 8), idxs)
        assert savings == pytest.approx(1 - 7 / 56)

    def test_striped_partition_kills_savings(self):
        """Balance vs locality trade-off: striped and blockwise shards touch
        everything, where contiguous ones save most of the ring."""
        for part in (StripedPartitioner(), BlockwisePartitioner(block_size=self.N // 8)):
            idxs = part.indices(self.N, 8)
            assert communication_savings(SlidingWindowMask(16), idxs) == 0.0
            assert communication_savings(SlidingWindowMask(self.N // 8), idxs) == 0.0

    @pytest.mark.parametrize(
        "mask", [None, CausalMask(), SlidingWindowMask(16)],
        ids=["full", "causal", "swa"],
    )
    def test_selective_forward_matches_reference(self, mask):
        q, k, v, do = self._mha_inputs()
        part = ContiguousPartitioner()
        idxs = part.indices(self.N, 8)
        comm = SimCommunicator(TOPO)
        os, lses = selective_attention_forward(
            comm, part.scatter(q, 8), part.scatter(k, 8), part.scatter(v, 8),
            idxs, mask=mask, block_size=16,
        )
        dense = mask.dense(self.N) if mask else None
        o_ref, _ = attention_reference(q, k, v, mask=dense)
        np.testing.assert_allclose(part.gather(os), o_ref, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize(
        "mask", [CausalMask(), SlidingWindowMask(16)], ids=["causal", "swa"]
    )
    def test_selective_backward_matches_reference(self, mask):
        q, k, v, do = self._mha_inputs()
        part = ContiguousPartitioner()
        idxs = part.indices(self.N, 8)
        comm = SimCommunicator(TOPO)
        sh = lambda x: part.scatter(x, 8)
        os, lses = selective_attention_forward(
            comm, sh(q), sh(k), sh(v), idxs, mask=mask, block_size=16
        )
        dqs, dks, dvs = selective_attention_backward(
            comm, sh(q), sh(k), sh(v), os, lses, sh(do), idxs, mask=mask,
            block_size=16,
        )
        dense = mask.dense(self.N)
        o_ref, lse_ref = attention_reference(q, k, v, mask=dense)
        dq_ref, dk_ref, dv_ref = attention_reference_backward(
            q, k, v, o_ref, lse_ref, do, mask=dense
        )
        np.testing.assert_allclose(part.gather(dqs), dq_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(part.gather(dks), dk_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(part.gather(dvs), dv_ref, rtol=1e-8, atol=1e-10)

    def test_selective_moves_less_than_ring_for_swa(self):
        q, k, v, do = self._mha_inputs()
        part = ContiguousPartitioner()
        idxs = part.indices(self.N, 8)
        mask = SlidingWindowMask(self.N // 8)

        comm_sel = SimCommunicator(TOPO)
        selective_attention_forward(
            comm_sel, part.scatter(q, 8), part.scatter(k, 8),
            part.scatter(v, 8), idxs, mask=mask, block_size=16,
        )
        sel = comm_sel.log.total_elems(phase="attn-fwd")

        from repro.attention import get_method

        method = get_method("burst", partitioner=part, block_size=16)
        res = method.run(TOPO, q, k, v, mask=mask)
        ring = res.comm.log.total_elems(phase="attn-fwd")
        assert sel < ring / 4  # window spans 1 shard -> ~7/56 of ring volume

    def test_volume_formula(self):
        idxs = ContiguousPartitioner().indices(self.N, 8)
        out = selective_vs_ring_volume(SlidingWindowMask(self.N // 8), idxs, 100)
        assert out["selective"] == 7 * 2 * 100
        assert out["ring"] == 8 * 7 * 2 * 100
        assert out["savings"] == pytest.approx(1 - 7 / 56)

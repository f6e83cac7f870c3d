"""Tile planning: plan-driven kernels vs the dense-mask reference.

The TilePlan path changes *how* the flash kernels see the mask (per-block
classification, lazy partial tiles, skipped empties, workspace reuse) but
must not change a single bit of the numerics.  These tests pin that:

* property tests draw random ``BlockSparseMask`` configurations and
  zigzag/striped shard pairs — including uneven block edges and GQA-shaped
  batches — and require exact agreement with the dense-mask kernels;
* the causal acceptance floor (>= 40 % of sub-tiles skipped) is asserted.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    EMPTY,
    FULL,
    PARTIAL,
    BiasTileCache,
    KernelWorkspace,
    TilePlan,
    counters,
    flash_attention_backward,
    flash_attention_forward,
)
from repro.masks import (
    ALiBiMask,
    BlockSparseMask,
    CausalMask,
    SlidingWindowMask,
    sliding_window_block_mask,
)
from repro.partition import StripedPartitioner, ZigzagPartitioner


def _dense_for(mask, q_idx, k_idx):
    return mask.block(q_idx, k_idx)


def _run_both(q, k, v, do, mask, q_idx, k_idx, block_q, block_k):
    """Dense-path and plan-path fwd+bwd outputs for one shard pair."""
    dense = mask.block(q_idx, k_idx)
    bias = mask.bias_block(q_idx, k_idx)
    o0, l0 = flash_attention_forward(
        q, k, v, mask=dense, bias=bias, block_q=block_q, block_k=block_k
    )
    g0 = flash_attention_backward(
        q, k, v, o0, l0, do, mask=dense, bias=bias,
        block_q=block_q, block_k=block_k,
    )
    plan = TilePlan.build(
        mask, q_idx, k_idx, block_q, block_k, bias_cache=BiasTileCache()
    )
    ws = KernelWorkspace()
    o1, l1 = flash_attention_forward(q, k, v, plan=plan, workspace=ws)
    g1 = flash_attention_backward(
        q, k, v, o1, l1, do, plan=plan, workspace=ws
    )
    return (o0, l0, *g0), (o1, l1, *g1), plan


class TestPlanClassification:
    def test_states_never_contradict_dense_tiles(self):
        mask = CausalMask()
        idx = np.arange(96)
        plan = TilePlan.build(mask, idx, idx, 32, 32)
        for i in range(plan.n_q_blocks):
            for j in range(plan.n_k_blocks):
                q0, q1 = plan.q_range(i)
                k0, k1 = plan.k_range(j)
                tile = _dense_for(mask, idx[q0:q1], idx[k0:k1])
                state = plan.state(i, j)
                if state == FULL:
                    assert tile.all()
                elif state == EMPTY:
                    assert not tile.any()
                else:
                    assert state == PARTIAL

    def test_causal_contiguous_census(self):
        plan = TilePlan.build(CausalMask(), np.arange(128), np.arange(128),
                              32, 32)
        # 4x4 grid: diagonal partial, below full, above empty.
        assert plan.num_partial == 4
        assert plan.num_full == 6
        assert plan.num_empty == 6

    def test_assume_full_short_circuits(self):
        plan = TilePlan.build(
            CausalMask(), np.arange(64, 96), np.arange(0, 32), 8, 8,
            assume_full=True,
        )
        assert plan.num_full == plan.num_tiles

    def test_uneven_edges_cover_all_tokens(self):
        idx = np.arange(100)  # not a multiple of the 32-block
        plan = TilePlan.build(CausalMask(), idx, idx, 32, 32)
        assert plan.q_range(plan.n_q_blocks - 1) == (96, 100)
        computed, skipped = plan.pair_counts()
        assert computed + skipped == 100 * 100

    def test_plan_rejects_mismatched_geometry(self):
        plan = TilePlan.build(CausalMask(), np.arange(64), np.arange(64),
                              16, 16)
        q = np.zeros((2, 32, 8))
        with pytest.raises(ValueError, match="plan covers"):
            flash_attention_forward(q, q, q, plan=plan)

    def test_plan_and_dense_mask_are_mutually_exclusive(self):
        idx = np.arange(32)
        plan = TilePlan.build(CausalMask(), idx, idx, 16, 16)
        q = np.zeros((2, 32, 8))
        with pytest.raises(ValueError, match="not both"):
            flash_attention_forward(
                q, q, q, mask=np.ones((32, 32), bool), plan=plan
            )


class TestPlanNumericsMatchDense:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n_blocks=st.integers(2, 6),
        mask_block=st.sampled_from([8, 12, 16]),
        causal=st.booleans(),
        block_q=st.sampled_from([8, 16, 24]),
        block_k=st.sampled_from([8, 16, 24]),
    )
    def test_random_block_sparse(
        self, seed, n_blocks, mask_block, causal, block_q, block_k
    ):
        rng = np.random.default_rng(seed)
        bm = rng.random((n_blocks, n_blocks)) > 0.4
        mask = BlockSparseMask(mask_block, bm, intra_block_causal=causal)
        n = n_blocks * mask_block
        idx = np.arange(n)
        q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, mask, idx, idx, block_q, block_k
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 10_000),
        partitioner=st.sampled_from(["zigzag", "striped"]),
        g=st.sampled_from([2, 4]),
        r1=st.integers(0, 3),
        r2=st.integers(0, 3),
        window=st.sampled_from([0, 24]),
    )
    def test_zigzag_striped_shard_pairs(
        self, seed, partitioner, g, r1, r2, window
    ):
        """Plan path equals dense path on real (non-contiguous) shard
        index pairs — the tiles the distributed ring actually resolves."""
        r1, r2 = r1 % g, r2 % g
        n = 16 * g
        part = (
            ZigzagPartitioner() if partitioner == "zigzag"
            else StripedPartitioner()
        )
        idxs = part.indices(n, g)
        mask = SlidingWindowMask(window) if window else CausalMask()
        rng = np.random.default_rng(seed)
        s_q, s_k = len(idxs[r1]), len(idxs[r2])
        q = rng.normal(size=(2, s_q, 8))
        do = rng.normal(size=(2, s_q, 8))
        k = rng.normal(size=(2, s_k, 8))
        v = rng.normal(size=(2, s_k, 8))
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, mask, idxs[r1], idxs[r2], 8, 8
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), groups=st.sampled_from([2, 4]))
    def test_gqa_expanded_heads(self, seed, groups):
        """GQA runs the kernels on repeat_kv-expanded KV; the plan path
        must agree on those head-expanded batches too."""
        from repro.attention.gqa import repeat_kv

        rng = np.random.default_rng(seed)
        n, d, h_kv = 48, 8, 2
        q = rng.normal(size=(h_kv * groups, n, d))
        do = rng.normal(size=(h_kv * groups, n, d))
        k = repeat_kv(rng.normal(size=(h_kv, n, d)), groups)
        v = repeat_kv(rng.normal(size=(h_kv, n, d)), groups)
        idx = np.arange(n)
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, ALiBiMask(h_kv * groups), idx, idx, 16, 16
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)

    def test_uneven_block_edges_match(self):
        rng = np.random.default_rng(3)
        n = 90  # 90 / 32 leaves a 26-wide edge tile
        idx = np.arange(n)
        q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, CausalMask(), idx, idx, 32, 32
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)


class TestSkipAccounting:
    def test_causal_skips_at_least_40_percent(self):
        """The repo's acceptance floor: causal single-device fwd+bwd must
        skip >= 40 % of sub-tiles."""
        rng = np.random.default_rng(0)
        n = 512
        q, k, v, do = (rng.normal(size=(2, n, 16)) for _ in range(4))
        idx = np.arange(n)
        plan = TilePlan.build(CausalMask(), idx, idx, 64, 64)
        ws = KernelWorkspace()
        counters.reset()
        o, lse = flash_attention_forward(q, k, v, plan=plan, workspace=ws)
        flash_attention_backward(q, k, v, o, lse, do, plan=plan, workspace=ws)
        assert counters.skip_fraction >= 0.4
        assert counters.computed > 0

    def test_alibi_bias_tiles_cached_across_ring_steps(self):
        """Ring passes over a contiguous partition share ALiBi tiles:
        every off-diagonal step reuses the same relative-offset tiles."""
        from repro.attention.ring import ring_attention_forward
        from repro.comm import SimCommunicator
        from repro.comm.ring import global_ring_schedule
        from repro.partition import ContiguousPartitioner
        from repro.topology import make_cluster

        g, n, h, d = 4, 64, 2, 8
        topo = make_cluster(g, gpus_per_node=g)
        comm = SimCommunicator(topo)
        schedule = global_ring_schedule(topo)
        part = ContiguousPartitioner()
        idxs = part.indices(n, g)
        rng = np.random.default_rng(0)
        mask = ALiBiMask(h)
        qs = [rng.normal(size=(h, n // g, d)) for _ in range(g)]
        ks = [rng.normal(size=(h, n // g, d)) for _ in range(g)]
        vs = [rng.normal(size=(h, n // g, d)) for _ in range(g)]
        counters.reset()
        ring_attention_forward(
            comm, schedule, qs, ks, vs, idxs, mask=mask, block_size=8
        )
        assert counters.bias_tiles_reused > 0
        # Distinct relative offsets are far fewer than resolved tiles.
        assert counters.bias_tiles_built < counters.bias_tiles_reused


class TestTilePlanInvariants:
    def test_closed_forms_match_measured_counts(self):
        from repro.testing import check_tile_plan_invariants

        report = check_tile_plan_invariants(seq_len=128, block_q=16,
                                            block_k=16)
        assert report.passed, report.summary()

    def test_uneven_kernel_blocks(self):
        from repro.testing import check_tile_plan_invariants

        report = check_tile_plan_invariants(seq_len=192, block_q=24,
                                            block_k=48)
        assert report.passed, report.summary()

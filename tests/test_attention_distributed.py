"""Distributed attention: numerics vs dense reference + traffic volumes.

These tests verify the load-bearing claims of the paper at exact precision:

* every method (RingAttention/Megatron-CP, DoubleRing, BurstAttention,
  Ulysses, USP) produces the same outputs and gradients as single-device
  dense attention, for full / causal / sliding-window masks;
* Algorithm 1's backward moves exactly ``4Nd`` elements per GPU while
  Algorithm 2 (Burst) moves ``3Nd + 2N`` — the ~25 % saving;
* the topology-aware double ring reduces inter-node traffic vs the flat
  global ring.
"""

import numpy as np
import pytest

from repro.attention import get_method
from repro.comm import SimCommunicator, double_ring_schedule, global_ring_schedule
from repro.kernels import attention_reference, attention_reference_backward
from repro.masks import CausalMask, SlidingWindowMask, sliding_window_block_mask
from repro.partition import StripedPartitioner, ZigzagPartitioner, BlockwisePartitioner
from repro.topology import LinkClass, a800_node, make_cluster


RNG = np.random.default_rng(7)


def make_inputs(n=64, d=8, heads=2):
    q = RNG.normal(size=(heads, n, d))
    k = RNG.normal(size=(heads, n, d))
    v = RNG.normal(size=(heads, n, d))
    do = RNG.normal(size=(heads, n, d))
    return q, k, v, do


def reference(q, k, v, do, mask=None):
    m = mask.dense(q.shape[-2]) if mask is not None else None
    o, lse = attention_reference(q, k, v, mask=m)
    dq, dk, dv = attention_reference_backward(q, k, v, o, lse, do, mask=m)
    return o, lse, dq, dk, dv


TOPO_2x4 = make_cluster(8, node=a800_node(gpus_per_node=4))
TOPO_1x4 = make_cluster(4, node=a800_node(gpus_per_node=4))

METHODS = [
    ("megatron-cp", {}),
    ("loongtrain-double", {}),
    ("burst", {}),
    ("ulysses", {}),
    ("usp", {"ulysses_degree": 2}),
]

MASKS = [None, CausalMask(), SlidingWindowMask(window=24)]


class TestCorrectnessAllMethods:
    @pytest.mark.parametrize("mask", MASKS, ids=["full", "causal", "swa"])
    @pytest.mark.parametrize("name,kwargs", METHODS, ids=[m[0] for m in METHODS])
    def test_matches_dense_reference(self, name, kwargs, mask):
        q, k, v, do = make_inputs(n=64, d=8, heads=8)  # 8 heads: Ulysses-feasible on 8 GPUs
        method = get_method(name, block_size=16, **kwargs)
        res = method.run(TOPO_2x4, q, k, v, mask=mask, do=do)
        o_ref, lse_ref, dq_ref, dk_ref, dv_ref = reference(q, k, v, do, mask)
        np.testing.assert_allclose(res.o, o_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(res.lse, lse_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(res.dq, dq_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(res.dk, dk_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(res.dv, dv_ref, rtol=1e-8, atol=1e-10)

    def test_burst_with_zigzag_partitioner(self):
        q, k, v, do = make_inputs(n=64, d=8)
        method = get_method("burst", partitioner=ZigzagPartitioner(), block_size=16)
        res = method.run(TOPO_2x4, q, k, v, mask=CausalMask(), do=do)
        _, _, dq_ref, dk_ref, dv_ref = reference(q, k, v, do, CausalMask())
        np.testing.assert_allclose(res.dq, dq_ref, rtol=1e-8, atol=1e-10)

    def test_burst_blocksparse_mask_with_blockwise_partition(self):
        """Sparse attention integration: block-balanced partition + SWA mask."""
        n = 64
        mask = sliding_window_block_mask(seq_len=n, block_size=16, window_blocks=2)
        q, k, v, do = make_inputs(n=n, d=8)
        method = get_method(
            "burst", partitioner=BlockwisePartitioner(block_size=16), block_size=8
        )
        res = method.run(TOPO_1x4, q, k, v, mask=mask, do=do)
        o_ref, _, dq_ref, dk_ref, dv_ref = reference(q, k, v, do, mask)
        np.testing.assert_allclose(res.o, o_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(res.dk, dk_ref, rtol=1e-8, atol=1e-10)

    def test_single_node_topology(self):
        q, k, v, do = make_inputs(n=32, d=4)
        method = get_method("burst", block_size=8)
        res = method.run(TOPO_1x4, q, k, v, mask=CausalMask(), do=do)
        _, _, dq_ref, _, _ = reference(q, k, v, do, CausalMask())
        np.testing.assert_allclose(res.dq, dq_ref, rtol=1e-8, atol=1e-10)

    def test_usp_with_burst_backward(self):
        q, k, v, do = make_inputs(n=64, d=8, heads=4)
        method = get_method("usp", ulysses_degree=4, use_burst_backward=True,
                            block_size=16)
        res = method.run(TOPO_2x4, q, k, v, mask=CausalMask(), do=do)
        _, _, dq_ref, dk_ref, dv_ref = reference(q, k, v, do, CausalMask())
        np.testing.assert_allclose(res.dq, dq_ref, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(res.dv, dv_ref, rtol=1e-8, atol=1e-10)

    def test_ulysses_rejects_indivisible_heads(self):
        q, k, v, _ = make_inputs(n=64, d=8, heads=3)  # 3 heads, 8 GPUs
        method = get_method("ulysses", block_size=16)
        with pytest.raises(ValueError, match="infeasible"):
            method.run(TOPO_2x4, q, k, v)

    @pytest.mark.parametrize("name,kwargs", [
        ("ulysses", {}), ("usp", {"ulysses_degree": 8}),
    ])
    def test_head_parallel_rejects_indivisible_sequence(self, name, kwargs):
        """12 tokens on 8 ranks fail to shard; USP's one-position ring
        split used to keep 8 of them and drop the rest."""
        method = get_method(name, **kwargs)
        with pytest.raises(ValueError, match="not divisible by device count"):
            method.indices(12, 8)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            get_method("nonexistent")


class TestCommunicationVolumes:
    """The paper's headline communication accounting, asserted exactly."""

    N, D, H, G = 64, 8, 1, 8  # single head so formulas match the paper's Nd

    def _run(self, name, **kwargs):
        q, k, v, do = make_inputs(n=self.N, d=self.D, heads=self.H)
        method = get_method(name, block_size=16, **kwargs)
        res = method.run(TOPO_2x4, q, k, v, mask=None, do=do)
        return res.comm.log

    def test_forward_volume_is_2nd(self):
        """Forward: each GPU sends (G-1)/G * 2Nd elements (K and V once)."""
        log = self._run("burst")
        per_rank = log.per_rank_send_elems(phase="attn-fwd")
        expected = (self.G - 1) * 2 * (self.N // self.G) * self.D
        assert all(v == expected for v in per_rank.values())

    def test_ring_backward_volume_is_4nd(self):
        """Algorithm 1: exactly 4Nd elements sent per GPU."""
        log = self._run("megatron-cp")
        per_rank = log.per_rank_send_elems(phase="attn-bwd")
        expected = 4 * self.N * self.D
        assert all(v == expected for v in per_rank.values())

    def test_burst_backward_volume_is_3nd_plus_2n(self):
        """Algorithm 2: exactly 3Nd + 2N elements sent per GPU."""
        log = self._run("burst")
        per_rank = log.per_rank_send_elems(phase="attn-bwd")
        expected = 3 * self.N * self.D + 2 * self.N
        assert all(v == expected for v in per_rank.values())

    def test_burst_saves_about_25_percent(self):
        ring = 4 * self.N * self.D
        burst = 3 * self.N * self.D + 2 * self.N
        saving = 1 - burst / ring
        assert saving == pytest.approx(0.25 - 2 / (4 * self.D), abs=1e-9)
        assert saving > 0.17  # ~25% for realistic d >> 2

    def test_double_ring_reduces_inter_node_traffic(self):
        log_flat = self._run("megatron-cp")
        log_dbl = self._run("loongtrain-double")
        inter_flat = log_flat.total_bytes(phase="attn-fwd", link=LinkClass.INTER)
        inter_dbl = log_dbl.total_bytes(phase="attn-fwd", link=LinkClass.INTER)
        assert inter_dbl < inter_flat

    def test_ulysses_volume_scales_as_n_over_g(self):
        """Ulysses per-rank volume ~ 4 * (N/G) * d * (G-1)/G per pass —
        far below ring methods' O(Nd)."""
        q, k, v, do = make_inputs(n=self.N, d=self.D, heads=8)
        method = get_method("ulysses", block_size=16)
        res = method.run(TOPO_2x4, q, k, v, do=do)
        log = res.comm.log
        shard_elems = 8 * (self.N // self.G) * self.D  # H * S/G * D
        per_rank_fwd = log.per_rank_send_elems(phase="attn-fwd")
        # forward: q,k,v out + o,lse back -> (3 + 1) * shard * (G-1)/G + lse
        lse_elems = 8 * (self.N // self.G)
        expected_fwd = (shard_elems * 4 + lse_elems) * (self.G - 1) // self.G
        assert all(v == expected_fwd for v in per_rank_fwd.values())
        ring_fwd = (self.G - 1) * 2 * (self.N // self.G) * self.D * 8
        assert expected_fwd < ring_fwd

    def test_one_position_ring_takes_no_return_hop(self):
        """USP at ``u = G`` — Ulysses — runs its ring leg on one position:
        a forward + backward pass is its four group all-to-alls and no
        identity ``exchange`` sending a bundle home it never left."""
        from repro.obs import use_tracing

        q, k, v, do = make_inputs(n=self.N, d=self.D, heads=self.G)
        method = get_method("usp", ulysses_degree=self.G, block_size=16)
        with use_tracing() as tracer:
            method.run(TOPO_2x4, q, k, v, mask=CausalMask(), do=do)
        ops = [s.name for s in tracer.spans() if s.name.startswith("comm.")]
        assert ops == ["comm.group_all_to_all"] * 4

    def test_ring_neighbours_only(self):
        """Flat ring traffic flows only between ring neighbours."""
        log = self._run("megatron-cp")
        for rec in log.records:
            assert (rec.dst - rec.src) % self.G in (1, self.G - 1)


class TestScheduleEquivalence:
    """Algorithm 1 and Algorithm 2 must agree on any schedule."""

    def test_alg1_alg2_identical_gradients(self):
        from repro.attention.ring import ring_attention_forward, ring_attention_backward_kv
        from repro.attention.burst import burst_attention_backward
        from repro.partition import StripedPartitioner

        topo = TOPO_2x4
        g = topo.world_size
        n, d, h = 64, 8, 2
        q, k, v, do = make_inputs(n=n, d=d, heads=h)
        part = StripedPartitioner()
        idxs = part.indices(n, g)
        qs, ks, vs = part.scatter(q, g), part.scatter(k, g), part.scatter(v, g)
        dos = part.scatter(do, g)
        mask = CausalMask()

        for sched_fn in (global_ring_schedule, double_ring_schedule):
            comm = SimCommunicator(topo)
            sched = sched_fn(topo)
            os, lses = ring_attention_forward(comm, sched, qs, ks, vs, idxs,
                                              mask=mask, block_size=16)
            dq1, dk1, dv1 = ring_attention_backward_kv(
                comm, sched, qs, ks, vs, os, lses, dos, idxs, mask=mask,
                block_size=16)
            dq2, dk2, dv2 = burst_attention_backward(
                comm, sched, qs, ks, vs, os, lses, dos, idxs, mask=mask,
                block_size=16)
            for a, b in zip(dq1 + dk1 + dv1, dq2 + dk2 + dv2):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-11)

    def test_forward_schedule_invariance(self):
        """Output must not depend on the communication schedule."""
        from repro.attention.ring import ring_attention_forward

        topo = TOPO_2x4
        g = topo.world_size
        q, k, v, _ = make_inputs(n=64, d=8)
        part = StripedPartitioner()
        idxs = part.indices(64, g)
        qs, ks, vs = part.scatter(q, g), part.scatter(k, g), part.scatter(v, g)
        outs = []
        for sched_fn in (global_ring_schedule, double_ring_schedule):
            comm = SimCommunicator(topo)
            os, _ = ring_attention_forward(
                comm, sched_fn(topo), qs, ks, vs, idxs,
                mask=CausalMask(), block_size=16)
            outs.append(np.concatenate(os, axis=-2))
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-12)


class TestCarriedForwardState:
    """The ring forward keeps one unnormalised ``(m, [O | l])`` per rank
    and normalises once; :func:`repro.kernels.merge_states` over per-pair
    kernel calls stays the definition it is compared against."""

    @staticmethod
    def _merged_pairwise(qs, ks, vs, idxs, mask, block):
        from repro.kernels import (
            TilePlan, flash_attention_forward, head_batch, merge_states,
        )
        from repro.kernels.softmax import empty_state

        out = []
        for r, q in enumerate(qs):
            o, lse = empty_state(q.shape)
            for j in range(len(qs)):
                plan = TilePlan.build(
                    mask, idxs[r], idxs[j], block, block, batch=head_batch(q)
                )
                o, lse = merge_states(o, lse, *flash_attention_forward(
                    q, ks[j], vs[j], plan=plan
                ))
            out.append((o, lse))
        return out

    @pytest.mark.parametrize("name", ["burst", "megatron-cp", "selective"])
    def test_forward_matches_the_merge_definition(self, name):
        method = get_method(name, block_size=8)
        g = TOPO_2x4.world_size
        q, k, v, _ = make_inputs(n=64)
        # A window narrower than a contiguous shard pair's distance: some
        # (rank, origin) pairs are skipped and some rows meet no key in a
        # delivered shard.
        mask = SlidingWindowMask(window=12)
        idxs = method.indices(64, g)
        qs, ks, vs = method.shard(q, g), method.shard(k, g), method.shard(v, g)
        os, lses, _ = method.forward_shards(
            SimCommunicator(TOPO_2x4), qs, ks, vs, idxs, mask, None
        )
        want = self._merged_pairwise(qs, ks, vs, idxs, mask, 8)
        for o, lse, (o_ref, lse_ref) in zip(os, lses, want):
            np.testing.assert_allclose(o, o_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(lse, lse_ref, rtol=1e-12, atol=1e-12)
            assert o.flags.c_contiguous and o.base is None


class TestShardLayoutMemo:
    """``indices`` / ``shard`` / ``gather`` share one memoised layout per
    ``(n, g)``, handed out read-only."""

    PARTITIONERS = [
        ("megatron-cp", {"partitioner": ZigzagPartitioner()}),
        ("burst", {"partitioner": StripedPartitioner()}),
        ("burst", {"partitioner": BlockwisePartitioner(8)}),
        ("selective", {}),  # contiguous
        ("usp", {"ulysses_degree": 2}),
    ]

    @pytest.mark.parametrize(
        "name,kwargs", PARTITIONERS,
        ids=["zigzag", "striped", "blockwise", "contiguous", "usp-grid"],
    )
    def test_round_trip_same_objects_read_only(self, name, kwargs):
        method = get_method(name, **kwargs)
        first, second = method.indices(64, 8), method.indices(64, 8)
        assert all(a is b for a, b in zip(first, second))
        assert first is not second  # the list is the caller's own
        assert np.array_equal(np.sort(np.concatenate(first)), np.arange(64))
        with pytest.raises(ValueError, match="read-only"):
            first[0][0] = 63
        x = RNG.normal(size=(2, 64, 4))
        np.testing.assert_array_equal(method.gather(method.shard(x, 8)), x)
        row = RNG.normal(size=(2, 64))
        np.testing.assert_array_equal(
            method.gather(method.shard(row, 8, axis=-1), axis=-1), row
        )
        # Another (n, g) is its own layout.
        assert len(method.indices(32, 4)) == 4
        np.testing.assert_array_equal(
            method.gather(method.shard(x[:, :32], 4)), x[:, :32]
        )

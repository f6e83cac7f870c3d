"""Cross-validation between independent layers of the reproduction.

The analytic Table-1 formulas, the DES schedules, and the measured traffic
logs were implemented separately; these tests pin them to each other:
in the communication-bound limit (compute ~ 0) the DES must reproduce the
closed forms, and DES link busy-time must agree with what the profiler
derives from executed traffic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attention import get_method
from repro.attention.usp import default_ulysses_degree
from repro.comm.ring import (
    ALG1_BUNDLE,
    DOUT_RELAYOUT,
    GRADS_RELAYOUT,
    KV_BUNDLE,
    OUT_RELAYOUT,
    QKV_RELAYOUT,
    RING_METHODS,
    bidirectional_split,
    double_ring_schedule,
)
from repro.engine import BurstEngine, EngineConfig
from repro.nn import CheckpointPolicy, TransformerConfig
from repro.nn.checkpoint import CheckpointMode
from repro.perf.cost import link_time
from repro.perf.schedules.attention import (
    AttentionWorkload,
    attention_pass_hops,
    attention_pass_sim,
    attention_pass_time,
    attention_pass_transitions,
)
from repro.topology import LinkClass, a800_node, make_cluster


TOPO32 = make_cluster(32)
HUGE_FLOPS = 1e30  # compute ~ 0: the comm-bound limit


class TestDESvsClosedForms:
    #: One query-width shard of the 1M-token, 5120-wide workload on 32
    #: GPUs, in bytes (two per element).
    SHARD = (1 << 20) / 32 * 5120 * 2

    def test_burst_forward_commbound_matches_overlapped_phase_cost(self):
        """With zero compute, the burst forward pass's DES makespan equals
        the fully-overlapped Table-1 phase term max(I*T_intra, E*T_inter)
        for the K+V payload — with the forward's G-1 transitions: 28 intra
        and 3 inter on 4 nodes x 8 GPUs."""
        wl = AttentionWorkload(seq_len=1 << 20, hidden=5120, n_heads=40)
        des = attention_pass_time("burst", TOPO32, wl, peak_flops=HUGE_FLOPS)
        payload = 2 * self.SHARD
        t_intra = link_time(TOPO32, payload, LinkClass.INTRA)
        t_inter = link_time(TOPO32, payload, LinkClass.INTER)
        assert des == pytest.approx(max(28 * t_intra, 3 * t_inter), rel=1e-9)

    def test_burst_backward_commbound_closed_form(self):
        """Alg. 2 comm-bound: overlapped phases + the inter return hop.
        The payload is the executed bundle: Q, dQ, dO shards plus one D and
        one Lse row per head (the paper's ``3 + 2/h`` is one head); the
        return hop ships the dQ shard alone.  After three outer shifts
        every bundle sits one node short of home, so the return
        permutation's slowest pair — the class the executor traces it on
        — crosses nodes."""
        wl = AttentionWorkload(seq_len=1 << 20, hidden=5120, n_heads=40)
        des = attention_pass_time("burst", TOPO32, wl, backward=True,
                                  peak_flops=HUGE_FLOPS)
        payload = self.SHARD * (3 + 2 * 40 / 5120)
        t_intra = link_time(TOPO32, payload, LinkClass.INTRA)
        t_inter = link_time(TOPO32, payload, LinkClass.INTER)
        t_return = link_time(TOPO32, self.SHARD, LinkClass.INTER)
        expected = max(28 * t_intra, 3 * t_inter) + t_return
        assert des == pytest.approx(expected, rel=1e-9)

    def test_flat_ring_forward_commbound_matches_lockstep_sum(self):
        """Flat ring, zero compute: makespan = (G-1) lockstep inter hops."""
        wl = AttentionWorkload(seq_len=1 << 20, hidden=5120, n_heads=40)
        des = attention_pass_time("megatron-cp", TOPO32, wl,
                                  peak_flops=HUGE_FLOPS)
        payload = 2 * self.SHARD
        hop = link_time(TOPO32, payload, LinkClass.INTER)
        assert des == pytest.approx(31 * hop, rel=0.02)

    def test_doublering_backward_includes_serialized_drain(self):
        """DoubleRing comm-bound backward = overlapped KV circulation +
        fully serialized gradient drain (Table 1's +2(I*T_intra +
        E*T_inter) structure) + the return hop, which crosses nodes (its
        slowest pair, as for burst above) and ships (dK, dV)."""
        wl = AttentionWorkload(seq_len=1 << 20, hidden=5120, n_heads=40)
        dbl = attention_pass_time("loongtrain-double", TOPO32, wl,
                                  backward=True, peak_flops=HUGE_FLOPS)
        gr = 2 * self.SHARD
        t_intra = link_time(TOPO32, gr, LinkClass.INTRA)
        t_inter = link_time(TOPO32, gr, LinkClass.INTER)
        kv_overlapped = max(28 * t_intra, 3 * t_inter)
        drain = 28 * t_intra + 3 * t_inter
        expected = kv_overlapped + drain + t_inter  # + inter return hop
        assert dbl == pytest.approx(expected, rel=1e-9)

    def test_compute_bound_limit_is_flops_time(self):
        """With enormous bandwidth... instead: single node intra-only and
        tiny payloads, pass time -> pure compute."""
        topo1 = make_cluster(1)
        wl = AttentionWorkload(seq_len=32768, hidden=512, n_heads=8)
        from repro.perf.schedules.attention import ATTENTION_EFFICIENCY

        t = attention_pass_time("burst", topo1, wl)
        expected = wl.fwd_flops_per_gpu(1) / (
            topo1.node.gpu.peak_flops * ATTENTION_EFFICIENCY
        )
        assert t == pytest.approx(expected, rel=1e-6)


#: (nodes, gpus_per_node): single GPU, single node, the paper's shapes and
#: non-power-of-two worlds.
WALK_SHAPES = [(1, 1), (1, 2), (1, 4), (1, 8), (2, 2), (2, 3), (2, 4),
               (3, 3), (4, 2), (2, 8), (4, 8)]


def _slowest(records):
    """The slowest link a hop's ``TrafficLog`` records crossed."""
    crossed = {rec.link for rec in records}
    return next(
        c for c in (LinkClass.INTER, LinkClass.INTRA, LinkClass.LOCAL)
        if c in crossed
    )


class TestDESWalksTheExecutedSchedule:
    """The DES hop lists are a walk of the ``RingSchedule`` the method
    executes — the executor's link class at every position of both
    streams, the return hop and the reverse seed included (their slowest
    pair)."""

    @pytest.mark.parametrize("ring_mode", ["unidirectional", "bidirectional"])
    @pytest.mark.parametrize("shape", WALK_SHAPES,
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("method", sorted(RING_METHODS))
    def test_stream_resources_are_the_schedules_link_classes(
        self, method, shape, ring_mode
    ):
        nodes, gpn = shape
        topo = make_cluster(nodes * gpn, node=a800_node(gpus_per_node=gpn))
        wl = AttentionWorkload(seq_len=1 << 16, hidden=256, n_heads=4)
        executed = get_method(method).schedule(topo)
        windows = [None]
        if method == "burst":  # ring_window re-sizes the burst inner ring
            windows += [w for w in range(1, topo.world_size + 1)
                        if topo.world_size % w == 0]
        for window in windows:
            sched = (executed if window is None
                     else double_ring_schedule(topo, window=window))
            n = sched.num_steps - 1
            classes = [sched.transition_link_class(t).value for t in range(n)]
            t_f, rev_moves = (
                bidirectional_split(sched.num_steps)
                if ring_mode == "bidirectional" else (n, 0)
            )
            for backward in (False, True):
                fwd, rev = attention_pass_transitions(
                    method, topo, wl, backward=backward, ring_mode=ring_mode,
                    ring_window=window,
                )
                home = [sched.return_link_class().value] * (n > 0)
                want_fwd = classes + home if backward else classes[:t_f]
                assert [res for res, _ in fwd] == want_fwd, (window, backward)
                want_rev = [
                    sched.reverse_link_class(s).value
                    for s in range(1, rev_moves + 1)
                ]
                assert [res for res, _ in rev] == want_rev, (window, backward)


class TestDESPricesTheExecutedBytes:
    """Executor == model, per hop: the payload the DES prices for each hop
    of both streams (:func:`attention_pass_hops`, the numbers
    :func:`attention_pass_transitions` turns into durations) is the payload
    every rank's ``TrafficLog`` records for that hop — forward transitions,
    reverse moves and the return hop, in order — and the link it prices
    the hop on is the slowest link those records crossed (a lockstep hop
    waits for its slowest pair), the return hop and the reverse seed
    included."""

    @pytest.mark.parametrize("heads", [(2, 2), (4, 2)], ids=["mha", "gqa"])
    @pytest.mark.parametrize("ring_mode", ["unidirectional", "bidirectional"])
    @pytest.mark.parametrize("shape", [(1, 4), (2, 4), (2, 3)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("method", sorted(RING_METHODS))
    def test_every_hop_prices_the_logged_bytes(
        self, method, shape, ring_mode, heads
    ):
        nodes, gpn = shape
        topo = make_cluster(nodes * gpn, node=a800_node(gpus_per_node=gpn))
        g, (n_q, n_kv), d = topo.world_size, heads, 4
        n = 4 * g
        rng = np.random.default_rng(0)
        q, do = (rng.normal(size=(n_q, n, d)) for _ in range(2))
        k, v = (rng.normal(size=(n_kv, n, d)) for _ in range(2))
        res = get_method(method, block_size=4, ring_mode=ring_mode).run(
            topo, q, k, v, do=do
        )
        wl = AttentionWorkload(
            seq_len=n, hidden=n_q * d, n_heads=n_q, bytes_per_elem=8,
            kv_ratio=n_kv / n_q,
        )
        for backward, phase in ((False, "attn-fwd"), (True, "attn-bwd")):
            model = attention_pass_hops(
                method, topo, wl, backward=backward, ring_mode=ring_mode
            )
            for channel, hops in zip(("fwd", "rev"), model):
                priced = [sum(messages) for _, messages in hops]
                logged = [
                    [rec for rec in res.comm.log.records
                     if rec.phase == phase and rec.channel == channel
                     and rec.src == r]
                    for r in range(g)
                ]
                for r in range(g):
                    assert [rec.nbytes for rec in logged[r]] == priced, (
                        phase, channel, r)
                for i, (cls, _) in enumerate(hops):
                    assert cls is _slowest(recs[i] for recs in logged), (
                        phase, channel, i)


    @pytest.mark.parametrize("name,degree", [("usp", 2), ("ulysses", None)])
    def test_head_parallel_ring_leg_prices_the_logged_bytes(
        self, name, degree
    ):
        """USP's ring leg walks its grid's strided rings (``u = 2`` on 2 x 4
        ranks: three transitions, Algorithm 1's bundle backward, the return
        hop), each hop on the slowest link its records crossed; Ulysses'
        one-position ring ships nothing.  The relayouts' records are the
        next class's."""
        topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        g, h, d = topo.world_size, 8, 4
        n = 4 * g
        rng = np.random.default_rng(0)
        q, k, v, do = (rng.normal(size=(h, n, d)) for _ in range(4))
        kwargs = {"ulysses_degree": degree} if degree else {}
        log = get_method(name, block_size=4, **kwargs).run(
            topo, q, k, v, do=do
        ).comm.log
        wl = AttentionWorkload(seq_len=n, hidden=h * d, n_heads=h,
                               bytes_per_elem=8)
        ring_tags = (KV_BUNDLE.tag, ALG1_BUNDLE.tag, f"{ALG1_BUNDLE.tag}-return")
        for backward, phase in ((False, "attn-fwd"), (True, "attn-bwd")):
            fwd, rev = attention_pass_hops(
                name, topo, wl, backward=backward, ulysses_degree=degree
            )
            assert rev == [] and len(fwd) == (3 + backward if degree else 0)
            priced = [sum(messages) for _, messages in fwd]
            logged = [
                [rec for rec in log.records
                 if rec.phase == phase and rec.src == r
                 and rec.tag in ring_tags]
                for r in range(g)
            ]
            for r in range(g):
                assert [rec.nbytes for rec in logged[r]] == priced, (phase, r)
            for i, (cls, _) in enumerate(fwd):
                assert cls is _slowest(recs[i] for recs in logged), (phase, i)

class TestDESPricesTheExecutedRelayouts:
    """Executor == model for the head-parallel all-to-alls: every rank's
    ``TrafficLog`` records, under each relayout layout's tag, ``(u-1)/u``
    of the layout's bytes (the ``D`` leaf included), and the
    ``relayout-in`` / ``relayout-out`` tasks of :func:`attention_pass_sim`
    last what rank 0's logged sends take on their links."""

    @pytest.mark.parametrize("name,kwargs", [
        ("ulysses", {}),
        ("usp", {"ulysses_degree": 2}),
        ("usp", {"ulysses_degree": 2, "use_burst_backward": True}),
        ("usp", {}),
    ], ids=["ulysses", "usp2-alg1", "usp2-alg2", "usp-default"])
    def test_relayout_bytes_are_the_logged_bytes(self, name, kwargs):
        topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        g, h, d = topo.world_size, 8, 4
        n = 4 * g
        if name == "usp":
            # the default degree on 2 x 4 is u = 4: a ring leg across nodes
            kwargs = {"ulysses_degree": default_ulysses_degree(
                h, g, topo.gpus_per_node), **kwargs}
        rng = np.random.default_rng(0)
        q, k, v, do = (rng.normal(size=(h, n, d)) for _ in range(4))
        method = get_method(name, block_size=4, **kwargs)
        u = method.grid(g).ulysses_degree
        assert u == {"ulysses": 8}.get(name, kwargs.get("ulysses_degree"))
        log = method.run(topo, q, k, v, do=do).comm.log
        wl = AttentionWorkload(seq_len=n, hidden=h * d, n_heads=h,
                               bytes_per_elem=8)
        for backward, layouts in ((False, (QKV_RELAYOUT, OUT_RELAYOUT)),
                                  (True, (DOUT_RELAYOUT, GRADS_RELAYOUT))):
            sim = attention_pass_sim(name, topo, wl, backward=backward,
                                     ulysses_degree=kwargs.get("ulysses_degree"))
            prefix = "attn-bwd/" if backward else "attn-fwd/"
            for task, layout in zip(("relayout-in", "relayout-out"), layouts):
                sent = [[rec for rec in log.records
                         if rec.tag == layout.tag and rec.src == r]
                        for r in range(g)]
                for r in range(g):
                    assert sum(rec.nbytes for rec in sent[r]) == (
                        wl.bundle_bytes(layout, g) * (u - 1) / u
                    ), (layout.tag, r)
                per_link = {}
                for rec in sent[0]:
                    per_link[rec.link] = per_link.get(rec.link, 0) + rec.nbytes
                assert sim.tasks[prefix + task].duration == max(
                    link_time(topo, nbytes, cls)
                    for cls, nbytes in per_link.items()
                ), layout.tag


class TestSelectiveEqualsRing:
    @settings(deadline=None, max_examples=6)
    @given(window=st.sampled_from([8, 16, 40]), seed=st.integers(0, 500))
    def test_selective_backward_equals_burst_backward(self, window, seed):
        """Two entirely different communication strategies, identical
        gradients, on random sliding-window problems."""
        from repro.attention import get_method
        from repro.masks import SlidingWindowMask
        from repro.partition import ContiguousPartitioner

        topo = make_cluster(4, node=a800_node(gpus_per_node=4))
        rng = np.random.default_rng(seed)
        q, k, v, do = (rng.normal(size=(2, 32, 8)) for _ in range(4))
        mask = SlidingWindowMask(window)
        part = ContiguousPartitioner()
        a = get_method("selective", partitioner=part, block_size=8).run(
            topo, q, k, v, mask=mask, do=do)
        b = get_method("burst", partitioner=part, block_size=8).run(
            topo, q, k, v, mask=mask, do=do)
        np.testing.assert_allclose(a.dq, b.dq, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(a.dk, b.dk, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(a.dv, b.dv, rtol=1e-9, atol=1e-11)


class TestEngineFuzz:
    @settings(deadline=None, max_examples=8)
    @given(
        dim=st.sampled_from([16, 32]),
        heads=st.sampled_from([2, 4]),
        kv_div=st.sampled_from([1, 2]),
        method=st.sampled_from(["burst", "loongtrain-double", "megatron-cp"]),
        ckpt=st.sampled_from(list(CheckpointMode)),
        head_impl=st.sampled_from(["fused", "naive", "tiled-recompute"]),
        pos=st.sampled_from(["learned", "rope"]),
        seed=st.integers(0, 100),
    )
    def test_random_configs_train_one_step(self, dim, heads, kv_div, method,
                                           ckpt, head_impl, pos, seed):
        """Any legal configuration must complete a finite training step."""
        topo = make_cluster(4, node=a800_node(gpus_per_node=4))
        cfg = TransformerConfig(
            vocab_size=32, dim=dim, n_layers=2, n_heads=heads,
            n_kv_heads=heads // kv_div, ffn_hidden=24, max_seq_len=32,
            attn_block_size=16, position_encoding=pos, seed=seed,
        )
        engine = BurstEngine(
            EngineConfig(model=cfg, method=method,
                         checkpoint=CheckpointPolicy(ckpt, 0.5),
                         head_impl=head_impl),
            topology=topo,
        )
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 32, size=16)
        result = engine.train_step(ids, np.roll(ids, -1))
        assert np.isfinite(result.loss)
        assert all(
            np.isfinite(p.data).all() for p in engine.model.parameters()
        )

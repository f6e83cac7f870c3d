"""Tests for the simulated communicator: numerics and traffic accounting."""

import numpy as np
import pytest

from repro.comm import (
    SimCommunicator,
    double_ring_schedule,
    global_ring_schedule,
)
from repro.topology import LinkClass, a800_node, make_cluster, ClusterTopology


def comm_for(num_gpus: int, gpus_per_node: int = 4) -> SimCommunicator:
    return SimCommunicator(make_cluster(num_gpus, node=a800_node(gpus_per_node=gpus_per_node)))


class TestRingShift:
    def test_shift_moves_data_around_ring(self):
        comm = comm_for(4)
        bufs = [np.full(3, float(r)) for r in range(4)]
        out = comm.ring_shift(bufs, [0, 1, 2, 3], phase="t")
        # rank r receives from predecessor (r - 1) % 4
        for r in range(4):
            np.testing.assert_array_equal(out[r], np.full(3, float((r - 1) % 4)))

    def test_shift_copies_buffers(self):
        comm = comm_for(2)
        bufs = [np.zeros(2), np.ones(2)]
        out = comm.ring_shift(bufs, [0, 1], phase="t")
        out[0][0] = 42.0
        assert bufs[1][0] == 1.0

    def test_partial_ring_leaves_others_untouched(self):
        comm = comm_for(4)
        bufs = [np.full(1, float(r)) for r in range(4)]
        out = comm.ring_shift(bufs, [0, 1], phase="t")
        assert out[2][0] == 2.0 and out[3][0] == 3.0
        assert out[0][0] == 1.0 and out[1][0] == 0.0

    def test_pytree_buffers(self):
        comm = comm_for(2)
        bufs = [
            {"k": np.full(2, 0.0), "v": np.full(2, 10.0)},
            {"k": np.full(2, 1.0), "v": np.full(2, 11.0)},
        ]
        out = comm.ring_shift(bufs, [0, 1], phase="t")
        assert out[0]["k"][0] == 1.0 and out[0]["v"][0] == 11.0

    def test_duplicate_ring_rejected(self):
        comm = comm_for(4)
        bufs = [np.zeros(1)] * 4
        with pytest.raises(ValueError):
            comm.ring_shift(bufs, [0, 1, 1], phase="t")

    def test_traffic_logged_with_link_class(self):
        # 2 nodes x 2 GPUs; ring 0-1-2-3 has 2 intra and 2 inter hops.
        comm = comm_for(8, gpus_per_node=4)
        topo = comm.topology
        bufs = [np.zeros(10) for _ in range(8)]
        comm.ring_shift(bufs, list(range(8)), phase="fwd")
        intra = comm.log.num_transfers(phase="fwd", link=LinkClass.INTRA)
        inter = comm.log.num_transfers(phase="fwd", link=LinkClass.INTER)
        assert intra == 6  # 3 per node
        assert inter == 2  # node boundary + wraparound
        assert comm.log.total_elems(phase="fwd") == 8 * 10


class TestCollectives:
    def test_all_gather_concatenates(self):
        comm = comm_for(4)
        shards = [np.full((2, 3), float(r)) for r in range(4)]
        out = comm.all_gather(shards, axis=0, phase="ag")
        assert out[0].shape == (8, 3)
        for r in range(4):
            np.testing.assert_array_equal(out[2][2 * r : 2 * r + 2], shards[r])

    def test_all_gather_ring_traffic_volume(self):
        g = 4
        comm = comm_for(g)
        shards = [np.zeros(5) for _ in range(g)]
        comm.all_gather(shards, phase="ag")
        # ring all-gather: every rank sends G-1 shards
        per_rank = comm.log.per_rank_send_elems(phase="ag")
        assert all(v == (g - 1) * 5 for v in per_rank.values())

    def test_reduce_scatter_sums(self):
        g = 3
        comm = comm_for(g, gpus_per_node=3)
        contributions = [
            [np.full(2, float(r * 10 + j)) for j in range(g)] for r in range(g)
        ]
        out = comm.reduce_scatter(contributions, phase="rs")
        for j in range(g):
            expected = sum(float(r * 10 + j) for r in range(g))
            np.testing.assert_allclose(out[j], np.full(2, expected))

    def test_all_reduce_matches_sum_and_logs_2x_volume(self):
        g = 4
        comm = comm_for(g)
        bufs = [np.full(8, float(r)) for r in range(g)]
        out = comm.all_reduce(bufs, phase="ar")
        np.testing.assert_allclose(out[0], np.full(8, 0.0 + 1 + 2 + 3))
        # ring all-reduce volume: 2 * (G-1)/G * nelems per rank
        per_rank = comm.log.per_rank_send_elems(phase="ar")
        assert all(v == 2 * (g - 1) * (8 // g) for v in per_rank.values())

    def test_all_to_all_transposes(self):
        g = 3
        comm = comm_for(g, gpus_per_node=3)
        chunks = [
            [np.array([float(src * 10 + dst)]) for dst in range(g)]
            for src in range(g)
        ]
        out = comm.all_to_all(chunks, phase="a2a")
        for dst in range(g):
            for src in range(g):
                assert out[dst][src][0] == float(src * 10 + dst)

    def test_broadcast(self):
        comm = comm_for(4)
        out = comm.broadcast(np.arange(3.0), root=2, phase="bc")
        for buf in out:
            np.testing.assert_array_equal(buf, np.arange(3.0))
        assert comm.log.num_transfers(phase="bc") == 3

    def test_exchange_requires_permutation(self):
        comm = comm_for(2)
        with pytest.raises(ValueError):
            comm.exchange([np.zeros(1), np.zeros(1)], [0, 0], phase="x")


def _nine_ops(comm, g=4):
    """Issue every collective once on fresh inputs: ``(inputs, outputs)``,
    each a list of pytrees in issue order."""
    rng = np.random.default_rng(0)
    bufs = [rng.standard_normal(3) for _ in range(g)]
    trees = [(rng.standard_normal(2), {"d": rng.standard_normal(1)}) for _ in range(g)]
    grid = [[rng.standard_normal(2) for _ in range(g)] for _ in range(g)]
    pairs = [[rng.standard_normal(2) for _ in range(2)] for _ in range(g)]
    inputs = [bufs, trees, grid, pairs]
    outputs = [
        comm.send(0, 2, trees[0], phase="p", tag="t"),
        comm.exchange(trees, [1, 0, 3, 2], phase="p", channel="rev"),
        comm.ring_shift(trees, [0, 2, 1], phase="p", reverse=True),
        comm.all_gather(bufs, phase="p"),
        comm.reduce_scatter(grid, phase="p"),
        comm.all_reduce(bufs, phase="p", tag="grads"),
        comm.all_to_all(grid, phase="p"),
        comm.group_all_to_all(pairs, [[0, 1], [3, 2]], phase="p"),
        comm.broadcast(bufs[1], 1, phase="p"),
    ]
    return inputs, outputs


def _leaves(tree):
    from repro.utils.pytree import tree_flatten

    return tree_flatten(tree)[0]


def _staged_comm(stage: str) -> SimCommunicator:
    """A clean 4-rank communicator, bare or with one recovery stage."""
    from repro.comm import FailureDetector
    from repro.resilience import ResilientCommunicator

    attach = {"plain": lambda comm: comm, "checksum": ResilientCommunicator,
              "lease": FailureDetector}[stage]
    return attach(comm_for(4))


class TestOneInterceptionPoint:
    """Every collective goes through ``SimCommunicator._deliver``; a stage
    that finds nothing wrong changes neither results nor the traffic log."""

    @pytest.mark.parametrize("stage", ["plain", "checksum", "lease"])
    def test_clean_stage_is_transparent(self, stage):
        plain = comm_for(4)
        _, want = _nine_ops(plain)
        comm = _staged_comm(stage)
        inputs, got = _nine_ops(comm)
        assert isinstance(comm, SimCommunicator)
        assert comm.log.records == plain.log.records
        for a, b in zip(_leaves(got), _leaves(want)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # Deliveries are copies: no result leaf is a sender's buffer
        # (ring_shift's rank 3 sat outside the ring and keeps its own).
        sent = {id(leaf) for leaf in _leaves(inputs)}
        kept = {id(leaf) for leaf in _leaves(inputs[1][3])}
        assert kept <= {id(leaf) for leaf in _leaves(got[2][3])}
        assert not (sent - kept) & {id(leaf) for leaf in _leaves(got)}

    @pytest.mark.parametrize("issue, message", [
        (lambda c, b: c.ring_shift(b, [0, 1, 7], phase="p"), "rank 7 out of range"),
        (lambda c, b: c.exchange(b[:2], [1, 0, 2, 3], phase="p"), "one buffer per rank"),
        (lambda c, b: c.exchange(b, [0, 0, 1, 2], phase="p"), "permutation"),
        (lambda c, b: c.broadcast(b[0], 9, phase="p"), "rank 9 out of range"),
        (lambda c, b: c.send(0, 4, b[0], phase="p"), "rank 4 out of range"),
        (lambda c, b: c.group_all_to_all([[x] for x in b], [[0], [5]], phase="p"),
         "rank 5 out of range"),
    ])
    @pytest.mark.parametrize("stage", ["plain", "checksum", "lease"])
    def test_invalid_call_rejected_before_any_stage(self, stage, issue, message):
        comm = _staged_comm(stage)
        with pytest.raises(ValueError, match=message):
            issue(comm, [np.zeros(2) for _ in range(4)])
        assert getattr(comm, "call_index", 0) == 0
        assert comm.log.records == []


class TestRingSchedules:
    @pytest.mark.parametrize("num_gpus,gpn", [(4, 4), (8, 4), (8, 2), (16, 4)])
    def test_global_schedule_valid(self, num_gpus, gpn):
        topo = make_cluster(num_gpus, node=a800_node(gpus_per_node=gpn))
        global_ring_schedule(topo).validate()

    @pytest.mark.parametrize("num_gpus,gpn", [(4, 4), (8, 4), (8, 2), (16, 4), (6, 3)])
    def test_double_ring_schedule_valid(self, num_gpus, gpn):
        topo = make_cluster(num_gpus, node=a800_node(gpus_per_node=gpn))
        double_ring_schedule(topo).validate()

    def test_double_ring_single_node_is_all_intra(self):
        topo = make_cluster(4, node=a800_node(gpus_per_node=4))
        sched = double_ring_schedule(topo)
        for t in range(len(sched.transitions)):
            assert sched.transition_link_class(t) is LinkClass.INTRA

    def test_double_ring_transition_pattern(self):
        # 2 nodes x 4 GPUs: transitions 1,2,3 intra; 4 inter; 5,6,7 intra.
        topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        sched = double_ring_schedule(topo)
        classes = [sched.transition_link_class(t) for t in range(7)]
        expected = [
            LinkClass.INTRA, LinkClass.INTRA, LinkClass.INTRA,
            LinkClass.INTER,
            LinkClass.INTRA, LinkClass.INTRA, LinkClass.INTRA,
        ]
        assert classes == expected

    def test_double_ring_fewer_inter_transitions_than_global(self):
        topo = make_cluster(16, node=a800_node(gpus_per_node=4))
        dbl = double_ring_schedule(topo)
        n_inter_dbl = sum(
            1
            for t in range(len(dbl.transitions))
            if dbl.transition_link_class(t) is LinkClass.INTER
        )
        # DoubleRing: num_nodes - 1 inter transitions; global ring pays the
        # inter-node latency on *every* transition (lockstep).
        assert n_inter_dbl == topo.num_nodes - 1

    def test_apply_matches_origin_tracking(self):
        topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        comm = SimCommunicator(topo)
        sched = double_ring_schedule(topo)
        bufs = [np.array([float(r)]) for r in range(8)]
        origins = sched.origins()
        for t in range(len(sched.transitions)):
            bufs = sched.apply(comm, bufs, t, phase="ring")
            for rank in range(8):
                assert bufs[rank][0] == float(origins[t + 1][rank])

    def test_inter_transitions_use_parallel_nic_rings(self):
        topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        comm = SimCommunicator(topo)
        sched = double_ring_schedule(topo)
        bufs = [np.zeros(4) for _ in range(8)]
        sched.apply(comm, bufs, 3, phase="inter-step")  # transition 4 is inter
        recs = [r for r in comm.log.records if r.phase == "inter-step"]
        assert all(r.link is LinkClass.INTER for r in recs)
        # one ring per local rank -> every rank participates
        assert sorted({r.src for r in recs}) == list(range(8))

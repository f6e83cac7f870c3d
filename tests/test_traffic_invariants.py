"""Traffic invariants: simulated bytes must equal the paper's closed forms.

This is the regression fence around Table 1: the ``3Nd + 2N`` vs ``4Nd``
backward-volume claim is asserted against what the simulator *actually
sends* — the paper's count minus the read-only slots the return hop
leaves out — for several topologies including non-power-of-two world
sizes, and ``table1_comm_times`` is re-derived from observed transition
payloads.  A communication refactor that changes what any ring method
puts on the wire fails here even if the analytic formulas still agree
with each other.
"""

import numpy as np
import pytest

from repro.attention import get_method
from repro.comm import SimCommunicator
from repro.comm.ring import backward_bundle
from repro.perf.cost import attention_step_sizes, bidirectional_direction_bytes
from repro.testing import (
    check_all_invariants,
    check_table1_consistency,
    check_traffic_invariants,
    expected_backward_elems,
)
from repro.topology import a800_node, make_cluster


def topo(nodes, gpn):
    return make_cluster(nodes * gpn, node=a800_node(gpus_per_node=gpn))


#: >= 3 topologies, as the issue requires — single-node, the paper's 2x4,
#: and two non-power-of-two shapes.
TOPOLOGIES = [topo(1, 4), topo(2, 4), topo(2, 3), topo(3, 3)]


class TestBackwardVolumePinned:
    """The headline claim, pinned to raw simulated element counts."""

    def _per_rank_bwd(self, method_name, topology, n, d):
        rng = np.random.default_rng(0)
        q, k, v, do = (rng.normal(size=(1, n, d)) for _ in range(4))
        method = get_method(method_name, block_size=max(4, n // 8))
        comm = SimCommunicator(topology)
        method.run(topology, q, k, v, mask=None, do=do, comm=comm)
        return comm.log.per_rank_send_elems(phase="attn-bwd")

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: f"{t.num_nodes}x{t.gpus_per_node}")
    def test_burst_backward_is_3nd_plus_2n(self, topology):
        """The paper's ``3Nd + 2N`` minus the ``(Q, dO, D, Lse)`` shard the
        return hop leaves out: it ships ``dQ`` alone."""
        g = topology.world_size
        n, d = 8 * g, 4
        per_rank = self._per_rank_bwd("burst", topology, n, d)
        unread = (2 * d + 2) * (n // g)
        assert set(per_rank) == set(range(g))
        assert all(v == 3 * n * d + 2 * n - unread for v in per_rank.values())

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: f"{t.num_nodes}x{t.gpus_per_node}")
    def test_flat_ring_backward_is_4nd(self, topology):
        """The paper's ``4Nd`` minus the ``(K, V)`` shard the return hop
        leaves out: it ships ``dK, dV`` alone."""
        g = topology.world_size
        n, d = 8 * g, 4
        per_rank = self._per_rank_bwd("megatron-cp", topology, n, d)
        assert set(per_rank) == set(range(g))
        assert all(v == 4 * n * d - 2 * d * (n // g) for v in per_rank.values())

    def test_expected_elems_helpers_match_paper(self):
        assert expected_backward_elems("alg1", 64, 8) == 4 * 64 * 8
        assert expected_backward_elems("alg2", 64, 8) == 3 * 64 * 8 + 2 * 64
        with pytest.raises(ValueError, match="unknown algorithm"):
            expected_backward_elems("alg3", 64, 8)


class TestBidirectionalVolumePinned:
    """Per-direction byte totals of ``ring_mode="bidirectional"``, pinned
    to the closed forms in :func:`bidirectional_direction_bytes` on the
    same four topologies as the unidirectional ``4Nd`` / ``3Nd + 2N``
    pins — and the unidirectional mode to ``(G - 1) * all + carried`` on
    the forward channel, nothing on the reverse one."""

    def _run(self, method_name, topology, n, d, n_heads=1,
             ring_mode="bidirectional"):
        rng = np.random.default_rng(0)
        q, k, v, do = (rng.normal(size=(n_heads, n, d)) for _ in range(4))
        method = get_method(
            method_name, block_size=max(4, n // 8), ring_mode=ring_mode
        )
        comm = SimCommunicator(topology)
        method.run(topology, q, k, v, mask=None, do=do, comm=comm)
        return comm.log

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: f"{t.num_nodes}x{t.gpus_per_node}")
    @pytest.mark.parametrize("method,bwd_key", [
        ("megatron-cp", "bwd_alg1"),
        ("loongtrain-double", "bwd_alg1"),
        ("burst", "bwd_alg2"),
    ])
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("ring_mode", ["bidirectional", "unidirectional"])
    def test_per_direction_elems_match_closed_forms(
        self, ring_mode, n_heads, method, bwd_key, topology
    ):
        g = topology.world_size
        n, d = 8 * g, 4
        log = self._run(method, topology, n, d, n_heads, ring_mode)
        bidir = ring_mode == "bidirectional"
        if bidir:
            pred = bidirectional_direction_bytes(
                n, n_heads * d, g, bytes_per_elem=1, n_heads=n_heads
            )
        else:
            size = {
                which: attention_step_sizes(
                    n, n_heads * d, g, 1, n_heads, which
                )
                for which in ("all", "carried")
            }
            pred = {
                key: {
                    "fwd": (g - 1) * size["all"][key] + size["carried"][key],
                    "rev": 0,
                }
                for key in size["all"]
            }
        for phase, key in [("attn-fwd", "fwd"), ("attn-bwd", bwd_key)]:
            for channel in ("fwd", "rev"):
                per_rank = log.per_rank_send_elems(
                    phase=phase, channel=channel
                )
                want = pred[key][channel]
                got = [per_rank.get(r, 0) for r in range(g)]
                assert got == [want] * g, (phase, channel, got, want)
        # every backward hop is the whole bundle, its carried slots or (on
        # the reverse stream) its read-only slots, as the layout sizes them
        bundle = backward_bundle(bwd_key.removeprefix("bwd_"))
        slots = (
            ("all", "carried", "read-only") if bidir else ("all", "carried")
        )
        assert {
            r.nelems for r in log.records if r.phase == "attn-bwd"
        } == {
            bundle.elems(n // g, n_heads, n_heads, d, which)
            for which in slots
        }

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: f"{t.num_nodes}x{t.gpus_per_node}")
    def test_bidirectional_moves_fewer_total_elems(self, topology):
        """Both modes now move the same bytes, fewer than the paper's
        ``3Nd + 2N``.

        Neither mode takes a read-only slot the long way round (the
        unidirectional return hop ships the carried slots alone), so the
        modes differ in the hop chain only.  The id predates that change.
        """
        g = topology.world_size
        n, d = 8 * g, 4
        per_rank, uni = (
            self._run("burst", topology, n, d, ring_mode=mode)
            .per_rank_send_elems(phase="attn-bwd")
            for mode in ("bidirectional", "unidirectional")
        )
        assert per_rank == uni
        assert all(v < 3 * n * d + 2 * n for v in per_rank.values())

    def test_per_channel_split_accounts_for_everything(self):
        topology = topo(2, 2)
        n, d = 32, 4
        log = self._run("burst", topology, n, d)
        for phase in ("attn-fwd", "attn-bwd"):
            by_channel = log.per_channel_elems(phase=phase)
            total = sum(
                log.per_rank_send_elems(phase=phase).values()
            )
            assert sum(by_channel.values()) == total
            assert set(by_channel) == {"fwd", "rev"}


class TestInvariantCrossChecks:
    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: f"{t.num_nodes}x{t.gpus_per_node}")
    @pytest.mark.parametrize("method", ["megatron-cp", "loongtrain-double",
                                        "burst"])
    def test_traffic_matches_cost_model(self, method, topology):
        report = check_traffic_invariants(
            method, topology, seq_len=6 * topology.world_size, head_dim=4
        )
        assert report.passed, report.summary()

    def test_multi_head_generalisation(self):
        report = check_traffic_invariants(
            "burst", topo(2, 2), seq_len=24, head_dim=4, n_heads=3
        )
        assert report.passed, report.summary()

    def test_masked_runs_move_the_same_bytes(self):
        """Ring communication is mask-oblivious: causal masking skips
        compute tiles, never transfers."""
        from repro.masks import CausalMask

        report = check_traffic_invariants(
            "burst", topo(2, 2), seq_len=24, head_dim=4, mask=CausalMask()
        )
        assert report.passed, report.summary()

    def test_non_ring_method_rejected(self):
        with pytest.raises(ValueError, match="ring-family"):
            check_traffic_invariants("ulysses", topo(1, 4), seq_len=32)


class TestTable1TiedToSimulatedBytes:
    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: f"{t.num_nodes}x{t.gpus_per_node}")
    def test_table1_rederives_from_observed_traffic(self, topology):
        report = check_table1_consistency(
            topology, seq_len=6 * topology.world_size, hidden=16
        )
        assert report.passed, report.summary()

    @pytest.mark.parametrize("n_heads", [1, 4])
    def test_observed_hop_bytes_equal_step_sizes(self, n_heads):
        """The per-transition bundle sizes the cost model assumes are the
        bundles the implementations actually send (float64 sim bytes) —
        with several heads too: Alg. 2 ships one D and one Lse row each.
        The return hop ships the bundle's carried slots."""
        topology = topo(2, 2)
        g, n, hidden = 4, 24, 8
        sizes, carried = (
            attention_step_sizes(
                n, hidden, g, bytes_per_elem=8, n_heads=n_heads, which=which
            )
            for which in ("all", "carried")
        )
        rng = np.random.default_rng(1)
        shape = (n_heads, n, hidden // n_heads)
        q, k, v, do = (rng.normal(size=shape) for _ in range(4))
        for name, key in [("megatron-cp", "bwd_alg1"), ("burst", "bwd_alg2")]:
            comm = SimCommunicator(topology)
            get_method(name, block_size=4).run(
                topology, q, k, v, mask=None, do=do, comm=comm
            )
            fwd = {r.nbytes for r in comm.log.records if r.phase == "attn-fwd"}
            bwd = {
                home: {r.nbytes for r in comm.log.records
                       if r.phase == "attn-bwd"
                       and r.tag.endswith("-return") == home}
                for home in (False, True)
            }
            assert fwd == {int(sizes["fwd"])}
            assert bwd == {False: {int(sizes[key])},
                           True: {int(carried[key])}}

    def test_check_all_invariants_sweep(self):
        reports = check_all_invariants([topo(1, 4), topo(2, 2)])
        assert all(r.passed for r in reports)
        assert len(reports) == 8  # 3 methods + table1, per topology

    def test_report_summary_shows_failures(self):
        from repro.testing import InvariantReport

        report = InvariantReport(name="demo")
        report.record(True, "fine")
        report.record(False, "bytes diverged")
        assert not report.passed
        assert "FAIL" in report.summary()
        assert "bytes diverged" in report.summary()


class TestStepAttentionBytes:
    """One benchmark step's attention traffic, held to the closed form: a
    forward and a backward pass per layer (no replay re-runs attention
    under these workloads' sequence-level policy), each rank sending
    ``(G - 1)`` KV bundles forward and ``(G - 1)`` Alg. 2 bundles plus
    its ``dQ`` home backward, sized by the :class:`BundleLayout`."""

    #: ``comm.attn_bytes`` at full benchmark length.
    PINNED = {"burst_long": 79167488, "wide_short": 25296896,
              "swa_bidir": 79167488}

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_attn_bytes_per_step(self, name):
        from benchmarks.step.workloads import WORKLOADS, make_batch
        from repro.comm.ring import ALG2_BUNDLE, KV_BUNDLE
        from repro.engine import BurstEngine

        spec = WORKLOADS[name]
        config = spec.config(spec.seq_len)
        engine = BurstEngine(config, topology=spec.topology())
        engine.train_step(*make_batch(config, seed=7))
        logged = sum(
            r.nbytes for r in engine.comm.log.records
            if r.phase.startswith("attn")
        )
        cfg, g = config.model, spec.ranks
        shape = (cfg.max_seq_len // g, cfg.n_heads, cfg.n_heads,
                 cfg.dim // cfg.n_heads)
        per_pass = (g - 1) * KV_BUNDLE.elems(*shape) + (
            (g - 1) * ALG2_BUNDLE.elems(*shape)
            + ALG2_BUNDLE.elems(*shape, "carried")
        )
        assert logged == cfg.n_layers * g * 8 * per_pass == self.PINNED[name]

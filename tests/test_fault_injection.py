"""Fault injection: corrupt the communication layer and confirm the
verification machinery catches it.

A reproduction's tests are only as good as their ability to *fail*.  The
fault models now live in :mod:`repro.testing.faults` (see
``tests/test_testing_harness.py`` for the full method × fault acceptance
matrix); this file keeps the narrative burst-specific scenarios — where in
Algorithm 2's schedule each bug bites — using the promoted classes.
"""

import numpy as np

from repro.attention import get_method
from repro.attention.verify import verify_method
from repro.comm import SimCommunicator
from repro.masks import CausalMask
from repro.testing.faults import (
    CorruptPayloadComm,
    DropTransferComm,
    MisrouteHopComm,
    StaleBufferComm,
)
from repro.topology import a800_node, make_cluster


TOPO = make_cluster(4, node=a800_node(gpus_per_node=4))


def run_with_comm(comm):
    rng = np.random.default_rng(0)
    q, k, v, do = (rng.normal(size=(2, 32, 8)) for _ in range(4))
    method = get_method("burst", block_size=8)
    res = method.run(TOPO, q, k, v, mask=CausalMask(), do=do, comm=comm)
    ref = get_method("burst", block_size=8).run(
        TOPO, q, k, v, mask=CausalMask(), do=do
    )
    return res, ref


class TestFaultsAreDetected:
    def test_clean_run_matches(self):
        res, ref = run_with_comm(SimCommunicator(TOPO))
        np.testing.assert_allclose(res.o, ref.o, rtol=1e-12)
        np.testing.assert_allclose(res.dq, ref.dq, rtol=1e-12)

    def test_corrupted_transfer_changes_output(self):
        comm = CorruptPayloadComm(TOPO, op="ring_shift", at_call=1)
        res, ref = run_with_comm(comm)
        assert not np.allclose(res.o, ref.o, rtol=1e-9)

    def test_corrupt_last_kv_hop_reaches_only_its_receiver(self):
        """The forward kernel computes against the bundle *delivered* this
        ring step: noise on the last ``kv`` hop (nothing forwards it on)
        changes the rows of the rank that received it, and only those."""
        victim = 2
        comm = CorruptPayloadComm(
            TOPO, phase="attn-fwd", tag="kv", at_call=TOPO.world_size - 1,
            victim=victim,
        )
        res, ref = run_with_comm(comm)
        assert comm.injections == 1
        mine = get_method("burst").indices(32, TOPO.world_size)[victim]
        others = np.setdiff1d(np.arange(32), mine)
        assert not np.allclose(res.o[:, mine], ref.o[:, mine], rtol=1e-9)
        np.testing.assert_array_equal(res.o[:, others], ref.o[:, others])

    def test_late_corruption_only_hits_backward(self):
        """Corrupting the first backward transfer leaves the output intact
        but poisons gradients."""
        comm = CorruptPayloadComm(TOPO, op="ring_shift", phase="attn-bwd")
        res, ref = run_with_comm(comm)
        np.testing.assert_allclose(res.o, ref.o, rtol=1e-12)
        assert not np.allclose(res.dq, ref.dq, rtol=1e-9)

    def test_dropped_gradient_return_detected(self):
        # Algorithm 2 returns dQ via the final exchange: losing it must show
        comm = DropTransferComm(TOPO, op="exchange", tag="return")
        res, ref = run_with_comm(comm)
        assert not np.allclose(res.dq, ref.dq, rtol=1e-9)

    def test_misrouting_detected(self):
        comm = MisrouteHopComm(TOPO, op="ring_shift", at_call=1)
        res, ref = run_with_comm(comm)
        assert not np.allclose(res.o, ref.o, rtol=1e-6)

    def test_stale_kv_buffer_detected(self):
        """Reusing the previous ring step's KV bundle (double-buffering bug)
        corrupts the merged softmax states."""
        comm = StaleBufferComm(TOPO, op="ring_shift", tag="kv", at_call=2)
        res, ref = run_with_comm(comm)
        assert not np.allclose(res.o, ref.o, rtol=1e-6)
        assert not np.allclose(res.lse, ref.lse, rtol=1e-6)

    def test_verify_method_flags_noisy_tolerance(self):
        """The verification report fails when errors exceed tolerance."""
        report = verify_method("burst", topology=TOPO,
                               seq_len=32, n_heads=4, tolerance=1e-30)
        assert not report.passed  # float64 noise > 1e-30
        assert "FAIL" in report.summary()

    def test_verify_method_passes_at_sane_tolerance(self):
        report = verify_method("burst", topology=TOPO,
                               seq_len=32, n_heads=4)
        assert report.passed

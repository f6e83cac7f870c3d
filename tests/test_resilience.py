"""Recovery tests: the resilient communicator heals every PR-1 fault class,
persistent damage fails structurally, and interrupted training runs resume
into bitwise-identical histories."""

import os

import numpy as np
import pytest

from repro.attention.verify import verify_method
from repro.comm import SimCommunicator
from repro.engine import BurstEngine, EngineConfig, Trainer
from repro.nn import TransformerConfig
from repro.nn.rng import set_seed
from repro.resilience import (
    CommFailure,
    FaultEscalation,
    FaultMonitor,
    ResilientCommunicator,
    RetryPolicy,
    tree_checksum,
)
from repro.resilience.chaos import SimulatedCrash, run_chaos
from repro.testing.faults import FAULT_REGISTRY, make_fault
from repro.topology import a800_node, make_cluster


def topo4():
    return make_cluster(4, node=a800_node(gpus_per_node=4))


#: "ring" in the recovery matrix is the flat-ring method (megatron-cp).
MATRIX_METHODS = ["burst", "megatron-cp", "ulysses"]


class TestChecksum:
    def test_identical_trees_match(self):
        a = np.arange(12.0).reshape(3, 4)
        assert tree_checksum((a, [a * 2])) == tree_checksum((a.copy(), [a * 2]))

    def test_any_bit_flip_changes_digest(self):
        a = np.arange(12.0)
        b = a.copy()
        b[7] = np.nextafter(b[7], np.inf)  # one ULP
        assert tree_checksum(a) != tree_checksum(b)

    def test_shape_and_dtype_salted(self):
        a = np.zeros(4)
        assert tree_checksum(a) != tree_checksum(a.reshape(2, 2))
        assert tree_checksum(a) != tree_checksum(a.astype(np.float32))

    def test_none_entries_supported(self):
        assert tree_checksum([None, np.ones(2)]) == tree_checksum([None, np.ones(2)])


class TestRecoveryMatrix:
    """All five fault classes × {burst, ring, ulysses}: a single injected
    fault is detected, retransmitted, and the final outputs match the
    fault-free reference."""

    @pytest.mark.parametrize("fault_name", sorted(FAULT_REGISTRY))
    @pytest.mark.parametrize("method", MATRIX_METHODS)
    def test_single_fault_recovered(self, method, fault_name):
        inner = make_fault(fault_name, topo4(), at_call=2)
        comm = ResilientCommunicator(inner)
        report = verify_method(
            method, seq_len=32, n_heads=4,
            comm=comm,
        )
        assert inner.injections >= 1, "fault never fired"
        assert comm.monitor.total_faults >= 1, "fault not detected"
        assert comm.monitor.total_recoveries >= 1, "fault not recovered"
        assert report.passed, report.summary()

    @pytest.mark.parametrize("fault_name", sorted(FAULT_REGISTRY))
    def test_unprotected_comm_stays_broken(self, fault_name):
        """Sanity inverse: without the resilient wrapper the same faults
        corrupt the run (so the matrix above is not vacuous)."""
        inner = make_fault(fault_name, topo4(), at_call=2)
        report = verify_method(
            "burst", seq_len=32, n_heads=4,
            comm=inner,
        )
        assert not report.passed


class TestBidirectionalRecovery:
    """The reverse channel of ``ring_mode="bidirectional"`` is covered by
    the same five fault classes, and the resilient layer heals it: the
    recovered run still matches the dense reference."""

    @pytest.mark.parametrize("fault_name", sorted(FAULT_REGISTRY))
    def test_reverse_channel_fault_recovered(self, fault_name):
        inner = make_fault(fault_name, topo4(), at_call=1, channel="rev")
        comm = ResilientCommunicator(inner)
        report = verify_method(
            "burst", seq_len=32, n_heads=4,
            comm=comm, ring_mode="bidirectional",
        )
        assert inner.injections >= 1, "reverse-channel fault never fired"
        assert comm.monitor.total_faults >= 1, "fault not detected"
        assert comm.monitor.total_recoveries >= 1, "fault not recovered"
        assert report.passed, report.summary()

    @pytest.mark.parametrize("fault_name", sorted(FAULT_REGISTRY))
    def test_unprotected_reverse_channel_stays_broken(self, fault_name):
        """Without the resilient wrapper a reverse-channel fault corrupts
        the bidirectional run, so the matrix above is not vacuous."""
        inner = make_fault(fault_name, topo4(), at_call=1, channel="rev")
        report = verify_method(
            "burst", seq_len=32, n_heads=4,
            comm=inner, ring_mode="bidirectional",
        )
        assert not report.passed

    @pytest.mark.parametrize("method", ["burst", "megatron-cp"])
    def test_matrix_extends_to_bidirectional(self, method):
        """The original recovery matrix holds with the mode flipped:
        an untargeted mid-run fault still heals under bidirectional."""
        inner = make_fault("corrupt", topo4(), at_call=2)
        comm = ResilientCommunicator(inner)
        report = verify_method(
            method, seq_len=32, n_heads=4,
            comm=comm, ring_mode="bidirectional",
        )
        assert inner.injections >= 1
        assert comm.monitor.total_recoveries >= 1
        assert report.passed, report.summary()


class TestStructuredFailure:
    def test_persistent_fault_raises_commfailure(self):
        comm = ResilientCommunicator(
            make_fault("corrupt", topo4(), at_call=None),
            retry=RetryPolicy(max_retries=2),
        )
        with pytest.raises(CommFailure) as exc_info:
            verify_method(
                "burst", seq_len=32, n_heads=4,
                comm=comm,
            )
        failure = exc_info.value
        assert failure.op == "ring_shift"
        assert failure.phase == "attn-fwd"
        assert failure.call_index == 1
        assert failure.ranks == [0]
        assert failure.attempts == 3
        # The failure names everything a supervisor needs to fence the run.
        msg = str(failure)
        for needle in ("ring_shift", "attn-fwd", "call #1", "3 attempts"):
            assert needle in msg

    def test_persistent_stale_buffer_recovers(self):
        """A permanently stale double-buffer heals on every retry: the
        retransmission lands the delivery the buffer missed."""
        comm = ResilientCommunicator(make_fault("stale", topo4(), at_call=None))
        report = verify_method(
            "burst", seq_len=32, n_heads=4,
            comm=comm,
        )
        assert report.passed
        assert comm.monitor.total_recoveries >= 1

    def test_retries_appear_in_traffic_log(self):
        """Retransmissions are real traffic: the recovered run logs more
        bytes than the clean one."""
        clean = SimCommunicator(topo4())
        verify_method("burst", seq_len=32,
                      n_heads=4, comm=clean)
        faulty = ResilientCommunicator(make_fault("corrupt", topo4(), at_call=1))
        verify_method("burst", seq_len=32,
                      n_heads=4, comm=faulty)
        assert faulty.log.total_bytes() > clean.log.total_bytes()


class TestFaultMonitor:
    def test_per_rank_counters(self):
        monitor = FaultMonitor()
        monitor.record_fault(op="send", phase="p", tag="t", call_index=1,
                             ranks=[2], backoff_s=0.05)
        monitor.record_fault(op="send", phase="p", tag="t", call_index=2,
                             ranks=[2, 3], backoff_s=0.10)
        assert monitor.faults_by_rank == {2: 2, 3: 1}
        assert monitor.total_faults == 2
        assert monitor.total_backoff_s == pytest.approx(0.15)
        assert "r2:2" in monitor.summary()

    def test_escalation_past_threshold(self):
        monitor = FaultMonitor(escalate_threshold=2)
        comm = ResilientCommunicator(
            make_fault("drop", topo4(), at_call=None), monitor=monitor
        )
        with pytest.raises(FaultEscalation) as exc_info:
            verify_method(
                "burst", seq_len=32, n_heads=4,
                comm=comm,
            )
        assert exc_info.value.count == 3
        assert exc_info.value.threshold == 2

    def test_backoff_is_deterministic_exponential(self):
        policy = RetryPolicy(max_retries=3, base_backoff_s=0.1, multiplier=2.0)
        assert [policy.delay(a) for a in range(3)] == [0.1, 0.2, 0.4]


class TestResilientPassthrough:
    def test_unguarded_collectives_delegate(self):
        comm = ResilientCommunicator(SimCommunicator(topo4()))
        bufs = [np.full(4, float(r)) for r in range(4)]
        out = comm.all_reduce(bufs, phase="p")
        np.testing.assert_allclose(out[0], np.full(4, 6.0))
        assert comm.world_size == 4
        assert comm.log is comm.inner.log

    def test_clean_deliveries_cost_no_retries(self):
        comm = ResilientCommunicator(SimCommunicator(topo4()))
        bufs = [np.full(2, float(r)) for r in range(4)]
        out = comm.ring_shift(bufs, [0, 1, 2, 3], phase="p")
        np.testing.assert_allclose(out[1], bufs[0])
        assert comm.monitor.total_faults == 0
        assert comm.monitor.total_recoveries == 0


class TestRetryReentersLowerStages:
    def test_retransmit_is_recounted_and_logged(self):
        """A retry runs the fault and log stages again: the injector sees
        two calls (damaging only the first) and the hops are logged twice."""
        fault = make_fault("corrupt", topo4(), at_call=1)
        comm = ResilientCommunicator(fault)
        bufs = [np.full(2, float(r)) for r in range(4)]
        out = comm.ring_shift(bufs, [0, 1, 2, 3], phase="p")
        np.testing.assert_array_equal(out[1], bufs[0])
        assert (fault.injections, fault.calls_matched) == (1, 2)
        assert comm.monitor.recoveries == [("ring_shift", 1, 2)]
        assert comm.call_index == 1
        assert len(comm.log.records) == 2 * 4
        assert comm.log.records[:4] == comm.log.records[4:]

    @pytest.mark.parametrize("name, valid", [
        ("corrupt", "ring_shift"),
        ("crash", "all_gather"),
    ])
    def test_unmatchable_op_filter_rejected(self, name, valid):
        assert make_fault(name, topo4(), op=valid).target_op == valid
        with pytest.raises(ValueError, match="valid ops.*ring_shift"):
            make_fault(name, topo4(), op="ringshift")

    def test_message_fault_cannot_target_a_reduction(self):
        with pytest.raises(ValueError, match="can never match"):
            make_fault("corrupt", topo4(), op="all_gather", at_call=None)


def tiny_engine(comm=None):
    config = EngineConfig(
        model=TransformerConfig(
            vocab_size=32, dim=16, n_layers=1, n_heads=4, ffn_hidden=24,
            max_seq_len=32, attn_block_size=8, seed=1,
        ),
        lr=3e-3,
    )
    if comm is not None:
        return BurstEngine(config, comm=comm)
    return BurstEngine(config, topology=topo4())


def batches(seed=0, n=2, seq=32):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        ids = rng.integers(0, 32, size=seq)
        out.append((ids, np.roll(ids, -1)))
    return out


class TestEngineCommInjection:
    def test_engine_adopts_comm_topology(self):
        comm = SimCommunicator(topo4())
        engine = tiny_engine(comm=comm)
        assert engine.comm is comm
        assert engine.topology is comm.topology

    def test_mismatched_topology_rejected(self):
        comm = SimCommunicator(topo4())
        other = make_cluster(4, node=a800_node(gpus_per_node=4))
        with pytest.raises(ValueError):
            BurstEngine(
                EngineConfig(model=TransformerConfig(
                    vocab_size=32, dim=16, n_layers=1, n_heads=4,
                    ffn_hidden=24, max_seq_len=32, attn_block_size=8)),
                topology=other, comm=comm,
            )

    def test_training_through_resilient_comm_matches_clean(self):
        data = batches()
        set_seed(0)
        clean = Trainer(tiny_engine(), clip_norm=1.0)
        clean.fit(data, steps=3)
        set_seed(0)
        resilient = Trainer(
            tiny_engine(comm=ResilientCommunicator(
                make_fault("misroute", topo4(), at_call=4))),
            clip_norm=1.0,
        )
        resilient.fit(data, steps=3)
        assert resilient.losses() == clean.losses()


class TestCrashResume:
    def test_interrupted_run_reproduces_history_bitwise(self, tmp_path):
        """Crash at an arbitrary step, resume from the last snapshot, and
        the full TrainRecord history equals the uninterrupted run's."""
        data = batches()
        steps, crash_after = 6, 4
        state = str(tmp_path / "state.npz")

        set_seed(0)
        uninterrupted = Trainer(tiny_engine(), clip_norm=1.0)
        uninterrupted.fit(data, steps)

        def crash(trainer, record):
            if record.step == crash_after:
                raise SimulatedCrash("boom")

        set_seed(0)
        doomed = Trainer(tiny_engine(), clip_norm=1.0, state_path=state,
                         save_every=2, on_step_end=crash)
        with pytest.raises(SimulatedCrash):
            doomed.fit(data, steps)

        set_seed(424242)  # scrambled: the snapshot must restore the stream
        resumed = Trainer(tiny_engine(), clip_norm=1.0)
        resumed.fit(data, steps, resume_from=state)

        assert len(resumed.history) == steps
        assert resumed.history == uninterrupted.history  # bitwise: float eq

    def test_resume_restores_best_eval_and_history(self, tmp_path):
        """Satellite fix: best_eval and history survive a restart, so the
        best-checkpoint logic doesn't re-save on a worse eval."""
        data = batches(n=1)
        ids, targets = data[0]
        state = str(tmp_path / "state.npz")
        best = str(tmp_path / "best.npz")

        def eval_fn(model):
            from repro.nn.tensor import no_grad

            with no_grad():
                return model(ids, targets).item()

        set_seed(0)
        first = Trainer(tiny_engine(), clip_norm=1.0, eval_fn=eval_fn,
                        eval_every=2, checkpoint_path=best,
                        state_path=state, save_every=2)
        first.fit(data, steps=4)
        assert np.isfinite(first.best_eval)

        resumed = Trainer(tiny_engine(), clip_norm=1.0, eval_fn=eval_fn,
                          eval_every=2, checkpoint_path=best)
        start = resumed.load_state(state)
        assert start == 4
        assert resumed.best_eval == first.best_eval
        assert resumed.history == first.history
        assert resumed.micro == first.micro

    def test_resume_restores_engine_step_count(self, tmp_path):
        data = batches()
        state = str(tmp_path / "state.npz")
        trainer = Trainer(tiny_engine(), clip_norm=1.0, state_path=state,
                          save_every=3)
        trainer.fit(data, steps=3)
        assert trainer.engine.step_count == 3

        fresh = Trainer(tiny_engine(), clip_norm=1.0)
        fresh.load_state(state)
        assert fresh.engine.step_count == 3

    def test_optimizer_moments_roundtrip(self, tmp_path):
        data = batches()
        state = str(tmp_path / "state.npz")
        trainer = Trainer(tiny_engine(), clip_norm=1.0)
        trainer.fit(data, steps=2)
        trainer.save_state(state)

        fresh = Trainer(tiny_engine(), clip_norm=1.0)
        fresh.load_state(state)
        src, dst = trainer.engine.optimizer, fresh.engine.optimizer
        assert dst.t == src.t
        for a, b in zip(src._m, dst._m):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(src._v, dst._v):
            np.testing.assert_array_equal(a, b)


class TestChaosRunner:
    def test_chaos_fixture_recovers_everything(self, chaos_report):
        assert chaos_report.ok, chaos_report.summary()
        assert chaos_report.scenarios
        assert all(s.injections >= 1 for s in chaos_report.scenarios)
        assert chaos_report.crash is not None
        assert chaos_report.crash.records_match

    def test_chaos_seeds_are_reproducible(self):
        a = run_chaos(seed=7, n_faults=2, steps=2, crash=False)
        b = run_chaos(seed=7, n_faults=2, steps=2, crash=False)
        assert [s.description for s in a.scenarios] == \
            [s.description for s in b.scenarios]
        assert a.baseline_losses == b.baseline_losses

    def test_chaos_cli_smoke(self):
        from repro.resilience.chaos import main

        assert main(["--seed", "0", "--faults", "1", "--steps", "2",
                     "--skip-crash"]) == 0

    def test_chaos_bidirectional_entry(self):
        """The bidirectional entry strikes the reverse channel (fault #2
        of each pair) and every scenario still recovers bitwise."""
        report = run_chaos(seed=3, n_faults=2, steps=2, crash=False,
                           ring_mode="bidirectional")
        assert report.ok, report.summary()
        assert all(s.injections >= 1 for s in report.scenarios)


class TestChannelContext:
    """PR-6's bidirectional channel is part of the failure context: both
    the structured ``CommFailure`` and ``FaultMonitor`` events name the
    direction the damage rode on."""

    def test_fault_event_records_channel(self):
        monitor = FaultMonitor()
        monitor.record_fault(op="ring_shift", phase="attn-fwd", tag="t",
                             call_index=1, ranks=[2], attempt=1,
                             channel="rev")
        assert monitor.events[-1].channel == "rev"

    def test_fault_event_channel_defaults_forward(self):
        monitor = FaultMonitor()
        monitor.record_fault(op="send", phase="p", tag="t", call_index=1,
                             ranks=[0], attempt=1)
        assert monitor.events[-1].channel == "fwd"

    def test_commfailure_names_reverse_channel(self):
        comm = ResilientCommunicator(
            make_fault("corrupt", topo4(), at_call=None, channel="rev"),
            retry=RetryPolicy(max_retries=1),
        )
        with pytest.raises(CommFailure) as exc_info:
            verify_method(
                "burst", seq_len=32, n_heads=4,
                comm=comm, ring_mode="bidirectional",
            )
        failure = exc_info.value
        assert failure.channel == "rev"
        assert "channel='rev'" in str(failure)

    def test_forward_commfailure_keeps_default_channel(self):
        comm = ResilientCommunicator(
            make_fault("corrupt", topo4(), at_call=None),
            retry=RetryPolicy(max_retries=1),
        )
        with pytest.raises(CommFailure) as exc_info:
            verify_method(
                "burst", seq_len=32, n_heads=4,
                comm=comm,
            )
        assert exc_info.value.channel == "fwd"


class TestRetryPolicyOverflow:
    """Unbounded ``multiplier ** attempt`` overflows float for adversarial
    attempt counts; the exponent saturates at ``max_exponent`` instead."""

    def test_delay_saturates_at_max_exponent(self):
        policy = RetryPolicy(base_backoff_s=1.0, multiplier=2.0)
        capped = policy.delay(policy.max_exponent)
        assert policy.delay(policy.max_exponent + 1) == capped
        assert policy.delay(10**6) == capped
        assert np.isfinite(policy.delay(10**9))

    def test_cap_is_pinned(self):
        # 2**60 s is already beyond any real schedule; the pin documents
        # the saturation point so a change is a deliberate decision.
        assert RetryPolicy().max_exponent == 60
        assert RetryPolicy(base_backoff_s=1.0, multiplier=2.0).delay(10**6) \
            == 2.0**60

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_exponent=-1)

"""Elastic rank-failure recovery: lease-based detection, topology shrink,
snapshot integrity gating, and bitwise deterministic replay.

The acceptance matrix itself — {crash, hang, straggler} x method x
ring-mode, every cell detecting, shrinking and replaying bitwise — lives in
:func:`repro.resilience.chaos.run_rank_fault_matrix`; this file unit-tests
every layer underneath it and runs one representative matrix cell per
fault kind.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.comm import (
    NOMINAL_OP_S,
    FailureDetector,
    LeaseConfig,
    OpTiming,
    RankFailure,
    SimClock,
    SimCommunicator,
)
from repro.nn.serialization import CheckpointError, verify_train_state
from repro.obs.metrics import get_registry
from repro.perf.cost import (
    attention_step_sizes,
    degraded_topology,
    table1_comm_times,
)
from repro.resilience import SnapshotStore
from repro.testing import (
    RANK_FAULT_REGISTRY,
    CrashRankComm,
    HangRankComm,
    StragglerRankComm,
    make_fault,
)
from repro.topology import a800_node, make_cluster, shrink_cluster


def topo4():
    return make_cluster(4, node=a800_node(gpus_per_node=4))


def bufs4(n=2):
    return [np.full(n, float(r)) for r in range(4)]


# --- simulated clock & lease policy ------------------------------------------


class TestSimClock:
    def test_starts_at_zero_and_accumulates(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)


class TestLeaseConfig:
    def test_escalation_ladder(self):
        lease = LeaseConfig()
        assert [lease.lease_at(e) for e in range(5)] == [
            3.0, 6.0, 12.0, 24.0, 24.0  # saturates at max_extensions
        ]
        assert lease.max_lease_s == 24.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LeaseConfig(op_deadline_s=0.0)
        with pytest.raises(ValueError):
            LeaseConfig(escalation_factor=0.5)
        with pytest.raises(ValueError):
            LeaseConfig(max_extensions=-1)
        with pytest.raises(ValueError):
            LeaseConfig(crash_notice_s=5.0)  # exceeds op_deadline_s

    def test_cost_model_mirrors_lease_protocol(self):
        """The detection latency the cost model prices is the lease's own
        method, so the analytic layer and the runtime cannot disagree."""
        lease = LeaseConfig()
        assert lease.failure_detection_time("crash") == 0.5
        assert lease.failure_detection_time("hang") == 3.0
        assert lease.failure_detection_time("straggler") == 24.0
        tight = LeaseConfig(op_deadline_s=2.0, max_extensions=1,
                            crash_notice_s=0.25)
        assert [tight.failure_detection_time(k)
                for k in ("crash", "hang", "straggler")] == [0.25, 2.0, 4.0]
        with pytest.raises(ValueError):
            lease.failure_detection_time("gremlin")


# --- topology shrink ----------------------------------------------------------


class TestShrinkCluster:
    def test_single_failure_repacks_nodes(self):
        shrunk = shrink_cluster(topo4(), [1])
        assert shrunk.world_size == 3
        assert shrunk.gpus_per_node == 3
        assert shrunk.num_nodes == 1

    def test_multi_node_shrink(self):
        topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        shrunk = shrink_cluster(topo, [0, 5])
        assert shrunk.world_size == 6
        # 6 survivors repack as 2 nodes x 3 (largest width <= 4 dividing 6)
        assert shrunk.gpus_per_node == 3
        assert shrunk.num_nodes == 2

    def test_duplicate_failures_counted_once(self):
        shrunk = shrink_cluster(topo4(), [2, 2])
        assert shrunk.world_size == 3

    def test_all_dead_rejected(self):
        with pytest.raises(ValueError):
            shrink_cluster(topo4(), [0, 1, 2, 3])

    def test_unknown_rank_rejected(self):
        with pytest.raises(ValueError):
            shrink_cluster(topo4(), [7])

    def test_node_spec_preserved(self):
        topo = topo4()
        shrunk = shrink_cluster(topo, [0])
        assert shrunk.node.gpu is topo.node.gpu


# --- rank-fault injectors -----------------------------------------------------


class TestRankFaultInjectors:
    def test_registry_and_factory(self):
        assert set(RANK_FAULT_REGISTRY) == {"crash", "hang", "straggler"}
        comm = make_fault("crash", topo4(), rank=2)
        assert isinstance(comm, CrashRankComm)
        with pytest.raises(ValueError):
            make_fault("flood", topo4())

    def test_victim_rank_validated(self):
        with pytest.raises(ValueError):
            CrashRankComm(topo4(), rank=4)

    def test_failure_is_permanent(self):
        comm = HangRankComm(topo4(), rank=1, at_call=1)
        assert comm.op_timing() == OpTiming(delays={}, kinds={})  # healthy
        comm.all_reduce(bufs4(), phase="p")
        timing = comm.op_timing()
        assert timing.delays == {1: float("inf")}
        assert timing.kinds == {1: "hang"}
        comm.all_reduce(bufs4(), phase="p")  # still failed on later ops
        assert comm.op_timing().kinds == {1: "hang"}
        assert comm.injections == 1

    def test_at_step_targeting(self):
        comm = CrashRankComm(topo4(), rank=0, at_step=2, at_call=1)
        comm.on_step_start(0)
        comm.all_reduce(bufs4(), phase="p")
        assert not comm.failed
        comm.on_step_start(2)
        comm.all_reduce(bufs4(), phase="p")
        assert comm.failed

    def test_straggler_delay_and_describe(self):
        comm = StragglerRankComm(topo4(), slowdown_factor=6.0, rank=3)
        comm.all_reduce(bufs4(), phase="p")
        assert comm.op_timing().delays == {3: 6.0 * NOMINAL_OP_S}
        assert "slowdown=6" in comm.describe()
        with pytest.raises(ValueError):
            StragglerRankComm(topo4(), slowdown_factor=1.0)

    def test_numerics_untouched(self):
        """Injection only reports timing; payloads stay correct, so the
        detector (not data corruption) is what surfaces the failure."""
        comm = CrashRankComm(topo4(), rank=1, at_call=1)
        out = comm.all_reduce(bufs4(), phase="p")
        np.testing.assert_allclose(out[0], np.full(2, 6.0))


# --- failure detector ---------------------------------------------------------


class TestFailureDetector:
    def test_crash_detected_fast(self):
        det = FailureDetector(CrashRankComm(topo4(), rank=2, at_call=1))
        with pytest.raises(RankFailure) as exc_info:
            det.all_reduce(bufs4(), phase="grad-sync")
        failure = exc_info.value
        assert failure.rank == 2
        assert failure.kind == "crash"
        assert failure.op == "all_reduce"
        assert failure.phase == "grad-sync"
        assert failure.deadline == LeaseConfig().crash_notice_s
        assert det.clock.now == pytest.approx(0.5)

    def test_hang_waits_out_the_full_lease(self):
        det = FailureDetector(HangRankComm(topo4(), rank=0, at_call=1))
        with pytest.raises(RankFailure) as exc_info:
            det.all_reduce(bufs4(), phase="p")
        assert exc_info.value.kind == "hang"
        assert exc_info.value.deadline == LeaseConfig().op_deadline_s
        assert det.clock.now == pytest.approx(3.0)

    def test_mild_straggler_tolerated_with_extension(self):
        det = FailureDetector(
            StragglerRankComm(topo4(), slowdown_factor=4.0, rank=1)
        )
        out = det.all_reduce(bufs4(), phase="p")
        assert out is not None
        assert det.extensions == {1: 1}  # 4s > 3s lease -> one extension
        assert det.tolerated == [(1, "all_reduce", 1)]
        assert det.clock.now == pytest.approx(4.0)  # op completed at 4s
        det.all_reduce(bufs4(), phase="p")  # extended lease now covers it
        assert det.extensions == {1: 1}
        assert len(det.tolerated) == 1

    def test_fatal_straggler_declared_dead(self):
        det = FailureDetector(
            StragglerRankComm(topo4(), slowdown_factor=64.0, rank=3)
        )
        with pytest.raises(RankFailure) as exc_info:
            det.all_reduce(bufs4(), phase="p")
        failure = exc_info.value
        assert failure.kind == "straggler"
        assert failure.deadline == LeaseConfig().max_lease_s  # 24s
        assert det.extensions[3] == LeaseConfig().max_extensions

    def test_detection_deferred_to_participating_op(self):
        """A failure triggered during an op the victim is not part of is
        detected at the victim's next participating op, not dropped."""
        det = FailureDetector(CrashRankComm(topo4(), rank=3, at_call=1))
        det.ring_shift(bufs4(), [0, 1, 2], phase="p")  # victim absent
        with pytest.raises(RankFailure):
            det.all_reduce(bufs4(), phase="p")

    def test_plain_communicator_passes_at_nominal_speed(self):
        det = FailureDetector(SimCommunicator(topo4()))
        det.all_reduce(bufs4(), phase="p")
        det.all_reduce(bufs4(), phase="p")
        assert det.clock.now == pytest.approx(2 * NOMINAL_OP_S)
        assert det.call_index == 2

    def test_step_attribution(self):
        det = FailureDetector(CrashRankComm(topo4(), rank=0, at_call=1))
        det.on_step_start(5)
        assert det.inner.current_step == 5  # forwarded to the injector
        with pytest.raises(RankFailure) as exc_info:
            det.all_reduce(bufs4(), phase="p")
        assert exc_info.value.step == 5

    def test_metrics_family_emitted(self):
        reg = get_registry()
        before = reg.counter("resilience.rank_failures").value(
            kind="crash", op="all_reduce"
        )
        det = FailureDetector(CrashRankComm(topo4(), rank=1, at_call=1))
        with pytest.raises(RankFailure):
            det.all_reduce(bufs4(), phase="p")
        after = reg.counter("resilience.rank_failures").value(
            kind="crash", op="all_reduce"
        )
        assert after == before + 1

    def test_passthrough_properties(self):
        inner = SimCommunicator(topo4())
        det = FailureDetector(inner)
        assert det.topology is inner.topology
        assert det.log is inner.log
        assert det.world_size == 4


class TestLayeredRecovery:
    """The composition docs/robustness.md promises: checksum stage + lease
    stage + a rank fault on one communicator."""

    def test_rank_failure_surfaces_through_the_checksum_stage(self):
        from repro.resilience import CommFailure, ResilientCommunicator

        fault = CrashRankComm(topo4(), rank=2, at_step=3, at_call=2)
        detector = FailureDetector(fault)
        comm = ResilientCommunicator(detector)
        assert isinstance(comm, SimCommunicator)
        # Built inside-out, run outside-in: checksum, lease, fault.
        assert comm._stages == [comm, detector, fault]
        comm.on_step_start(3)  # reaches every stage
        assert (detector.step, fault.current_step) == (3, 3)
        comm.ring_shift(bufs4(), [0, 1, 2, 3], phase="p")
        with pytest.raises(RankFailure) as exc_info:
            comm.ring_shift(bufs4(), [0, 1, 2, 3], phase="p")
        assert not isinstance(exc_info.value, CommFailure)
        assert (exc_info.value.rank, exc_info.value.step) == (2, 3)
        assert exc_info.value.call_index == detector.call_index == 2
        assert comm.call_index == 2 and comm.monitor.total_faults == 0

    def test_chain_order_is_fixed_not_construction_order(self):
        from repro.resilience import ResilientCommunicator

        plain = SimCommunicator(topo4())
        checksum = ResilientCommunicator(plain)
        detector = FailureDetector(checksum)
        assert detector._stages == [checksum, detector]
        assert plain._stages is detector._stages


# --- snapshot integrity -------------------------------------------------------


@pytest.fixture()
def snapshotting_trainer(tmp_path):
    from repro.engine import BurstEngine, Trainer
    from repro.nn.rng import set_seed
    from repro.resilience.chaos import (
        ELASTIC_SEQ, _make_batches, _make_elastic_config, _topology,
    )

    set_seed(0)
    trainer = Trainer(BurstEngine(_make_elastic_config("burst"), _topology()),
                      clip_norm=1.0)
    trainer.fit(_make_batches(seed=0, seq=ELASTIC_SEQ), 2)
    return trainer


class TestSnapshotIntegrity:
    def test_valid_snapshot_verifies(self, snapshotting_trainer, tmp_path):
        path = os.path.join(tmp_path, "snap.npz")
        snapshotting_trainer.save_state(path)
        meta = verify_train_state(path)
        assert meta["step"] == 2

    def test_truncated_snapshot_rejected(self, snapshotting_trainer, tmp_path):
        path = os.path.join(tmp_path, "snap.npz")
        snapshotting_trainer.save_state(path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            verify_train_state(path)

    def test_missing_checksum_rejected_as_partial(
        self, snapshotting_trainer, tmp_path
    ):
        from repro.nn.serialization import CHECKSUM_KEY

        path = os.path.join(tmp_path, "snap.npz")
        snapshotting_trainer.save_state(path)
        arrays = dict(np.load(path, allow_pickle=False))
        arrays.pop(CHECKSUM_KEY)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="partial"):
            verify_train_state(path)

    def test_corrupted_payload_rejected(self, snapshotting_trainer, tmp_path):
        from repro.nn.serialization import CHECKSUM_KEY

        path = os.path.join(tmp_path, "snap.npz")
        snapshotting_trainer.save_state(path)
        arrays = dict(np.load(path, allow_pickle=False))
        victim = next(k for k in arrays if k.startswith("param:"))
        arrays[victim] = arrays[victim] + 1e-3
        np.savez(path, **arrays)  # stale checksum now lies
        assert CHECKSUM_KEY in arrays
        with pytest.raises(CheckpointError):
            verify_train_state(path)

    def test_store_rotation_and_paths(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=2)
        for step in range(4):
            open(store.path_for(step), "wb").write(b"x")
        assert store.steps() == [0, 1, 2, 3]
        assert store.prune() == [0, 1]
        assert store.steps() == [2, 3]

    def test_latest_valid_skips_corrupt_newest(
        self, snapshotting_trainer, tmp_path
    ):
        """A snapshot corrupted mid-recovery is skipped: the previous
        complete one is used instead."""
        store = SnapshotStore(os.path.join(tmp_path, "snaps"))
        snapshotting_trainer.save_state(store.path_for(1))
        snapshotting_trainer.save_state(store.path_for(2))
        blob = open(store.path_for(2), "rb").read()
        open(store.path_for(2), "wb").write(blob[:100])  # torn write
        step, path = store.latest_valid()
        assert step == 1
        assert path == store.path_for(1)

    def test_latest_valid_none_when_all_bad(self, tmp_path):
        store = SnapshotStore(os.path.join(tmp_path, "snaps"))
        assert store.latest_valid() is None
        open(store.path_for(0), "wb").write(b"garbage")
        assert store.latest_valid() is None

    def test_store_validates_keep(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(str(tmp_path), keep=0)


# --- partition re-planning ----------------------------------------------------


class TestReplanPartition:
    def test_replans_for_survivors(self):
        from repro.partition import ZigzagPartitioner

        part = ZigzagPartitioner()
        healthy = part.indices(24, 4)
        degraded = part.indices(24, 3)
        assert [len(s) for s in healthy] == [6, 6, 6, 6]
        assert [len(s) for s in degraded] == [8, 8, 8]
        # every token is still covered exactly once
        assert sorted(np.concatenate(degraded).tolist()) == list(range(24))

    def test_infeasible_shrink_is_a_planning_error(self):
        from repro.partition import ZigzagPartitioner

        with pytest.raises(ValueError):
            ZigzagPartitioner().indices(24, 5)


# --- degraded-topology closed forms -------------------------------------------


class TestDegradedClosedForms:
    def test_step_sizes_shift_to_survivor_shards(self):
        n, h, g = 1024, 64, 8
        degraded = attention_step_sizes(n, h, g - 2)
        # shards grow by exactly G / (G - k)
        healthy = attention_step_sizes(n, h, g)
        assert degraded["fwd"] == pytest.approx(healthy["fwd"] * g / (g - 2))

    def test_no_survivors_rejected(self):
        with pytest.raises(ValueError):
            degraded_topology(topo4(), 4)

    def test_degraded_topology_matches_runtime_shrink(self):
        topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        analytic = degraded_topology(topo, 2)
        runtime = shrink_cluster(topo, [3, 6])
        assert analytic.world_size == runtime.world_size == 6
        assert analytic.gpus_per_node == runtime.gpus_per_node
        assert analytic.num_nodes == runtime.num_nodes

    def test_degraded_table1_rederives_on_survivors(self):
        """Survivors are repacked into full nodes, so their Table 1 times
        are re-derived on the shrunk topology, not the healthy ones scaled
        by the shard growth ``G / (G - k)``."""
        topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        degraded = table1_comm_times(degraded_topology(topo, 2), 1152, 64)
        healthy = table1_comm_times(topo, 1152, 64)
        assert degraded != healthy
        assert any(
            degraded[m] != pytest.approx(healthy[m] * 8 / 6) for m in healthy
        )

    def test_survivor_hop_bytes_match_degraded_closed_form(self):
        """The TrafficLog pin, post-shrink: the bundles ring methods send
        on the 3 survivors are exactly the healthy closed forms evaluated
        at the survivor count (float64 sim bytes); the return hop ships
        their carried slots at the survivors' shard size."""
        from repro.attention import get_method

        g, n, hidden = 4, 24, 8
        shrunk = shrink_cluster(topo4(), [1])
        sizes = attention_step_sizes(n, hidden, g - 1, bytes_per_elem=8)
        carried = attention_step_sizes(n, hidden, g - 1, bytes_per_elem=8,
                                       which="carried")
        rng = np.random.default_rng(1)
        q, k, v, do = (rng.normal(size=(1, n, hidden)) for _ in range(4))
        for name, key in [("megatron-cp", "bwd_alg1"), ("burst", "bwd_alg2")]:
            comm = SimCommunicator(shrunk)
            get_method(name, block_size=4).run(
                shrunk, q, k, v, mask=None, do=do, comm=comm
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


# --- end-to-end elastic recovery ---------------------------------------------


class TestElasticRecovery:
    """One representative cell per fault kind; the exhaustive matrix runs
    in the chaos CLI (``python -m repro.resilience.chaos --rank-faults``)."""

    @pytest.mark.parametrize("kind,method,ring_mode", [
        ("crash", "burst", "unidirectional"),
        ("hang", "megatron-cp", "bidirectional"),
        ("straggler", "ulysses", "unidirectional"),
    ])
    def test_detect_shrink_replay(self, kind, method, ring_mode):
        from repro.resilience.chaos import run_rank_fault_scenario

        result = run_rank_fault_scenario(kind, method, ring_mode, victim=1)
        assert result.ok, result.summary()
        assert result.detected_kind == kind
        assert result.world_before == 4
        assert result.world_after == 3
        assert result.replay_match, "replay diverged from fresh survivor run"
        assert result.traffic_match, "survivor traffic diverged"

    def test_failure_budget_exhausted_reraises(self, tmp_path):
        from repro.engine import BurstEngine
        from repro.resilience import ElasticRunner
        from repro.resilience.chaos import (
            ELASTIC_SEQ, _make_batches, _make_elastic_config, _topology,
        )

        config = _make_elastic_config("burst")

        def comm_factory(topo, incarnation):
            # every incarnation loses another rank: 4 -> 3 -> 2 -> ...
            return FailureDetector(
                make_fault("crash", topo, rank=0, at_step=2, at_call=1)
            )

        runner = ElasticRunner(
            lambda topo, comm: BurstEngine(config, comm=comm),
            snapshot_dir=str(tmp_path), comm_factory=comm_factory,
            max_failures=1,
        )
        with pytest.raises(RankFailure):
            runner.run(_make_batches(seed=0, seq=ELASTIC_SEQ), 4, _topology())

    def test_tolerated_straggler_finishes_on_full_world(self, tmp_path):
        from repro.engine import BurstEngine
        from repro.resilience import ElasticRunner
        from repro.resilience.chaos import (
            ELASTIC_SEQ, _make_batches, _make_elastic_config, _topology,
        )

        config = _make_elastic_config("burst")

        def comm_factory(topo, incarnation):
            return FailureDetector(
                StragglerRankComm(topo, slowdown_factor=4.0, rank=2,
                                  at_step=1, at_call=1)
            )

        runner = ElasticRunner(
            lambda topo, comm: BurstEngine(config, comm=comm),
            snapshot_dir=str(tmp_path), comm_factory=comm_factory,
        )
        result = runner.run(
            _make_batches(seed=0, seq=ELASTIC_SEQ), 3, _topology()
        )
        assert not result.failures
        assert result.final_world_size == 4
        assert result.incarnations == 1
        assert result.tolerated_stragglers  # extensions were granted
        assert all(r == 2 for r, _, _ in result.tolerated_stragglers)

    def test_step_targeted_fault_fires_through_train_step(self):
        """``train_step`` and ``Trainer.fit`` run one executor, so a fault
        aimed at "step 1" fires there on either entry point."""
        from repro.engine import BurstEngine
        from repro.resilience.chaos import (
            ELASTIC_SEQ, _make_batches, _make_elastic_config, _topology,
        )

        topo = _topology()
        comm = FailureDetector(
            make_fault("crash", topo, rank=1, at_step=1, at_call=1)
        )
        engine = BurstEngine(_make_elastic_config("burst"), comm=comm)
        ids, targets = _make_batches(seed=0, seq=ELASTIC_SEQ)[0]
        engine.train_step(ids, targets)  # step 0 is healthy
        with pytest.raises(RankFailure) as exc_info:
            engine.train_step(ids, targets)
        assert (exc_info.value.rank, exc_info.value.step) == (1, 1)

    def test_recovery_metrics_and_summary(self):
        from repro.resilience.chaos import run_rank_fault_scenario

        reg = get_registry()
        before = reg.counter("resilience.rank_recoveries").value(kind="crash")
        result = run_rank_fault_scenario("crash", "burst", victim=0)
        after = reg.counter("resilience.rank_recoveries").value(kind="crash")
        assert after == before + 1
        assert "crash rank 0" in result.summary()


# --- fuzzer integration -------------------------------------------------------


class TestFuzzRankFailureAxis:
    def test_spec_round_trip(self):
        from repro.testing.differential import FuzzCase

        case = FuzzCase(method="burst", mask="causal", nodes=1, gpn=2,
                        seq_len=8, head_dim=2, n_heads=1,
                        rank_failure="crash")
        assert "rank_failure=crash" in case.spec()
        assert FuzzCase.parse(case.spec()) == case
        healthy = FuzzCase(method="burst", mask="causal", nodes=1, gpn=2,
                           seq_len=8, head_dim=2, n_heads=1)
        assert "rank_failure" not in healthy.spec()

    def test_validate_rejects_unknown_kind(self):
        from repro.testing.differential import FuzzCase

        case = FuzzCase(method="burst", mask="causal", nodes=1, gpn=2,
                        seq_len=8, head_dim=2, n_heads=1,
                        rank_failure="meteor")
        with pytest.raises(ValueError, match="rank_failure"):
            case.validate()

    @pytest.mark.parametrize("kind", ["crash", "hang"])
    def test_detection_is_the_pass_condition(self, kind):
        from repro.testing.differential import FuzzCase, check_case

        case = FuzzCase(method="burst", mask="causal", nodes=1, gpn=2,
                        seq_len=8, head_dim=2, n_heads=1,
                        rank_failure=kind)
        passed, detail = check_case(case)
        assert passed, detail
        assert "detected" in detail

    def test_tolerated_straggler_must_still_verify(self):
        from repro.testing.differential import FuzzCase, check_case

        case = FuzzCase(method="burst", mask="causal", nodes=1, gpn=2,
                        seq_len=8, head_dim=2, n_heads=1,
                        rank_failure="straggler")
        passed, detail = check_case(case)
        assert passed, detail

    def test_axes_are_mutually_exclusive(self):
        from repro.testing.differential import FuzzCase, check_case

        case = FuzzCase(method="burst", mask="causal", nodes=1, gpn=2,
                        seq_len=8, head_dim=2, n_heads=1,
                        rank_failure="crash")
        with pytest.raises(ValueError):
            check_case(case, fault="corrupt")
        # one factory builds both families, but a rank fault is never a
        # message-fault injection: undetected, it would pass the sweep
        with pytest.raises(ValueError, match="rank_failure axis"):
            check_case(replace(case, rank_failure=None), fault="crash")

    def test_shrinking_reaches_for_no_failure(self):
        from repro.testing.differential import FuzzCase, shrink_case

        case = FuzzCase(method="burst", mask="causal", nodes=1, gpn=2,
                        seq_len=8, head_dim=2, n_heads=1,
                        rank_failure="crash")
        # a predicate that fails regardless of the rank_failure axis must
        # shrink it away
        shrunk = shrink_case(case, lambda c: True)
        assert shrunk.rank_failure is None

    def test_forced_rank_fault_sweep_passes(self):
        from repro.testing.differential import fuzz

        result = fuzz(seed=11, budget=4, smoke=True, rank_fault="crash")
        assert result.passed, result.summary()
        assert result.cases_run == 4

    def test_forced_axes_conflict_rejected(self):
        from repro.testing.differential import fuzz

        with pytest.raises(ValueError):
            fuzz(seed=0, budget=1, fault="corrupt", rank_fault="crash")

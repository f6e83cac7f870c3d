"""Fault-tolerant training: self-healing communication + checkpoint-restart.

The paper's setting — 1M-token sequences on 32–64 GPUs — only pays off if
a run *survives to completion*: one flipped payload or lost hop wastes
hours of wall-clock.  This package makes the stack survive exactly the
fault classes :mod:`repro.testing.faults` knows how to inject:

* :mod:`repro.resilience.comm` — :class:`ResilientCommunicator` is the
  checksum stage of any :class:`~repro.comm.SimCommunicator`: it
  checksums every delivery
  (``ring_shift`` / ``exchange`` / ``all_to_all`` / ``group_all_to_all`` /
  ``send``), detects corrupt / dropped / misrouted / stale / duplicate
  deliveries, and recovers via bounded retransmission with deterministic
  backoff; persistent damage raises a structured :class:`CommFailure`
  naming rank, phase, tag and call index, and a :class:`FaultMonitor`
  aggregates per-rank counters with optional :class:`FaultEscalation`.

* checkpoint-restart — atomic, checksum-manifested train-state snapshots
  live in :mod:`repro.nn.serialization`; ``Trainer.fit(resume_from=...)``
  restores them bitwise (see :mod:`repro.engine.trainer`).

* :mod:`repro.resilience.chaos` — the chaos-recovery runner: seeded
  schedules of mid-run faults (plus a simulated crash + restart) asserting
  that recovered loss trajectories match the fault-free run.  CLI:
  ``python -m repro.resilience.chaos --seed 0 --faults 3``; it also
  exports a session-scoped pytest fixture (``chaos_report``).
"""

from repro.resilience.comm import (
    CommFailure,
    FaultEscalation,
    FaultEvent,
    FaultMonitor,
    ResilientCommunicator,
    RetryPolicy,
    tree_checksum,
)

# Chaos exports are lazy (PEP 562): the runner pulls in the full engine
# stack, and ``python -m repro.resilience.chaos`` would otherwise import
# the module twice (package init + runpy) and warn.
_CHAOS_EXPORTS = (
    "ChaosReport",
    "CrashResult",
    "RankFaultResult",
    "ScenarioResult",
    "SimulatedCrash",
    "run_chaos",
    "run_rank_fault_matrix",
)

# Elastic exports are lazy for the same reason: the runner builds engines.
_ELASTIC_EXPORTS = (
    "ElasticResult",
    "ElasticRunner",
    "FailureRecord",
    "SnapshotStore",
)


def __getattr__(name):
    if name in _CHAOS_EXPORTS:
        from repro.resilience import chaos

        return getattr(chaos, name)
    if name in _ELASTIC_EXPORTS:
        from repro.resilience import elastic

        return getattr(elastic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CommFailure",
    "FaultEscalation",
    "FaultEvent",
    "FaultMonitor",
    "ResilientCommunicator",
    "RetryPolicy",
    "tree_checksum",
    "ChaosReport",
    "CrashResult",
    "RankFaultResult",
    "ScenarioResult",
    "SimulatedCrash",
    "run_chaos",
    "run_rank_fault_matrix",
    "ElasticResult",
    "ElasticRunner",
    "FailureRecord",
    "SnapshotStore",
]

"""Correctness harness: fault injection, differential fuzzing, invariant
cross-checks, and golden-file regression fixtures.

The paper's claims are numerical — Algorithm 2's backward ring moves
``3Nd + 2N`` elements where Algorithm 1 moves ``4Nd``, and every method
must agree with the dense reference bit-for-nearly-bit.  This package
makes those claims *defensible under refactoring*:

* :mod:`repro.testing.faults` — configurable fault-injecting
  :class:`~repro.comm.SimCommunicator` stages on one targeting base
  (phase, tag, op and call index): message faults (corrupt / drop /
  misroute / stale / duplicate) on any delivery op of any method, and
  rank faults (crash / hang / straggler) on any collective.
* :mod:`repro.testing.differential` — a seeded differential fuzzer that
  sweeps method × mask × topology × dtype configurations against the
  dense reference via :func:`repro.attention.verify.verify_method`, and
  shrinks failures to a minimal one-line repro.  CLI:
  ``python -m repro.testing.fuzz``.
* :mod:`repro.testing.invariants` — cross-checks that the byte counts a
  real simulated run records in its :class:`~repro.comm.TrafficLog`
  match the analytic formulas of :mod:`repro.perf.cost` that the Table 1
  reproduction is built on.
* :mod:`repro.testing.golden` — checked-in npz fixtures of per-method
  forward/backward outputs so numeric drift is caught even when a
  refactor changes implementation and reference together.  CLI:
  ``python -m repro.testing.golden --update``.
"""

from repro.testing.faults import (
    FAULT_REGISTRY,
    RANK_FAULT_REGISTRY,
    CorruptPayloadComm,
    CrashRankComm,
    DropTransferComm,
    DuplicateDeliveryComm,
    FaultInjectingCommunicator,
    FaultStage,
    HangRankComm,
    MisrouteHopComm,
    RankFaultComm,
    StaleBufferComm,
    StragglerRankComm,
    make_fault,
)
from repro.testing.differential import (
    FuzzCase,
    FuzzFailure,
    FuzzResult,
    check_case,
    fuzz,
    sample_case,
    shrink_case,
)
from repro.testing.invariants import (
    check_tile_plan_invariants,
    InvariantReport,
    check_all_invariants,
    check_table1_consistency,
    check_traffic_invariants,
    expected_backward_elems,
    expected_forward_elems,
)
# Golden exports are lazy (PEP 562): ``python -m repro.testing.golden``
# would otherwise import the module twice (package init + runpy) and warn.
_GOLDEN_EXPORTS = (
    "GOLDEN_CASES",
    "GoldenReport",
    "check_golden",
    "compute_golden",
    "default_golden_dir",
    "save_golden",
)


def __getattr__(name):
    if name in _GOLDEN_EXPORTS:
        from repro.testing import golden

        return getattr(golden, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # faults
    "FAULT_REGISTRY",
    "RANK_FAULT_REGISTRY",
    "FaultStage",
    "FaultInjectingCommunicator",
    "CorruptPayloadComm",
    "DropTransferComm",
    "MisrouteHopComm",
    "StaleBufferComm",
    "DuplicateDeliveryComm",
    "RankFaultComm",
    "CrashRankComm",
    "HangRankComm",
    "StragglerRankComm",
    "make_fault",
    # differential fuzzer
    "FuzzCase",
    "FuzzFailure",
    "FuzzResult",
    "check_case",
    "fuzz",
    "sample_case",
    "shrink_case",
    # invariants
    "InvariantReport",
    "check_traffic_invariants",
    "check_table1_consistency",
    "check_all_invariants",
    "check_tile_plan_invariants",
    "expected_forward_elems",
    "expected_backward_elems",
    # golden
    "GOLDEN_CASES",
    "GoldenReport",
    "compute_golden",
    "save_golden",
    "check_golden",
    "default_golden_dir",
]

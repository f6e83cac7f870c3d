"""Rank-scoped fault injectors: crash, hang, and straggler on tap.

The PR-1 injectors (:mod:`repro.testing.faults`) damage *messages*; the
classes here kill or slow down *ranks* — the dominant availability risk of
month-long multi-node runs.  Each is a :class:`~repro.comm.SimCommunicator`
with itself as the ``fault`` stage of its chain, and shares the PR-1
targeting model (exact ``op``, ``phase`` / ``tag`` substring filters,
1-based ``at_call``, plus a rank-level ``at_step`` trigger fed by the
trainer's ``on_step_start`` notification).  Once triggered the victim
``rank`` is failed *permanently* — a crashed process does not come back —
and every subsequent operation reports the failure through an
:class:`~repro.comm.OpTiming` on its call record:

===========================  =================================================
:class:`CrashRankComm`       the rank's process dies: no response, ever
                             (``inf`` delay, kind ``"crash"``) — peers see
                             the connection reset quickly
:class:`HangRankComm`        the rank wedges (GC pause, driver livelock):
                             no response and **no error** (``inf`` delay,
                             kind ``"hang"``) — peers must wait out the lease
:class:`StragglerRankComm`   the rank answers ``slowdown_factor`` x slower
                             than :data:`~repro.comm.NOMINAL_OP_S` — mild
                             slowdowns are tolerated by lease escalation,
                             extreme ones get the rank declared dead
===========================  =================================================

Numerics are untouched: a :class:`~repro.comm.FailureDetector` built on the
injector raises :class:`~repro.comm.RankFailure` before a dead rank's data
is ever consumed, exactly as survivors abort a collective in a real
elastic runtime.  Without a detector the injected failures are invisible —
which is the deadlock these classes exist to prove the detector prevents.
"""

from __future__ import annotations

from typing import Callable

from repro.comm import NOMINAL_OP_S, OpTiming, SimCommunicator
from repro.comm.communicator import (
    COLLECTIVE_OPS,
    CollectiveCall,
    check_op_filter,
)
from repro.topology import ClusterTopology

__all__ = [
    "RANK_FAULT_REGISTRY",
    "RankFaultComm",
    "CrashRankComm",
    "HangRankComm",
    "StragglerRankComm",
    "make_rank_fault",
]


class RankFaultComm(SimCommunicator):
    """Base class: fails one rank when the targeting filters first match.

    Parameters
    ----------
    rank:
        The global rank to fail.
    op:
        Exact name of the collective to match — any of the nine; an
        unknown name is rejected (``None`` = match all).
    phase, tag:
        Substring filters on the operation labels (``None`` = match all).
    at_call:
        1-based index of the matching call that triggers the failure;
        ``None`` triggers on the first match.
    at_step:
        Training step the failure is confined to (requires the caller to
        call ``on_step_start``); ``None`` means any step.
    """

    stage_kind = "fault"
    fault_name = "rank-base"
    kind = "crash"

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        rank: int = 0,
        phase: str | None = None,
        tag: str | None = None,
        op: str | None = None,
        at_call: int | None = 1,
        at_step: int | None = None,
        log=None,
    ):
        super().__init__(topology, log=log)
        if not 0 <= rank < topology.world_size:
            raise ValueError(
                f"victim rank {rank} out of range [0, {topology.world_size})"
            )
        check_op_filter(op, COLLECTIVE_OPS)
        self.rank = rank
        self.target_phase = phase
        self.target_tag = tag
        self.target_op = op
        self.at_call = at_call
        self.at_step = at_step
        self.current_step = -1
        self.calls_matched = 0
        self.injections = 0
        self.failed = False
        self._join(self)

    def describe(self) -> str:
        filters = ", ".join(
            f"{k}={v!r}" for k, v in [
                ("rank", self.rank), ("phase", self.target_phase),
                ("tag", self.target_tag), ("op", self.target_op),
                ("at_call", self.at_call), ("at_step", self.at_step),
            ] if v is not None
        )
        return f"{self.fault_name}({filters})"

    def _on_step(self, step: int) -> None:
        self.current_step = step

    # --- targeting ----------------------------------------------------------

    def _maybe_trigger(self, call: CollectiveCall) -> None:
        """Fail the victim, for good, at the ``at_call``-th matching call."""
        if self.failed:
            return
        if not call.matches(
            op=self.target_op, phase=self.target_phase, tag=self.target_tag
        ):
            return
        if self.at_step is not None and self.current_step != self.at_step:
            return
        self.calls_matched += 1
        if self.at_call is None or self.calls_matched >= self.at_call:
            self.failed = True
            self.injections += 1

    def _victim_delay(self) -> float:
        """Response delay of the failed rank (``inf`` = never answers)."""
        return float("inf")

    def op_timing(self) -> OpTiming:
        """What an op issued now reports: the victim's delay once failed."""
        if not self.failed:
            return OpTiming(delays={}, kinds={})
        return OpTiming(
            delays={self.rank: self._victim_delay()},
            kinds={self.rank: self.kind},
        )

    def _stage(self, call: CollectiveCall, proceed: Callable[[], list]) -> list:
        out = proceed()
        self._maybe_trigger(call)
        call.timing = self.op_timing()
        return out


class CrashRankComm(RankFaultComm):
    """The victim's process dies: peers get a fast connection reset."""

    fault_name = "crash"
    kind = "crash"


class HangRankComm(RankFaultComm):
    """The victim wedges silently: no response, no transport error."""

    fault_name = "hang"
    kind = "hang"


class StragglerRankComm(RankFaultComm):
    """The victim answers ``slowdown_factor`` x slower than nominal.

    The default factor (4x) sits inside the detector's escalated-lease
    tolerance, so a straggler is *survived* by default; chaos scenarios
    pass an extreme factor to exercise the declared-dead path.
    """

    fault_name = "straggler"
    kind = "straggler"

    def __init__(self, topology, slowdown_factor: float = 4.0, **kw):
        super().__init__(topology, **kw)
        if slowdown_factor <= 1.0:
            raise ValueError(
                f"slowdown_factor must exceed 1, got {slowdown_factor}"
            )
        self.slowdown_factor = slowdown_factor

    def describe(self) -> str:
        base = super().describe()
        return base[:-1] + f", slowdown={self.slowdown_factor:g})"

    def _victim_delay(self) -> float:
        return self.slowdown_factor * NOMINAL_OP_S


RANK_FAULT_REGISTRY: dict[str, type[RankFaultComm]] = {
    "crash": CrashRankComm,
    "hang": HangRankComm,
    "straggler": StragglerRankComm,
}


def make_rank_fault(
    name: str, topology: ClusterTopology, **kwargs
) -> RankFaultComm:
    """Instantiate a rank-fault communicator by registry name."""
    try:
        cls = RANK_FAULT_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown rank fault {name!r}; available: "
            f"{sorted(RANK_FAULT_REGISTRY)}"
        ) from None
    return cls(topology, **kwargs)

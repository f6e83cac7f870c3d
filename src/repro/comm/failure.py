"""Rank-failure detection: per-op leases on a simulated clock.

A crashed or hung rank deadlocks every collective it participates in — the
surviving ranks block forever inside NCCL with no error.  Real elastic
runtimes break the deadlock with *leases*: every collective carries a
deadline, a missed deadline marks the silent rank suspected-dead, and the
survivors abort the operation with a structured error instead of waiting.

:class:`FailureDetector` reproduces that protocol deterministically.  It
is the ``lease`` stage of a communicator's chain (see
:meth:`repro.comm.SimCommunicator._deliver`) and guards every collective:

1. the stages below execute the op and — when one of them is a rank-fault
   injector from :mod:`repro.testing.faults` — report each
   participant's simulated response delay on the call record
   (:class:`OpTiming`); otherwise nothing is reported and every rank is
   assumed to answer in :data:`NOMINAL_OP_S`;
2. ranks that answer within the current lease advance the
   :class:`SimClock` and the op completes;
3. a rank that reports *no* response (``inf`` delay) is declared dead:
   a ``crash`` surfaces after :attr:`LeaseConfig.crash_notice_s` (the
   transport sees the connection reset quickly), a ``hang`` only after the
   full :attr:`LeaseConfig.op_deadline_s` lease expires;
4. a *straggler* (finite but slow delay) gets escalating tolerance:
   each time it overruns its current lease the detector grants an
   extension that multiplies the lease by
   :attr:`LeaseConfig.escalation_factor`, up to
   :attr:`LeaseConfig.max_extensions`; only a rank too slow for the fully
   extended lease is declared dead.

All declarations raise :class:`RankFailure` naming the rank, op, phase,
training step, expired deadline and fault kind — the elastic re-planner
(:mod:`repro.resilience.elastic`) catches it, shrinks the topology and
resumes from the last checkpoint.  Every detection emits a
``failure.detect`` trace span and increments the ``resilience.rank_*``
metrics family; tolerated straggler extensions are counted too.

There is no wall-clock anywhere: delays are numbers the fault injectors
make up, so chaos runs are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.comm.communicator import CollectiveCall, SimCommunicator
from repro.obs.metrics import get_registry
from repro.obs.tracer import trace_span

__all__ = [
    "NOMINAL_OP_S",
    "LeaseConfig",
    "OpTiming",
    "RankFailure",
    "FailureDetector",
    "SimClock",
]

#: Simulated response time of a healthy rank for one collective.  Leases
#: are expressed in the same fictional seconds.
NOMINAL_OP_S = 1.0


class SimClock:
    """A monotonically advancing simulated clock (no wall time)."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError(f"cannot advance the clock by {dt}")
        self.now += dt
        return self.now


@dataclass(frozen=True)
class LeaseConfig:
    """Deadline policy for one guarded collective.

    With the defaults a healthy rank (:data:`NOMINAL_OP_S` = 1.0 s) has 3x
    headroom, a crash is detected in 0.5 s, a hang after the full 3 s
    lease, and a straggler is tolerated up to ``3.0 * 2**3 = 24`` s —
    24x nominal — before being declared dead.
    """

    op_deadline_s: float = 3.0
    escalation_factor: float = 2.0
    max_extensions: int = 3
    crash_notice_s: float = 0.5

    def __post_init__(self) -> None:
        if self.op_deadline_s <= 0:
            raise ValueError("op_deadline_s must be positive")
        if self.escalation_factor < 1.0:
            raise ValueError("escalation_factor must be >= 1")
        if self.max_extensions < 0:
            raise ValueError("max_extensions must be >= 0")
        if not 0 < self.crash_notice_s <= self.op_deadline_s:
            raise ValueError(
                "crash_notice_s must be in (0, op_deadline_s]"
            )

    def lease_at(self, extensions: int) -> float:
        """Lease length after ``extensions`` granted extensions."""
        return self.op_deadline_s * self.escalation_factor ** min(
            extensions, self.max_extensions
        )

    @property
    def max_lease_s(self) -> float:
        """The fully escalated lease — the straggler death threshold."""
        return self.lease_at(self.max_extensions)

    def failure_detection_time(self, kind: str) -> float:
        """Worst-case simulated seconds from a ``kind`` failure to its
        declaration:

        * ``crash`` — the transport sees the reset: ``crash_notice_s``;
        * ``hang`` — silent, so the full ``op_deadline_s`` lease expires;
        * ``straggler`` — declared dead only after the lease has been
          extended ``max_extensions`` times: :attr:`max_lease_s`.
        """
        if kind == "crash":
            return self.crash_notice_s
        if kind == "hang":
            return self.op_deadline_s
        if kind == "straggler":
            return self.max_lease_s
        raise ValueError(f"unknown failure kind {kind!r}")


@dataclass(frozen=True)
class OpTiming:
    """Per-rank simulated response delays for one collective.

    ``delays[r]`` is rank ``r``'s response time in simulated seconds
    (``inf`` = never answers); ``kinds[r]`` labels why (``"crash"`` /
    ``"hang"`` / ``"straggler"``).  Ranks absent from ``delays`` answered
    in :data:`NOMINAL_OP_S`.
    """

    delays: dict[int, float]
    kinds: dict[int, str]


class RankFailure(RuntimeError):
    """A rank missed its lease and is declared dead.

    Carries everything the elastic re-planner needs: the dead ``rank``,
    the ``op``/``phase`` it went silent in, the training ``step`` (-1
    outside a training loop), the expired ``deadline`` in simulated
    seconds, the detection ``sim_time``, and the fault ``kind``.
    """

    def __init__(
        self,
        *,
        rank: int,
        op: str,
        phase: str,
        step: int,
        deadline: float,
        kind: str = "crash",
        sim_time: float = 0.0,
        call_index: int = 0,
    ):
        self.rank = rank
        self.op = op
        self.phase = phase
        self.step = step
        self.deadline = deadline
        self.kind = kind
        self.sim_time = sim_time
        self.call_index = call_index
        super().__init__(
            f"rank {rank} declared dead ({kind}): missed the {deadline:g}s "
            f"lease on op={op!r} phase={phase!r} step={step} "
            f"(guarded call #{call_index}, t={sim_time:g}s)"
        )


class FailureDetector(SimCommunicator):
    """The lease stage: raises instead of deadlocking on a dead rank.

    ``FailureDetector(inner)`` attaches itself to ``inner``'s stage chain
    and shares its topology, traffic log and chain, so the two objects are
    the same communicator; ``inner`` stays reachable for its own
    attributes (a fault injector's ``injections``, …).  The chain order is
    fixed — a :class:`~repro.resilience.comm.ResilientCommunicator` stage
    always runs above the lease, a fault injector always below — which
    layers message-level and rank-level recovery however they were built.
    """

    stage_kind = "lease"

    def __init__(
        self,
        inner: SimCommunicator,
        *,
        lease: LeaseConfig | None = None,
        clock: SimClock | None = None,
    ):
        super().__init__(inner.topology, log=inner.log)
        self.inner = inner
        self.lease = lease if lease is not None else LeaseConfig()
        self.clock = clock if clock is not None else SimClock()
        self.call_index = 0
        self.step = -1
        #: straggler lease extensions granted so far, per rank
        self.extensions: dict[int, int] = {}
        #: tolerated-straggler events ``(rank, op, extensions_now)``
        self.tolerated: list[tuple[int, str, int]] = []
        self._join(inner)

    def _on_step(self, step: int) -> None:
        self.step = step

    # --- the lease guard ----------------------------------------------------

    def _declare_dead(
        self, rank: int, call: CollectiveCall, kind: str, deadline: float
    ) -> None:
        op, phase, channel = call.op, call.phase, call.channel
        self.clock.advance(deadline)
        reg = get_registry()
        reg.counter("resilience.rank_failures").inc(kind=kind, op=op)
        reg.counter("resilience.rank_failures_by_rank").inc(rank=rank)
        with trace_span(
            "failure.detect", phase="resilience", rank=rank,
            op=op, kind=kind, step=self.step, deadline=deadline,
            logical=phase, sim_wait_s=deadline, call=self.call_index,
            channel=channel,
        ):
            pass
        from repro.obs.flightrec import notify_failure

        notify_failure(
            {
                "kind": kind, "type": "RankFailure", "rank": rank,
                "op": op, "logical": phase, "step": self.step,
                "deadline_s": deadline, "call_index": self.call_index,
                "channel": channel,
            },
            detector=self,
        )
        raise RankFailure(
            rank=rank, op=op, phase=phase, step=self.step,
            deadline=deadline, kind=kind, sim_time=self.clock.now,
            call_index=self.call_index,
        )

    def _stage(self, call: CollectiveCall, proceed: Callable[[], list]) -> list:
        """Issue the op, then apply the lease protocol to its timing."""
        self.call_index += 1
        out = proceed()
        timing = call.timing
        if timing is None:
            self.clock.advance(NOMINAL_OP_S)
            return out
        op, phase, channel = call.op, call.phase, call.channel
        members = set(call.participants)
        completion = NOMINAL_OP_S
        slowest: int | None = None
        for rank, delay in sorted(timing.delays.items()):
            if rank not in members:
                continue
            kind = timing.kinds.get(rank, "crash")
            if delay == float("inf"):
                # A crashed peer resets the connection — the transport
                # notices fast; a hung peer stays silent for the full lease.
                self._declare_dead(
                    rank, call, kind, self.lease.failure_detection_time(kind)
                )
            # Straggler: extend the lease while extensions remain.
            used = self.extensions.get(rank, 0)
            while delay > self.lease.lease_at(used):
                if used >= self.lease.max_extensions:
                    self._declare_dead(
                        rank, call, kind, self.lease.lease_at(used)
                    )
                used += 1
                self.extensions[rank] = used
                self.tolerated.append((rank, op, used))
                get_registry().counter(
                    "resilience.rank_lease_extensions"
                ).inc(rank=rank)
                with trace_span(
                    "lease.extend", phase="resilience", rank=rank,
                    op=op, kind=kind, step=self.step, logical=phase,
                    extensions=used, lease_s=self.lease.lease_at(used),
                    channel=channel,
                ):
                    pass
            if delay > completion:
                completion = delay
                slowest = rank
        if completion > NOMINAL_OP_S:
            # The whole collective waited on the slowest participant —
            # simulated stall seconds the attribution charges as exposed.
            with trace_span(
                "lease.wait", phase="resilience", rank=slowest,
                op=op, step=self.step, logical=phase, channel=channel,
                sim_wait_s=completion - NOMINAL_OP_S,
            ):
                pass
        self.clock.advance(completion)
        return out

"""Fault-injecting communicators: realistic distributed-systems bugs on tap.

A reproduction's tests are only as good as their ability to *fail*.  Each
class here is a :class:`~repro.comm.SimCommunicator` with itself as the
``fault`` stage of its chain.  Two families share one base,
:class:`FaultStage`: message faults damage one (or every) matching
delivery, and the meta-tests assert that
:func:`repro.attention.verify.verify_method` catches the damage for every
method in the registry; rank faults kill or slow down a *rank* — the
dominant availability risk of month-long multi-node runs — and a
:class:`~repro.comm.FailureDetector` above them must declare it dead.
The differential fuzzer and the chaos runner draw from both.

Targeting
---------
All faults share one targeting model: an op of the family's op set is
*matched* when its ``op`` name equals the configured filter and its
``phase`` and ``tag`` each contain theirs (``None`` matches anything), and
the fault fires on the ``at_call``-th matching call (1-based).  Message
faults add an exact ``channel`` filter, and ``at_call=None`` fires on every
match; rank faults add an ``at_step`` trigger fed by the trainer's
``on_step_start`` notification, and fail the victim ``rank``
*permanently* on the first hit (``at_call=None`` = the first match).  So

* ``CorruptPayloadComm(topo)`` — corrupt the very first transfer of the run;
* ``CorruptPayloadComm(topo, phase="attn-bwd", at_call=1)`` — corrupt the
  first backward transfer only, leaving the forward clean;
* ``DropTransferComm(topo, op="exchange", tag="return")`` — lose the
  gradient-return message of Algorithms 1/2;
* ``CrashRankComm(topo, rank=1, at_step=2)`` — kill rank 1 at the first
  collective of training step 2.

The fault models
----------------
Message faults act on the five delivery ops (:data:`DELIVERY_OPS`):

===============================  ===============================================
:class:`CorruptPayloadComm`      delivered floats perturbed by additive noise
:class:`DropTransferComm`        one rank's delivery silently zeroed (lost msg)
:class:`MisrouteHopComm`         deliveries rotated to the wrong ranks
:class:`StaleBufferComm`         previous delivery served again (double-buffer
                                 reuse without waiting for the transfer)
:class:`DuplicateDeliveryComm`   message applied twice (doubled payload, as a
                                 reduce would see a re-sent packet)
===============================  ===============================================

Rank faults act on all nine collectives (:data:`COLLECTIVE_OPS`); once
failed, every op reports the victim through an :class:`~repro.comm.OpTiming`
on its call record:

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

A rank fault leaves the numerics untouched: the detector raises
:class:`~repro.comm.RankFailure` before a dead rank's data is ever
consumed, exactly as survivors abort a collective in a real elastic
runtime.  Without a detector the injected failures are invisible — which
is the deadlock these classes exist to prove the detector prevents.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.comm import NOMINAL_OP_S, OpTiming, SimCommunicator
from repro.comm.communicator import COLLECTIVE_OPS, DELIVERY_OPS, CollectiveCall
from repro.topology import ClusterTopology
from repro.utils.pytree import tree_map


def _perturb_floats(tree: object, fn) -> object:
    """Apply ``fn`` to every floating-point leaf of a pytree."""
    return tree_map(
        lambda a: fn(a) if getattr(a, "dtype", None) is not None
        and a.dtype.kind == "f" else a,
        tree,
    )


def _copy_tree(tree: object) -> object:
    return tree_map(np.copy, tree)


def _previous_message(out: list, prev: list | None) -> list:
    """What lands when the expected message does not: the previous one on
    the wire, zeros when there was none."""
    if prev is not None:
        return [_copy_tree(b) for b in prev]
    return [tree_map(np.zeros_like, b) for b in out]


class FaultStage(SimCommunicator):
    """Base class of every fault: the targeting, written once.

    A collective outside :attr:`ops` passes untouched; one inside it is
    handed, with its result, to ``_strike(call, out) -> out``, the hook
    each family defines, which asks :meth:`_triggered` whether this call
    is the one to sabotage.

    Parameters
    ----------
    op:
        Exact name of the op to match; a name outside :attr:`ops` is
        rejected (``None`` = match all).
    phase, tag:
        Substring filters on the operation labels (``None`` = match all).
    channel:
        Exact-match filter on the ring direction (``"fwd"`` / ``"rev"``).
    at_call:
        1-based index of the matching call to sabotage; ``None`` hits every
        matching call.
    at_step:
        Training step the fault is confined to (requires the caller to
        call ``on_step_start``); ``None`` means any step.
    """

    stage_kind = "fault"
    fault_name = "base"
    #: The ops this family acts on — what an ``op`` filter may name.
    ops: tuple[str, ...] = COLLECTIVE_OPS

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        phase: str | None,
        tag: str | None,
        op: str | None,
        at_call: int | None,
        log,
        channel: str | None = None,
        at_step: int | None = None,
    ):
        super().__init__(topology, log=log)
        if op is not None and op not in self.ops:
            raise ValueError(
                f"op filter {op!r} can never match; valid ops: {sorted(self.ops)}"
            )
        self.target_phase = phase
        self.target_tag = tag
        self.target_op = op
        self.target_channel = channel
        self.at_call = at_call
        self.at_step = at_step
        self.current_step = -1
        self.calls_matched = 0
        self.injections = 0
        self._join(self)

    def _described(self) -> list[tuple[str, object]]:
        """The ``(name, value)`` pairs :meth:`describe` prints, in order
        (a family's unused filter is ``None`` and not printed)."""
        return [
            ("phase", self.target_phase), ("tag", self.target_tag),
            ("op", self.target_op), ("channel", self.target_channel),
            ("at_call", self.at_call), ("at_step", self.at_step),
        ]

    def describe(self) -> str:
        filters = ", ".join(
            f"{k}={v!r}" for k, v in self._described() if v is not None
        )
        return f"{self.fault_name}({filters})"

    def _on_step(self, step: int) -> None:
        self.current_step = step

    def _triggered(self, call: CollectiveCall) -> bool:
        """Count a matching call; fire on exactly the ``at_call``-th."""
        if not (
            (self.target_op is None or self.target_op == call.op)
            and (self.target_phase is None or self.target_phase in call.phase)
            and (self.target_tag is None or self.target_tag in call.tag)
            and (self.target_channel is None
                 or self.target_channel == call.channel)
            and (self.at_step is None or self.at_step == self.current_step)
        ):
            return False
        self.calls_matched += 1
        hit = self.at_call is None or self.calls_matched == self.at_call
        if hit:
            self.injections += 1
        return hit

    def _stage(self, call: CollectiveCall, proceed: Callable[[], list]) -> list:
        out = proceed()
        if call.op not in self.ops:
            return out
        return self._strike(call, out)


class FaultInjectingCommunicator(FaultStage):
    """Message faults: damage the received buffers of a matching delivery.

    ``victim`` is, for per-rank faults (corrupt / drop / duplicate on
    collective deliveries), the index of the delivered entry to damage.
    ``channel="rev"`` aims a fault at the counter-rotating stream of a
    bidirectional ring.
    """

    ops = DELIVERY_OPS

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        phase: str | None = None,
        tag: str | None = None,
        op: str | None = None,
        channel: str | None = None,
        at_call: int | None = 1,
        victim: int = 0,
        log=None,
    ):
        super().__init__(
            topology, phase=phase, tag=tag, op=op, channel=channel,
            at_call=at_call, log=log,
        )
        self.victim = victim
        # Last *clean* delivery per op — what a stale double-buffer holds.
        self._history: dict[str, list] = {}

    def _damage(self, call: CollectiveCall, out: list, prev: list | None) -> list:
        """Subclass hook: damage the delivered slots ``out`` (one per rank;
        a ``send`` has a single slot).  ``prev`` is the previous clean
        delivery of the same op (or ``None``)."""
        return out

    def _strike(self, call: CollectiveCall, out: list) -> list:
        prev = self._history.get(call.op)
        self._history[call.op] = [_copy_tree(b) for b in out]
        if self._triggered(call):
            return self._damage(call, list(out), prev)
        return out


class CorruptPayloadComm(FaultInjectingCommunicator):
    """Additive-noise corruption of the victim's delivered floats — a
    flipped mantissa bit, an overwritten buffer, a bad NCCL reduction."""

    fault_name = "corrupt"

    def __init__(self, topology, noise: float = 1e-3, **kw):
        super().__init__(topology, **kw)
        self.noise = noise

    def _damage(self, call, out, prev):
        v = self.victim % len(out)
        out[v] = _perturb_floats(out[v], lambda a: a + self.noise)
        return out


class DropTransferComm(FaultInjectingCommunicator):
    """A lost message: the victim receives zeros instead of the payload."""

    fault_name = "drop"

    def _damage(self, call, out, prev):
        v = self.victim % len(out)
        out[v] = tree_map(np.zeros_like, out[v])
        return out


class MisrouteHopComm(FaultInjectingCommunicator):
    """A routing bug: every delivery lands one rank over.  For a single
    point-to-point transfer, the receiver gets the *previous* message on
    the wire instead (zeros when there was none)."""

    fault_name = "misroute"

    def _damage(self, call, out, prev):
        g = len(out)
        if g == 1:
            return _previous_message(out, prev)
        return [out[(i + 1) % g] for i in range(g)]


class StaleBufferComm(FaultInjectingCommunicator):
    """Double-buffering bug: the receiver reuses the previous step's buffer
    without waiting for the new transfer to land.  On the first matching
    call there is no previous delivery, so the pre-transfer operands are
    served (the buffer simply never moved)."""

    fault_name = "stale"

    def _damage(self, call, out, prev):
        if prev is None and len(out) > 1:
            return [_copy_tree(b) for b in call.operands]
        return _previous_message(out, prev)


class DuplicateDeliveryComm(FaultInjectingCommunicator):
    """A re-sent packet consumed twice: the victim's delivered floats are
    doubled, as an accumulating receiver would observe."""

    fault_name = "duplicate"

    def _damage(self, call, out, prev):
        v = self.victim % len(out)
        out[v] = _perturb_floats(out[v], lambda a: a + a)
        return out


class RankFaultComm(FaultStage):
    """Rank faults: fail the global rank ``rank``, for good, on the first
    hit — a crashed process does not come back — and report it on every
    op from then on.  Counting stops once the rank has failed."""

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
        if not 0 <= rank < topology.world_size:
            raise ValueError(
                f"victim rank {rank} out of range [0, {topology.world_size})"
            )
        super().__init__(
            topology, phase=phase, tag=tag, op=op, at_call=at_call,
            at_step=at_step, log=log,
        )
        self.rank = rank
        self.failed = False

    def _described(self) -> list[tuple[str, object]]:
        return [("rank", self.rank), *super()._described()]

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

    def _strike(self, call: CollectiveCall, out: list) -> list:
        if not self.failed:
            self.failed = self._triggered(call)
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


#: The message faults, by name — the fuzzer's ``--fault`` axis and the
#: chaos runner's draw (in sorted order).
FAULT_REGISTRY: dict[str, type[FaultInjectingCommunicator]] = {
    "corrupt": CorruptPayloadComm,
    "drop": DropTransferComm,
    "misroute": MisrouteHopComm,
    "stale": StaleBufferComm,
    "duplicate": DuplicateDeliveryComm,
}

#: The rank faults, by name — the fuzzer's ``--rank-fault`` axis and the
#: chaos runner's rank-failure matrix.
RANK_FAULT_REGISTRY: dict[str, type[RankFaultComm]] = {
    "crash": CrashRankComm,
    "hang": HangRankComm,
    "straggler": StragglerRankComm,
}


def make_fault(name: str, topology: ClusterTopology, **kwargs) -> FaultStage:
    """Instantiate any fault, message or rank, by registry name."""
    registry = {**FAULT_REGISTRY, **RANK_FAULT_REGISTRY}
    try:
        cls = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown fault {name!r}; available: {sorted(registry)}"
        ) from None
    return cls(topology, **kwargs)

"""Fault-injecting communicators: realistic distributed-systems bugs on tap.

A reproduction's tests are only as good as their ability to *fail*.  Each
class here is a :class:`~repro.comm.SimCommunicator` with itself as the
``fault`` stage of its chain, sabotaging the delivery of one (or every)
matching transfer; the meta-tests then assert
that :func:`repro.attention.verify.verify_method` catches the damage for
every method in the registry, and the differential fuzzer uses the same
classes to prove it reports (and shrinks) injected failures.

Targeting
---------
All faults share one targeting model: a delivery op is *matched* when its
``op`` name (``ring_shift`` / ``exchange`` / ``all_to_all`` /
``group_all_to_all`` / ``send``) equals the configured filter and its
``phase`` and ``tag`` each contain theirs (``None`` matches anything), and
the fault fires on the ``at_call``-th matching call (1-based; ``None``
fires on every match).  So

* ``CorruptPayloadComm(topo)`` — corrupt the very first transfer of the run;
* ``CorruptPayloadComm(topo, phase="attn-bwd", at_call=1)`` — corrupt the
  first backward transfer only, leaving the forward clean;
* ``DropTransferComm(topo, op="exchange", tag="return")`` — lose the
  gradient-return message of Algorithms 1/2.

The fault models
----------------
===============================  ===============================================
:class:`CorruptPayloadComm`      delivered floats perturbed by additive noise
:class:`DropTransferComm`        one rank's delivery silently zeroed (lost msg)
:class:`MisrouteHopComm`         deliveries rotated to the wrong ranks
:class:`StaleBufferComm`         previous delivery served again (double-buffer
                                 reuse without waiting for the transfer)
:class:`DuplicateDeliveryComm`   message applied twice (doubled payload, as a
                                 reduce would see a re-sent packet)
===============================  ===============================================
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.comm import SimCommunicator
from repro.comm.communicator import (
    DELIVERY_OPS,
    CollectiveCall,
    check_op_filter,
)
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


class FaultInjectingCommunicator(SimCommunicator):
    """Base class: intercepts every delivery op and lets a subclass damage
    the received buffers when the targeting filters match.

    Parameters
    ----------
    op:
        Exact name of the delivery op to match; a name outside the five
        delivery ops is rejected (``None`` = match all).
    phase, tag:
        Substring filters on the transfer labels (``None`` = match all).
    channel:
        Exact-match filter on the ring direction (``"fwd"`` / ``"rev"``);
        ``None`` matches both.  ``channel="rev"`` aims a fault at the
        counter-rotating stream of a bidirectional ring.
    at_call:
        1-based index of the matching call to sabotage; ``None`` hits every
        matching call.
    victim:
        For per-rank faults (corrupt / drop / duplicate on collective
        deliveries): index of the delivered entry to damage.
    """

    stage_kind = "fault"
    fault_name = "base"

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
        super().__init__(topology, log=log)
        check_op_filter(op, DELIVERY_OPS)
        self.target_phase = phase
        self.target_tag = tag
        self.target_op = op
        self.target_channel = channel
        self.at_call = at_call
        self.victim = victim
        self.calls_matched = 0
        self.injections = 0
        # Last *clean* delivery per op — what a stale double-buffer holds.
        self._history: dict[str, list] = {}
        self._join(self)

    def describe(self) -> str:
        filters = ", ".join(
            f"{k}={v!r}" for k, v in [
                ("phase", self.target_phase), ("tag", self.target_tag),
                ("op", self.target_op), ("channel", self.target_channel),
                ("at_call", self.at_call),
            ] if v is not None
        )
        return f"{self.fault_name}({filters})"

    # --- targeting ---------------------------------------------------------

    def _triggered(self, call: CollectiveCall) -> bool:
        """Count a matching call; fire on exactly the ``at_call``-th."""
        if not call.matches(
            op=self.target_op, phase=self.target_phase, tag=self.target_tag,
            channel=self.target_channel,
        ):
            return False
        self.calls_matched += 1
        hit = self.at_call is None or self.calls_matched == self.at_call
        if hit:
            self.injections += 1
        return hit

    # --- interception ------------------------------------------------------

    def _damage(self, call: CollectiveCall, out: list, prev: list | None) -> list:
        """Subclass hook: damage the delivered slots ``out`` (one per rank;
        a ``send`` has a single slot).  ``prev`` is the previous clean
        delivery of the same op (or ``None``)."""
        return out

    def _stage(self, call: CollectiveCall, proceed: Callable[[], list]) -> list:
        out = proceed()
        if call.arrivals is None:
            return out
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


FAULT_REGISTRY: dict[str, type[FaultInjectingCommunicator]] = {
    "corrupt": CorruptPayloadComm,
    "drop": DropTransferComm,
    "misroute": MisrouteHopComm,
    "stale": StaleBufferComm,
    "duplicate": DuplicateDeliveryComm,
}


def make_fault(
    name: str, topology: ClusterTopology, **kwargs
) -> FaultInjectingCommunicator:
    """Instantiate a fault-injecting communicator by registry name."""
    try:
        cls = FAULT_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown fault {name!r}; available: {sorted(FAULT_REGISTRY)}"
        ) from None
    return cls(topology, **kwargs)

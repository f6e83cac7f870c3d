"""Self-healing communication: checksum-verified delivery with bounded retry.

:class:`ResilientCommunicator` is the ``checksum`` stage — the outermost —
of a communicator's chain (see :meth:`repro.comm.SimCommunicator._deliver`)
and guards every *delivery* op — ``ring_shift`` / ``exchange`` /
``all_to_all`` / ``group_all_to_all`` / ``send`` — with an end-to-end
integrity check:

1. before issuing the op, the sender-side checksum of every payload is
   computed (in a real deployment this digest rides along with the data,
   exactly like the CRC a NIC or a NCCL debug build attaches per message);
2. after the stages below deliver, each rank's received buffers are
   re-hashed and compared against what the matching sender advertised;
3. any mismatch — a corrupted payload, a silently dropped message, a hop
   routed to the wrong rank, a stale double-buffer, a duplicated packet,
   i.e. exactly the five fault classes of :mod:`repro.testing.faults` —
   triggers a bounded retransmit with deterministic exponential backoff;
4. if the mismatch persists past :attr:`RetryPolicy.max_retries`, a
   structured :class:`CommFailure` is raised naming the op, phase, tag,
   guarded call index and the ranks whose deliveries were bad, so a
   supervisor can fence the run instead of training on garbage.

Every detection/recovery event is aggregated by a :class:`FaultMonitor`,
which keeps per-rank fault counters and can *escalate* (raise
:class:`FaultEscalation`) once any single rank accumulates more faults
than a configured threshold — the "replace that flaky node" signal of
large-run practice.

Collectives that the fault injectors never touch (``all_gather``,
``all_reduce``, ``reduce_scatter``, ``broadcast``) pass straight through
to the stages below.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.comm import SimCommunicator
from repro.comm.communicator import CollectiveCall
from repro.obs.metrics import get_registry
from repro.obs.tracer import trace_span

__all__ = [
    "CommFailure",
    "FaultEscalation",
    "FaultEvent",
    "FaultMonitor",
    "ResilientCommunicator",
    "RetryPolicy",
    "tree_checksum",
]


def _update_digest(h, node) -> None:
    if node is None:
        h.update(b"N")
    elif isinstance(node, np.ndarray):
        a = np.ascontiguousarray(node)
        h.update(b"A")
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    elif isinstance(node, tuple):
        h.update(b"T%d" % len(node))
        for x in node:
            _update_digest(h, x)
    elif isinstance(node, list):
        h.update(b"L%d" % len(node))
        for x in node:
            _update_digest(h, x)
    elif isinstance(node, dict):
        h.update(b"D%d" % len(node))
        for k in sorted(node):
            h.update(str(k).encode())
            _update_digest(h, node[k])
    elif isinstance(node, (bool, int, float, str, np.generic)):
        h.update(b"S")
        h.update(repr(node).encode())
    else:
        raise TypeError(
            f"cannot checksum payload node of type {type(node).__name__}"
        )


def tree_checksum(tree: object) -> str:
    """Deterministic SHA-256 digest of a payload pytree.

    Covers dtype, shape and exact bytes of every array leaf (plus container
    structure), so any bitwise difference between what was sent and what
    was delivered changes the digest.
    """
    h = hashlib.sha256()
    _update_digest(h, tree)
    return h.hexdigest()


class CommFailure(RuntimeError):
    """A delivery stayed corrupt after every allowed retransmission.

    Attributes name the failing transfer precisely so a supervisor (or a
    test) can pin the blame: ``op``, ``phase``, ``tag``, the ring
    direction ``channel`` (``"fwd"`` / ``"rev"`` — attributing
    bidirectional-ring failures per direction), the 1-based ``call_index``
    among guarded calls, the ``ranks`` whose deliveries mismatched, and
    the number of ``attempts`` made.
    """

    def __init__(
        self,
        *,
        op: str,
        phase: str,
        tag: str,
        call_index: int,
        ranks: Sequence[int],
        attempts: int,
        channel: str = "fwd",
    ):
        self.op = op
        self.phase = phase
        self.tag = tag
        self.channel = channel
        self.call_index = call_index
        self.ranks = list(ranks)
        self.attempts = attempts
        super().__init__(
            f"unrecoverable delivery failure: op={op!r} phase={phase!r} "
            f"tag={tag!r} channel={channel!r} call #{call_index}, ranks "
            f"{self.ranks} still corrupt after {attempts} attempts"
        )


class FaultEscalation(RuntimeError):
    """A single rank exceeded the monitor's fault budget (flaky hardware)."""

    def __init__(self, rank: int, count: int, threshold: int):
        self.rank = rank
        self.count = count
        self.threshold = threshold
        super().__init__(
            f"rank {rank} accumulated {count} delivery faults "
            f"(threshold {threshold}); escalating — fence this rank"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission with deterministic exponential backoff.

    The simulation has no wall clock, so backoff is *accounted* (summed
    into the monitor) rather than slept; determinism keeps chaos runs
    reproducible.
    """

    max_retries: int = 3
    base_backoff_s: float = 0.05
    multiplier: float = 2.0
    #: Exponent cap: ``multiplier ** attempt`` overflows float64 past
    #: ``attempt ≈ 1024`` (for multiplier 2), so the backoff saturates at
    #: ``base * multiplier ** max_exponent`` instead of raising
    #: ``OverflowError`` under pathological retry counts.
    max_exponent: int = 60

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_backoff_s < 0 or self.multiplier <= 0:
            raise ValueError("backoff parameters must be positive")
        if self.max_exponent < 0:
            raise ValueError(f"max_exponent must be >= 0, got {self.max_exponent}")

    def delay(self, attempt: int) -> float:
        """Backoff before retransmission ``attempt`` (0-based), saturating
        at the :attr:`max_exponent` cap."""
        return self.base_backoff_s * self.multiplier ** min(
            attempt, self.max_exponent
        )


@dataclass
class FaultEvent:
    """One detected bad delivery (possibly later recovered).

    ``channel`` is the ring direction the damaged transfer rode
    (``"fwd"`` / ``"rev"``), so bidirectional-ring faults are attributable
    per direction.
    """

    op: str
    phase: str
    tag: str
    call_index: int
    ranks: list[int]
    attempt: int
    channel: str = "fwd"


@dataclass
class FaultMonitor:
    """Aggregates detection/recovery events with per-rank counters, and
    mirrors every event into the global metrics registry
    (``resilience.*`` counters) so one snapshot covers fault state too.

    Parameters
    ----------
    escalate_threshold:
        When set, :class:`FaultEscalation` is raised as soon as any single
        rank's cumulative fault count exceeds it.  ``None`` never escalates.
    """

    escalate_threshold: int | None = None
    events: list[FaultEvent] = field(default_factory=list)
    faults_by_rank: dict[int, int] = field(default_factory=dict)
    recoveries: list[tuple[str, int, int]] = field(default_factory=list)
    total_backoff_s: float = 0.0

    @property
    def total_faults(self) -> int:
        return len(self.events)

    @property
    def total_recoveries(self) -> int:
        return len(self.recoveries)

    def record_fault(
        self,
        *,
        op: str,
        phase: str,
        tag: str,
        call_index: int,
        ranks: Sequence[int],
        backoff_s: float = 0.0,
        attempt: int = 0,
        channel: str = "fwd",
    ) -> None:
        self.events.append(
            FaultEvent(op=op, phase=phase, tag=tag, call_index=call_index,
                       ranks=list(ranks), attempt=attempt, channel=channel)
        )
        self.total_backoff_s += backoff_s
        reg = get_registry()
        reg.counter("resilience.faults").inc(op=op, channel=channel)
        reg.counter("resilience.backoff_seconds").inc(backoff_s)
        for r in ranks:
            count = self.faults_by_rank.get(r, 0) + 1
            self.faults_by_rank[r] = count
            reg.counter("resilience.faults_by_rank").inc(rank=r)
            if self.escalate_threshold is not None and count > self.escalate_threshold:
                raise FaultEscalation(r, count, self.escalate_threshold)

    def record_recovery(self, op: str, call_index: int, attempts: int) -> None:
        self.recoveries.append((op, call_index, attempts))
        get_registry().counter("resilience.recoveries").inc(op=op)

    def summary(self) -> str:
        per_rank = ", ".join(
            f"r{r}:{n}" for r, n in sorted(self.faults_by_rank.items())
        ) or "none"
        return (
            f"faults={self.total_faults} recoveries={self.total_recoveries} "
            f"backoff={self.total_backoff_s:.3f}s per-rank[{per_rank}]"
        )


class ResilientCommunicator(SimCommunicator):
    """The checksum stage: verify every delivery, retransmit on damage.

    ``ResilientCommunicator(inner)`` attaches itself to ``inner``'s stage
    chain and shares its topology, traffic log and chain, so the two
    objects are the same communicator; ``inner`` stays reachable for its
    own attributes (a fault injector's ``injections``, …).  A
    retransmission re-enters every stage below this one, so retried
    traffic is lease-guarded, exposed to the fault injector and logged
    exactly like a real retransmit would appear on the wire.
    """

    stage_kind = "checksum"

    def __init__(
        self,
        inner: SimCommunicator,
        *,
        retry: RetryPolicy | None = None,
        monitor: FaultMonitor | None = None,
    ):
        super().__init__(inner.topology, log=inner.log)
        self.inner = inner
        self.retry = retry if retry is not None else RetryPolicy()
        self.monitor = monitor if monitor is not None else FaultMonitor()
        self.call_index = 0
        self._join(inner)

    def _stage(self, call: CollectiveCall, proceed: Callable[[], list]) -> list:
        """Issue a delivery op, verify per-slot checksums, retry on damage."""
        if call.arrivals is None:
            return proceed()
        self.call_index += 1
        idx = self.call_index
        op, phase, tag, channel = call.op, call.phase, call.tag, call.channel
        with trace_span(f"resilient.{op}", phase="comm",
                        logical=phase, tag=tag, call=idx) as sp:
            advertised = [tree_checksum(ref) for ref in call.arrivals]
            bad: list[int] = []
            for attempt in range(self.retry.max_retries + 1):
                out = proceed()
                bad = [
                    call.dests[i] for i, digest in enumerate(advertised)
                    if tree_checksum(out[i]) != digest
                ]
                if not bad:
                    if attempt:
                        self.monitor.record_recovery(op, idx, attempt + 1)
                    if sp:
                        sp["attempts"] = attempt + 1
                    return out
                self.monitor.record_fault(
                    op=op, phase=phase, tag=tag, call_index=idx, ranks=bad,
                    backoff_s=self.retry.delay(attempt), attempt=attempt,
                    channel=channel,
                )
            from repro.obs.flightrec import notify_failure

            notify_failure({
                "kind": "delivery", "type": "CommFailure", "op": op,
                "logical": phase, "tag": tag, "call_index": idx,
                "ranks": bad, "channel": channel,
            })
            raise CommFailure(
                op=op, phase=phase, tag=tag, call_index=idx, ranks=bad,
                attempts=self.retry.max_retries + 1, channel=channel,
            )

"""The simulated SPMD communicator.

:class:`SimCommunicator` executes collective operations for *all* ranks at
once.  Per-rank data is passed as a list indexed by global rank; each entry
may be a numpy array or any pytree of arrays (tuples/lists/dicts).  The
communicator both moves the data (copying, so sender buffers can be reused
exactly as with real double-buffered NCCL transfers) and appends one
:class:`~repro.comm.traffic.TransferRecord` per point-to-point hop.

Collectives that real NCCL implements with ring algorithms (all-gather,
reduce-scatter, all-reduce) are *logged* as their ring realisations so the
recorded per-link traffic matches what the hardware would carry, while the
numerics are computed directly.

Every collective is described once: its public method validates the
arguments, builds a :class:`CollectiveCall` and hands it to
:meth:`SimCommunicator._deliver` — the single place a collective can be
intercepted.  ``_deliver`` runs the call through the communicator's *stage
chain*, always in the order of :data:`STAGE_ORDER`, and then traces, logs
and copies it.  The chain is empty unless one of the three stage classes
was constructed on this communicator: a fault injector (any
:class:`~repro.testing.faults.FaultStage`, message or rank fault),
:class:`~repro.comm.FailureDetector` and
:class:`~repro.resilience.ResilientCommunicator`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.comm.traffic import TrafficLog, TransferRecord
from repro.obs.tracer import NOOP_SPAN, trace_span
from repro.topology import ClusterTopology
from repro.utils.pytree import tree_flatten, tree_map

if TYPE_CHECKING:
    from repro.comm.failure import OpTiming


#: Process-wide issue order of traced communicator ops; gives every
#: ``comm.*`` span a monotonically increasing ``call`` attribute so the
#: flow-event deriver (:mod:`repro.obs.flow`) can chain producer→consumer
#: edges deterministically even when wall-clock timestamps tie.
_CALL_SEQ = itertools.count(1)

#: The ops whose result is a per-rank *delivery* of sender buffers — the
#: ones a message fault can damage and a checksum can verify.
DELIVERY_OPS = ("send", "exchange", "ring_shift", "all_to_all", "group_all_to_all")
#: Every collective :class:`SimCommunicator` offers.
COLLECTIVE_OPS = DELIVERY_OPS + (
    "all_gather", "reduce_scatter", "all_reduce", "broadcast",
)

#: Stage kinds, outermost first.  A retry in the ``checksum`` stage
#: re-enters every stage below it, so a retransmit is lease-guarded,
#: re-counted by the fault injector and logged like the first attempt.
STAGE_ORDER = ("checksum", "lease", "fault")


@dataclass
class CollectiveCall:
    """One collective, as every stage of :meth:`SimCommunicator._deliver`
    sees it.

    ``tag`` is the caller's label (what spans and fault filters match);
    ``log_tag`` is what the traffic log records (it defaults to the op
    name for most collectives).  ``hops`` are the point-to-point transfers
    to log, ``(src, dst, nbytes, nelems)`` in log order.

    Delivery ops (:data:`DELIVERY_OPS`) set ``arrivals``: slot ``i`` holds
    a *reference* to the sender buffer that ``dests[i]`` must receive, and
    ``operands`` the per-rank inputs as passed.  The other collectives set
    ``compute``, which returns the per-rank results.  ``timing`` is
    written by a rank-fault stage and read by the lease stage above it.
    """

    op: str
    phase: str
    tag: str
    log_tag: str
    participants: Sequence[int]
    channel: str = "fwd"
    hops: list[tuple[int, int, int, int]] = field(default_factory=list)
    arrivals: list[object] | None = None
    dests: Sequence[int] = ()
    operands: Sequence[object] = ()
    compute: Callable[[], list] | None = None
    timing: OpTiming | None = None

    def hop(self, src: int, dst: int, tree: object) -> None:
        """Queue the transfer of ``tree`` for logging; a self-send rides
        no link."""
        if src != dst:
            leaves, _ = tree_flatten(tree)
            self.hops.append((
                src, dst,
                sum(leaf.nbytes for leaf in leaves),
                sum(leaf.size for leaf in leaves),
            ))


class SimCommunicator:
    """Single-process stand-in for a NCCL/MPI communicator.

    Parameters
    ----------
    topology:
        Cluster layout used to classify each hop as intra- or inter-node.
    log:
        Optional shared :class:`TrafficLog`; a fresh one is created if
        omitted and is available as :attr:`log`.
    """

    #: Set by the three stage classes to one of :data:`STAGE_ORDER`.
    stage_kind: str | None = None

    def __init__(self, topology: ClusterTopology, log: TrafficLog | None = None):
        self.topology = topology
        self.log = log if log is not None else TrafficLog()
        self._stages: list[SimCommunicator] = []

    @property
    def world_size(self) -> int:
        return self.topology.world_size

    # --- the stage chain ------------------------------------------------------

    def _join(self, host: SimCommunicator) -> None:
        """Become a stage of ``host``'s chain and share that chain, so a
        collective issued on either object runs the same stages.  The
        chain is ordered by kind, never by the order stages were added."""
        self._stages = host._stages
        self._stages.append(self)
        self._stages.sort(key=lambda s: STAGE_ORDER.index(s.stage_kind))

    def _stage(self, call: CollectiveCall, proceed: Callable[[], list]) -> list:
        """A stage's policy: return ``proceed()`` (everything below this
        stage), possibly after calling it again or altering its result."""
        return proceed()

    def _on_step(self, step: int) -> None:
        """A stage's reaction to the start of training step ``step``."""

    def on_step_start(self, step: int) -> None:
        """Trainer hook: tell every stage which step is starting, so
        faults can target "step s" and failures name the step they hit."""
        for stage in self._stages:
            stage._on_step(step)

    def _deliver(self, call: CollectiveCall, depth: int = 0) -> list:
        """Run ``call`` through the stages from ``depth`` down, then trace,
        log and copy it.  The only way data moves between ranks."""
        if depth < len(self._stages):
            return self._stages[depth]._stage(
                call, lambda: self._deliver(call, depth + 1)
            )
        span = trace_span(
            f"comm.{call.op}", phase="comm", logical=call.phase, tag=call.tag
        )
        if span is NOOP_SPAN:
            return self._transfer(call)
        with span:
            out = self._transfer(call)
            # The causal-DAG key attributes (``op``, ``channel``, ``call``)
            # are what the flow-event exporter chains into Chrome-trace
            # ``s``/``f`` arrows.
            span["transfers"] = len(call.hops)
            span["nbytes"] = sum(hop[2] for hop in call.hops)
            span["op"] = call.op
            span["channel"] = call.channel
            span["call"] = next(_CALL_SEQ)
        return out

    def _transfer(self, call: CollectiveCall) -> list:
        for src, dst, nbytes, nelems in call.hops:
            self.log.add(
                TransferRecord(
                    src=src,
                    dst=dst,
                    nbytes=nbytes,
                    nelems=nelems,
                    link=self.topology.link_class(src, dst),
                    phase=call.phase,
                    tag=call.log_tag,
                    channel=call.channel,
                )
            )
        if call.arrivals is None:
            return call.compute()
        # Ranks outside the collective keep their buffer by identity.
        members = set(call.participants)
        return [
            tree_map(np.copy, ref) if rank in members else ref
            for rank, ref in zip(call.dests, call.arrivals)
        ]

    # --- argument checks --------------------------------------------------------

    def _check_bufs(self, bufs: Sequence[object]) -> None:
        if len(bufs) != self.world_size:
            raise ValueError(
                f"expected one buffer per rank ({self.world_size}), got {len(bufs)}"
            )

    def _check_ranks(self, ranks: Sequence[int]) -> None:
        for rank in ranks:
            if not 0 <= rank < self.world_size:
                raise ValueError(
                    f"rank {rank} out of range [0, {self.world_size})"
                )

    # --- point-to-point --------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        payload: object,
        *,
        phase: str,
        tag: str = "",
    ) -> object:
        """Single point-to-point transfer; returns the received copy.

        Used by selective (sparsity-aware) communication patterns that
        fetch only the shards a mask actually needs, instead of ring-
        circulating everything.
        """
        self._check_ranks((src, dst))
        call = CollectiveCall(
            "send", phase, tag, tag or "p2p", (src, dst),
            arrivals=[payload], dests=(dst,), operands=[payload],
        )
        call.hop(src, dst, payload)
        return self._deliver(call)[0]

    def exchange(
        self,
        bufs: Sequence[object],
        dest_of: Sequence[int],
        *,
        phase: str,
        tag: str = "",
        channel: str = "fwd",
    ) -> list[object]:
        """Generic permutation send: rank ``r`` sends its buffer to
        ``dest_of[r]``.  ``dest_of`` must be a permutation of the ranks.
        Returns the received buffer per rank (deep-copied).  ``channel``
        attributes the transfers to a ring direction in the traffic log.
        """
        self._check_bufs(bufs)
        ranks = range(self.world_size)
        if sorted(dest_of) != list(ranks):
            raise ValueError("dest_of must be a permutation of all ranks")
        call = CollectiveCall(
            "exchange", phase, tag, tag, ranks, channel,
            arrivals=[None] * self.world_size, dests=ranks, operands=bufs,
        )
        for src, dst in enumerate(dest_of):
            call.hop(src, dst, bufs[src])
            call.arrivals[dst] = bufs[src]
        return self._deliver(call)

    # --- ring primitives ---------------------------------------------------------

    def ring_shift(
        self,
        bufs: Sequence[object],
        ring: Sequence[int],
        *,
        phase: str,
        tag: str = "",
        reverse: bool = False,
    ) -> list[object]:
        """One ring step along ``ring``: each listed rank sends its buffer to
        its successor in the ring and receives from its predecessor.  Ranks
        not in ``ring`` keep their buffers untouched (identity, no copy).

        With ``reverse=True`` the data flows the other way — each rank sends
        to its *predecessor* — exactly inverting the forward step.  Reverse
        transfers are attributed to the ``"rev"`` channel in the traffic
        log, modelling the second direction of a full-duplex P2P link.
        """
        self._check_bufs(bufs)
        self._check_ranks(ring)
        k = len(ring)
        if k != len(set(ring)):
            raise ValueError("ring contains duplicate ranks")
        step = -1 if reverse else 1
        call = CollectiveCall(
            "ring_shift", phase, tag, tag, ring, "rev" if reverse else "fwd",
            arrivals=list(bufs), dests=range(self.world_size), operands=bufs,
        )
        for pos, src in enumerate(ring):
            dst = ring[(pos + step) % k]
            call.hop(src, dst, bufs[src])
            call.arrivals[dst] = bufs[src]
        return self._deliver(call)

    # --- collectives ---------------------------------------------------------

    def _ring_collective(
        self, op: str, phase: str, tag: str, compute: Callable[[], list],
        steps: int, piece: Callable[[int, int], tuple[int, int]],
    ) -> list:
        """Deliver a whole-world collective whose numerics ``compute``
        returns directly and whose traffic is logged as its ring
        realisation: at step ``t`` rank ``ring[p]`` forwards a piece of
        ``(nbytes, nelems) = piece(ring[p], origin)`` — the one that
        entered the ring at ``origin = ring[(p - t) % g]`` — to
        ``ring[(p + 1) % g]``."""
        g = self.world_size
        ring = self.topology.global_ring()
        call = CollectiveCall(op, phase, tag, tag or op, range(g), compute=compute)
        for t in range(steps):
            for p in range(g):
                src, dst = ring[p], ring[(p + 1) % g]
                if src != dst:
                    call.hops.append((src, dst, *piece(src, ring[(p - t) % g])))
        return self._deliver(call)

    def all_gather(
        self,
        shards: Sequence[np.ndarray],
        *,
        axis: int = 0,
        phase: str,
        tag: str = "",
    ) -> list[np.ndarray]:
        """All-gather along ``axis`` using the ring realisation for logging.

        Every rank receives ``concat(shards, axis)``.  The ring algorithm
        forwards each shard ``G - 1`` hops, which is what gets logged.
        """
        self._check_bufs(shards)
        g = self.world_size

        def gathered() -> list[np.ndarray]:
            full = np.concatenate(list(shards), axis=axis)
            return [full.copy() for _ in range(g)]

        return self._ring_collective(
            "all_gather", phase, tag, gathered,
            g - 1, lambda src, origin: (shards[origin].nbytes, shards[origin].size),
        )

    def reduce_scatter(
        self,
        contributions: Sequence[Sequence[np.ndarray]],
        *,
        phase: str,
        tag: str = "",
    ) -> list[np.ndarray]:
        """Reduce-scatter with summation.

        ``contributions[r][j]`` is rank ``r``'s addend destined for rank
        ``j``.  Rank ``j`` receives ``sum_r contributions[r][j]``.  Logged as
        the ring realisation: each rank sends ``G - 1`` partial chunks.
        """
        self._check_bufs(contributions)
        g = self.world_size
        for r, chunks in enumerate(contributions):
            if len(chunks) != g:
                raise ValueError(
                    f"rank {r} contributed {len(chunks)} chunks, expected {g}"
                )

        def reduced() -> list[np.ndarray]:
            out = []
            for j in range(g):
                acc = np.zeros_like(contributions[0][j])
                for r in range(g):
                    acc = acc + contributions[r][j]
                out.append(acc)
            return out

        def partial(src: int, dest: int) -> tuple[int, int]:
            return contributions[src][dest].nbytes, contributions[src][dest].size

        return self._ring_collective(
            "reduce_scatter", phase, tag, reduced, g - 1, partial
        )

    def all_reduce(
        self,
        bufs: Sequence[np.ndarray],
        *,
        phase: str,
        tag: str = "",
    ) -> list[np.ndarray]:
        """Sum all-reduce, logged as ring reduce-scatter + all-gather: each
        rank sends ``2 * (G - 1)`` chunks of size ``|buf| / G``."""
        self._check_bufs(bufs)
        g = self.world_size
        for buf in bufs:
            if buf.shape != bufs[0].shape:
                raise ValueError("all_reduce requires identical shapes on all ranks")

        def reduced() -> list[np.ndarray]:
            total = np.zeros_like(bufs[0])
            for buf in bufs:
                total = total + buf
            return [total.copy() for _ in range(g)]

        return self._ring_collective(
            "all_reduce", phase, tag, reduced,
            2 * (g - 1),
            lambda src, origin: (bufs[src].nbytes // g, bufs[src].size // g),
        )

    def all_to_all(
        self,
        chunks: Sequence[Sequence[object]],
        *,
        phase: str,
        tag: str = "",
    ) -> list[list[object]]:
        """All-to-all: rank ``j`` receives ``[chunks[0][j], ..., chunks[G-1][j]]``.

        This is the collective at the heart of DeepSpeed-Ulysses head
        parallelism.  Every off-diagonal chunk is one logged transfer.
        """
        self._check_bufs(chunks)
        g = self.world_size
        for r, row in enumerate(chunks):
            if len(row) != g:
                raise ValueError(f"rank {r} provided {len(row)} chunks, expected {g}")
        ranks = range(g)
        call = CollectiveCall(
            "all_to_all", phase, tag, tag or "all_to_all", ranks,
            arrivals=[[chunks[src][dst] for src in ranks] for dst in ranks],
            dests=ranks, operands=chunks,
        )
        for src in ranks:
            for dst in ranks:
                call.hop(src, dst, chunks[src][dst])
        return self._deliver(call)

    def group_all_to_all(
        self,
        chunks: Sequence[Sequence[object]],
        groups: Sequence[Sequence[int]],
        *,
        phase: str,
        tag: str = "",
    ) -> list[list[object]]:
        """All-to-all restricted to disjoint rank groups.

        ``groups`` partitions (a subset of) the ranks; rank ``r`` in a group
        of size ``u`` provides ``chunks[r]`` with ``u`` entries and receives
        the ``u`` chunks addressed to it by its group peers (ordered by
        position in the group).  This is the collective DeepSpeed-Ulysses
        runs inside each head-parallel group.
        """
        self._check_bufs(chunks)
        members = [r for grp in groups for r in grp]
        self._check_ranks(members)
        seen: set[int] = set()
        for r in members:
            if r in seen:
                raise ValueError(f"rank {r} appears in multiple groups")
            seen.add(r)
        for grp in groups:
            for r in grp:
                if len(chunks[r]) != len(grp):
                    raise ValueError(
                        f"rank {r} provided {len(chunks[r])} chunks for a "
                        f"group of size {len(grp)}"
                    )
        call = CollectiveCall(
            "group_all_to_all", phase, tag, tag or "group_all_to_all", members,
            arrivals=[None] * self.world_size, dests=range(self.world_size),
            operands=chunks,
        )
        for grp in groups:
            # Logged sender-major, as :meth:`all_to_all` logs: one group
            # spanning the world is that collective, record for record.
            for src in grp:
                for dst_pos, dst in enumerate(grp):
                    call.hop(src, dst, chunks[src][dst_pos])
            for dst_pos, dst in enumerate(grp):
                call.arrivals[dst] = [chunks[src][dst_pos] for src in grp]
        return self._deliver(call)

    def broadcast(
        self,
        buf: np.ndarray,
        root: int,
        *,
        phase: str,
        tag: str = "",
    ) -> list[np.ndarray]:
        """Broadcast from ``root``; logged as a ring pipeline (G - 1 hops)."""
        self._check_ranks((root,))
        g = self.world_size
        call = CollectiveCall(
            "broadcast", phase, tag, tag or "broadcast", range(g),
            compute=lambda: [buf.copy() for _ in range(g)],
        )
        ring = self.topology.global_ring()
        start = ring.index(root)
        for off in range(g - 1):
            call.hop(ring[(start + off) % g], ring[(start + off + 1) % g], buf)
        return self._deliver(call)

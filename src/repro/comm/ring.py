"""Ring communication schedules: flat global ring vs topology-aware rings.

A *ring schedule* describes, for a G-step ring attention pass, which
permutation moves the circulating buffers between consecutive compute
steps.  Two schedules are provided:

* :func:`global_ring_schedule` — the flat ring of RingAttention.  With
  node-major rank placement every hop from the last GPU of one node to the
  first GPU of the next crosses the inter-node network, and since the ring
  advances in lockstep, every step is gated by the slowest (inter-node)
  link.

* :func:`double_ring_schedule` — the topology-aware scheme of
  DoubleRing / BurstAttention.  Buffers first circulate inside each node
  over NVLink (``gpus_per_node - 1`` intra transitions per round), then one
  inter-node transition moves each rank's buffer to the peer rank on the
  next node.  The inter-node transition runs one ring *per local rank*, so
  all NICs of a node carry traffic concurrently.

The schedule is purely a communication pattern; both the exact-numerics
attention implementations and the DES performance model consume it, which
guarantees they agree on who talks to whom at every step.

*What* circulates is declared here too: one :class:`BundleLayout` per pass
names the slots in wire order, marks the carried accumulators and sizes
every hop, and :data:`RING_METHODS` pairs each ring-family method with its
schedule builder and backward bundle.  The four all-to-alls of a
head-parallel pass (DeepSpeed-Ulysses, USP) are layouts too, per rank:
``3Nd/G`` in (:data:`QKV_RELAYOUT`) and ``Nd/G`` out
(:data:`OUT_RELAYOUT`) forward, ``(Nd + N·H)/G`` in
(:data:`DOUT_RELAYOUT`) and ``3Nd/G`` out (:data:`GRADS_RELAYOUT`)
backward, of which each all-to-all sends ``(u-1)/u``.
``attention.ring.ring_pass`` and ``attention.usp`` execute that
description, ``perf.schedules.attention`` prices it, and no other module
multiplies shard sizes by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.comm.communicator import SimCommunicator
from repro.obs.tracer import NOOP_SPAN, trace_span, tracing_enabled
from repro.topology import ClusterTopology, LinkClass


@dataclass(frozen=True)
class RingSchedule:
    """A sequence of ring transitions covering all G partitions.

    Attributes
    ----------
    topology:
        The cluster the schedule is built for.
    transitions:
        ``transitions[t]`` is the list of rings to shift along when moving
        from compute step ``t`` to step ``t + 1``
        (``len(transitions) == G - 1``).  Each listed ring is shifted once;
        rings within one transition are disjoint and run concurrently on
        real hardware.
    name:
        Human-readable identifier (``"global-ring"`` / ``"double-ring"``).
    """

    topology: ClusterTopology
    transitions: tuple[tuple[tuple[int, ...], ...], ...]
    name: str

    @property
    def num_steps(self) -> int:
        """Number of compute steps (= world size G)."""
        return len(self.transitions) + 1

    def _slowest_link(self, pairs) -> LinkClass:
        """Slowest link class over ``(src, dst)`` rank pairs.

        A lockstep hop is gated by its slowest pair: a flat global ring
        that crosses a node boundary anywhere is inter-node-bound even
        though most of its pairs ride NVLink.  The one rule every hop is
        classed by — a transition, the return hop and the reverse seed —
        in the executed trace and the DES alike.
        """
        classes = {self.topology.link_class(src, dst) for src, dst in pairs}
        for cls in (LinkClass.INTER, LinkClass.INTRA):
            if cls in classes:
                return cls
        return LinkClass.LOCAL

    def transition_link_class(self, t: int) -> LinkClass:
        """Slowest link class used by transition ``t``."""
        return self._slowest_link(
            (ring[pos], ring[(pos + 1) % len(ring)])
            for ring in self.transitions[t] for pos in range(len(ring))
        )

    def return_link_class(self) -> LinkClass:
        """Slowest link class of :meth:`return_permutation`.

        The return hop and the reverse seed (its inverse) are no ring
        shift but a permutation that may mix inner and outer pairs; both
        cross the same rank pairs, so both take this class.
        """
        return self._slowest_link(enumerate(self.return_permutation()))

    def _traced(self, link: Callable[[], LinkClass], **attrs):
        """The ``ring.transition`` span of one hop, on the ``intra-ring`` /
        ``inter-ring`` row of the DES resource its time is modelled on;
        ``link`` is only classed while tracing."""
        if not tracing_enabled():
            return NOOP_SPAN
        row = "inter-ring" if link() is LinkClass.INTER else "intra-ring"
        return trace_span(
            "ring.transition", phase=row, schedule=self.name, **attrs
        )

    def apply(
        self,
        comm: SimCommunicator,
        bufs: Sequence[object],
        t: int,
        *,
        phase: str,
        tag: str = "",
    ) -> list[object]:
        """Perform transition ``t`` on per-rank buffers through ``comm``."""
        with self._traced(lambda: self.transition_link_class(t), step=t,
                          logical=phase, rings=len(self.transitions[t])):
            out = list(bufs)
            for ring in self.transitions[t]:
                out = comm.ring_shift(out, list(ring), phase=phase, tag=tag or self.name)
            return out

    def apply_return(
        self,
        comm: SimCommunicator,
        bufs: Sequence[object],
        *,
        phase: str,
        tag: str,
    ) -> list[object]:
        """Send each rank's buffer home after the last compute step: one
        exchange over :meth:`return_permutation`, traced on the row of
        :meth:`return_link_class`."""
        with self._traced(self.return_link_class, step=self.num_steps - 1,
                          logical=phase, rings=1, hop="return"):
            return comm.exchange(
                bufs, self.return_permutation(), phase=phase, tag=tag
            )

    def origins(self) -> list[list[int]]:
        """``origins()[t][rank]`` = the rank whose step-0 buffer ``rank``
        holds at compute step ``t``.

        This is what the attention implementations use to decide which KV
        (or Q) partition they are looking at — and hence which causal-mask
        case of Eq. (12)/(14) applies.
        """
        g = self.topology.world_size
        current = list(range(g))
        result = [list(current)]
        for t in range(len(self.transitions)):
            nxt = list(current)
            for ring in self.transitions[t]:
                k = len(ring)
                for pos in range(k):
                    src = ring[pos]
                    dst = ring[(pos + 1) % k]
                    nxt[dst] = current[src]
            current = nxt
            result.append(list(current))
        return result

    def validate(self) -> None:
        """Check the schedule is a proper cover: every rank sees
        ``num_steps`` *distinct* origins (for world-spanning schedules that
        means every rank's buffer exactly once; for grouped schedules, every
        member of the rank's ring)."""
        g = self.topology.world_size
        origins = self.origins()
        steps = self.num_steps
        for rank in range(g):
            seen = [origins[t][rank] for t in range(steps)]
            if len(set(seen)) != steps:
                raise ValueError(
                    f"rank {rank} sees duplicate origins over {steps} steps: {seen}"
                )

    def return_permutation(self) -> list[int]:
        """Destination map that sends each circulating buffer back to its
        origin after the last compute step.

        ``dest_of[rank] = origins[-1][rank]`` — for the flat global ring
        this is simply one more ring hop, which is why Algorithms 1 and 2
        of the paper run ``G`` communication rounds rather than ``G - 1``.
        """
        final = self.origins()[-1]
        return list(final)

    # --- bidirectional (counter-rotating) transport ---------------------------

    def reverse_seed_permutation(self) -> list[int]:
        """Destination map of the first reverse move: the inverse of
        :meth:`return_permutation`, jumping each rank's buffer straight to
        the placement of the *last* compute step (``origins[-1]``).

        For the flat global ring this is a single hop against the ring
        direction; for the double ring it is in general a mixed
        inner+outer diagonal, which is why it is realised as a generic
        ``exchange`` rather than a ring shift.
        """
        perm = self.return_permutation()
        inv = [0] * len(perm)
        for dst, src in enumerate(perm):
            inv[src] = dst
        return inv

    def reverse_link_class(self, s: int) -> LinkClass:
        """Slowest link class used by reverse move ``s`` (1-based).

        Move 1 is the seed permutation, classed by
        :meth:`return_link_class`; move ``s >= 2`` retraces base
        transition ``num_steps - s`` against its ring direction (same
        links, opposite flow), so it inherits that transition's class.
        """
        if not 1 <= s <= self.num_steps - 1:
            raise ValueError(f"reverse move {s} out of range 1..{self.num_steps - 1}")
        if s == 1:
            return self.return_link_class()
        return self.transition_link_class(self.num_steps - s)

    def apply_reverse(
        self,
        comm: SimCommunicator,
        bufs: Sequence[object],
        s: int,
        *,
        phase: str,
        tag: str = "",
    ) -> list[object]:
        """Perform reverse move ``s`` (1-based) of the counter-rotating
        stream: after move ``s`` the buffers sit at ``origins[S - s]``
        (``S = num_steps``), i.e. the stream walks the visit order of the
        forward circulation backwards.  Move 1 applies
        :meth:`reverse_seed_permutation`; move ``s >= 2`` undoes base
        transition ``S - s`` by shifting its rings in reverse.
        """
        if not 1 <= s <= self.num_steps - 1:
            raise ValueError(f"reverse move {s} out of range 1..{self.num_steps - 1}")
        rings = 1 if s == 1 else len(self.transitions[self.num_steps - s])
        with self._traced(lambda: self.reverse_link_class(s),
                          step=self.num_steps - s, logical=phase, rings=rings,
                          direction="rev"):
            if s == 1:
                return comm.exchange(
                    bufs, self.reverse_seed_permutation(), phase=phase,
                    tag=tag or self.name, channel="rev",
                )
            out = list(bufs)
            for ring in self.transitions[self.num_steps - s]:
                out = comm.ring_shift(
                    out, list(ring), phase=phase, tag=tag or self.name,
                    reverse=True,
                )
            return out


def global_ring_schedule(topology: ClusterTopology) -> RingSchedule:
    """The flat ring used by RingAttention: one global shift per transition."""
    ring = tuple(topology.global_ring())
    g = topology.world_size
    transitions = tuple((ring,) for _ in range(g - 1))
    return RingSchedule(topology=topology, transitions=transitions, name="global-ring")


def grouped_ring_schedule(
    topology: ClusterTopology, rings: Sequence[Sequence[int]]
) -> RingSchedule:
    """Parallel independent rings (USP's context-parallel dimension).

    ``rings`` must be equal-length and disjoint; each transition shifts all
    of them at once, so the schedule has ``len(rings[0]) - 1`` transitions.
    Every rank only ever sees origins from its own ring.
    """
    if not rings:
        raise ValueError("need at least one ring")
    length = len(rings[0])
    if any(len(r) != length for r in rings):
        raise ValueError("all rings must have the same length")
    flat = [r for ring in rings for r in ring]
    if len(set(flat)) != len(flat):
        raise ValueError("rings must be disjoint")
    frozen = tuple(tuple(r) for r in rings)
    transitions = tuple(frozen for _ in range(length - 1))
    schedule = RingSchedule(
        topology=topology, transitions=transitions, name="grouped-ring"
    )
    schedule.validate()
    return schedule


def double_ring_schedule(
    topology: ClusterTopology, window: int | None = None
) -> RingSchedule:
    """Topology-aware two-level ring (DoubleRing / BurstAttention).

    The world is grouped into inner rings of ``window`` consecutive ranks
    (default: one node, the paper's placement); transition ``t`` is an
    inner shift unless ``t`` is a multiple of ``window``, in which case the
    outer rings (one per inner position, stride ``window``) shift —
    on node-aligned windows that drives one NIC per GPU concurrently.

    ``window`` is LoongTrain's tunable inner-ring size: smaller windows
    cross the outer (slower) links more often, larger-than-node windows
    put "inner" hops on the inter-node network.  The node-aligned default
    is optimal, which ``tests/test_ring_window.py`` checks against the DES.

    Degenerates to the global ring for ``window == world`` and to a pure
    outer ring for ``window == 1``.
    """
    world = topology.world_size
    w = window if window is not None else topology.gpus_per_node
    if w < 1 or world % w != 0:
        raise ValueError(
            f"window {w} must be a positive divisor of world size {world}"
        )
    n_groups = world // w
    inner = tuple(
        tuple(range(grp * w, (grp + 1) * w)) for grp in range(n_groups)
    )
    outer = tuple(
        tuple(range(pos, world, w)) for pos in range(w)
    )
    transitions: list[tuple[tuple[int, ...], ...]] = []
    for t in range(1, world):
        if w > 1 and t % w != 0:
            transitions.append(inner)
        else:
            transitions.append(outer)
    schedule = RingSchedule(
        topology=topology, transitions=tuple(transitions), name="double-ring"
    )
    schedule.validate()
    return schedule


# --- what circulates -------------------------------------------------------------


@dataclass(frozen=True)
class BundleLayout:
    """The bundle one ring-family pass circulates, or one head-parallel
    all-to-all relays.

    ``slots`` names the tuple leaves in wire order and ``widths`` gives each
    slot's per-token width class: ``"q"`` (query-wide, ``H_q * d``),
    ``"kv"`` (KV-wide, ``H_kv * d`` — narrower under GQA) or ``"row"`` (one
    row statistic per head, ``H_q``).  ``carried`` indexes the accumulator
    slots, which ride the full forward circulation and the return hop;
    every other slot is read-only: it may be delivered over the
    counter-rotating stream, and it never takes the return hop, since its
    owner does not read it back.  ``name`` is ``"fwd"`` or the backward
    algorithm (a relayout's: its payload), ``tag`` the pass's
    :class:`~repro.comm.TrafficLog` tag.
    """

    name: str
    tag: str
    slots: tuple[str, ...]
    widths: tuple[str, ...]
    carried: tuple[int, ...]

    def elems(
        self, shard_tokens, n_q_heads, n_kv_heads, head_dim, which: str = "all"
    ):
        """Elements of the ``which`` slots — ``"all"``, ``"carried"`` or
        ``"read-only"`` — of one bundle of ``shard_tokens`` tokens.  Pure
        arithmetic: exact on integers, and the analytic models pass
        fractional KV head counts (``n_q_heads * kv_ratio``)."""
        every = range(len(self.slots))
        chosen = {
            "all": every,
            "carried": self.carried,
            "read-only": [i for i in every if i not in self.carried],
        }[which]
        per_token = {
            "q": n_q_heads * head_dim, "kv": n_kv_heads * head_dim,
            "row": n_q_heads,
        }
        return shard_tokens * sum(per_token[self.widths[i]] for i in chosen)


#: Forward pass (every ring-family method): ``2Nd`` per rank, nothing returns.
KV_BUNDLE = BundleLayout("fwd", "kv", ("K", "V"), ("kv", "kv"), ())
#: Algorithm 1 backward: ``4Nd``, all KV-wide, the gradients carried.
ALG1_BUNDLE = BundleLayout(
    "alg1", "kv+grads", ("K", "V", "dK", "dV"), ("kv",) * 4, (2, 3)
)
#: Algorithm 2 backward (BurstAttention): ``3Nd + 2N·H`` — the executed
#: bundle has one ``D`` and one ``Lse`` row *per head*; the paper's literal
#: ``3Nd + 2N`` is ``n_q_heads = 1``.
ALG2_BUNDLE = BundleLayout(
    "alg2", "q+grads", ("Q", "dQ", "dO", "D", "Lse"),
    ("q", "q", "q", "row", "row"), (1,),
)


#: The head-parallel relayouts, into head layout and back: forward (``lse``
#: stays in head layout) and backward (``D = rowsum(dO ∘ O)``, not ``O``).
QKV_RELAYOUT = BundleLayout("qkv", "usp-qkv", ("Q", "K", "V"), ("q",) * 3, ())
OUT_RELAYOUT = BundleLayout("out", "usp-out", ("O",), ("q",), ())
DOUT_RELAYOUT = BundleLayout("dout", "usp-dout", ("dO", "D"), ("q", "row"), ())
GRADS_RELAYOUT = BundleLayout("grads", "usp-grads", ("dQ", "dK", "dV"), ("q",) * 3, ())


def backward_bundle(algorithm: str) -> BundleLayout:
    """The backward bundle named ``"alg1"`` / ``"alg2"``."""
    for bundle in (ALG1_BUNDLE, ALG2_BUNDLE):
        if bundle.name == algorithm:
            return bundle
    raise ValueError(f"unknown algorithm {algorithm!r}")


def cheaper_backward_bundle(n_q_heads, n_kv_heads, head_dim) -> BundleLayout:
    """Adaptive selection: the KV-wide Algorithm 1 bundle unless the
    query-wide Algorithm 2 bundle is smaller per hop (it is for MHA at
    ``head_dim > 2`` — the paper's 25 % saving — and never for a GQA group
    factor >= 2).  A per-hop tie (MHA at ``head_dim == 2``) goes to the
    bundle with fewer carried elements, Algorithm 2's ``dQ``: a rank sends
    ``(G - 1)`` whole bundles plus the carried slots home, so the smaller
    return hop is the smaller total."""
    alg1, alg2 = (
        tuple(
            bundle.elems(1, n_q_heads, n_kv_heads, head_dim, which)
            for which in ("all", "carried")
        )
        for bundle in (ALG1_BUNDLE, ALG2_BUNDLE)
    )
    return ALG1_BUNDLE if alg1 < alg2 else ALG2_BUNDLE


@dataclass(frozen=True)
class RingMethod:
    """What a ring-family method is: the schedule builder it circulates
    over and the bundle its backward pass circulates (``None``: adaptive,
    :func:`cheaper_backward_bundle` for the head counts at hand)."""

    schedule: Callable[[ClusterTopology], RingSchedule]
    backward: BundleLayout | None


#: The one table of ring-family methods — read by ``attention.get_method``,
#: the DES and ``repro.testing``.
RING_METHODS = {
    "megatron-cp": RingMethod(global_ring_schedule, ALG1_BUNDLE),
    "loongtrain-double": RingMethod(double_ring_schedule, ALG1_BUNDLE),
    "burst": RingMethod(double_ring_schedule, ALG2_BUNDLE),
}


# --- bidirectional transport ---------------------------------------------------

#: Valid values of the ``ring_mode`` switch on ring-family methods.
RING_MODES = ("unidirectional", "bidirectional")


def check_ring_mode(ring_mode: str) -> str:
    if ring_mode not in RING_MODES:
        raise ValueError(
            f"unknown ring_mode {ring_mode!r}; options: {RING_MODES}"
        )
    return ring_mode


def bidirectional_split(num_steps: int) -> tuple[int, int]:
    """``(forward, reverse)`` transition counts of the bidirectional split.

    Of the ``S - 1`` placements a circulating read-only buffer must visit
    beyond its home, the forward stream serves the first
    ``ceil((S - 1) / 2)`` compute steps and the counter-rotating stream the
    remaining ``floor((S - 1) / 2)``, meeting in the middle (TokenRing's
    halving of the serial hop chain).
    """
    return num_steps // 2, (num_steps - 1) // 2


class BidirectionalFlow:
    """Counter-rotating delivery of a schedule's *read-only* bundles.

    The forward circulation (and with it the compute order, the online-
    softmax merge order, and any gradient accumulation) is untouched — the
    caller keeps driving :meth:`RingSchedule.apply` for whatever must ride
    forward.  This helper runs the second direction: it seeds a copy of the
    read-only bundles, walks them backwards through the visit order via
    :meth:`RingSchedule.apply_reverse`, and stashes each delivery until the
    compute step that consumes it.  Reverse move ``s`` lands at boundary
    ``s - 1``, strictly before its consuming step ``S - s``, so every
    delivery is on time.

    Usage, per pass::

        flow = BidirectionalFlow(comm, schedule, ro_bufs, phase=..., tag=...)
        for t in 1..S-1:
            # caller shifts forward-stream bundles for boundary t-1 itself
            flow.poststep(t - 1)
            ro = flow.delivered(t)   # None -> read from the forward stream
    """

    def __init__(
        self,
        comm: SimCommunicator,
        schedule: RingSchedule,
        bufs: Sequence[object],
        *,
        phase: str,
        tag: str = "",
    ):
        self.comm = comm
        self.schedule = schedule
        self.phase = phase
        self.tag = tag
        self.forward_transitions, self.reverse_transitions = bidirectional_split(
            schedule.num_steps
        )
        self._rev = list(bufs)
        self._stash: dict[int, list[object]] = {}

    def poststep(self, t: int) -> None:
        """Advance the reverse stream at boundary ``t`` (after compute
        step ``t``); a no-op once all reverse moves have run."""
        s = t + 1
        if s <= self.reverse_transitions:
            self._rev = self.schedule.apply_reverse(
                self.comm, self._rev, s, phase=self.phase, tag=self.tag
            )
            self._stash[self.schedule.num_steps - s] = self._rev

    def delivered(self, t: int) -> list[object] | None:
        """Read-only bundles for compute step ``t`` if the reverse stream
        serves it (``t > forward_transitions``), else ``None`` — the caller
        reads them off the forward stream."""
        return self._stash.get(t)

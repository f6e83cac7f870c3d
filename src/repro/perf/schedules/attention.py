"""DES task graphs for one distributed attention pass (fwd or bwd).

Each method's overlap structure (Fig. 5 of the paper) is encoded as a task
graph over one representative GPU's three resources — ``compute``, its
NVLink channel ``intra``, and its NIC ``inter``:

* **flat ring** (Megatron-CP): the ring advances in lockstep, so every
  transition costs the *slowest* hop (inter-node once the cluster spans
  nodes).  KV circulation overlaps compute ("activation" pattern);
  gradient circulation uses the delayed double buffer.
* **double ring** (LoongTrain): intra and inter rings run on their own
  links and overlap each other and compute in the forward / KV phases, but
  LoongTrain does **not** overlap the gradient buffers — they drain
  serially after compute (the ``+2(I*T_intra + E*T_inter)`` of Table 1).
* **burst**: like double ring, plus the warm-up-delayed double buffer that
  pipelines gradient communication against compute (Fig. 5 bottom), and
  Algorithm 2's smaller backward payload.
* **usp** / **ulysses**: the executor's ``u × r`` grid
  (:meth:`~repro.attention.methods.USPMethod.grid`; DeepSpeed-Ulysses is
  ``u = G``, a one-position ring with no hop).  An all-to-all into head
  layout, Algorithm 1 over the grid's strided rings with LoongTrain's
  serial gradient drain, and an all-to-all back; the collectives cannot
  overlap the attention they feed ("can not overlap all-to-all
  communication with computation").

Every method's pass graph has one builder, :func:`attention_pass_sim` —
the second interpreter of the description the executor runs:
:func:`attention_pass_hops` walks the method's own
:class:`~repro.comm.RingSchedule` (:data:`repro.comm.ring.RING_METHODS`,
or a head-parallel grid's grouped rings) with the executor's calls and
sizes each hop off the pass's :class:`~repro.comm.ring.BundleLayout`,
:func:`attention_pass_transitions` prices them; :data:`METHOD_DES_FLAGS`
adds only what the DES alone knows.  :func:`attention_pass_time` is the
makespan, and the predicted trace and the observed-pass replay of
:mod:`repro.obs` draw and re-price the same graph.  A backward pass ends
with the return-to-owner hop, and a head-parallel pass is bracketed by its
two relayouts, sized off their own layouts — tasks like any other
transfer, never scalars added afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attention.methods import UlyssesMethod, USPMethod
from repro.attention.usp import default_ulysses_degree
from repro.comm.ring import (
    ALG1_BUNDLE,
    ALG2_BUNDLE,
    DOUT_RELAYOUT,
    GRADS_RELAYOUT,
    KV_BUNDLE,
    OUT_RELAYOUT,
    QKV_RELAYOUT,
    RING_METHODS,
    BundleLayout,
    RingMethod,
    RingSchedule,
    bidirectional_split,
    cheaper_backward_bundle,
    double_ring_schedule,
    global_ring_schedule,
    grouped_ring_schedule,
)
from repro.perf.cost import link_time, matmul_time
from repro.perf.des import Simulator
from repro.topology import ClusterTopology, LinkClass


#: Attention-kernel efficiency relative to peak (softmax + masking overhead
#: keep flash kernels below pure-GEMM efficiency on Ampere).
ATTENTION_EFFICIENCY = 0.58

#: Backward attention re-forms the score tiles and runs 4 gradient matmuls:
#: ~2.5x the forward matmul volume.
BACKWARD_FLOPS_FACTOR = 2.5


@dataclass(frozen=True)
class AttentionWorkload:
    """One attention layer's distributed workload.

    ``seq_len`` is the *global* sequence length; ``hidden`` the model dim
    (= heads x head_dim); ``causal`` halves the pair count.
    """

    seq_len: int
    hidden: int
    n_heads: int
    causal: bool = True
    bytes_per_elem: int = 2
    sparsity: float = 1.0  # fraction of causal pairs kept (SWA etc.)
    kv_ratio: float = 1.0  # GQA: KV width relative to query width

    def total_pairs(self) -> float:
        pairs = float(self.seq_len) * self.seq_len
        if self.causal:
            pairs /= 2
        return pairs * self.sparsity

    def fwd_flops_per_gpu(self, world: int) -> float:
        return 4.0 * self.total_pairs() * self.hidden / world

    def head_shape(self) -> tuple[float, float, float]:
        """``(n_q_heads, n_kv_heads, head_dim)`` as a bundle layout sizes
        them (the KV head count may be fractional)."""
        return self.n_heads, self.n_heads * self.kv_ratio, self.hidden / self.n_heads

    def bundle_bytes(
        self, bundle: BundleLayout, world: int, which: str = "all"
    ) -> float:
        """Bytes of ``bundle``'s ``which`` slots for one rank's shard — the
        executed size, ``n_heads`` D / Lse rows per token included."""
        return self.bytes_per_elem * bundle.elems(
            self.seq_len / world, *self.head_shape(), which
        )


def _pipelined_ring(
    sim: Simulator,
    prefix: str,
    transitions: list[tuple[str, float]],
    step_compute: float,
    grad_dependent: bool,
    rev_transitions: list[tuple[str, float]] = (),
    steps: int | None = None,
    after: list[str] = (),
) -> list[str]:
    """Ring circulation with double-buffered pipelining, over one stream
    or two counter-rotating ones — the graph twin of ``ring_pass``'s loop.

    ``transitions`` / ``rev_transitions`` list ``(resource, duration)`` per
    hop of the forward / reverse stream; ``steps`` compute rounds default
    to one more than the forward transitions.  The first task on each
    resource waits for the ``after`` tasks (a head-parallel relayout).

    * ``grad_dependent=False`` — activation pattern (Fig. 5 top): the
      circulating data needs no compute, so communication chains only on
      itself and compute step ``t`` waits for delivery ``t-1``.
    * ``grad_dependent=True`` — the delayed double-buffer pattern (Fig. 5
      bottom): one warm-up compute round, after which sub-chunked double
      buffering lets each transfer overlap the next compute round; the
      whole circulation is gated only by the warm-up and the two resource
      chains (compute and links) running concurrently.

    The reverse stream runs concurrently on the opposite-direction
    channels (``intra-rev`` / ``inter-rev`` — full-duplex links).  Compute
    step ``t`` is fed by forward delivery ``t - 1`` while ``t`` is in the
    forward stream's half and by reverse move ``steps - t`` afterwards, so
    the comm-bound critical path is ``max`` of the two chains rather than
    their sum.

    Returns the chain tails — the last compute task and the last transfer
    on each link — whose latest end is the makespan so far.
    """
    if steps is None:
        steps = len(transitions) + 1
    rev_serves_from = steps - len(rev_transitions)
    compute_prev = ""
    comm_prev: dict[str, str] = {}
    fwd_names: list[str] = []
    rev_names: list[str] = []

    def transfer(name: str, res: str, dur: float, deps: list[str]) -> str:
        first = [comm_prev[res]] if res in comm_prev else after
        sim.add(name, dur, resources=(res,), deps=[*first, *deps])
        comm_prev[res] = name
        return name

    for t in range(steps):
        deps = [compute_prev] if compute_prev else list(after)
        if not grad_dependent and t >= 1:
            if t < rev_serves_from:
                if t - 1 < len(fwd_names):
                    deps.append(fwd_names[t - 1])
            else:
                deps.append(rev_names[steps - t - 1])
        cname = f"{prefix}c{t}"
        sim.add(cname, step_compute, resources=("compute",), deps=deps)
        compute_prev = cname
        if t < len(transitions):
            res, dur = transitions[t]
            # every gradient transfer waits for the warm-up round only;
            # sub-chunk double buffering hides the per-slot coupling
            warmup = [f"{prefix}c0"] if grad_dependent else []
            fwd_names.append(transfer(f"{prefix}m{t}", res, dur, warmup))
        if t < len(rev_transitions):
            res, dur = rev_transitions[t]
            rev_names.append(transfer(f"{prefix}mr{t}", f"{res}-rev", dur, []))
    return [compute_prev, *comm_prev.values()]


#: What the DES alone knows about each ring-family pass graph; schedule and
#: backward bundle come from :data:`repro.comm.ring.RING_METHODS`.
#: ``serialize_gradients``: Algorithm 1's gradient buffers drain serially
#: after compute instead of riding the delayed double buffer.  ``ring``:
#: the schedule / bundle pairing of an ablation row no executed method has.
METHOD_DES_FLAGS = {
    "megatron-cp": dict(serialize_gradients=True),
    "loongtrain-double": dict(serialize_gradients=True),
    "burst": dict(serialize_gradients=False),
    # Ablations: Alg. 2 without the topology-aware ring; the topology ring
    # with Alg. 1 overlapped; the GQA extension's adaptive bundle.
    "burst-flat": dict(
        serialize_gradients=False,
        ring=RingMethod(global_ring_schedule, ALG2_BUNDLE),
    ),
    "double-alg1-overlap": dict(
        serialize_gradients=False,
        ring=RingMethod(double_ring_schedule, ALG1_BUNDLE),
    ),
    "burst-adaptive": dict(
        serialize_gradients=False,
        ring=RingMethod(double_ring_schedule, None),
    ),
}


_Hops = list[tuple[LinkClass, tuple[float, ...]]]


def _pass_row(
    method: str,
    topology: ClusterTopology,
    workload: AttentionWorkload,
    *,
    backward: bool,
    ring_mode: str = "unidirectional",
    ring_window: int | None = None,
    ulysses_degree: int | None = None,
) -> tuple[RingSchedule, BundleLayout, bool, bool, list[int] | None]:
    """``(schedule, bundle, serialize_gradients, bidirectional, group)``:
    what one pass of ``method`` walks — a head-parallel pass brackets it
    with two all-to-alls in ``group`` (``None`` for the ring family).

    A head-parallel method runs on the executor's own grid (``ValueError``
    where it does not fit the world) and circulates Algorithm 1 with the
    serial gradient drain over the grid's strided rings, LoongTrain-USP as
    executed.  Only the ring-family methods the engine executes have a
    bidirectional mode; the ablation rows price their one configuration
    whatever is passed, and ``ring_window`` is a knob of the burst double
    rings only.
    """
    if method in ("ulysses", "usp"):
        grid = (
            UlyssesMethod() if method == "ulysses" else USPMethod(
                ulysses_degree or default_ulysses_degree(
                    workload.n_heads, topology.world_size,
                    topology.gpus_per_node,
                )
            )
        ).grid(topology.world_size)
        schedule = grouped_ring_schedule(topology, grid.ring_groups())
        bundle = ALG1_BUNDLE if backward else KV_BUNDLE
        return schedule, bundle, True, False, grid.ulysses_groups()[0]
    if method not in METHOD_DES_FLAGS:
        raise ValueError(
            f"no DES pass graph for method {method!r}; expected one of "
            f"{sorted([*METHOD_DES_FLAGS, 'ulysses', 'usp'])}"
        )
    flags = METHOD_DES_FLAGS[method]
    ring = flags.get("ring") or RING_METHODS[method]
    if method.startswith("burst") and ring.schedule is double_ring_schedule:
        schedule = double_ring_schedule(topology, window=ring_window)
    else:
        schedule = ring.schedule(topology)
    bundle = (
        ring.backward or cheaper_backward_bundle(*workload.head_shape())
    ) if backward else KV_BUNDLE
    bidirectional = ring_mode == "bidirectional" and method in RING_METHODS
    return schedule, bundle, flags["serialize_gradients"], bidirectional, None


def attention_pass_hops(
    method: str,
    topology: ClusterTopology,
    workload: AttentionWorkload,
    *,
    backward: bool,
    ring_mode: str = "unidirectional",
    ring_window: int | None = None,
    ulysses_degree: int | None = None,
) -> tuple[_Hops, _Hops]:
    """Modeled ``(link class, message bytes)`` hops of one pass's two
    streams — what :func:`attention_pass_transitions` prices.

    The forward stream lists the ring transitions in order and, on a
    backward pass, ends with the return-to-owner hop, which ships the
    carried slots alone in either ring mode; the reverse stream is empty
    under the unidirectional mode.  Bidirectional passes split the
    read-only bundle parts across the streams (``T_f = S // 2`` forward
    transitions, ``R = (S - 1) // 2`` reverse moves) while the gradient
    accumulators ride all ``S - 1`` forward transitions — the walk
    ``ring_pass`` and ``BidirectionalFlow`` execute.  Every hop sits on
    the class the executor traces it on: a transition, a retraced reverse
    move, and the return hop and reverse seed alike
    (:meth:`RingSchedule.return_link_class`, their slowest pair).  A
    head-parallel pass lists its ring leg alone (Ulysses' one-position
    ring has no hop).
    """
    schedule, bundle, _, bidirectional, _ = _pass_row(
        method, topology, workload, backward=backward, ring_mode=ring_mode,
        ring_window=ring_window, ulysses_degree=ulysses_degree,
    )
    g = topology.world_size
    n = schedule.num_steps - 1
    t_f, rev_moves = (
        bidirectional_split(schedule.num_steps) if bidirectional else (n, 0)
    )

    def hop(cls: LinkClass, *messages: str):
        return cls, tuple(
            workload.bundle_bytes(bundle, g, which) for which in messages
        )

    # One-way Algorithm 1 sends (K, V) and (dK, dV) as two messages per
    # transition (the serial gradient drain takes the second on its own);
    # every other hop is one message.
    whole = (
        ("read-only", "carried")
        if bundle is ALG1_BUNDLE and not bidirectional else ("all",)
    )
    fwd = [
        hop(schedule.transition_link_class(t),
            *(whole if t < t_f else ("carried",)))
        for t in range(n if bundle.carried else t_f)
    ]
    if bundle.carried and n:
        fwd.append(hop(schedule.return_link_class(), "carried"))
    rev = [
        hop(schedule.reverse_link_class(s), "read-only")
        for s in range(1, rev_moves + 1)
    ]
    return fwd, rev


def attention_pass_transitions(
    method: str, topology: ClusterTopology, workload: AttentionWorkload, **kw
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """Modeled ``(resource, duration)`` hops of one pass's two streams:
    each hop of :func:`attention_pass_hops` (which takes the keywords)
    priced on its link, one :func:`~repro.perf.cost.link_time` per
    message."""
    return tuple(
        [
            (cls.value, sum(link_time(topology, b, cls) for b in messages))
            for cls, messages in stream
        ]
        for stream in attention_pass_hops(method, topology, workload, **kw)
    )


def attention_pass_sim(
    method: str,
    topology: ClusterTopology,
    workload: AttentionWorkload,
    *,
    backward: bool,
    ring_mode: str = "unidirectional",
    ring_window: int | None = None,
    ulysses_degree: int | None = None,
    peak_flops: float | None = None,
    prefix: str | None = None,
    fwd_durations: list[tuple[str, float]] | None = None,
    rev_durations: list[tuple[str, float]] | None = None,
) -> Simulator:
    """Build and run the DES task graph of one attention pass.

    The only builder of that graph, for every method:
    :func:`attention_pass_time` returns its makespan,
    :func:`repro.obs.report.build_predicted_trace` draws it and
    :mod:`repro.obs.critical` replays observed passes through it.  The
    return-to-owner hop of a backward pass is the ring's last task, on the
    link of its slowest pair.  A head-parallel pass opens with its
    relayout into head layout and closes with the one back, each priced by
    :func:`_all_to_all_time` on its layout's bytes, what the executor
    ships (:data:`~repro.comm.ring.QKV_RELAYOUT` and its three siblings).

    ``fwd_durations`` / ``rev_durations`` substitute the hop durations of
    :func:`attention_pass_transitions` position by position (e.g. priced
    from the bytes an *observed* trace logged) while keeping the method's
    dependency structure.  For the unidirectional serialize-gradients
    backward each transition's duration prices the full KV + gradient
    payload; the builder splits it in half between the overlapped KV
    circulation and the serial gradient drain, and takes the return hop —
    which nothing is left to overlap — as given.
    """
    keys = dict(
        backward=backward, ring_mode=ring_mode, ring_window=ring_window,
        ulysses_degree=ulysses_degree,
    )
    schedule, _, serialize, bidirectional, group = _pass_row(
        method, topology, workload, **keys
    )
    g, steps = topology.world_size, schedule.num_steps
    peak = peak_flops if peak_flops is not None else topology.node.gpu.peak_flops
    flops = workload.fwd_flops_per_gpu(g)
    if backward:
        flops *= BACKWARD_FLOPS_FACTOR
    step_compute = matmul_time(flops / steps, peak, ATTENTION_EFFICIENCY)
    if prefix is None:
        prefix = "attn-bwd/" if backward else "attn-fwd/"

    def substituted(label, given, modeled):
        if given is not None and len(given) != len(modeled):
            raise ValueError(
                f"{method} {prefix!r}: expected {len(modeled)} {label} "
                f"per pass, got {len(given)}"
            )
        return list(modeled if given is None else given)

    fwd_model, rev_model = attention_pass_transitions(
        method, topology, workload, **keys
    )
    fwd_list = substituted("forward hops", fwd_durations, fwd_model)
    rev_list = substituted("reverse moves", rev_durations, rev_model)
    # the return hop, then (head-parallel) the relayout back
    tail = [("return", *fwd_list.pop())] if backward and fwd_list else []
    sim = Simulator()
    after = []
    if group is not None:
        a2a_in, a2a_out = (
            _all_to_all_time(topology, workload.bundle_bytes(layout, g), group)
            for layout in (
                (DOUT_RELAYOUT, GRADS_RELAYOUT) if backward
                else (QKV_RELAYOUT, OUT_RELAYOUT)
            )
        )
        after = [f"{prefix}relayout-in"]
        sim.add(after[0], a2a_in, resources=("all-to-all",))
        tail.append(("relayout-out", "all-to-all", a2a_out))
    if backward and serialize and not bidirectional:
        # LoongTrain / Megatron / USP: the (K, V) half of every transition
        # overlaps compute, the (dK, dV) half drains serially after it
        # (Table 1's +2(I·T_i + E·T_e)).
        halves = [(res, dur / 2) for res, dur in fwd_list]
        ends = _pipelined_ring(
            sim, prefix, halves, step_compute, False, after=after
        )
        tail = [(f"g{t}", *half) for t, half in enumerate(halves)] + tail
    else:
        ends = _pipelined_ring(
            sim, prefix, fwd_list, step_compute, backward, rev_list,
            steps=steps, after=after,
        )
    for name, res, dur in tail:
        sim.add(prefix + name, dur, resources=(res,), deps=ends)
        ends = [prefix + name]
    sim.run()
    return sim


def _all_to_all_time(
    topology: ClusterTopology, buffer_bytes: float, group: list[int]
) -> float:
    """Time for one all-to-all of a ``buffer_bytes`` buffer per rank in
    ``group``.

    Each rank sends ``(u-1)/u`` of its buffer, split across links by the
    placement of the peers.
    """
    u = len(group)
    if u == 1:
        return 0.0
    chunk = buffer_bytes / u
    same_node = sum(
        1 for m in group[1:] if topology.node_of(m) == topology.node_of(group[0])
    )
    cross_node = (u - 1) - same_node
    t_intra = link_time(topology, chunk * same_node, LinkClass.INTRA) if same_node else 0.0
    t_inter = link_time(topology, chunk * cross_node, LinkClass.INTER) if cross_node else 0.0
    # Sends to different peers proceed in parallel over disjoint links.
    return max(t_intra, t_inter)


def attention_pass_time(
    method: str,
    topology: ClusterTopology,
    workload: AttentionWorkload,
    *,
    backward: bool = False,
    peak_flops: float | None = None,
    ulysses_degree: int | None = None,
    ring_window: int | None = None,
    ring_mode: str = "unidirectional",
) -> float:
    """Simulated wall-clock seconds for one distributed attention pass:
    the makespan of :func:`attention_pass_sim`'s graph."""
    return attention_pass_sim(
        method, topology, workload, backward=backward, peak_flops=peak_flops,
        ulysses_degree=ulysses_degree, ring_window=ring_window,
        ring_mode=ring_mode,
    ).makespan

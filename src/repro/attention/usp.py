"""USP: hybrid head + context ("Ulysses + ring") parallelism (LoongTrain).

The ``G = u × r`` devices form a 2-D grid with *head-first placement*:
``rank = ring_index * u + ulysses_index``, so the size-``u`` Ulysses groups
are contiguous ranks (inside one node when ``u`` divides the node size —
all-to-alls stay on NVLink) and the size-``r`` ring groups stride across
nodes.

A pass is: (1) all-to-all inside each Ulysses group to trade sequence for
heads, (2) ring attention among the ``r`` ring positions on head-sharded
data (Algorithm 1 backward, as LoongTrain uses — or Algorithm 2 when
``use_burst_backward`` is set, which is the "Burst inside USP" variant),
(3) all-to-all back.

Each all-to-all ships only what its receiver reads (the paper's backward
optimisation, applied to the relayouts), as its layout in
:mod:`repro.comm.ring` declares: ``q, k, v`` in and ``o`` out forward
(``lse`` stays in head layout, where the backward reads it); ``dO`` and
``D = rowsum(dO ∘ O)`` in — all of ``O`` the ring backward reads, formed
in sequence layout from the ``o`` the caller holds — and ``dq, dk, dv``
out backward.  So the forward's context (:class:`USPContext`) keeps
``q_h``, ``k_h``, ``v_h`` and ``lse_h`` and no head-layout output.

Compared to a pure ring over ``G`` devices, the ring is only ``r`` long and
moves ``H/u`` of the heads, cutting ring traffic by ``u×`` at the price of
the unoverlappable all-to-alls; compared to pure Ulysses, the head count
only needs to be divisible by ``u``, not ``G``.

**DeepSpeed-Ulysses is the ``u = G`` corner** (``ring_degree = 1``): each
rank trades its sequence shard for *all* ``N`` tokens of ``H/G`` heads,
runs ordinary whole-sequence attention on a one-position ring — one local
kernel call, no ring hop — and trades the outputs back.  Communication per
rank is ``4 · (N/G) · d · (G-1)/G`` elements per forward (the backward
adds ``D``'s ``(N/G) · H · (G-1)/G``), asymptotically
``G×`` cheaper than ring methods, but the all-to-all cannot be overlapped
with attention compute (the compute cannot start until the collective
completes), and the method is *infeasible whenever the head count is not
divisible by the GPU count* (the paper's 14B model has 40 heads, so Ulysses
cannot run on 64 GPUs).

A per-head bias (ALiBi) is split like the heads: every rank's tile plans
view its own head group of the shared bias tiles
(:meth:`~repro.kernels.TilePlan.with_head_slice`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.attention.burst import burst_attention_backward
from repro.attention.ring import ring_attention_backward_kv, ring_attention_forward
from repro.comm import SimCommunicator, grouped_ring_schedule
from repro.comm.ring import (
    DOUT_RELAYOUT, GRADS_RELAYOUT, OUT_RELAYOUT, QKV_RELAYOUT, BundleLayout,
)
from repro.masks import MaskPattern
from repro.obs.tracer import traced


@dataclass(frozen=True)
class USPGrid:
    """The 2-D process grid: ``world = ulysses_degree * ring_degree``."""

    ulysses_degree: int
    ring_degree: int

    @property
    def world(self) -> int:
        return self.ulysses_degree * self.ring_degree

    def ulysses_groups(self) -> list[list[int]]:
        """Contiguous rank groups performing all-to-alls (head-first)."""
        u = self.ulysses_degree
        return [list(range(g * u, (g + 1) * u)) for g in range(self.ring_degree)]

    def ring_groups(self) -> list[list[int]]:
        """Strided rank groups forming the context-parallel rings."""
        u = self.ulysses_degree
        return [
            [ring * u + ul for ring in range(self.ring_degree)]
            for ul in range(u)
        ]

    def ring_index(self, rank: int) -> int:
        return rank // self.ulysses_degree

    def ulysses_index(self, rank: int) -> int:
        return rank % self.ulysses_degree


def default_ulysses_degree(n_heads: int, world: int, gpus_per_node: int) -> int:
    """USP's head-parallel degree when none is given: the largest ``u``
    that divides both ``n_heads`` (each rank holds whole heads) and the
    world (so the ``u × r`` grid exists) and fits in one node (so the
    all-to-alls stay on NVLink)."""
    return max(
        u for u in range(1, min(n_heads, world, gpus_per_node) + 1)
        if n_heads % u == 0 and world % u == 0
    )


@dataclass
class USPContext:
    """Saved state between USP forward and backward: per rank, the
    head-layout (``*_h``) arrays the ring backward reads, and metadata."""

    grid: USPGrid
    q_h: list[np.ndarray]
    k_h: list[np.ndarray]
    v_h: list[np.ndarray]
    lse_h: list[np.ndarray]
    ring_idxs: list[np.ndarray]
    local_sizes: list[int]
    mask: MaskPattern | None
    scale: float
    block_size: int | None
    head_slices: list[slice] | None


#: The head-layout array fields of a :class:`USPContext` (each a list, one
#: array per rank), in field order: what a node keeping the context saves.
CONTEXT_ARRAYS = tuple(f.name for f in fields(USPContext) if f.name.endswith("_h"))


def _relayout(
    comm: SimCommunicator,
    grid: USPGrid,
    layout: BundleLayout,
    bundles: Sequence[tuple[np.ndarray, ...]],
    *,
    to_heads: bool,
    phase: str,
    local_sizes: Sequence[int] = (),
) -> list[list[np.ndarray]]:
    """All-to-all ``layout``'s bundles (one per rank, every slot heads
    first, then tokens) inside each Ulysses group.

    ``to_heads``: from sequence to head layout — head group ``d`` of every
    slot goes to group position ``d``, so rank ``r`` ends up with its head
    group over the whole group's tokens.  Otherwise the inverse: every rank
    returns each group peer ``p`` its ``local_sizes[p]`` tokens.  Returns
    one list of per-rank arrays per slot."""
    if any(len(bundle) != len(layout.slots) for bundle in bundles):
        raise ValueError(
            f"{layout.tag} relays {layout.slots}; got bundles of "
            f"{sorted({len(bundle) for bundle in bundles})} slots"
        )
    u = grid.ulysses_degree
    groups = grid.ulysses_groups()
    split, join = (0, 1) if to_heads else (1, 0)
    chunks = []
    for r in range(grid.world):
        cuts = u if to_heads else np.cumsum(
            [local_sizes[p] for p in groups[grid.ring_index(r)]])[:-1]
        chunks.append(list(zip(*(np.split(a, cuts, split) for a in bundles[r]))))
    received = comm.group_all_to_all(chunks, groups, phase=phase, tag=layout.tag)
    return [
        [
            np.concatenate([received[r][p][i] for p in range(u)], axis=join)
            for r in range(grid.world)
        ]
        for i in range(len(layout.slots))
    ]


@traced("attn.pass", "attn", algorithm="usp", direction="fwd")
def usp_attention_forward(
    comm: SimCommunicator,
    grid: USPGrid,
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    idxs: Sequence[np.ndarray],
    mask: MaskPattern | None = None,
    scale: float | None = None,
    *,
    phase: str = "attn-fwd",
    block_size: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], USPContext]:
    """USP forward pass.

    ``qs[r]`` is ``(H, S/G, D)`` and ``idxs[r]`` are the global positions
    of rank ``r``'s local tokens; any partition works, as a rank's head
    layout holds its group's shards in group order.  Returns seq-sharded
    ``(os, None, ctx)``: ``lse`` stays in the context's head layout (see
    :meth:`repro.attention.methods.USPMethod.gather_lse`).
    """
    u = grid.ulysses_degree
    if grid.world != comm.world_size:
        raise ValueError(
            f"grid world {grid.world} != communicator world {comm.world_size}"
        )
    h = qs[0].shape[0]
    if h % u != 0:
        raise ValueError(
            f"head parallelism infeasible: {h} heads not divisible by "
            f"ulysses degree {u}"
        )
    if ks[0].shape[0] != h:
        raise ValueError(
            "USP's head-parallel dimension requires equal query/KV head "
            f"counts; got {h} vs {ks[0].shape[0]}"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    head_slices = None
    # Validate per-head bias geometry from a 1x1 probe tile — the full
    # (H, N, N) bias is never materialised.
    probe = None if mask is None else mask.bias_block(idxs[0][:1], idxs[0][:1])
    if probe is not None:
        if probe.ndim != 3 or probe.shape[0] != h:
            raise ValueError(
                "USP needs a per-head bias matching the head count"
            )
        hh = h // u
        head_slices = [
            slice(ul * hh, (ul + 1) * hh)
            for ul in map(grid.ulysses_index, range(grid.world))
        ]
    local_sizes = [q.shape[-2] for q in qs]

    # (1) seq -> head inside each Ulysses group.
    q_h, k_h, v_h = _relayout(
        comm, grid, QKV_RELAYOUT, list(zip(qs, ks, vs)), to_heads=True,
        phase=phase,
    )
    groups = grid.ulysses_groups()
    ring_idxs = [
        np.concatenate([idxs[peer] for peer in groups[grid.ring_index(r)]])
        for r in range(grid.world)
    ]

    # (2) ring attention across ring groups on head-sharded data.
    schedule = grouped_ring_schedule(comm.topology, grid.ring_groups())
    o_h, lse_h = ring_attention_forward(
        comm, schedule, q_h, k_h, v_h, ring_idxs, mask=mask, scale=scale,
        phase=phase, block_size=block_size, head_slices=head_slices,
    )

    # (3) head -> seq: return each peer its sequence slice of the outputs.
    (os_out,) = _relayout(
        comm, grid, OUT_RELAYOUT, list(zip(o_h)), to_heads=False,
        phase=phase, local_sizes=local_sizes,
    )

    ctx = USPContext(
        grid=grid, q_h=q_h, k_h=k_h, v_h=v_h, lse_h=lse_h,
        ring_idxs=ring_idxs, local_sizes=local_sizes,
        mask=mask, scale=scale, block_size=block_size, head_slices=head_slices,
    )
    return os_out, None, ctx


@traced("attn.pass", "attn", algorithm="usp", direction="bwd")
def usp_attention_backward(
    comm: SimCommunicator,
    ctx: USPContext,
    dos: Sequence[np.ndarray],
    ds: Sequence[np.ndarray],
    *,
    phase: str = "attn-bwd",
    use_burst_backward: bool = False,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """USP backward pass: ``(dO, D)`` to head layout, ring backward, grads
    back.

    ``ds[r]`` is rank ``r``'s ``D = rowsum(dO ∘ O)`` over its sequence
    shard (``(H, S/G)``, like ``lse``): all of ``O`` either ring backward
    reads.  ``use_burst_backward=False`` reproduces LoongTrain-USP
    (Algorithm 1 in the ring); ``True`` swaps in BurstAttention's
    Algorithm 2.
    """
    grid = ctx.grid
    do_h, d_h = _relayout(
        comm, grid, DOUT_RELAYOUT, list(zip(dos, ds)), to_heads=True,
        phase=phase,
    )

    schedule = grouped_ring_schedule(comm.topology, grid.ring_groups())
    backward = burst_attention_backward if use_burst_backward else ring_attention_backward_kv
    dq_h, dk_h, dv_h = backward(
        comm, schedule, ctx.q_h, ctx.k_h, ctx.v_h, d_h, ctx.lse_h, do_h,
        ctx.ring_idxs, mask=ctx.mask, scale=ctx.scale,
        phase=phase, block_size=ctx.block_size, head_slices=ctx.head_slices,
    )
    dqs, dks, dvs = _relayout(
        comm, grid, GRADS_RELAYOUT, list(zip(dq_h, dk_h, dv_h)),
        to_heads=False, phase=phase, local_sizes=ctx.local_sizes,
    )
    return dqs, dks, dvs

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

Compared to a pure ring over ``G`` devices, the ring is only ``r`` long and
moves ``H/u`` of the heads, cutting ring traffic by ``u×`` at the price of
the unoverlappable all-to-alls; compared to pure Ulysses, the head count
only needs to be divisible by ``u``, not ``G``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attention.burst import burst_attention_backward
from repro.attention.ring import ring_attention_backward_kv, ring_attention_forward
from repro.comm import SimCommunicator, grouped_ring_schedule
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


@dataclass
class USPContext:
    """Saved state between USP forward and backward."""

    grid: USPGrid
    q_h: list[np.ndarray]
    k_h: list[np.ndarray]
    v_h: list[np.ndarray]
    o_h: list[np.ndarray]
    lse_h: list[np.ndarray]
    ring_idxs: list[np.ndarray]
    local_sizes: list[int]
    mask: MaskPattern | None
    scale: float
    block_size: int | None


def _split_heads(x: np.ndarray, u: int) -> list[np.ndarray]:
    hh = x.shape[0] // u
    return [x[i * hh : (i + 1) * hh] for i in range(u)]


def _seq_to_head(
    comm: SimCommunicator,
    grid: USPGrid,
    arrays: Sequence[tuple[np.ndarray, ...]],
    *,
    phase: str,
    tag: str,
) -> list[list[tuple[np.ndarray, ...]]]:
    """All-to-all bundles of arrays inside each Ulysses group."""
    u = grid.ulysses_degree
    chunks = [
        [tuple(_split_heads(a, u)[d] for a in arrays[r]) for d in range(u)]
        for r in range(grid.world)
    ]
    return comm.group_all_to_all(
        chunks, grid.ulysses_groups(), phase=phase, tag=tag
    )


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

    ``qs[r]`` is ``(H, S/G, D)``; ranks of one Ulysses group must hold
    consecutive slices of their ring group's sequence shard (the engine's
    partitioning guarantees this).  ``idxs[r]`` are the global positions of
    rank ``r``'s local tokens.  Returns seq-sharded ``(os, lses, ctx)``.
    """
    u = grid.ulysses_degree
    if grid.world != comm.world_size:
        raise ValueError(
            f"grid world {grid.world} != communicator world {comm.world_size}"
        )
    h = qs[0].shape[0]
    if h % u != 0:
        raise ValueError(f"{h} heads not divisible by ulysses degree {u}")
    if ks[0].shape[0] != h:
        raise ValueError(
            "USP's head-parallel dimension requires equal query/KV head "
            f"counts; got {h} vs {ks[0].shape[0]}"
        )
    if scale is None:
        scale = 1.0 / np.sqrt(qs[0].shape[-1])
    if mask is not None and mask.bias_block(np.array([0]), np.array([0])) is not None:
        raise NotImplementedError(
            "USP does not support biased masks (ALiBi) — the head-parallel "
            "dimension would need per-slice bias plumbing; use a "
            "ring-family method"
        )
    local_sizes = [q.shape[-2] for q in qs]

    # (1) seq -> head inside each Ulysses group.
    received = _seq_to_head(
        comm, grid, [(qs[r], ks[r], vs[r]) for r in range(grid.world)],
        phase=phase, tag="usp-qkv",
    )
    q_h, k_h, v_h, ring_idxs = [], [], [], []
    for r in range(grid.world):
        group = grid.ulysses_groups()[grid.ring_index(r)]
        q_h.append(np.concatenate([received[r][p][0] for p in range(u)], axis=-2))
        k_h.append(np.concatenate([received[r][p][1] for p in range(u)], axis=-2))
        v_h.append(np.concatenate([received[r][p][2] for p in range(u)], axis=-2))
        ring_idxs.append(np.concatenate([idxs[peer] for peer in group]))

    # (2) ring attention across ring groups on head-sharded data.
    schedule = grouped_ring_schedule(comm.topology, grid.ring_groups())
    o_h, lse_h = ring_attention_forward(
        comm, schedule, q_h, k_h, v_h, ring_idxs, mask=mask, scale=scale,
        phase=phase, block_size=block_size,
    )

    # (3) head -> seq: return each peer its sequence slice of the outputs.
    sizes_by_rank = list(local_sizes)
    out_chunks = []
    for r in range(grid.world):
        group = grid.ulysses_groups()[grid.ring_index(r)]
        bounds = np.cumsum([0] + [sizes_by_rank[p] for p in group])
        out_chunks.append(
            [
                (
                    o_h[r][:, bounds[p] : bounds[p + 1], :],
                    lse_h[r][:, bounds[p] : bounds[p + 1]],
                )
                for p in range(u)
            ]
        )
    received_o = comm.group_all_to_all(
        out_chunks, grid.ulysses_groups(), phase=phase, tag="usp-out"
    )
    os_out, lses_out = [], []
    for r in range(grid.world):
        os_out.append(np.concatenate([received_o[r][p][0] for p in range(u)], axis=0))
        lses_out.append(np.concatenate([received_o[r][p][1] for p in range(u)], axis=0))

    ctx = USPContext(
        grid=grid, q_h=q_h, k_h=k_h, v_h=v_h, o_h=o_h, lse_h=lse_h,
        ring_idxs=ring_idxs, local_sizes=local_sizes,
        mask=mask, scale=scale, block_size=block_size,
    )
    return os_out, lses_out, ctx


@traced("attn.pass", "attn", algorithm="usp", direction="bwd")
def usp_attention_backward(
    comm: SimCommunicator,
    ctx: USPContext,
    dos: Sequence[np.ndarray],
    *,
    phase: str = "attn-bwd",
    use_burst_backward: bool = False,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """USP backward pass: dO to head layout, ring backward, grads back.

    ``use_burst_backward=False`` reproduces LoongTrain-USP (Algorithm 1 in
    the ring); ``True`` swaps in BurstAttention's Algorithm 2.
    """
    grid = ctx.grid
    u = grid.ulysses_degree
    received = _seq_to_head(
        comm, grid, [(dos[r],) for r in range(grid.world)],
        phase=phase, tag="usp-dout",
    )
    do_h = [
        np.concatenate([received[r][p][0] for p in range(u)], axis=-2)
        for r in range(grid.world)
    ]

    schedule = grouped_ring_schedule(comm.topology, grid.ring_groups())
    backward = burst_attention_backward if use_burst_backward else ring_attention_backward_kv
    dq_h, dk_h, dv_h = backward(
        comm, schedule, ctx.q_h, ctx.k_h, ctx.v_h, ctx.o_h, ctx.lse_h, do_h,
        ctx.ring_idxs, mask=ctx.mask, scale=ctx.scale,
        phase=phase, block_size=ctx.block_size,
    )

    grad_chunks = []
    for r in range(grid.world):
        group = grid.ulysses_groups()[grid.ring_index(r)]
        bounds = np.cumsum([0] + [ctx.local_sizes[p] for p in group])
        grad_chunks.append(
            [
                (
                    dq_h[r][:, bounds[p] : bounds[p + 1], :],
                    dk_h[r][:, bounds[p] : bounds[p + 1], :],
                    dv_h[r][:, bounds[p] : bounds[p + 1], :],
                )
                for p in range(u)
            ]
        )
    received_g = comm.group_all_to_all(
        grad_chunks, grid.ulysses_groups(), phase=phase, tag="usp-grads"
    )
    dqs, dks, dvs = [], [], []
    for r in range(grid.world):
        dqs.append(np.concatenate([received_g[r][p][0] for p in range(u)], axis=0))
        dks.append(np.concatenate([received_g[r][p][1] for p in range(u)], axis=0))
        dvs.append(np.concatenate([received_g[r][p][2] for p in range(u)], axis=0))
    return dqs, dks, dvs

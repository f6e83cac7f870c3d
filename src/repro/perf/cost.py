"""Analytic cost primitives: link times, Table 1 formulas, matmul times.

Table 1 of the paper compares total *communication time* of the three
ring-family methods with ``T_intra = Lat_intra + P / B_intra`` and
``T_inter = Lat_inter + P / B_inter`` where ``P`` is the per-step payload:

=================  =============================================================
RingAttention      ``6 * max(S_steps * T_intra, S_steps * T_inter)``
DoubleRing         ``4 * max(I * T_intra, E * T_inter) + 2 * (I * T_intra + E * T_inter)``
BurstAttention     ``5 * max(I * T_intra, E * T_inter)``
=================  =============================================================

with ``I = G - n_nodes`` intra transitions and ``E = n_nodes`` inter
transitions (the paper's ``N - N_inter`` and ``N_inter``).  The
coefficients are payload rounds: forward moves 2 shard-sized buffers per
step (K, V), Algorithm 1's backward 4 (K, V, dK, dV), Algorithm 2's 3
(Q, dQ, dO) plus the D/Lse rows.  The ``max`` terms are fully-overlapped
intra/inter phases; DoubleRing's ``+2(...)`` term is its *unoverlapped*
gradient communication — the deficiency BurstAttention's delayed-ring
scheme removes.

Every bundle size here is read off the layouts the ring passes execute
(:data:`repro.comm.ring.KV_BUNDLE` / ``ALG1_BUNDLE`` / ``ALG2_BUNDLE``).
``n_heads`` counts the per-head D/Lse rows; its default of 1 is the
paper's literal ``3Nd + 2N``, which Table 1 keeps reproducing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.ring import (
    ALG1_BUNDLE,
    ALG2_BUNDLE,
    KV_BUNDLE,
    bidirectional_split,
)
from repro.topology import ClusterTopology, LinkClass, shrink_cluster

#: Key of each pass in the per-pass size tables below -> its bundle layout.
_PASS_BUNDLES = {
    "fwd": KV_BUNDLE, "bwd_alg1": ALG1_BUNDLE, "bwd_alg2": ALG2_BUNDLE,
}


@dataclass(frozen=True)
class CommCost:
    """Communication time split into overlappable phases."""

    intra_time: float
    inter_time: float

    @property
    def overlapped(self) -> float:
        """Time when intra and inter phases run concurrently."""
        return max(self.intra_time, self.inter_time)

    @property
    def serialized(self) -> float:
        """Time when they cannot overlap."""
        return self.intra_time + self.inter_time


def link_time(topology: ClusterTopology, nbytes: float, cls: LinkClass) -> float:
    """One hop's time on the given link class."""
    return topology.transfer_time(nbytes, cls)


def ring_phase_cost(
    topology: ClusterTopology, payload_bytes: float
) -> CommCost:
    """Cost of one full circulation (G-1 transitions plus the return hop,
    i.e. G hops) split into intra and inter phases for the topology-aware
    double ring.

    Of the ``G`` hops, ``G - n_nodes`` are intra-node and ``n_nodes`` are
    inter-node (each inter transition drives all NICs concurrently, so it
    costs a single ``T_inter`` per transition).
    """
    g = topology.world_size
    n_nodes = topology.num_nodes
    intra_hops = g - n_nodes
    inter_hops = n_nodes if n_nodes > 1 else 0
    if n_nodes == 1:
        intra_hops = g
    t_intra = link_time(topology, payload_bytes, LinkClass.INTRA)
    t_inter = link_time(topology, payload_bytes, LinkClass.INTER)
    return CommCost(
        intra_time=intra_hops * t_intra,
        inter_time=inter_hops * t_inter,
    )


def flat_ring_step_time(topology: ClusterTopology, payload_bytes: float) -> float:
    """Per-transition time of the flat global ring.

    All ranks advance in lockstep, so every transition is gated by the
    slowest hop — the inter-node link whenever there is more than one node.
    """
    if topology.num_nodes > 1:
        return link_time(topology, payload_bytes, LinkClass.INTER)
    return link_time(topology, payload_bytes, LinkClass.INTRA)


def attention_step_sizes(
    seq_len: int, hidden: int, world_size: int, bytes_per_elem: int = 2,
    n_heads: int = 1, which: str = "all",
) -> dict[str, float]:
    """Per-step ring payload bytes for each pass and algorithm.

    ``hidden`` is the model dimension (heads folded in).  Returns bytes of
    one circulating bundle per transition:

    * ``fwd``: K + V = ``2 * (S/G) * h``
    * ``bwd_alg1``: K + V + dK + dV = ``4 * (S/G) * h``
    * ``bwd_alg2``: Q + dQ + dO + D + Lse = ``(3h + 2H) * (S/G)`` with
      ``H = n_heads`` rows each of D and Lse per token

    — or, with ``which="carried"`` / ``"read-only"``, of that part of each
    bundle alone (the accumulators / everything else).
    """
    return {
        key: bytes_per_elem * bundle.elems(
            seq_len / world_size, n_heads, n_heads, hidden / n_heads, which
        )
        for key, bundle in _PASS_BUNDLES.items()
    }


def bidirectional_direction_bytes(
    seq_len: int,
    hidden: int,
    world_size: int,
    bytes_per_elem: int = 2,
    n_heads: int = 1,
) -> dict[str, dict[str, float]]:
    """Per-rank send bytes of each pass, split by ring direction.

    Under ``ring_mode="bidirectional"`` the read-only bundle parts travel
    the short way round on a counter-rotating ``rev`` stream, while any
    gradient accumulators keep riding the full ``fwd`` circulation (their
    addition order is what makes the results bitwise-identical).  With
    ``S`` schedule steps, ``T_f = S // 2`` forward transitions and
    ``R = (S - 1) // 2`` reverse moves, every pass sends

    * ``fwd = T_f * all + (R + 1) * carried`` — the whole bundle for the
      forward stream's transitions, then the carried slots alone over the
      remaining ``R`` transitions and the return hop;
    * ``rev = R * read-only``

    of its :func:`attention_step_sizes`: nothing is carried on the ``fwd``
    pass, (dK, dV) under ``bwd_alg1``, dQ under ``bwd_alg2``.

    ``fwd + rev`` totals ``(S - 1) * all + carried`` (the paper's ``4Nd``
    / ``3Nd + 2N`` less the read-only share of the return hop), which is
    what the unidirectional pass sends too: the bidirectional mode halves
    the serial hop chain, not the bytes.
    """
    t_f, rev = bidirectional_split(world_size)
    size = {
        which: attention_step_sizes(
            seq_len, hidden, world_size, bytes_per_elem, n_heads, which
        )
        for which in ("all", "carried", "read-only")
    }
    return {
        key: {
            "fwd": t_f * size["all"][key] + (rev + 1) * size["carried"][key],
            "rev": rev * size["read-only"][key],
        }
        for key in _PASS_BUNDLES
    }


def table1_comm_times(
    topology: ClusterTopology,
    seq_len: int,
    hidden: int,
    bytes_per_elem: int = 2,
) -> dict[str, float]:
    """Evaluate Table 1's three formulas for a concrete cluster and size.

    Returns total attention communication time (forward + backward) for
    ``ring`` (flat, lockstep), ``double_ring`` (topology-aware, gradient
    comm unoverlapped), and ``burst`` (topology-aware, fully overlapped,
    Algorithm 2 payload).
    """
    sizes = attention_step_sizes(seq_len, hidden, topology.world_size, bytes_per_elem)
    g = topology.world_size
    p_shard = sizes["fwd"] / 2  # one shard-sized buffer

    # Flat ring: every transition gated by the slow link; 2 payloads fwd +
    # 4 bwd = 6 shard-buffers per step, G steps.
    t_step = flat_ring_step_time(topology, p_shard)
    ring = 6 * g * t_step

    # Topology-aware rings: per-circulation phase costs for one shard buffer.
    phase = ring_phase_cost(topology, p_shard)
    # DoubleRing: fwd (2) + backward KV (2) overlap intra/inter; gradient
    # buffers (2) are serialized (the paper's "+2(I*T_intra + E*T_inter)").
    double_ring = 4 * phase.overlapped + 2 * phase.serialized

    # Burst: fwd (2) + Alg. 2 backward (Q, dQ, dO and the paper's single
    # D and Lse row, in shard rounds) fully overlapped.
    burst_payload_rounds = 2 + sizes["bwd_alg2"] / p_shard
    burst = burst_payload_rounds * phase.overlapped

    return {"ring": ring, "double_ring": double_ring, "burst": burst}


# --- degraded topology --------------------------------------------------------
#
# After k rank failures an elastic run continues on G - k survivors: every
# shard grows to S / (G - k) tokens and the ring has one fewer member per
# failure.  The healthy closed forms price that run unchanged, evaluated on
# ``degraded_topology(t, k)`` (or at the survivor count); the elastic tests
# pin the survivors' TrafficLog against them the same way the healthy-run
# invariants pin the 4Nd / 3Nd + 2N totals.


def degraded_topology(topology: ClusterTopology, failed: int) -> ClusterTopology:
    """The survivor topology after ``failed`` rank deaths.

    Delegates to :func:`repro.topology.shrink_cluster` (the identity of
    the dead ranks does not matter for cost — survivors are re-densified),
    so the analytic layer and the elastic runtime can never disagree about
    the post-shrink node packing.
    """
    return shrink_cluster(topology, list(range(failed)))


# --- tile-count closed forms --------------------------------------------------
#
# The plan-driven flash kernels (repro.kernels.tileplan) tally how many
# (block_q x block_k) sub-tiles they computed vs. skipped.  The counts are
# predictable from the mask geometry alone; these closed forms are the
# independent cross-check the tile invariants in repro.testing.invariants
# (and the bench harness's gate) compare the measured counters against.


def _tile_bounds(n: int, block: int) -> list[tuple[int, int]]:
    return [(s, min(s + block, n)) for s in range(0, n, block)]


def causal_tile_counts(
    seq_len: int, block_q: int, block_k: int
) -> dict[str, int]:
    """Sub-tile census for a causal mask over ``[0, seq_len)``.

    A tile with query rows ``[q0, q1)`` and key columns ``[k0, k1)`` is
    *full* iff its earliest query sees the latest key (``q0 >= k1 - 1``)
    and *empty* iff its latest query precedes the earliest key
    (``q1 - 1 < k0``) — the exact interval test ``CausalMask.tile_state``
    applies.  Returns ``{"full", "partial", "empty", "total"}`` counts.
    """
    full = partial = empty = 0
    for q0, q1 in _tile_bounds(seq_len, block_q):
        for k0, k1 in _tile_bounds(seq_len, block_k):
            if q0 >= k1 - 1:
                full += 1
            elif q1 - 1 < k0:
                empty += 1
            else:
                partial += 1
    total = full + partial + empty
    return {"full": full, "partial": partial, "empty": empty, "total": total}


def sliding_window_tile_counts(
    seq_len: int, window: int, block_q: int, block_k: int
) -> dict[str, int]:
    """Sub-tile census for a causal sliding window of width ``window``.

    ``SlidingWindowMask.tile_state``'s interval test, which is exact on
    contiguous ranges (every difference in ``[diff_min, diff_max]`` is
    attained): with ``diff_min = q0 - (k1 - 1)`` and ``diff_max = (q1 - 1)
    - k0``, a tile is full iff ``diff_min >= 0 and diff_max < window`` and
    empty iff ``diff_max < 0 or diff_min >= window``.
    """
    full = partial = empty = 0
    for q0, q1 in _tile_bounds(seq_len, block_q):
        for k0, k1 in _tile_bounds(seq_len, block_k):
            diff_min = q0 - (k1 - 1)
            diff_max = (q1 - 1) - k0
            if diff_min >= 0 and diff_max < window:
                full += 1
            elif diff_max < 0 or diff_min >= window:
                empty += 1
            else:
                partial += 1
    total = full + partial + empty
    return {"full": full, "partial": partial, "empty": empty, "total": total}


def block_sparse_tile_counts(
    seq_len: int,
    mask_block_size: int,
    block_mask,
    intra_block_causal: bool,
    block_q: int,
    block_k: int,
) -> dict[str, int]:
    """Sub-tile census for a ``BlockSparseMask`` — block-level arithmetic,
    no token tiles.

    For each kernel tile the spanned mask blocks are ``q0 // B .. (q1-1)
    // B`` (likewise for keys); the tile is full iff all spanned block
    pairs are allowed and (under intra-block causality) the whole tile
    lies on or below the token diagonal, and empty iff no allowed block
    pair holds a visible token pair — under intra-block causality an
    allowed pair whose part of the tile lies wholly above the diagonal
    holds none (a kernel tile finer than the mask block, beside the
    diagonal).  This is the census of a built plan, which checks every
    ``partial`` verdict of ``BlockSparseMask.tile_state`` against the
    tile.
    """
    import numpy as np

    block_mask = np.asarray(block_mask, dtype=bool)
    size = mask_block_size

    def visible(a: int, b: int, q1: int, k0: int) -> bool:
        # Block pair (a, b)'s part of the tile: its latest query against
        # its earliest key.
        return min(q1, (a + 1) * size) - 1 >= max(k0, b * size)

    full = partial = empty = 0
    for q0, q1 in _tile_bounds(seq_len, block_q):
        qb0, qb1 = q0 // size, (q1 - 1) // size + 1
        for k0, k1 in _tile_bounds(seq_len, block_k):
            kb0, kb1 = k0 // size, (k1 - 1) // size + 1
            sub = block_mask[qb0:qb1, kb0:kb1]
            if intra_block_causal:
                live = any(
                    visible(qb0 + a, kb0 + b, q1, k0)
                    for a, b in zip(*np.nonzero(sub))
                )
            else:
                live = sub.any()
            if not live:
                empty += 1
            elif intra_block_causal:
                if q0 >= k1 - 1 and sub.all():
                    full += 1
                else:
                    partial += 1
            elif sub.all():
                full += 1
            else:
                partial += 1
    total = full + partial + empty
    return {"full": full, "partial": partial, "empty": empty, "total": total}


def matmul_time(
    flops: float, peak_flops: float, efficiency: float = 0.62
) -> float:
    """Dense-matmul execution time at calibrated efficiency.

    ``efficiency`` defaults to 62 % of peak — typical for large bf16 GEMMs
    on Ampere and the single calibration constant of the performance model
    (chosen so the 14B/1M/32-GPU headline lands near the paper's ~52 % MFU
    once overlap losses are simulated).
    """
    if peak_flops <= 0:
        raise ValueError("peak_flops must be positive")
    if not 0 < efficiency <= 1:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    return flops / (peak_flops * efficiency)

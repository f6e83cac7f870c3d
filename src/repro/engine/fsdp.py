"""FSDP (ZeRO-3) communication accounting.

Parameters, gradients, and optimizer states are sharded ``1/G`` per rank.
Numerically our single-process engine keeps one copy of every parameter —
sharding changes *placement*, not values — so FSDP shows up in two places:

* traffic: each micro-batch of a training step all-gathers every
  parameter for its forward and, under a checkpointing policy,
  re-gathers the blocks' own parameters — nothing outside the blocks —
  for the backward that recomputes from them; the step then
  reduce-scatters every (accumulated) gradient once.
  :func:`log_fsdp_traffic` appends the corresponding ring-realisation
  transfer records to the communicator's log so end-to-end traffic totals
  are complete;
* memory: the per-rank share of params/grads/optimizer states is computed
  by :mod:`repro.perf.memory`.

The BMTrain-style implementation the paper uses overlaps these collectives
at Transformer-block granularity, and there only a checkpointed block
gathers its weights a second time; the DES schedules in :mod:`repro.perf`
model that overlap — here we only account volume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm import SimCommunicator
from repro.comm.traffic import TransferRecord
from repro.topology import ClusterTopology


@dataclass(frozen=True)
class FSDPTraffic:
    """Per-rank FSDP byte counts for one training step."""

    allgather_bytes: int
    reduce_scatter_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.allgather_bytes + self.reduce_scatter_bytes


#: The engine's parameters are float64.
_ELEM_BYTES = 8


def _shard_elems(param_bytes: int, world_size: int) -> int:
    """Elements of one rank's shard: the flat parameter padded, as FSDP
    pads it, to a multiple of the world size."""
    return -(-param_bytes // (_ELEM_BYTES * world_size))


def _pass_elems(
    param_bytes: int, replayed_bytes: int, world_size: int,
    micro_batches: int = 1,
) -> tuple[int, ...]:
    """Shard elements of each pass one step runs: per micro-batch, the
    forward's all-gather of every parameter and the backward's re-gather
    (none without checkpointing); then the gradients' reduce-scatter."""
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if micro_batches < 1:
        raise ValueError(f"micro_batches must be >= 1, got {micro_batches}")
    if not 0 <= replayed_bytes <= param_bytes:
        raise ValueError(
            f"replayed_bytes must be in [0, {param_bytes}], got {replayed_bytes}"
        )
    full = _shard_elems(param_bytes, world_size)
    replayed = _shard_elems(replayed_bytes, world_size)
    gathers = (full, replayed) if replayed else (full,)
    return gathers * micro_batches + (full,)


def fsdp_step_traffic(
    param_bytes: int, world_size: int, replayed_bytes: int = 0,
    micro_batches: int = 1,
) -> FSDPTraffic:
    """Per-rank volume for one step of ``micro_batches`` micro-batches.

    A ring all-gather moves ``G - 1`` shards per rank per pass.  Each
    micro-batch runs its own forward and replay, so each gathers all
    ``param_bytes`` once and the ``replayed_bytes`` a checkpoint replay
    reads once more (0 when nothing is replayed and the parameters stay
    resident).  The gradients accumulate across micro-batches, so the
    reduce-scatter moves ``G - 1`` shards of all parameters once.  A shard
    is whole elements, the flat parameter padded to a multiple of ``G``,
    so a pass is ``(G-1)/G`` of its bytes exactly when ``G`` divides its
    element count — and always the bytes :func:`log_fsdp_traffic` logs for
    one rank.
    """
    *gathers, scatter = _pass_elems(
        param_bytes, replayed_bytes, world_size, micro_batches
    )
    per_shard = (world_size - 1) * _ELEM_BYTES
    return FSDPTraffic(
        allgather_bytes=per_shard * sum(gathers),
        reduce_scatter_bytes=per_shard * scatter,
    )


def log_fsdp_traffic(
    comm: SimCommunicator, param_bytes: int, *, replayed_bytes: int = 0,
    micro_batches: int = 1, phase: str = "fsdp",
) -> FSDPTraffic:
    """Append one step's FSDP ring transfers to the communicator log.

    Each collective is logged as its ring realisation: ``G - 1`` hops per
    pass, each carrying one rank's padded shard of whole elements, along
    the global ring (so node-boundary hops land on the inter-link, as on
    real hardware).  The passes are :func:`fsdp_step_traffic`'s, in order:
    per micro-batch the forward's gather and the replay's re-gather of
    ``replayed_bytes``, then the reduce-scatter.
    """
    topo: ClusterTopology = comm.topology
    g = topo.world_size
    ring = topo.global_ring()
    for elems in _pass_elems(param_bytes, replayed_bytes, g, micro_batches):
        for t in range(g - 1):
            for p in range(g):
                src, dst = ring[p], ring[(p + 1) % g]
                if src == dst:
                    continue
                comm.log.add(
                    TransferRecord(
                        src=src, dst=dst, nbytes=elems * _ELEM_BYTES,
                        nelems=elems, link=topo.link_class(src, dst),
                        phase=phase, tag="fsdp-ring",
                    )
                )
    return fsdp_step_traffic(param_bytes, g, replayed_bytes, micro_batches)

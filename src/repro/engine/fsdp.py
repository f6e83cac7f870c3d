"""FSDP (ZeRO-3) communication accounting.

Parameters, gradients, and optimizer states are sharded ``1/G`` per rank.
Numerically our single-process engine keeps one copy of every parameter —
sharding changes *placement*, not values — so FSDP shows up in two places:

* traffic: each training step all-gathers the parameters twice (forward
  and backward, since gradient checkpointing re-runs layers) and
  reduce-scatters the gradients once.  :func:`log_fsdp_traffic` appends the
  corresponding ring-realisation transfer records to the communicator's
  log so end-to-end traffic totals are complete;
* memory: the per-rank share of params/grads/optimizer states is computed
  by :mod:`repro.perf.memory`.

The BMTrain-style implementation the paper uses overlaps these collectives
at Transformer-block granularity; the DES schedules in :mod:`repro.perf`
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


def fsdp_step_traffic(
    param_bytes: int, world_size: int, gather_passes: int = 2
) -> FSDPTraffic:
    """Per-rank volume for one step.

    Ring all-gather of all parameters moves ``G - 1`` shards per rank per
    pass; ``gather_passes = 2`` covers forward + recompute-backward (1 if
    checkpointing is off and parameters stay resident).  The gradient
    reduce-scatter moves the same ``G - 1`` shards once.  A shard is
    whole elements, the flat parameter padded to a multiple of ``G``, so
    this is ``(G-1)/G * param_bytes`` per pass exactly when ``G`` divides
    the element count — and always the bytes :func:`log_fsdp_traffic`
    logs for one rank.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    shard_bytes = _shard_elems(param_bytes, world_size) * _ELEM_BYTES
    per_pass = (world_size - 1) * shard_bytes
    return FSDPTraffic(
        allgather_bytes=gather_passes * per_pass,
        reduce_scatter_bytes=per_pass,
    )


def log_fsdp_traffic(
    comm: SimCommunicator, param_bytes: int, *, gather_passes: int = 2,
    phase: str = "fsdp",
) -> FSDPTraffic:
    """Append one step's FSDP ring transfers to the communicator log.

    Each collective is logged as its ring realisation: ``G - 1`` hops per
    pass, each carrying one rank's padded shard of whole elements, along
    the global ring (so node-boundary hops land on the inter-link, as on
    real hardware).
    """
    topo: ClusterTopology = comm.topology
    g = topo.world_size
    ring = topo.global_ring()
    elems = _shard_elems(param_bytes, g)
    passes = gather_passes + 1  # all-gathers + one reduce-scatter
    for _ in range(passes):
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
    return fsdp_step_traffic(param_bytes, g, gather_passes)

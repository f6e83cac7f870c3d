"""Uniform facade over the five distributed attention systems.

Each method bundles a partitioner, a communication schedule, and forward /
backward algorithms behind one interface, so the engine, the tests, and the
benchmarks can swap systems with a string name:

=====================  ============  ==============  ===========  ==========
name                   partition     schedule        backward     heads req.
=====================  ============  ==============  ===========  ==========
``megatron-cp``        zigzag        flat ring       Alg. 1       —
``loongtrain-double``  zigzag        double ring     Alg. 1       —
``burst``              striped*      double ring     Alg. 2       —
``ulysses``            contiguous    USP, ``u = G``  local        H % G == 0
``usp``                zigzag(ring)  a2a + ring      Alg. 1       H % u == 0
=====================  ============  ==============  ===========  ==========

(*) The paper's pilot experiments found striped integration slightly better
for BurstEngine; zigzag is available via the ``partitioner`` argument.

The schedule and backward columns of the three ring-family rows are
:data:`repro.comm.ring.RING_METHODS` — the table the DES reads too.  The
two head-parallel rows are one executor: Ulysses is USP on a one-position
ring (:mod:`repro.attention.usp`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from repro.attention.burst import burst_attention_backward
from repro.attention.ring import (
    ring_attention_backward_kv,
    ring_attention_forward,
    row_stats,
)
from repro.attention.usp import USPGrid, usp_attention_backward, usp_attention_forward
from repro.comm import RingSchedule, SimCommunicator
from repro.comm.ring import RING_METHODS, check_ring_mode, cheaper_backward_bundle
from repro.masks import MaskPattern
from repro.partition import (
    ContiguousPartitioner,
    Partitioner,
    StripedPartitioner,
    ZigzagPartitioner,
)
from repro.topology import ClusterTopology


@dataclass
class AttentionResult:
    """Outputs of a full distributed attention pass on full arrays."""

    o: np.ndarray
    lse: np.ndarray
    dq: np.ndarray | None = None
    dk: np.ndarray | None = None
    dv: np.ndarray | None = None
    comm: SimCommunicator | None = None

    @property
    def traffic(self):
        return self.comm.log if self.comm is not None else None


class DistributedAttention(ABC):
    """Base class: scatter full arrays, run the distributed pass, gather."""

    name: str = "base"
    supports_context_rebuild = False

    def __init__(
        self, partitioner: Partitioner, block_size: int | None = None
    ):
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.partitioner = partitioner
        self.block_size = block_size

    # -- shard-level API (used by the engine) --------------------------------

    @abstractmethod
    def forward_shards(self, comm, qs, ks, vs, idxs, mask, scale):
        """Run the forward pass on shards; returns ``(os, lses, ctx)``.

        ``lses`` is ``None`` for a head-parallel method, whose ranks hold
        ``lse`` in head layout only (nothing ships it back): its backward
        reads it there, and :meth:`gather_lse` gathers it on the host."""

    @abstractmethod
    def backward_shards(self, comm, ctx, dos, os):
        """Run the backward pass from the forward's context, the output
        gradients and the outputs ``os`` (per rank, sequence layout: the
        caller holds them, so no context keeps a copy); returns ``(dqs,
        dks, dvs)``."""

    def gather_lse(self, lses, ctx) -> np.ndarray:
        """The full ``lse`` of a :meth:`forward_shards` call, gathered on
        the host like :meth:`gather`'s outputs."""
        return self.gather(lses, axis=-1)

    # -- full-array convenience API ------------------------------------------

    def _partition(self, n: int, g: int) -> list[np.ndarray]:
        """How this method lays ``n`` tokens out over ``g`` ranks."""
        return self.partitioner.indices(n, g)

    def _layout(self, n: int, g: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """``(per-rank indices, gather's inverse permutation)`` for ``n``
        tokens on ``g`` ranks.  A pure function of ``(n, g)`` that every
        :meth:`shard` / :meth:`gather` of every layer and step asks for, so
        it is worked out once per method instance; the arrays are handed
        out read-only, so no caller can stale the memo."""
        memo = self.__dict__.setdefault("_layouts", {})
        layout = memo.get((n, g))
        if layout is None:
            idxs = tuple(
                np.array(idx, dtype=np.int64) for idx in self._partition(n, g)
            )
            inv = np.empty(n, dtype=np.int64)
            inv[np.concatenate(idxs)] = np.arange(n)
            for arr in (*idxs, inv):
                arr.flags.writeable = False
            layout = memo[(n, g)] = (idxs, inv)
        return layout

    def indices(self, n: int, g: int) -> list[np.ndarray]:
        """Global token positions held by each of ``g`` ranks (read-only
        arrays, the same objects on every call)."""
        return list(self._layout(n, g)[0])

    def shard(self, x: np.ndarray, g: int, axis: int = -2) -> list[np.ndarray]:
        """Split ``x`` along its sequence ``axis`` by :meth:`indices`.

        ``x`` is made C-contiguous once: ``np.take`` copies a strided
        input whole on every call (a head view of a projection, ~11× the
        take itself at ``(8, 2048, 8)`` into 8 shards).  The shards are
        fresh C-contiguous arrays either way, with the same values."""
        x = np.ascontiguousarray(x)
        return [
            np.take(x, idx, axis=axis)
            for idx in self._layout(x.shape[axis], g)[0]
        ]

    def gather(self, parts: list[np.ndarray], axis: int = -2) -> np.ndarray:
        """Reassemble per-rank shards into the full array (inverse of
        :meth:`shard`)."""
        n = sum(p.shape[axis] for p in parts)
        inv = self._layout(n, len(parts))[1]
        return np.take(np.concatenate(parts, axis=axis), inv, axis=axis)

    def run(
        self,
        topology: ClusterTopology,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        mask: MaskPattern | None = None,
        do: np.ndarray | None = None,
        scale: float | None = None,
        comm: SimCommunicator | None = None,
    ) -> AttentionResult:
        """Execute a full pass on unsharded ``(H, N, D)`` (or ``(N, D)``)
        arrays and gather the results back; ``do`` triggers the backward
        pass as well."""
        if comm is None:
            comm = SimCommunicator(topology)
        g = topology.world_size
        n = q.shape[-2]
        idxs = self.indices(n, g)
        qs, ks, vs = self.shard(q, g), self.shard(k, g), self.shard(v, g)
        os, lses, ctx = self.forward_shards(comm, qs, ks, vs, idxs, mask, scale)
        result = AttentionResult(
            o=self.gather(os), lse=self.gather_lse(lses, ctx), comm=comm,
        )
        if do is not None:
            dos = self.shard(do, g)
            dqs, dks, dvs = self.backward_shards(comm, ctx, dos, os)
            result.dq = self.gather(dqs)
            result.dk = self.gather(dks)
            result.dv = self.gather(dvs)
        return result


@dataclass
class _RingContext:
    schedule: object
    qs: list
    ks: list
    vs: list
    lses: list
    idxs: list
    mask: MaskPattern | None
    scale: float | None


#: The executed pass of each backward bundle (by ``BundleLayout.name``).
_BACKWARD_PASSES = {
    "alg1": ring_attention_backward_kv,
    "alg2": burst_attention_backward,
}


class _RingFamilyMethod(DistributedAttention):
    """Common scaffolding for flat-ring / double-ring methods.

    Which schedule a method circulates over and which bundle its backward
    circulates come from its :data:`~repro.comm.ring.RING_METHODS` row.
    All ring-family methods accept ``ring_mode``: ``"unidirectional"``
    (default) or ``"bidirectional"`` (counter-rotating delivery streams,
    bitwise-identical results — see :mod:`repro.comm.ring`).  K/V shards
    may carry fewer heads than the query shards (GQA).
    """

    #: Ring-family backward needs only (q, k, v, lse) shards and the
    #: outputs, so a backward context can be rebuilt from full arrays —
    #: this is what lets checkpoint policies skip the distributed forward
    #: on recomputation.
    supports_context_rebuild = True
    default_partitioner: type[Partitioner] = ZigzagPartitioner

    def __init__(
        self,
        partitioner: Partitioner | None = None,
        block_size: int | None = None,
        ring_mode: str = "unidirectional",
    ):
        super().__init__(partitioner or self.default_partitioner(), block_size)
        self.ring_mode = check_ring_mode(ring_mode)
        self.ring = RING_METHODS[self.name]

    def schedule(self, topology: ClusterTopology) -> RingSchedule:
        """The ring schedule this method executes on ``topology``."""
        return self.ring.schedule(topology)

    def make_context(self, comm, qs, ks, vs, lses, idxs, mask, scale):
        """Rebuild the backward context from shards (no communication)."""
        return _RingContext(
            self.schedule(comm.topology), list(qs), list(ks), list(vs),
            list(lses), list(idxs), mask, scale,
        )

    def forward_shards(self, comm, qs, ks, vs, idxs, mask, scale):
        schedule = self.schedule(comm.topology)
        os, lses = ring_attention_forward(
            comm, schedule, qs, ks, vs, idxs, mask=mask, scale=scale,
            block_size=self.block_size, ring_mode=self.ring_mode,
        )
        ctx = _RingContext(schedule, list(qs), list(ks), list(vs), lses,
                           list(idxs), mask, scale)
        return os, lses, ctx

    def backward_shards(self, comm, ctx, dos, os):
        q, k = ctx.qs[0], ctx.ks[0]
        bundle = self.ring.backward or cheaper_backward_bundle(
            q.shape[0], k.shape[0], q.shape[-1]
        )
        return _BACKWARD_PASSES[bundle.name](
            comm, ctx.schedule, ctx.qs, ctx.ks, ctx.vs, row_stats(dos, os),
            ctx.lses, dos, ctx.idxs, mask=ctx.mask, scale=ctx.scale,
            block_size=self.block_size, ring_mode=self.ring_mode,
        )


class RingAttentionMethod(_RingFamilyMethod):
    """Megatron-CP: flat global ring, Algorithm 1, zigzag balance."""

    name = "megatron-cp"


class DoubleRingMethod(_RingFamilyMethod):
    """LoongTrain-DoubleRing: two-level ring, Algorithm 1, zigzag balance."""

    name = "loongtrain-double"


class BurstAttentionMethod(_RingFamilyMethod):
    """BurstAttention: topology-aware double ring + Algorithm 2 backward.

    Defaults to striped workload balance (the paper's best-performing
    integration); pass ``ZigzagPartitioner()`` to reproduce the zigzag
    variant of the ablation.
    """

    name = "burst"
    default_partitioner = StripedPartitioner

    def __init__(
        self,
        partitioner: Partitioner | None = None,
        block_size: int | None = None,
        adaptive_backward: bool = False,
        ring_mode: str = "unidirectional",
    ):
        super().__init__(partitioner, block_size, ring_mode)
        if adaptive_backward:
            # GQA extension: pick Alg. 1 when grouped KV heads make the
            # circulating KV bundle cheaper than the query-sized one.
            self.ring = replace(self.ring, backward=None)


class USPMethod(DistributedAttention):
    """LoongTrain-USP hybrid head+context parallelism.

    ``ulysses_degree`` sets the head-parallel width ``u``; the ring width is
    ``G / u``.  The sequence is partitioned over ring positions with the
    ring partitioner (zigzag by default) and each ring shard is subdivided
    contiguously among the Ulysses peers.
    """

    name = "usp"

    def __init__(
        self,
        ulysses_degree: int,
        ring_partitioner: Partitioner | None = None,
        block_size: int | None = None,
        use_burst_backward: bool = False,
    ):
        if ulysses_degree < 1:
            raise ValueError(
                f"ulysses_degree must be >= 1, got {ulysses_degree}"
            )
        super().__init__(ring_partitioner or ZigzagPartitioner(), block_size)
        self.ulysses_degree = ulysses_degree
        self.use_burst_backward = use_burst_backward

    def grid(self, g: int) -> USPGrid:
        """The ``u × r`` process grid this method runs on ``g`` ranks."""
        if g % self.ulysses_degree != 0:
            raise ValueError(
                f"world size {g} not divisible by ulysses degree "
                f"{self.ulysses_degree}"
            )
        return USPGrid(self.ulysses_degree, g // self.ulysses_degree)

    def _partition(self, n: int, g: int) -> list[np.ndarray]:
        grid = self.grid(g)
        if n % g != 0:
            raise ValueError(
                f"sequence length {n} is not divisible by device count {g}"
            )
        ring_shards = self.partitioner.indices(n, grid.ring_degree)
        m = n // g
        out = []
        for rank in range(g):
            ring_idx = grid.ring_index(rank)
            ul = grid.ulysses_index(rank)
            out.append(ring_shards[ring_idx][ul * m : (ul + 1) * m])
        return out

    def forward_shards(self, comm, qs, ks, vs, idxs, mask, scale):
        return usp_attention_forward(
            comm, self.grid(comm.world_size), qs, ks, vs, idxs, mask=mask,
            scale=scale, block_size=self.block_size,
        )

    def backward_shards(self, comm, ctx, dos, os):
        return usp_attention_backward(
            comm, ctx, dos, row_stats(dos, os),
            use_burst_backward=self.use_burst_backward,
        )

    def gather_lse(self, lses, ctx):
        """Each rank's ``lse_h`` is its head group over its ring group's
        tokens: the host writes them into the full ``(H, N)``."""
        u, hh = ctx.grid.ulysses_degree, ctx.lse_h[0].shape[0]
        lse = np.empty((u * hh, sum(ctx.local_sizes)), ctx.lse_h[0].dtype)
        for r, (part, idx) in enumerate(zip(ctx.lse_h, ctx.ring_idxs)):
            ul = ctx.grid.ulysses_index(r)
            lse[ul * hh:(ul + 1) * hh, idx] = part
        return lse


class UlyssesMethod(USPMethod):
    """DeepSpeed-Ulysses head parallelism: USP with ``u = G``.

    Every rank is its own ring position, so a pass is an all-to-all to
    ``H/G`` heads over the whole (contiguously sharded) sequence, one
    local attention kernel call and an all-to-all back.  The degree is the
    world size, which only :meth:`grid` learns.
    """

    name = "ulysses"

    def __init__(self, block_size: int | None = None):
        DistributedAttention.__init__(self, ContiguousPartitioner(), block_size)
        self.use_burst_backward = False

    def grid(self, g: int) -> USPGrid:
        return USPGrid(g, 1)


class SelectiveMethod(DistributedAttention):
    """Sparsity-aware selective communication (extension; see
    :mod:`repro.attention.selective`).

    Fetches only the KV shards the mask requires (point-to-point) instead
    of ring-circulating everything.  Pays off with *contiguous* shards and
    sparse masks; with balanced partitions every tile is live and it
    degenerates to all-pairs exchange.
    """

    name = "selective"

    def __init__(
        self,
        partitioner: Partitioner | None = None,
        block_size: int | None = None,
    ):
        super().__init__(partitioner or ContiguousPartitioner(), block_size)

    def forward_shards(self, comm, qs, ks, vs, idxs, mask, scale):
        from repro.attention.selective import selective_attention_forward

        os, lses = selective_attention_forward(
            comm, qs, ks, vs, idxs, mask=mask, scale=scale,
            block_size=self.block_size,
        )
        ctx = _RingContext(None, list(qs), list(ks), list(vs), lses,
                           list(idxs), mask, scale)
        return os, lses, ctx

    def backward_shards(self, comm, ctx, dos, os):
        from repro.attention.selective import selective_attention_backward

        return selective_attention_backward(
            comm, ctx.qs, ctx.ks, ctx.vs, os, ctx.lses, dos, ctx.idxs,
            mask=ctx.mask, scale=ctx.scale, block_size=self.block_size,
        )


METHOD_REGISTRY = {
    "megatron-cp": RingAttentionMethod,
    "loongtrain-double": DoubleRingMethod,
    "burst": BurstAttentionMethod,
    "ulysses": UlyssesMethod,
    "usp": USPMethod,
    "selective": SelectiveMethod,
}


def get_method(name: str, **kwargs) -> DistributedAttention:
    """Instantiate a distributed attention method by registry name."""
    try:
        cls = METHOD_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; available: {sorted(METHOD_REGISTRY)}"
        ) from None
    return cls(**kwargs)

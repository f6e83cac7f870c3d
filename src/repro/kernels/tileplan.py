"""Mask-aware tile planning for the flash kernels.

The distributed layer already skips whole shard-pair tiles through
:meth:`repro.masks.MaskPattern.tile_state`, but inside a shard pair the
flash kernels used to compute every ``(block_q x block_k)`` sub-tile and
resolve partial masks as dense ``Sq x Sk`` arrays — ``O(N^2)`` memory and
roughly twice the necessary work under causal masking.  This module pushes
the mask structure *into* the kernel:

* :class:`TilePlan` classifies every ``(q-block, k-block)`` sub-tile as
  ``empty`` / ``full`` / ``partial`` directly from a
  :class:`~repro.masks.MaskPattern` and the global token-index arrays of
  the two shards, reusing the pattern's ``tile_state`` fast path.  The
  dense boolean mask is never materialised; boolean tiles are built lazily
  and only for ``partial`` sub-tiles.
* :class:`KernelWorkspace` preallocates the per-tile scratch buffers
  (score, probability, grad tiles) so a ring pass reuses one set of
  buffers across all of its kernel invocations instead of allocating per
  sub-tile.
* :class:`BiasTileCache` memoises additive-bias tiles (ALiBi) across ring
  steps: the bias depends only on relative offsets, so contiguous tiles
  with the same ``q0 - k0`` offset and shape share one tile no matter
  which shard pair asked for it.
* :data:`counters` tallies computed/skipped sub-tiles and (query, key)
  pairs — the machine-readable numbers the step benchmark
  (``python3 -m benchmarks.step``) and the tile-count invariants in
  :mod:`repro.testing.invariants` consume.

A plan is the only way a :class:`~repro.masks.MaskPattern` reaches a
kernel: every attention call site builds one, none materialises a
shard-pair mask.  The plan-driven kernels are numerically identical to
the same kernels fed a dense ``mask=``/``bias=`` array (full tiles drop
the ``where`` that a dense all-``True`` tile would no-op through; empty
tiles contribute nothing either way); the dense-array form is kept as the
oracle the golden fixtures and the property tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.masks import MaskPattern
from repro.obs.metrics import MetricsRegistry, get_registry

#: Sub-tile classification codes (stored in ``TilePlan.states`` as int8).
EMPTY, PARTIAL, FULL = 0, 1, 2

_STATE_CODE = {"empty": EMPTY, "partial": PARTIAL, "full": FULL}


# --- execution accounting -----------------------------------------------------


#: Counter fields, in snapshot order.  Each is backed by a registry
#: counter named ``tileplan.<field>`` so one registry snapshot covers them.
_TILE_FIELDS = (
    "computed_full",
    "computed_partial",
    "skipped_empty",
    "computed_pairs",
    "skipped_pairs",
    "bias_tiles_built",
    "bias_tiles_reused",
)


class TileCounters:
    """Global tally of sub-tile work the plan-driven kernels performed.

    ``computed_pairs``/``skipped_pairs`` count (query, key) *positions*
    inside computed/skipped sub-tiles — the unit the FLOP invariants tie
    to the :mod:`repro.perf.cost` closed forms.

    The fields are properties over :class:`repro.obs.metrics.Counter`
    objects (``tileplan.*`` in the given registry — the process-global
    one for the module singleton), so ``counters.computed_full += n``
    keeps working verbatim while ``repro.obs`` sees the same numbers.

    The sub-tile and pair fields are tallied once per kernel invocation
    from the plan's static classification (:meth:`TilePlan.tally`) —
    never inside the kernels' tile loops.  Not thread-safe: the kernels
    run on the calling thread.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        if registry is None:
            registry = MetricsRegistry()
        self._backing = {
            name: registry.counter(f"tileplan.{name}") for name in _TILE_FIELDS
        }

    def add(self, name: str, n: int = 1) -> None:
        """Account ``n`` into field ``name``."""
        self._backing[name]._value += n

    @property
    def computed(self) -> int:
        return self.computed_full + self.computed_partial

    @property
    def total(self) -> int:
        return self.computed + self.skipped_empty

    @property
    def skip_fraction(self) -> float:
        return self.skipped_empty / self.total if self.total else 0.0

    def reset(self) -> None:
        for metric in self._backing.values():
            metric.reset()

    def snapshot(self) -> dict[str, int | float]:
        out: dict[str, int | float] = {
            name: getattr(self, name) for name in _TILE_FIELDS
        }
        out["tiles_computed"] = self.computed
        out["tiles_skipped"] = self.skipped_empty
        out["skip_fraction"] = self.skip_fraction
        return out


def _tile_counter_property(fname: str) -> property:
    def _get(self) -> int:
        return int(self._backing[fname]._value)

    def _set(self, value: int) -> None:
        self._backing[fname]._value = float(value)

    return property(_get, _set)


for _fname in _TILE_FIELDS:
    setattr(TileCounters, _fname, _tile_counter_property(_fname))
del _fname


#: Module-wide counters; reset before a measured region, snapshot after.
#: Backed by the global metrics registry (``tileplan.*`` counters).
counters = TileCounters(registry=get_registry())


# --- bias tile cache ----------------------------------------------------------


class BiasTileCache:
    """Memoises additive-bias tiles across ring steps.

    A pattern opts in through :meth:`~repro.masks.MaskPattern.bias_cache_key`
    (ALiBi keys tiles by ``(q0 - k0, len_q, len_k)`` — its bias depends
    only on relative offsets).  Patterns returning ``None`` keys are
    recomputed every time, so the cache is always sound.
    """

    def __init__(self):
        self._tiles: dict = {}

    def get(
        self, mask: MaskPattern, q_idx: np.ndarray, k_idx: np.ndarray
    ) -> np.ndarray | None:
        key = mask.bias_cache_key(q_idx, k_idx)
        if key is None:
            counters.add("bias_tiles_built")
            return mask.bias_block(q_idx, k_idx)
        tile = self._tiles.get(key)
        if tile is None:
            tile = mask.bias_block(q_idx, k_idx)
            self._tiles[key] = tile
            counters.add("bias_tiles_built")
        else:
            counters.add("bias_tiles_reused")
        return tile

    def __len__(self) -> int:
        return len(self._tiles)


# --- the plan -----------------------------------------------------------------


def _block_bounds(n: int, block: int) -> list[tuple[int, int]]:
    return [(start, min(start + block, n)) for start in range(0, n, block)]


@dataclass
class TilePlan:
    """Sub-tile classification of one (query-shard, key-shard) pair.

    Built once per shard pair per pass; consumed by
    :func:`repro.kernels.flash_attention_forward` /
    :func:`~repro.kernels.flash_attention_backward`, which skip ``EMPTY``
    sub-tiles, run ``FULL`` sub-tiles without any mask handling, and
    materialise a boolean tile only for ``PARTIAL`` sub-tiles.
    """

    mask: MaskPattern | None
    q_idx: np.ndarray
    k_idx: np.ndarray
    block_q: int
    block_k: int
    states: np.ndarray  # (n_q_blocks, n_k_blocks) int8 of EMPTY/PARTIAL/FULL
    has_bias: bool = False
    bias_cache: BiasTileCache | None = None
    head_slice: slice | None = None
    _q_bounds: list[tuple[int, int]] = field(default_factory=list, repr=False)
    _k_bounds: list[tuple[int, int]] = field(default_factory=list, repr=False)
    _mask_tiles: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # The classification is static, so one kernel invocation's tile
        # accounting is known here: (full, partial, empty, computed pairs,
        # skipped pairs), in the order of ``_TILE_FIELDS[:5]``.
        empty = self.states == EMPTY
        n_empty = int(np.count_nonzero(empty))
        n_partial = int(np.count_nonzero(self.states == PARTIAL))
        q_len = [q1 - q0 for q0, q1 in self._q_bounds]
        k_len = [k1 - k0 for k0, k1 in self._k_bounds]
        skipped = int(np.dot(np.dot(q_len, empty), k_len))
        self._tally = (
            self.states.size - n_empty - n_partial, n_partial, n_empty,
            len(self.q_idx) * len(self.k_idx) - skipped, skipped,
        )

    @classmethod
    def build(
        cls,
        mask: MaskPattern | None,
        q_idx: np.ndarray,
        k_idx: np.ndarray,
        block_q: int,
        block_k: int,
        *,
        bias_cache: BiasTileCache | None = None,
        assume_full: bool = False,
        head_slice: slice | None = None,
    ) -> "TilePlan":
        """Classify every sub-tile from the pattern's ``tile_state``.

        ``assume_full`` short-circuits classification when the caller
        already knows the whole shard pair is ``full`` (the shard-level
        fast path).  A pattern that carries an additive bias (ALiBi) has
        it resolved per sub-tile by :meth:`bias_tile`, through
        ``bias_cache`` when one is given.  The dense mask is never
        materialised.
        """
        q_idx = np.asarray(q_idx)
        k_idx = np.asarray(k_idx)
        q_bounds = _block_bounds(len(q_idx), block_q)
        k_bounds = _block_bounds(len(k_idx), block_k)
        states = np.full((len(q_bounds), len(k_bounds)), FULL, dtype=np.int8)
        if mask is not None and not assume_full:
            for i, (q0, q1) in enumerate(q_bounds):
                q_sub = q_idx[q0:q1]
                for j, (k0, k1) in enumerate(k_bounds):
                    states[i, j] = _STATE_CODE[
                        mask.tile_state(q_sub, k_idx[k0:k1])
                    ]
        has_bias = (
            mask is not None
            and mask.bias_block(q_idx[:1], k_idx[:1]) is not None
        )
        return cls(
            mask=mask, q_idx=q_idx, k_idx=k_idx,
            block_q=block_q, block_k=block_k, states=states,
            has_bias=has_bias,
            bias_cache=bias_cache if has_bias else None,
            head_slice=head_slice,
            _q_bounds=q_bounds, _k_bounds=k_bounds,
        )

    # -- geometry -------------------------------------------------------------

    @property
    def n_q_blocks(self) -> int:
        return len(self._q_bounds)

    @property
    def n_k_blocks(self) -> int:
        return len(self._k_bounds)

    def check_geometry(self, sq: int, sk: int) -> None:
        if len(self.q_idx) != sq or len(self.k_idx) != sk:
            raise ValueError(
                f"plan covers ({len(self.q_idx)}, {len(self.k_idx)}) tokens "
                f"but the kernel got ({sq}, {sk})"
            )

    def q_range(self, i: int) -> tuple[int, int]:
        return self._q_bounds[i]

    def k_range(self, j: int) -> tuple[int, int]:
        return self._k_bounds[j]

    # -- per-tile resolution --------------------------------------------------

    def state(self, i: int, j: int) -> int:
        return int(self.states[i, j])

    def mask_tile(self, i: int, j: int) -> np.ndarray:
        """Boolean tile for a ``PARTIAL`` sub-tile (the only kind that
        ever materialises one).  Memoised so the backward pass (and any
        repeated traversal) reuses the forward's tiles instead of
        re-evaluating the pattern."""
        tile = self._mask_tiles.get((i, j))
        if tile is None:
            q0, q1 = self._q_bounds[i]
            k0, k1 = self._k_bounds[j]
            tile = self.mask.block(self.q_idx[q0:q1], self.k_idx[k0:k1])
            self._mask_tiles[(i, j)] = tile
        return tile

    def bias_tile(self, i: int, j: int) -> np.ndarray | None:
        if not self.has_bias:
            return None
        q0, q1 = self._q_bounds[i]
        k0, k1 = self._k_bounds[j]
        q_sub, k_sub = self.q_idx[q0:q1], self.k_idx[k0:k1]
        if self.bias_cache is not None:
            tile = self.bias_cache.get(self.mask, q_sub, k_sub)
        else:
            counters.add("bias_tiles_built")
            tile = self.mask.bias_block(q_sub, k_sub)
        if tile is not None and self.head_slice is not None:
            tile = tile[self.head_slice]
        return tile

    def with_head_slice(self, head_slice: slice) -> "TilePlan":
        """Shallow copy selecting a head range of the bias (Ulysses ranks
        share one plan and bias cache but see different head groups)."""
        return TilePlan(
            mask=self.mask, q_idx=self.q_idx, k_idx=self.k_idx,
            block_q=self.block_q, block_k=self.block_k, states=self.states,
            has_bias=self.has_bias, bias_cache=self.bias_cache,
            head_slice=head_slice,
            _q_bounds=self._q_bounds, _k_bounds=self._k_bounds,
            _mask_tiles=self._mask_tiles,
        )

    # -- accounting -----------------------------------------------------------

    @property
    def num_tiles(self) -> int:
        return int(self.states.size)

    @property
    def num_empty(self) -> int:
        return self._tally[2]

    @property
    def num_full(self) -> int:
        return self._tally[0]

    @property
    def num_partial(self) -> int:
        return self._tally[1]

    @property
    def skip_fraction(self) -> float:
        return self.num_empty / self.num_tiles if self.num_tiles else 0.0

    def pair_counts(self) -> tuple[int, int]:
        """``(computed_pairs, skipped_pairs)`` summed over sub-tiles."""
        return self._tally[3:]

    def tally(self) -> None:
        """Account one kernel invocation over this plan in
        :data:`counters` — once, instead of per sub-tile inside the
        kernels' hot loops."""
        for name, n in zip(_TILE_FIELDS, self._tally):
            counters.add(name, n)


def record_shard_skip(n_q: int, n_k: int, block_q: int, block_k: int) -> None:
    """Account a whole shard pair skipped at the shard-level fast path as
    if its plan had classified every sub-tile empty."""
    n_qb = -(-n_q // block_q)
    n_kb = -(-n_k // block_k)
    counters.add("skipped_empty", n_qb * n_kb)
    counters.add("skipped_pairs", n_q * n_k)


# --- reusable kernel scratch --------------------------------------------------


class KernelWorkspace:
    """Preallocated scratch buffers keyed by ``(name, shape, dtype)``.

    One workspace is created per distributed pass (or per autograd node)
    and handed to every kernel invocation, so the score/probability/grad
    tiles are allocated once and reused across sub-tiles, ring steps and
    ranks instead of churning ``O(tiles)`` temporaries.  All writes fully
    overwrite a buffer before it is read, so reuse never leaks state.
    """

    def __init__(self):
        self._bufs: dict = {}

    def buf(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key = (name, tuple(shape), np.dtype(dtype).str)
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
            from repro.obs.mem import transient_alloc

            # Account the miss on the transient watermark series; cached
            # buffers live for the workspace's lifetime, so the handle is
            # intentionally never freed (reset_transients() drops it).
            transient_alloc(buf.nbytes, site=f"workspace.{name}")
        return buf

    def matmul(self, a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
        """``a @ b`` into a reused buffer of the broadcast result shape."""
        if a.shape[:-2] == b.shape[:-2]:
            shape = a.shape[:-1] + (b.shape[-1],)
        else:
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
                a.shape[-2], b.shape[-1]
            )
        return np.matmul(a, b, out=self.buf(name, shape))

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bufs.values())

    def __len__(self) -> int:
        return len(self._bufs)

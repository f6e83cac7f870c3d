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
  dense boolean mask is never materialised; boolean tiles exist only for
  ``partial`` stretches.  A plan is a pure function of ``(mask, q_idx,
  k_idx, tile geometry)``, so :meth:`TilePlan.build` memoises it on the
  mask instance: every pass, step and layer that meets the same shard
  pair gets the same plan object back.
* :func:`tile_size` derives the tile edge from the head-batched score
  tile the kernel will form, and :func:`run_width` the key extent of one
  key-loop iteration — the one place a tile-size literal lives.
* :func:`key_runs` turns a query block's classification into its key
  loop: *runs* of adjacent sub-tiles of one class, merged up to
  :func:`run_width` and, when ``partial``, trimmed to the key columns some
  query row sees.  The unit of kernel work follows the mask, not a square
  grid; a kernel iteration has a fixed cost (a few short NumPy calls) that
  a run pays once.  A run is *row groups x key window*: where a query
  block's rows split into equal groups that each read one window of a
  common width at a constant stride (a sliding-window block mask on
  blockwise or striped shards), :func:`banded_runs` records the block as
  one banded run ``(k0, stride, width, groups, mask)``; every other run
  is the one-group case.  The classification, and every tile counter, is
  untouched by how its tiles are walked.
* :class:`KernelWorkspace` keeps one grow-only scratch buffer per name
  (score, probability, grad tiles) so a ring pass reuses one set of
  buffers across all of its kernel invocations and run widths instead of
  allocating per iteration.
* :class:`BiasTileCache` memoises additive-bias tiles (ALiBi): the bias
  depends only on relative offsets, so contiguous runs with the same
  ``q0 - k0`` offset and shape share one tile no matter which shard pair,
  pass or step asked for it.
* :func:`allowed_pairs` counts the (query, key) pairs a mask allows over
  a rectangle from a classification of it (full sub-tiles' areas plus the
  popcount of the partial ones) — the recompute-FLOP tally's unit, without
  the dense mask.
* :data:`counters` tallies computed/skipped sub-tiles and (query, key)
  pairs, and the runs and pairs actually executed — the machine-readable
  numbers the step benchmark (``python3 -m benchmarks.step``) and the
  tile-count invariants in :mod:`repro.testing.invariants` consume.

A plan is the only way a :class:`~repro.masks.MaskPattern` reaches a
kernel: every attention call site builds one, none materialises a
shard-pair mask.  The plan-driven kernels are numerically identical to
the same kernels fed a dense ``mask=``/``bias=`` array, which forms its
runs through the same :func:`key_runs` from each sub-tile's ``any()`` /
``all()`` (full runs drop the ``where`` that a dense all-``True`` tile
would no-op through; empty tiles contribute nothing either way); the
dense-array form is kept as the oracle the golden fixtures and the
property tests compare against.
"""

from __future__ import annotations

import copy
import math
import weakref
from collections import OrderedDict
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
    "key_runs",
    "run_pairs",
    "bias_tiles_built",
    "bias_tiles_reused",
)


class TileCounters:
    """Global tally of sub-tile work the plan-driven kernels performed.

    ``computed_pairs``/``skipped_pairs`` count (query, key) *positions*
    inside computed/skipped sub-tiles — the unit the FLOP invariants tie
    to the :mod:`repro.perf.cost` closed forms.  Those fields count the
    *classification*; ``key_runs``/``run_pairs`` count the *execution*:
    key-loop iterations (:func:`key_runs`) and the score pairs they form,
    which column trimming puts between the mask's allowed pairs and
    ``computed_pairs``.

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


# --- tile geometry -------------------------------------------------------------

#: Largest derived tile edge — of the *query* side of a kernel iteration
#: and of the classification grid.  The key side grows past it by merging
#: sub-tiles into runs (RUN_TILE_ELEMS below); the measured curves are in
#: docs/performance_model.md, "Tile geometry".
MAX_TILE = 128
#: Smallest derived tile edge; below it the per-tile Python overhead wins.
MIN_TILE = 16
#: Elements of the largest head-batched float64 score tile (512 KiB; the
#: backward keeps two to three such tiles live) the host's cache holds.
SCORE_TILE_ELEMS = 1 << 16
#: Elements of the widest head-batched score tile one key-loop iteration
#: (a run of sub-tiles, :func:`key_runs`) forms: 512 keys for one head x
#: 128 rows, 128 keys for 8 heads x 64 rows.  2x and 4x were measured and
#: are no faster on the whole-sequence calls and cost peak RSS.
RUN_TILE_ELEMS = SCORE_TILE_ELEMS


def head_batch(q: np.ndarray) -> int:
    """Product of the leading (head) axes of a ``(..., S, D)`` array — how
    many score tiles one kernel GEMM forms at once."""
    return math.prod(q.shape[:-2])


def tile_size(block: int | None, batch: int, n_tokens: int) -> int:
    """Tile edge along an axis of ``n_tokens`` tokens.

    An explicit ``block`` is honoured as given; below 1 it would leave the
    plan without blocks, so it raises.  ``None`` derives it:
    FlashAttention's "size the tile to on-chip memory" — the largest power
    of two ``b <= MAX_TILE`` whose head-batched score tile
    ``batch * b * b`` fits :data:`SCORE_TILE_ELEMS`, at least
    :data:`MIN_TILE`, clipped to the axis.
    """
    if block is not None:
        if block < 1:
            raise ValueError(f"tile edge must be >= 1, got {block}")
        return block
    b = MAX_TILE
    while b > MIN_TILE and batch * b * b > SCORE_TILE_ELEMS:
        b //= 2
    return max(1, min(b, n_tokens))


def run_width(
    batch: int, block_q: int, block_k: int, n_q: int, n_k: int
) -> int:
    """Most keys one key-loop iteration spans: the widest run whose
    head-batched score tile ``batch * rows * keys`` fits
    :data:`RUN_TILE_ELEMS` — never less than one sub-tile, clipped to the
    axis (so every batch that lets a run span the whole axis shares a
    plan)."""
    rows = max(1, min(block_q, n_q))
    return min(max(block_k, RUN_TILE_ELEMS // (batch * rows)), n_k)


def key_runs(states, k_bounds, max_keys: int, mask_of) -> list[tuple]:
    """The key loop of one query block: ``(k0, k1, mask)`` per iteration.

    ``states[j]`` classifies the block's ``j``-th sub-tile, which spans
    keys ``k_bounds[j]``.  A run is a maximal stretch of adjacent sub-tiles
    of one class — ``FULL`` (``mask`` ``None``) or ``PARTIAL`` — at most
    ``max_keys`` wide unless it is a single sub-tile; ``EMPTY`` sub-tiles
    end a run and belong to none.  ``mask_of(j0, j1)`` is the boolean tile
    of the ``PARTIAL`` stretch ``[j0, j1)``; the run keeps the columns
    between the first and the last key some query row sees (a column
    nobody sees contributes ``p = 0`` exactly).  The plan and the kernels'
    dense-mask oracle both form their runs here, which is what keeps them
    bitwise equal.
    """
    runs = []
    j, n = 0, len(states)
    while j < n:
        state = states[j]
        j0, k0 = j, k_bounds[j][0]
        j += 1
        if state == EMPTY:
            continue
        while j < n and states[j] == state and k_bounds[j][1] - k0 <= max_keys:
            j += 1
        if state == FULL:
            runs.append((k0, k_bounds[j - 1][1], None))
            continue
        m = mask_of(j0, j)
        seen = np.flatnonzero(m.any(axis=tuple(range(m.ndim - 1))))
        first, stop = int(seen[0]), int(seen[-1]) + 1
        runs.append((k0 + first, k0 + stop, m[..., first:stop]))
    return runs


def banded_runs(
    runs: list[tuple], n_rows: int, max_keys: int, band: bool = True
) -> list[tuple]:
    """One query block's key loop as ``(k0, stride, width, groups, mask)``
    runs: row group ``g`` reads keys ``[k0 + g * stride, +width)``.

    ``runs`` (:func:`key_runs`) become one-group runs — or, with ``band``
    and every run ``PARTIAL`` (no band narrows a ``FULL`` run), one
    *banded* run: of the splits into groups of ``n_rows / 2^t`` rows, each
    at the stride giving the narrowest common window at most ``max_keys``
    wide, the one forming the fewest pairs among those that save at least
    a ``MIN_TILE x MIN_TILE`` tile of pairs per group (a group's fixed
    cost: its GEMM calls and its share of the backward's window sums; at
    one token per mask block per rank no split does).  Its mask is
    ``(..., groups, h, width)``, ``False`` outside the runs' tiles.  The
    plan and the dense oracle both band here.
    """
    one = [(k0, 0, k1 - k0, 1, m) for k0, k1, m in runs]
    if not band or not runs or any(m is None for *_, m in runs):
        return one
    a, b = runs[0][0], runs[-1][1]
    lead = np.broadcast_shapes(*(m.shape[:-2] for *_, m in runs))
    vis = np.zeros(lead + (n_rows, b - a), dtype=bool)
    for k0, k1, m in runs:
        vis[..., k0 - a:k1 - a] = m
    seen = vis.any(axis=tuple(range(len(lead))))
    unbanded = n_rows * sum(k1 - k0 for k0, k1, _ in runs)
    formed, best = unbanded, None
    h = n_rows // 2
    while h >= 1:
        if n_rows % h == 0:
            grouped = seen.reshape(n_rows // h, h, b - a).any(axis=1)
            live = np.flatnonzero(grouped.any(axis=1))
            lo = grouped[live].argmax(axis=1)
            hi = b - a - grouped[live, ::-1].argmax(axis=1)
            strides = np.arange(1, b - a + 1)[:, None]
            start = (lo - strides * live).min(axis=1)
            width = (hi - strides * live).max(axis=1) - start
            t = int(width.argmin())
            pairs = n_rows * int(width[t])
            if width[t] <= max_keys and pairs < formed and (
                unbanded - pairs >= n_rows // h * MIN_TILE ** 2
            ):
                formed = pairs
                best = (a + int(start[t]), t + 1, int(width[t]), h)
        h //= 2
    if best is None:
        return one
    k0, stride, width, h = best
    # A live group's window lies within `width` keys of [a, b); a dead
    # group's rows are all False wherever its (clipped) window falls.
    pad = np.zeros(lead + (n_rows, width), dtype=bool)
    vis = np.concatenate([pad, vis, pad], axis=-1)
    m = np.stack([
        vis[..., g * h:(g + 1) * h, c:c + width]
        for g in range(n_rows // h)
        for c in [min(max(k0 + g * stride - a + width, 0), b - a + width)]
    ], axis=-3)
    return [(k0, stride, width, n_rows // h, None if m.all() else m)]


def window_pad(rows, n_keys: int) -> int:
    """Keys the banded runs of ``rows`` reach past ``[0, n_keys)`` (their
    windows are summed back in whole strides): the zero margin the kernels
    lay key operands out with, 0 without bands."""
    return max(
        [0] + [
            max(-k0, k0 + (groups - 1 - -width // stride) * stride - n_keys)
            for row in rows for k0, stride, width, groups, _ in row
            if groups > 1
        ]
    )


# --- bias tile cache ----------------------------------------------------------


class BiasTileCache:
    """Memoises additive-bias tiles across shard pairs, passes and steps.

    A pattern opts in through :meth:`~repro.masks.MaskPattern.bias_cache_key`
    (ALiBi keys tiles by ``(q0 - k0, len_q, len_k)`` — its bias depends
    only on relative offsets).  Patterns returning ``None`` keys are
    recomputed every time, so the cache is always sound.  It lives as long
    as its mask does, so it is bounded: past ``MAX_BYTES`` the least
    recently used tiles go.
    """

    MAX_BYTES = 32 << 20

    def __init__(self):
        self._tiles: OrderedDict = OrderedDict()
        self._nbytes = 0

    def get(
        self, mask: MaskPattern, q_idx: np.ndarray, k_idx: np.ndarray
    ) -> np.ndarray | None:
        key = mask.bias_cache_key(q_idx, k_idx)
        if key is None:
            counters.add("bias_tiles_built")
            return mask.bias_block(q_idx, k_idx)
        tile = self._tiles.get(key)
        if tile is not None:
            self._tiles.move_to_end(key)
            counters.add("bias_tiles_reused")
            return tile
        tile = mask.bias_block(q_idx, k_idx)
        counters.add("bias_tiles_built")
        self._tiles[key] = tile
        self._nbytes += tile.nbytes
        while self._nbytes > self.MAX_BYTES and len(self._tiles) > 1:
            self._nbytes -= self._tiles.popitem(last=False)[1].nbytes
        return tile

    def __len__(self) -> int:
        return len(self._tiles)


# --- the plan -----------------------------------------------------------------


def _block_bounds(n: int, block: int) -> list[tuple[int, int]]:
    return [(start, min(start + block, n)) for start in range(0, n, block)]


class _PlanTable:
    """Everything :meth:`TilePlan.build` has worked out for one mask
    instance: its plans by ``(index bytes, tile geometry)``, their runs'
    boolean tiles interned by content (the causal diagonals of a striped
    or zigzag partition are two distinct tiles in total) and the one
    :class:`BiasTileCache`.  Stored on the mask, so it dies with it.

    Bounded: a ring over ``G`` ranks meets ``G * G`` shard pairs, while a
    decoding loop asks for a new geometry every token — past ``MAX_PLANS``
    the oldest plan goes, and a tile no live plan holds goes with it.
    """

    MAX_PLANS = 1024

    def __init__(self):
        self.plans: dict[tuple, TilePlan] = {}
        self.tiles = weakref.WeakValueDictionary()
        self.bias = BiasTileCache()
        #: :func:`allowed_pairs` by ``(n_q, n_k)``.
        self.allowed: dict[tuple[int, int], int] = {}

    def put(self, key: tuple, plan: "TilePlan") -> None:
        self.plans[key] = plan
        if len(self.plans) > self.MAX_PLANS:
            del self.plans[next(iter(self.plans))]

    def intern(self, tile: np.ndarray) -> np.ndarray:
        key = (tile.shape, tile.tobytes())
        shared = self.tiles.get(key)
        if shared is None:
            tile.flags.writeable = False
            self.tiles[key] = shared = tile
        return shared


def _plan_table(mask: MaskPattern) -> _PlanTable:
    """``mask``'s table, created on first use and stored on the instance."""
    try:
        return mask._tile_plans
    except AttributeError:
        table = mask._tile_plans = _PlanTable()
        return table


def allowed_pairs(mask: MaskPattern | None, n_q: int, n_k: int) -> int:
    """(query, key) pairs ``mask`` allows between the first ``n_q`` queries
    and the first ``n_k`` keys — the unit of the recompute-FLOP tally.

    Read off a classification of that rectangle at :data:`MAX_TILE`
    (:attr:`TilePlan.allowed_pairs`), so the count costs one boolean tile
    per *partial* sub-tile and never a dense ``n_q x n_k`` mask; memoised
    on the mask instance.
    """
    if mask is None:
        return n_q * n_k
    table = _plan_table(mask)
    count = table.allowed.get((n_q, n_k))
    if count is None:
        count = table.allowed[(n_q, n_k)] = TilePlan._classify(
            mask, np.arange(n_q), np.arange(n_k),
            MAX_TILE, MAX_TILE, MAX_TILE, table, band=False,
        ).allowed_pairs
    return count


@dataclass(eq=False)
class TilePlan:
    """Sub-tile classification of one (query-shard, key-shard) pair, and
    the key loop it implies.

    Built once per ``(mask, shard pair, tile geometry)`` and shared by
    every kernel invocation that meets it; consumed by
    :func:`repro.kernels.flash_attention_forward` /
    :func:`~repro.kernels.flash_attention_backward`, which walk each query
    block's runs (:meth:`row`): ``FULL`` runs without any mask handling,
    ``PARTIAL`` ones under their boolean tile, ``EMPTY`` sub-tiles never.
    """

    mask: MaskPattern | None
    q_idx: np.ndarray
    k_idx: np.ndarray
    block_q: int
    block_k: int
    #: Most keys one run spans (:func:`run_width`).
    run_keys: int
    states: np.ndarray  # (n_q_blocks, n_k_blocks) int8 of EMPTY/PARTIAL/FULL
    #: The mask's bias-tile cache; ``None`` for a bias-free pattern.
    bias_cache: BiasTileCache | None = None
    head_slice: slice | None = None
    _q_bounds: list[tuple[int, int]] = field(default_factory=list, repr=False)
    _k_bounds: list[tuple[int, int]] = field(default_factory=list, repr=False)
    #: Per q-block, the runs a kernel walks (:func:`banded_runs`):
    #: ``(k0, stride, width, groups, mask or None)``.
    _rows: list[list[tuple]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        # The classification and the work list are static, so one kernel
        # invocation's accounting is known here: (full, partial, empty,
        # computed pairs, skipped pairs, runs, run pairs), in the order of
        # ``_TILE_FIELDS[:7]``.
        empty = self.states == EMPTY
        n_empty = int(np.count_nonzero(empty))
        n_partial = int(np.count_nonzero(self.states == PARTIAL))
        q_len = [q1 - q0 for q0, q1 in self._q_bounds]
        k_len = [k1 - k0 for k0, k1 in self._k_bounds]
        skipped = int(np.dot(np.dot(q_len, empty), k_len))
        self._tally = (
            self.states.size - n_empty - n_partial, n_partial, n_empty,
            len(self.q_idx) * len(self.k_idx) - skipped, skipped,
            sum(len(row) for row in self._rows),
            sum(
                rows * run[2]
                for rows, row in zip(q_len, self._rows) for run in row
            ),
        )
        #: (query, key) pairs the mask allows over this shard pair: the
        #: area of every ``FULL`` run plus the popcount of every
        #: ``PARTIAL`` run's boolean tile (trimmed columns allow nothing).
        self.allowed_pairs = sum(
            rows * run[2] if run[4] is None else int(np.count_nonzero(run[4]))
            for rows, row in zip(q_len, self._rows) for run in row
        )
        #: Zero key columns the kernels lay their operands out with on
        #: either side (:func:`window_pad`).
        self.margin = window_pad(self._rows, len(self.k_idx))

    @classmethod
    def build(
        cls,
        mask: MaskPattern | None,
        q_idx: np.ndarray,
        k_idx: np.ndarray,
        block_q: int | None = None,
        block_k: int | None = None,
        *,
        batch: int = 1,
    ) -> "TilePlan":
        """The plan of ``mask`` over one shard pair — classified on the
        first call, the same object on every later one.

        ``block_q`` / ``block_k`` left ``None`` are derived by
        :func:`tile_size` from ``batch``, the :func:`head_batch` of the
        queries the kernel will be handed, and so is the width of a run
        (:func:`run_width`).  The memo lives on ``mask``
        (:class:`_PlanTable`), keyed on the index arrays' bytes and the
        tile geometry; ``mask=None`` plans (all ``FULL``) are not kept.
        """
        q_idx = np.asarray(q_idx, dtype=np.int64)
        k_idx = np.asarray(k_idx, dtype=np.int64)
        block_q = tile_size(block_q, batch, len(q_idx))
        block_k = tile_size(block_k, batch, len(k_idx))
        geometry = (
            block_q, block_k,
            run_width(batch, block_q, block_k, len(q_idx), len(k_idx)),
        )
        if mask is None:
            return cls._classify(None, q_idx, k_idx, *geometry, None)
        table = _plan_table(mask)
        key = (q_idx.tobytes(), k_idx.tobytes(), *geometry)
        plan = table.plans.get(key)
        if plan is None:
            # The plan keeps its own read-only view of the indices (the
            # key's bytes), so a caller reusing its arrays cannot stale it.
            plan = cls._classify(
                mask, np.frombuffer(key[0], dtype=np.int64),
                np.frombuffer(key[1], dtype=np.int64),
                *geometry, table,
            )
            table.put(key, plan)
        return plan

    @classmethod
    def _classify(
        cls,
        mask: MaskPattern | None,
        q_idx: np.ndarray,
        k_idx: np.ndarray,
        block_q: int,
        block_k: int,
        run_keys: int,
        table: _PlanTable | None,
        band: bool = True,
    ) -> "TilePlan":
        """Classify every sub-tile from the pattern's ``tile_state``: the
        whole shard pair first (an ``empty`` or ``full`` pair needs no
        per-tile work), then per sub-tile.  ``tile_state`` may be
        conservative, so every ``PARTIAL`` verdict is checked against the
        boolean tile it would run under and downgraded when that tile is
        all-``False`` / all-``True`` — ``PARTIAL`` means partial.  The
        dense shard-pair mask is never materialised; the boolean tiles of
        a ``PARTIAL`` run are joined, trimmed (:func:`key_runs`), banded
        where that forms fewer pairs (:func:`banded_runs`; never under a
        bias, nor with ``band=False``: a count of the allowed pairs needs
        no bands) and interned by content."""
        q_bounds = _block_bounds(len(q_idx), block_q)
        k_bounds = _block_bounds(len(k_idx), block_k)
        states = np.full((len(q_bounds), len(k_bounds)), FULL, dtype=np.int8)
        tiles: dict = {}
        shard = "full" if mask is None else mask.tile_state(q_idx, k_idx)
        if shard == "empty":
            states[:] = EMPTY
        elif shard == "partial":
            for i, (q0, q1) in enumerate(q_bounds):
                q_sub = q_idx[q0:q1]
                for j, (k0, k1) in enumerate(k_bounds):
                    k_sub = k_idx[k0:k1]
                    state = _STATE_CODE[mask.tile_state(q_sub, k_sub)]
                    if state == PARTIAL:
                        tile = mask.block(q_sub, k_sub)
                        if not tile.any():
                            state = EMPTY
                        elif tile.all():
                            state = FULL
                        else:
                            tiles[(i, j)] = tile
                    states[i, j] = state
        has_bias = (
            mask is not None
            and mask.bias_block(q_idx[:1], k_idx[:1]) is not None
        )
        rows = []
        for i, row_states in enumerate(states.tolist()):
            def joined(j0: int, j1: int) -> np.ndarray:
                return np.concatenate(
                    [tiles[(i, j)] for j in range(j0, j1)], axis=-1
                )

            runs = key_runs(row_states, k_bounds, run_keys, joined)
            rows.append([
                (*run[:4], run[4] if run[4] is None else table.intern(
                    np.ascontiguousarray(run[4])
                ))
                for run in banded_runs(
                    runs, q_bounds[i][1] - q_bounds[i][0], run_keys,
                    band and not has_bias,
                )
            ])
        return cls(
            mask=mask, q_idx=q_idx, k_idx=k_idx,
            block_q=block_q, block_k=block_k, run_keys=run_keys,
            states=states,
            bias_cache=table.bias if has_bias else None,
            _q_bounds=q_bounds, _k_bounds=k_bounds, _rows=rows,
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

    def row(self, i: int) -> list[tuple]:
        """The runs of q-block ``i`` (:func:`banded_runs`), in key order:
        ``(k0, stride, width, groups, boolean tile)``.  The tile is
        ``None`` when every pair is visible; otherwise it is read-only and
        shared with every plan of the same mask that has a run of the same
        content."""
        return self._rows[i]

    def bias_tile(self, i: int, k0: int, k1: int) -> np.ndarray | None:
        """Additive bias of q-block ``i`` against keys ``[k0, k1)`` — one
        run's worth, cached by the pattern's relative-offset key."""
        if self.bias_cache is None:
            return None
        q0, q1 = self._q_bounds[i]
        tile = self.bias_cache.get(
            self.mask, self.q_idx[q0:q1], self.k_idx[k0:k1]
        )
        if tile is not None and self.head_slice is not None:
            tile = tile[self.head_slice]
        return tile

    def with_head_slice(self, head_slice: slice) -> "TilePlan":
        """Shallow copy selecting a head range of the bias (Ulysses ranks
        share one plan and bias cache but see different head groups)."""
        view = copy.copy(self)
        view.head_slice = head_slice
        return view

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
        return self._tally[3:5]

    def tally(self) -> None:
        """Account one kernel invocation over this plan in
        :data:`counters` — once, instead of per sub-tile inside the
        kernels' hot loops.  A shard pair skipped outright is accounted
        the same way: its plan classified every sub-tile empty."""
        for name, n in zip(_TILE_FIELDS, self._tally):
            counters.add(name, n)


# --- reusable kernel scratch --------------------------------------------------


class KernelWorkspace:
    """Reusable kernel scratch: one grow-only flat buffer per ``name``.

    One workspace is created per distributed pass (or per autograd node)
    and handed to every kernel invocation, so the score/probability/grad
    tiles are allocated once and reused across runs, ring steps and ranks
    instead of churning ``O(tiles)`` temporaries.  A request is served as
    a view of the name's buffer, which only ever grows to the largest
    request — run widths vary with the mask, and a buffer per shape would
    multiply the scratch.  All writes fully overwrite a view before it is
    read, so reuse never leaks state.  Each buffer is on the transient
    watermark until a larger one replaces it or the owner releases the
    workspace (:meth:`release`).
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}
        self._handles: dict[str, int] = {}

    def buf(self, name: str, shape: tuple) -> np.ndarray:
        n = math.prod(shape)
        flat = self._bufs.get(name)
        if flat is None or flat.size < n:
            from repro.obs.mem import transient_alloc, transient_free

            stale = self._handles.get(name)
            flat = self._bufs[name] = np.empty(n, dtype=np.float64)
            self._handles[name] = transient_alloc(
                flat.nbytes, site=f"workspace.{name}"
            )
            if stale is not None:
                transient_free(stale)
        return flat[:n].reshape(shape)

    def matmul(self, a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
        """``a @ b`` into the ``name`` buffer, shaped as the broadcast
        result."""
        if a.shape[:-2] == b.shape[:-2]:
            shape = a.shape[:-1] + (b.shape[-1],)
        else:
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
                a.shape[-2], b.shape[-1]
            )
        return np.matmul(a, b, out=self.buf(name, shape))

    def release(self) -> None:
        """The owner is done with it: every buffer leaves the watermark."""
        from repro.obs.mem import transient_free

        for handle in self._handles.values():
            transient_free(handle)
        self._bufs.clear()
        self._handles.clear()

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bufs.values())

    def __len__(self) -> int:
        return len(self._bufs)

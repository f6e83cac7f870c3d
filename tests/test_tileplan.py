"""Tile planning: plan-driven kernels vs the dense-mask reference.

The TilePlan path changes *how* the flash kernels see the mask (per-block
classification, partial tiles, skipped empties, workspace reuse) but
must not change a single bit of the numerics.  These tests pin that:

* property tests draw random ``BlockSparseMask`` configurations and
  zigzag/striped shard pairs — including uneven block edges and GQA-shaped
  batches — and require exact agreement with the dense-mask kernels;
* the causal acceptance floor (>= 40 % of sub-tiles skipped) is asserted;
* a plan is built once per ``(mask, shard pair, tile size)``: the memo on
  the mask instance, its lifetime and its bounds;
* the derived tile size (``tile_size``) and a distributed run at it, at a
  length where the derived tile is not the whole shard.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    EMPTY,
    FULL,
    PARTIAL,
    KernelWorkspace,
    TilePlan,
    counters,
    flash_attention_backward,
    flash_attention_forward,
    tile_size,
)
from repro.masks import (
    ALiBiMask,
    BlockSparseMask,
    CausalMask,
    DilatedMask,
    SlidingWindowMask,
    sliding_window_block_mask,
)
from repro.partition import (
    BlockwisePartitioner,
    ContiguousPartitioner,
    StripedPartitioner,
    ZigzagPartitioner,
)


def _dense_for(mask, q_idx, k_idx):
    return mask.block(q_idx, k_idx)


def _run_both(q, k, v, do, mask, q_idx, k_idx, block_q, block_k):
    """Dense-path and plan-path fwd+bwd outputs for one shard pair."""
    dense = mask.block(q_idx, k_idx)
    bias = mask.bias_block(q_idx, k_idx)
    o0, l0 = flash_attention_forward(
        q, k, v, mask=dense, bias=bias, block_q=block_q, block_k=block_k
    )
    g0 = flash_attention_backward(
        q, k, v, o0, l0, do, mask=dense, bias=bias,
        block_q=block_q, block_k=block_k,
    )
    plan = TilePlan.build(mask, q_idx, k_idx, block_q, block_k)
    ws = KernelWorkspace()
    o1, l1 = flash_attention_forward(q, k, v, plan=plan, workspace=ws)
    g1 = flash_attention_backward(
        q, k, v, o1, l1, do, plan=plan, workspace=ws
    )
    return (o0, l0, *g0), (o1, l1, *g1), plan


def _runs(plan, i):
    """Query block ``i``'s runs as ``(k0, k1, mask)``: a banded run
    ``(k0, stride, width, groups, mask)`` reads as its first group's
    window."""
    return [(k0, k0 + width, m) for k0, _, width, _, m in plan.row(i)]


def _check_band(plan, i):
    """A banded row: one run, equal row groups, every key a row sees
    inside its group's window, the mask exactly the visibility there and
    ``False`` past either end of the shard."""
    (k0, stride, width, groups, m), = plan.row(i)
    q0, q1 = plan.q_range(i)
    visible = plan.mask.block(plan.q_idx[q0:q1], plan.k_idx)
    h, n_k = (q1 - q0) // groups, len(plan.k_idx)
    assert groups * h == q1 - q0 and groups > 1 and stride >= 1
    covered = np.zeros_like(visible)
    for g in range(groups):
        lo = k0 + g * stride
        keys = np.arange(lo, lo + width)
        inside = (keys >= 0) & (keys < n_k)
        want = np.zeros((h, width), dtype=bool)
        want[:, inside] = visible[g * h:(g + 1) * h, keys[inside]]
        got = np.ones((h, width), dtype=bool) if m is None else m[g]
        np.testing.assert_array_equal(got, want)
        covered[g * h:(g + 1) * h, keys[inside]] = True
    assert not (visible & ~covered).any()
    # the kernels' backward sums the windows back in whole strides
    reach = k0 + (groups - 1 - -width // stride) * stride
    assert -k0 <= plan.margin and reach <= n_k + plan.margin


def _check_row(plan, i, batch):
    """Every property a query block's run list promises."""
    from repro.kernels.tileplan import RUN_TILE_ELEMS

    if any(run[3] > 1 for run in plan.row(i)):
        return _check_band(plan, i)
    q0, q1 = plan.q_range(i)
    q_sub = plan.q_idx[q0:q1]
    visible = plan.mask.block(q_sub, plan.k_idx)
    tile_of = np.empty(len(plan.k_idx), dtype=np.int64)
    for j in range(plan.n_k_blocks):
        tile_of[slice(*plan.k_range(j))] = j
    covered = np.zeros(len(plan.k_idx), dtype=bool)
    end = 0
    for k0, k1, m in _runs(plan, i):
        assert end <= k0 < k1  # in key order, disjoint, non-empty
        end = k1
        covered[k0:k1] = True
        spanned = np.unique(tile_of[k0:k1])
        want = FULL if m is None else PARTIAL
        # never across an EMPTY tile, never mixing classes
        assert {plan.state(i, j) for j in spanned} == {want}
        if len(spanned) > 1:
            width = plan.k_range(spanned[-1])[1] - plan.k_range(spanned[0])[0]
            assert width <= plan.run_keys
            assert batch * (q1 - q0) * width <= RUN_TILE_ELEMS
        if m is None:
            assert visible[:, k0:k1].all()
        else:
            np.testing.assert_array_equal(
                m, plan.mask.block(q_sub, plan.k_idx[k0:k1])
            )
            assert m[:, 0].any() and m[:, -1].any()
            assert m.dtype == bool and not m.flags.writeable
    # The runs partition the non-EMPTY sub-tiles minus trimmed columns,
    # and a trimmed column is one no query row of the block sees.
    computed = (plan.states[i] != EMPTY)[tile_of]
    assert not (covered & ~computed).any()
    assert not visible[:, computed & ~covered].any()
    assert not visible[:, ~computed].any()


def _check_plan(plan, batch=1):
    for i in range(plan.n_q_blocks):
        _check_row(plan, i, batch)
        # Maximal: two FULL runs that touch could not have been one.
        runs = _runs(plan, i)
        for (a0, a1, am), (b0, b1, bm) in zip(runs, runs[1:]):
            if am is None and bm is None and a1 == b0:
                first = min(
                    plan.k_range(j)[1] for j in range(plan.n_k_blocks)
                    if plan.k_range(j)[1] > b0
                )
                assert first - a0 > plan.run_keys


class TestKeyRuns:
    """``TilePlan.row`` lists runs: maximal stretches of adjacent computed
    sub-tiles of one class, inside a budget on the head-batched score tile,
    ``PARTIAL`` ones trimmed to the keys some query row sees."""

    @pytest.mark.parametrize("batch", [1, 64, 256, 4096])
    def test_random_block_sparse(self, batch):
        rng = np.random.default_rng(batch)
        for _ in range(6):
            n_blocks, mask_block = rng.integers(2, 7), rng.choice([8, 12, 16])
            mask = BlockSparseMask(
                int(mask_block), rng.random((n_blocks, n_blocks)) > 0.4,
                intra_block_causal=bool(rng.integers(2)),
            )
            idx = np.arange(n_blocks * mask_block)
            block_q, block_k = (int(b) for b in rng.choice([8, 16, 24], 2))
            plan = TilePlan.build(
                mask, idx, idx, block_q, block_k, batch=batch
            )
            _check_plan(plan, batch)

    @pytest.mark.parametrize(
        "partitioner",
        [ZigzagPartitioner(), StripedPartitioner(), BlockwisePartitioner(8)],
        ids=["zigzag", "striped", "blockwise"],
    )
    @pytest.mark.parametrize(
        "mask", [CausalMask(), SlidingWindowMask(24), ALiBiMask(2)],
        ids=["causal", "sliding-window", "alibi"],
    )
    def test_shard_pairs(self, partitioner, mask):
        idxs = partitioner.indices(256, 4)
        interned = {}
        for batch in (1, 128):  # a run spans the shard / two sub-tiles
            for q_idx in idxs:
                for k_idx in idxs:
                    plan = TilePlan.build(mask, q_idx, k_idx, 16, 16,
                                          batch=batch)
                    assert plan.run_keys == (64 if batch == 1 else 32)
                    _check_plan(plan, batch)
                    for i in range(plan.n_q_blocks):
                        for _, _, m in _runs(plan, i):
                            if m is not None:
                                key = (m.shape, m.tobytes())
                                assert interned.setdefault(key, m) is m

    def test_ragged_edges_and_a_budget_below_one_tile(self):
        idx = np.arange(100)  # 100 = 3 * 32 + 4 = 4 * 24 + 4
        for block_q, block_k, batch, want in (
            (32, 24, 1, 100), (32, 24, 64, 32), (24, 32, 4096, 32),
        ):
            plan = TilePlan.build(
                SlidingWindowMask(40), idx, idx, block_q, block_k,
                batch=batch,
            )
            assert plan.run_keys == want
            _check_plan(plan, batch)
        # 4096 heads x 24 rows leave 0 keys of budget: one sub-tile a run.
        assert sum(len(plan.row(i)) for i in range(plan.n_q_blocks)) == (
            plan.num_full + plan.num_partial
        )

    def test_trimmed_columns_and_merged_tiles_at_the_window_edge(self):
        """A 24-token window against 16-wide tiles: the two PARTIAL tiles
        at the window's edges are separated by a FULL one, or adjacent and
        merged; either way the run stops where the window does."""
        idx = np.arange(128)
        plan = TilePlan.build(SlidingWindowMask(24), idx, idx, 16, 16)
        _check_plan(plan)
        for i in range(2, plan.n_q_blocks):
            q0, q1 = plan.q_range(i)
            runs = _runs(plan, i)
            # visible keys of the block: [q0 - 23, q1)
            assert runs[0][0] == q0 - 23 and runs[-1][1] == q1
            assert sum(k1 - k0 for k0, k1, _ in runs) == 16 + 23
        counters.reset()
        plan.tally()
        assert counters.key_runs < plan.num_full + plan.num_partial
        assert counters.run_pairs < counters.computed_pairs

    def test_head_slice_views_and_memo_hits_share_the_runs(self):
        mask = ALiBiMask(4)
        idx = np.arange(64)
        plan = TilePlan.build(mask, idx, idx, 16, 16)
        view = plan.with_head_slice(slice(2, 4))
        again = TilePlan.build(mask, idx.copy(), idx.copy(), 16, 16)
        assert again is plan
        for i in range(plan.n_q_blocks):
            assert view.row(i) is plan.row(i)
        k0, k1, _ = _runs(plan, 1)[0]
        np.testing.assert_array_equal(
            view.bias_tile(1, k0, k1), plan.bias_tile(1, k0, k1)[2:4]
        )

    def test_run_width_is_geometry_and_part_of_the_memo_key(self):
        from repro.kernels.tileplan import RUN_TILE_ELEMS, run_width

        assert run_width(1, 128, 128, 2048, 2048) == RUN_TILE_ELEMS // 128
        assert run_width(8, 64, 64, 256, 256) == max(
            64, RUN_TILE_ELEMS // (8 * 64)
        )
        assert run_width(8, 64, 64, 256, 100) == 100  # clipped to the axis
        assert run_width(1 << 20, 64, 64, 256, 256) == 64  # >= one sub-tile
        mask, idx = CausalMask(), np.arange(256)
        narrow = TilePlan.build(mask, idx, idx, 16, 16, batch=256)
        wide = TilePlan.build(mask, idx, idx, 16, 16, batch=64)
        assert narrow is not wide
        assert (narrow.run_keys, wide.run_keys) == (16, 64)
        np.testing.assert_array_equal(narrow.states, wide.states)
        # Any batch that lets a run span the axis is the same plan.
        assert TilePlan.build(mask, idx, idx, 16, 16, batch=2) is (
            TilePlan.build(mask, idx, idx, 16, 16, batch=1)
        )


class TestPlanClassification:
    def test_states_never_contradict_dense_tiles(self):
        mask = CausalMask()
        idx = np.arange(96)
        plan = TilePlan.build(mask, idx, idx, 32, 32)
        for i in range(plan.n_q_blocks):
            for j in range(plan.n_k_blocks):
                q0, q1 = plan.q_range(i)
                k0, k1 = plan.k_range(j)
                tile = _dense_for(mask, idx[q0:q1], idx[k0:k1])
                state = plan.state(i, j)
                if state == FULL:
                    assert tile.all()
                elif state == EMPTY:
                    assert not tile.any()
                else:
                    assert state == PARTIAL

    def test_causal_contiguous_census(self):
        plan = TilePlan.build(CausalMask(), np.arange(128), np.arange(128),
                              32, 32)
        # 4x4 grid: diagonal partial, below full, above empty.
        assert plan.num_partial == 4
        assert plan.num_full == 6
        assert plan.num_empty == 6

    def test_full_or_empty_shard_pair_short_circuits(self):
        """A shard pair the pattern calls full (empty) as a whole is
        classified without a single per-tile ``tile_state`` call."""
        class Counting(CausalMask):
            calls = 0

            def tile_state(self, q_idx, k_idx):
                self.calls += 1
                return super().tile_state(q_idx, k_idx)

        mask = Counting()
        late, early = np.arange(64, 96), np.arange(0, 32)
        plan = TilePlan.build(mask, late, early, 8, 8)
        assert plan.num_full == plan.num_tiles == 16
        plan = TilePlan.build(mask, early, late, 8, 8)
        assert plan.num_empty == plan.num_tiles == 16
        assert mask.calls == 2

    def test_uneven_edges_cover_all_tokens(self):
        idx = np.arange(100)  # not a multiple of the 32-block
        plan = TilePlan.build(CausalMask(), idx, idx, 32, 32)
        assert plan.q_range(plan.n_q_blocks - 1) == (96, 100)
        computed, skipped = plan.pair_counts()
        assert computed + skipped == 100 * 100

    def test_plan_rejects_mismatched_geometry(self):
        plan = TilePlan.build(CausalMask(), np.arange(64), np.arange(64),
                              16, 16)
        q = np.zeros((2, 32, 8))
        with pytest.raises(ValueError, match="plan covers"):
            flash_attention_forward(q, q, q, plan=plan)

    def test_plan_and_dense_mask_are_mutually_exclusive(self):
        idx = np.arange(32)
        plan = TilePlan.build(CausalMask(), idx, idx, 16, 16)
        q = np.zeros((2, 32, 8))
        with pytest.raises(ValueError, match="not both"):
            flash_attention_forward(
                q, q, q, mask=np.ones((32, 32), bool), plan=plan
            )


class TestPartialMeansPartial:
    """``tile_state`` may be conservative; a built plan is not: every
    ``PARTIAL`` sub-tile has both a visible and a hidden pair."""

    @pytest.mark.parametrize(
        "mask,conservative",
        [(SlidingWindowMask(2), True), (DilatedMask(2, window=1), False)],
        ids=["sliding-window", "dilated"],
    )
    def test_striped_shards_census_is_the_dense_census(
        self, mask, conservative
    ):
        idxs = StripedPartitioner().indices(64, 4)
        said_partial = planned_partial = 0
        for q_idx in idxs:
            for k_idx in idxs:
                plan = TilePlan.build(mask, q_idx, k_idx, 4, 4)
                for i in range(plan.n_q_blocks):
                    q_sub = q_idx[slice(*plan.q_range(i))]
                    for j in range(plan.n_k_blocks):
                        k_sub = k_idx[slice(*plan.k_range(j))]
                        tile = mask.block(q_sub, k_sub)
                        exact = (
                            FULL if tile.all()
                            else PARTIAL if tile.any() else EMPTY
                        )
                        assert plan.state(i, j) == exact
                        said_partial += (
                            mask.tile_state(q_sub, k_sub) == "partial"
                        )
                planned_partial += plan.num_partial
        # The window of 2 falls between the stride-4 differences of most
        # rank pairs: the interval test cannot see that, the plan does.
        assert (said_partial > planned_partial) == conservative
        if conservative:
            assert (said_partial, planned_partial) == (67, 35)

    def test_all_masked_shard_pair_is_skipped_not_computed(self):
        """Ranks 0 and 2 of a stride-4 partition never meet inside a
        window of 2: the pair's plan is all-empty and no kernel runs."""
        from repro.attention.ring import _resolve_tiles

        idxs = StripedPartitioner().indices(64, 4)
        mask = SlidingWindowMask(2)
        assert mask.tile_state(idxs[2], idxs[0]) == "partial"
        counters.reset()
        skip, plan = _resolve_tiles(
            mask, np.zeros((2, 16, 4)), idxs[2], idxs[0], 4
        )
        assert skip and plan is None
        assert counters.skipped_empty == 16 and counters.computed == 0
        assert counters.skipped_pairs == 16 * 16


class TestPlanMemo:
    """``TilePlan.build`` is a pure function of ``(mask, q_idx, k_idx,
    tile size)`` and is evaluated once per mask instance."""

    def test_equal_inputs_return_the_same_plan_object(self):
        mask = CausalMask()
        idx = ZigzagPartitioner().indices(64, 4)
        plan = TilePlan.build(mask, idx[1], idx[2], 8, 8)
        # Equal bytes, different array objects (and a list): one plan.
        assert TilePlan.build(mask, idx[1].copy(), idx[2].copy(), 8, 8) is plan
        assert TilePlan.build(mask, list(idx[1]), idx[2], 8, 8) is plan
        # The derived size that equals the explicit one is the same plan.
        assert tile_size(None, 1024, 16) == 16
        wide = TilePlan.build(mask, idx[1], idx[2], 16, 16)
        assert TilePlan.build(mask, idx[1], idx[2], batch=1024) is wide
        # Any of the four differing is a different plan.
        others = [
            TilePlan.build(mask, idx[2], idx[2], 8, 8),
            TilePlan.build(mask, idx[1], idx[1], 8, 8),
            TilePlan.build(mask, idx[1], idx[2], 4, 8),
            TilePlan.build(mask, idx[1], idx[2], 8, 4),
            TilePlan.build(CausalMask(), idx[1], idx[2], 8, 8),
            wide,
        ]
        assert len({id(p) for p in others + [plan]}) == len(others) + 1

    def test_plan_does_not_alias_the_callers_index_arrays(self):
        mask = CausalMask()
        q_idx, k_idx = np.arange(32, 64), np.arange(0, 32)
        plan = TilePlan.build(mask, q_idx, k_idx, 8, 8)
        q_idx[:] = 0  # the caller reuses its buffer
        assert plan.q_idx[0] == 32 and not plan.q_idx.flags.writeable
        assert TilePlan.build(mask, np.arange(32, 64), k_idx, 8, 8) is plan

    def test_equal_but_distinct_masks_share_nothing(self):
        idx = np.arange(32)
        a, b = SlidingWindowMask(8), SlidingWindowMask(8)
        plan_a = TilePlan.build(a, idx, idx, 8, 8)
        plan_b = TilePlan.build(b, idx, idx, 8, 8)
        assert plan_a is not plan_b
        assert plan_a.row(0)[0][4] is not plan_b.row(0)[0][4]
        np.testing.assert_array_equal(plan_a.states, plan_b.states)

    def test_table_dies_with_its_mask(self):
        mask = ALiBiMask(2)
        idx = np.arange(32)
        plan = TilePlan.build(mask, idx, idx, 8, 8)
        plan.bias_tile(1, 0, 8)
        refs = [
            weakref.ref(o)
            for o in (mask, plan, plan.bias_cache, plan.row(0)[0][4])
        ]
        del mask, plan
        gc.collect()
        assert [r() for r in refs] == [None] * 4

    def test_boolean_tiles_are_interned_by_content(self):
        """The causal diagonals of a zigzag partition: 16 shard pairs, two
        distinct boolean tiles in total (q ahead of k by a half-tile, or
        level with it)."""
        mask = CausalMask()
        idxs = ZigzagPartitioner().indices(128, 4)
        tiles = set()
        n_partial = 0
        for q_idx in idxs:
            for k_idx in idxs:
                plan = TilePlan.build(mask, q_idx, k_idx, 16, 16)
                n_partial += plan.num_partial
                tiles |= {
                    id(m) for i in range(plan.n_q_blocks)
                    for _, _, m in _runs(plan, i) if m is not None
                }
        assert n_partial > 2 and len(tiles) <= 2
        assert not plan.row(0)[0][4].flags.writeable

    def test_rows_list_exactly_the_non_empty_sub_tiles(self):
        """A row lists *runs* — merged, column-trimmed stretches of its
        non-``EMPTY`` sub-tiles — not one entry per sub-tile."""
        mask = sliding_window_block_mask(128, 16, 2)
        idx = np.arange(128)
        plan = TilePlan.build(mask, idx, idx, 16, 32)
        assert plan.run_keys == 128
        n_runs = 0
        for i in range(plan.n_q_blocks):
            _check_row(plan, i, batch=1)
            n_runs += len(plan.row(i))
        # A 2-block causal window over 16-row blocks and 32-key tiles: 11
        # PARTIAL tiles, the two a window straddles merged, each run
        # trimmed to the window's 32 keys (16 on the first row).
        assert (plan.num_full, plan.num_partial) == (0, 11)
        assert n_runs == 8
        assert [(k0, k1) for k0, k1, _ in _runs(plan, 0) + _runs(plan, 4)] == [
            (0, 16), (48, 80)
        ]
        counters.reset()
        plan.tally()
        assert counters.key_runs == n_runs
        assert mask.total_allowed(128) <= counters.run_pairs
        assert counters.run_pairs < counters.computed_pairs

    def test_table_stays_bounded_across_a_decoding_loop(self, monkeypatch):
        """``generate`` asks for a new geometry every token; the table
        keeps the newest ``MAX_PLANS`` and the tiles only they hold."""
        from repro.kernels.tileplan import _PlanTable
        from repro.nn import TransformerConfig, TransformerLM

        monkeypatch.setattr(_PlanTable, "MAX_PLANS", 8)
        mask = ALiBiMask(2)
        model = TransformerLM(TransformerConfig(
            vocab_size=17, dim=8, n_layers=2, n_heads=2, ffn_hidden=8,
            max_seq_len=80, mask=mask, attn_block_size=4,
        ))
        out = model.generate(np.arange(8), max_new_tokens=64)
        assert len(out) == 72
        table = mask._tile_plans
        assert len(table.plans) == 8
        gc.collect()
        live = {
            id(m) for p in table.plans.values()
            for i in range(p.n_q_blocks) for _, _, m in _runs(p, i)
            if m is not None
        }
        assert {id(t) for t in table.tiles.values()} == live
        assert table.bias._nbytes <= table.bias.MAX_BYTES

    def test_window_masks_are_interned_across_the_ring(self):
        """All 64 shard pairs of the full-length ``swa_bidir`` ring band;
        their 256 runs share 4 interned ``(groups, rows, width)`` masks —
        the plan table holds one ring's windows in 8 KiB."""
        n, g = 2048, 8
        mask = sliding_window_block_mask(n, 64, 4)
        idxs = BlockwisePartitioner(64).indices(n, g)
        plans = [
            TilePlan.build(mask, a, b, 64, 64, batch=8)
            for a in idxs for b in idxs
        ]
        runs = [
            run for p in plans for i in range(p.n_q_blocks) for run in p.row(i)
        ]
        assert len(runs) == 256 and all(run[3] == 8 for run in runs)
        tiles = mask._tile_plans.tiles
        assert {id(run[4]) for run in runs} == {id(t) for t in tiles.values()}
        assert len(tiles) == 4
        assert sum(t.nbytes for t in tiles.values()) <= 4 * 64 * 32

    def test_bias_cache_evicts_past_its_byte_budget(self, monkeypatch):
        from repro.kernels import BiasTileCache

        mask = ALiBiMask(2)
        # room for three (2 heads, 4, 4) float64 tiles
        monkeypatch.setattr(BiasTileCache, "MAX_BYTES", 3 * 2 * 4 * 4 * 8)
        cache = BiasTileCache()
        k_idx = np.arange(4)
        for q0 in range(0, 40, 4):
            cache.get(mask, np.arange(q0, q0 + 4), k_idx)
        assert len(cache) == 3
        counters.reset()
        cache.get(mask, np.arange(36, 40), k_idx)  # newest: still there
        cache.get(mask, np.arange(0, 4), k_idx)  # oldest: rebuilt
        assert (counters.bias_tiles_reused, counters.bias_tiles_built) == (1, 1)


class TestTileSizeRule:
    """``tile = min(128, largest power of two b with batch * b^2 <= 65536)``,
    at least 16, clipped to the axis; an explicit size always wins."""

    @pytest.mark.parametrize(
        "batch,n_tokens,want",
        [
            (1, 2048, 128), (2, 2048, 128), (4, 2048, 128), (8, 2048, 64),
            (16, 2048, 64), (64, 2048, 32), (256, 2048, 16),
            (4096, 2048, 16),  # the floor
            (1, 48, 48), (8, 48, 48), (64, 48, 32), (1, 1, 1),  # the clip
        ],
    )
    def test_derived(self, batch, n_tokens, want):
        assert tile_size(None, batch, n_tokens) == want

    def test_explicit_size_is_honoured_as_given(self):
        assert tile_size(8, 64, 2048) == 8
        assert tile_size(256, 64, 48) == 256  # neither capped nor clipped
        plan = TilePlan.build(CausalMask(), np.arange(48), np.arange(48), 128, 8)
        assert (plan.block_q, plan.block_k) == (128, 8)

    @pytest.mark.parametrize("block", [-8, 0])
    def test_non_positive_size_is_rejected(self, block):
        """A non-positive edge would leave the plan without blocks."""
        with pytest.raises(ValueError, match="tile edge"):
            tile_size(block, 8, 64)

    def test_kernels_and_plans_derive_from_the_head_batch(self):
        rng = np.random.default_rng(0)
        idx = np.arange(256)
        for heads, want in ((2, 128), (8, 64), (64, 32)):
            plan = TilePlan.build(CausalMask(), idx, idx, batch=heads)
            assert (plan.block_q, plan.block_k) == (want, want)
            q = rng.normal(size=(heads, 256, 4))
            counters.reset()
            o, lse = flash_attention_forward(q, q, q, plan=plan)
            assert counters.total == (256 // want) ** 2
            # Without a plan the kernel derives the same geometry.
            o_dense, lse_dense = flash_attention_forward(
                q, q, q, mask=CausalMask().block(idx, idx)
            )
            np.testing.assert_array_equal(o, o_dense)
            np.testing.assert_array_equal(lse, lse_dense)


class TestDerivedTileAtLength:
    def test_sparse_bidirectional_ring_at_1024_tokens(self):
        """The paper's sparse integration (block-wise sliding window +
        blockwise partition) on 8 ranks at seq 1024 — above the suite's
        seq <= 256 habit, where the derived tile (64 at 8 heads) is half a
        shard: bidirectional == unidirectional bitwise, both within 1e-10
        of the dense reference."""
        from repro.attention import get_method
        from repro.kernels import (
            attention_reference,
            attention_reference_backward,
        )
        from repro.topology import a800_node, make_cluster

        n, heads, d, g = 1024, 8, 8, 8
        mask = sliding_window_block_mask(n, n // 32, window_blocks=4)
        topo = make_cluster(g, node=a800_node(gpus_per_node=4))
        rng = np.random.default_rng(11)
        q, k, v, do = (rng.normal(size=(heads, n, d)) for _ in range(4))
        runs = {}
        for mode in ("unidirectional", "bidirectional"):
            method = get_method(
                "burst", partitioner=BlockwisePartitioner(n // 32),
                ring_mode=mode,
            )
            assert method.block_size is None
            counters.reset()
            res = method.run(topo, q, k, v, mask=mask, do=do)
            runs[mode] = (res.o, res.lse, res.dq, res.dk, res.dv)
            # 64 shard pairs x (128 / 64)^2 sub-tiles, forward + backward;
            # a tile is 16 mask blocks of 4 tokens against a 4-block
            # window, so only the tile above the diagonal is empty.
            assert counters.total == 2 * 64 * 4
            assert counters.skipped_empty == 2 * 64
        for a, b in zip(runs["unidirectional"], runs["bidirectional"]):
            np.testing.assert_array_equal(a, b)
        dense = mask.dense(n)
        o, lse = attention_reference(q, k, v, mask=dense)
        dq, dk, dv = attention_reference_backward(
            q, k, v, o, lse, do, mask=dense
        )
        for got, want in zip(runs["bidirectional"], (o, lse, dq, dk, dv)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


class TestPlanNumericsMatchDense:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n_blocks=st.integers(2, 6),
        mask_block=st.sampled_from([8, 12, 16]),
        causal=st.booleans(),
        block_q=st.sampled_from([8, 16, 24]),
        block_k=st.sampled_from([8, 16, 24]),
    )
    def test_random_block_sparse(
        self, seed, n_blocks, mask_block, causal, block_q, block_k
    ):
        rng = np.random.default_rng(seed)
        bm = rng.random((n_blocks, n_blocks)) > 0.4
        mask = BlockSparseMask(mask_block, bm, intra_block_causal=causal)
        n = n_blocks * mask_block
        idx = np.arange(n)
        q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, mask, idx, idx, block_q, block_k
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 10_000),
        partitioner=st.sampled_from(["zigzag", "striped"]),
        g=st.sampled_from([2, 4]),
        r1=st.integers(0, 3),
        r2=st.integers(0, 3),
        window=st.sampled_from([0, 24]),
    )
    def test_zigzag_striped_shard_pairs(
        self, seed, partitioner, g, r1, r2, window
    ):
        """Plan path equals dense path on real (non-contiguous) shard
        index pairs — the tiles the distributed ring actually resolves."""
        r1, r2 = r1 % g, r2 % g
        n = 16 * g
        part = (
            ZigzagPartitioner() if partitioner == "zigzag"
            else StripedPartitioner()
        )
        idxs = part.indices(n, g)
        mask = SlidingWindowMask(window) if window else CausalMask()
        rng = np.random.default_rng(seed)
        s_q, s_k = len(idxs[r1]), len(idxs[r2])
        q = rng.normal(size=(2, s_q, 8))
        do = rng.normal(size=(2, s_q, 8))
        k = rng.normal(size=(2, s_k, 8))
        v = rng.normal(size=(2, s_k, 8))
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, mask, idxs[r1], idxs[r2], 8, 8
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000), groups=st.sampled_from([2, 4]))
    def test_gqa_expanded_heads(self, seed, groups):
        """GQA runs the kernels on repeat_kv-expanded KV; the plan path
        must agree on those head-expanded batches too."""
        from repro.attention.gqa import repeat_kv

        rng = np.random.default_rng(seed)
        n, d, h_kv = 48, 8, 2
        q = rng.normal(size=(h_kv * groups, n, d))
        do = rng.normal(size=(h_kv * groups, n, d))
        k = repeat_kv(rng.normal(size=(h_kv, n, d)), groups)
        v = repeat_kv(rng.normal(size=(h_kv, n, d)), groups)
        idx = np.arange(n)
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, ALiBiMask(h_kv * groups), idx, idx, 16, 16
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)

    def test_uneven_block_edges_match(self):
        rng = np.random.default_rng(3)
        n = 90  # 90 / 32 leaves a 26-wide edge tile
        idx = np.arange(n)
        q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, CausalMask(), idx, idx, 32, 32
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)


class TestBandedRuns:
    """A sliding-window block mask on blockwise or striped shards bands:
    each query block's row groups read one window each, planned == dense
    bitwise and both at 1e-12 of the reference; causal and ALiBi plans
    never band."""

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        g=st.sampled_from([2, 4, 8]),
        per_rank=st.sampled_from([1, 2, 4, 8]),
        window=st.integers(1, 5),
        causal=st.booleans(),
        blockwise=st.booleans(),
        r1=st.integers(0, 7),
        r2=st.integers(0, 7),
        tile=st.sampled_from([16, 32, 64]),
    )
    def test_planned_equals_dense_and_reference(
        self, seed, g, per_rank, window, causal, blockwise, r1, r2, tile
    ):
        from repro.kernels import (
            attention_reference,
            attention_reference_backward,
        )

        block = g * per_rank
        n = 16 * block
        mask = sliding_window_block_mask(n, block, window, causal=causal)
        part = (
            BlockwisePartitioner(block) if blockwise
            else StripedPartitioner()
        )
        idxs = part.indices(n, g)
        q_idx, k_idx = idxs[r1 % g], idxs[r2 % g]
        rng = np.random.default_rng(seed)
        shape = (2, 16 * per_rank, 8)
        q, k, v, do = (rng.normal(size=shape) for _ in range(4))
        dense_out, plan_out, plan = _run_both(
            q, k, v, do, mask, q_idx, k_idx, tile, tile
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)
        _check_plan(plan, batch=1)
        dense = mask.block(q_idx, k_idx)
        o, lse = attention_reference(q, k, v, mask=dense)
        want = (o, lse, *attention_reference_backward(
            q, k, v, o, lse, do, mask=dense
        ))
        for got, ref in zip(plan_out, want):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_swa_bidir_shard_pairs_band_at_full_length(self):
        """The benchmark's sparse workload: 8 tokens of every 64-token
        block per rank, 4-block causal window — 8-row groups, stride 8,
        one band per query block, a quarter of the 88-key runs' pairs
        left out of every interior block."""
        n, g = 2048, 8
        mask = sliding_window_block_mask(n, 64, 4)
        idxs = BlockwisePartitioner(64).indices(n, g)
        for r, j in ((3, 3), (3, 4), (0, 7)):
            plan = TilePlan.build(mask, idxs[r], idxs[j], 64, 64, batch=8)
            for i in range(plan.n_q_blocks):
                (k0, stride, width, groups, _), = plan.row(i)
                assert (stride, groups) == (8, 8) and width in (31, 32)
            assert plan.margin == 24

    @staticmethod
    def _banded_pair(r, j, heads=2, block=64):
        """A shard pair of a 4-block causal window on blockwise shards of
        8 tokens per 32-token block, whose every query block bands."""
        n, g = 512, 4
        mask = sliding_window_block_mask(n, 32, 4)
        idxs = BlockwisePartitioner(32).indices(n, g)
        plan = TilePlan.build(mask, idxs[r], idxs[j], block, block)
        for i in range(plan.n_q_blocks):
            _check_band(plan, i)
        rng = np.random.default_rng(10 * r + j)
        shapes = [(heads, len(idxs[x]), 8) for x in (r, r, j, j)]
        q, do, k, v = (rng.normal(size=shape) for shape in shapes)
        return mask, idxs[r], idxs[j], plan, q, k, v, do

    @staticmethod
    def _check_reference(mask, q_idx, k_idx, got, q, k, v, do, tol=1e-12):
        from repro.kernels import (
            attention_reference,
            attention_reference_backward,
        )

        dense = mask.block(q_idx, k_idx)
        o, lse = attention_reference(q, k, v, mask=dense)
        want = (o, lse, *attention_reference_backward(
            q, k, v, o, lse, do, mask=dense
        ))
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=tol, atol=tol)

    def test_rows_with_no_visible_key_on_a_band(self):
        """Token 1 (shard 1's first query) precedes every key of shard 2
        under the token-causal window, so it meets no key: ``lse = -inf``,
        ``o = 0`` and no gradient, inside a banded run's first group."""
        mask, q_idx, k_idx, plan, q, k, v, do = self._banded_pair(1, 2)
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, mask, q_idx, k_idx, 64, 64
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)
        o, lse, dq = plan_out[:3]
        dead = ~mask.block(q_idx, k_idx).any(axis=1)
        assert dead[0] and dead.sum() == 1 and plan.row(0)[0][3] > 1
        np.testing.assert_array_equal(np.isneginf(lse), np.broadcast_to(
            dead, lse.shape
        ))
        assert not o[:, dead].any() and not dq[:, dead].any()
        self._check_reference(mask, q_idx, k_idx, plan_out, q, k, v, do)

    def test_running_max_and_masked_exp_on_a_band(self):
        """Logits past ``EXP_BUDGET``: the forward takes the running max
        over the grouped tiles and the backward exponentiates under the
        mask; planned == dense still, and both match the reference."""
        from repro.kernels.flash import EXP_BUDGET, _bounded_calls
        from repro.kernels.flash import _max_row_norm

        mask, q_idx, k_idx, plan, q, k, v, do = self._banded_pair(2, 1)
        q, k = q * 40.0, k * 3.0
        bound = _max_row_norm(q) / np.sqrt(8) * _max_row_norm(k)
        assert bound > EXP_BUDGET
        before = _bounded_calls.value
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, mask, q_idx, k_idx, 64, 64
        )
        assert _bounded_calls.value == before
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)
        self._check_reference(
            mask, q_idx, k_idx, plan_out, q, k, v, do, tol=1e-9
        )

    def test_repeat_kv_operands_and_head_sliced_plans(self):
        """GQA hands the kernels ``repeat_kv``-expanded keys (here read
        through a non-contiguous view) and Ulysses-style callers a
        head-sliced plan; a band reads both as it reads any key operand."""
        from repro.attention.gqa import repeat_kv

        mask, q_idx, k_idx, plan, q, k, v, do = self._banded_pair(
            3, 3, heads=4
        )
        k, v = (
            np.concatenate([repeat_kv(x[:2], 2)] * 2, axis=-1)[..., :8]
            for x in (k, v)
        )
        assert not k.flags.c_contiguous
        dense_out, plan_out, _ = _run_both(
            q, k, v, do, mask, q_idx, k_idx, 64, 64
        )
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)
        self._check_reference(mask, q_idx, k_idx, plan_out, q, k, v, do)
        view = plan.with_head_slice(slice(2, 4))
        o, lse = flash_attention_forward(q[2:], k[2:], v[2:], plan=view)
        np.testing.assert_array_equal(o, plan_out[0][2:])
        np.testing.assert_array_equal(lse, plan_out[1][2:])
        grads = flash_attention_backward(
            q[2:], k[2:], v[2:], o, lse, do[2:], plan=view
        )
        for got, want in zip(grads, plan_out[2:]):
            np.testing.assert_array_equal(got, want[2:])

    def test_uneven_query_blocks_band(self):
        """48-row tiles over 128-token shards: 48-, 48- and 32-row query
        blocks and a 32-key last tile.  The first block's rows all start
        at key 0 (nothing to band); the others band as 12- and 16-row
        groups."""
        mask, q_idx, k_idx, _, q, k, v, do = self._banded_pair(2, 2)
        dense_out, plan_out, plan = _run_both(
            q, k, v, do, mask, q_idx, k_idx, 48, 48
        )
        assert [plan.q_range(i) for i in range(3)] == [
            (0, 48), (48, 96), (96, 128)
        ]
        assert [run[1:4] for i in range(3) for run in plan.row(i)] == [
            (0, 48, 1), (12, 40, 4), (16, 40, 2)
        ]
        for a, b in zip(dense_out, plan_out):
            np.testing.assert_array_equal(a, b)
        _check_plan(plan)
        self._check_reference(mask, q_idx, k_idx, plan_out, q, k, v, do)

    @pytest.mark.parametrize(
        "mask", [CausalMask(), ALiBiMask(2)], ids=["causal", "alibi"]
    )
    @pytest.mark.parametrize(
        "partitioner",
        [ZigzagPartitioner(), StripedPartitioner(), ContiguousPartitioner()],
        ids=["zigzag", "striped", "contiguous"],
    )
    def test_causal_and_alibi_plans_never_band(self, mask, partitioner):
        idxs = partitioner.indices(512, 4)
        for q_idx in idxs:
            for k_idx in idxs:
                plan = TilePlan.build(mask, q_idx, k_idx, 32, 32, batch=8)
                assert plan.margin == 0
                assert all(
                    run[1:4:2] == (0, 1)
                    for i in range(plan.n_q_blocks) for run in plan.row(i)
                )


class TestSkipAccounting:
    def test_causal_skips_at_least_40_percent(self):
        """The repo's acceptance floor: causal single-device fwd+bwd must
        skip >= 40 % of sub-tiles."""
        rng = np.random.default_rng(0)
        n = 512
        q, k, v, do = (rng.normal(size=(2, n, 16)) for _ in range(4))
        idx = np.arange(n)
        plan = TilePlan.build(CausalMask(), idx, idx, 64, 64)
        ws = KernelWorkspace()
        counters.reset()
        o, lse = flash_attention_forward(q, k, v, plan=plan, workspace=ws)
        flash_attention_backward(q, k, v, o, lse, do, plan=plan, workspace=ws)
        assert counters.skip_fraction >= 0.4
        assert counters.computed > 0

    def test_alibi_bias_tiles_cached_across_ring_steps(self):
        """Ring passes over a contiguous partition share ALiBi tiles:
        every off-diagonal step reuses the same relative-offset tiles."""
        from repro.attention.ring import ring_attention_forward
        from repro.comm import SimCommunicator
        from repro.comm.ring import global_ring_schedule
        from repro.partition import ContiguousPartitioner
        from repro.topology import make_cluster

        g, n, h, d = 4, 64, 2, 8
        topo = make_cluster(g)
        comm = SimCommunicator(topo)
        schedule = global_ring_schedule(topo)
        part = ContiguousPartitioner()
        idxs = part.indices(n, g)
        rng = np.random.default_rng(0)
        mask = ALiBiMask(h)
        qs = [rng.normal(size=(h, n // g, d)) for _ in range(g)]
        ks = [rng.normal(size=(h, n // g, d)) for _ in range(g)]
        vs = [rng.normal(size=(h, n // g, d)) for _ in range(g)]
        counters.reset()
        ring_attention_forward(
            comm, schedule, qs, ks, vs, idxs, mask=mask, block_size=8
        )
        assert counters.bias_tiles_reused > 0
        # Distinct relative offsets are far fewer than resolved tiles.
        assert counters.bias_tiles_built < counters.bias_tiles_reused


class TestTilePlanInvariants:
    def test_closed_forms_match_measured_counts(self):
        from repro.testing import check_tile_plan_invariants

        report = check_tile_plan_invariants(seq_len=128, block_q=16,
                                            block_k=16)
        assert report.passed, report.summary()

    def test_uneven_kernel_blocks(self):
        from repro.testing import check_tile_plan_invariants

        report = check_tile_plan_invariants(seq_len=192, block_q=24,
                                            block_k=48)
        assert report.passed, report.summary()

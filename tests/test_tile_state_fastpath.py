"""Property tests: the O(1) `tile_state` fast paths must never contradict
the dense tile.

`empty` and `full` verdicts gate real behaviour (skipped compute, dropped
mask handling), so they must be *exact*; `partial` is always safe.  These
tests draw random index sets and check every verdict against the
materialised tile.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.masks import BlockSparseMask, CausalMask, SlidingWindowMask


def classify_dense(mask, q_idx, k_idx) -> str:
    tile = mask.block(q_idx, k_idx)
    if tile.all():
        return "full"
    if not tile.any():
        return "empty"
    return "partial"


def check_consistency(mask, q_idx, k_idx) -> None:
    fast = mask.tile_state(q_idx, k_idx)
    exact = classify_dense(mask, q_idx, k_idx)
    if fast == "full":
        assert exact == "full"
    elif fast == "empty":
        assert exact == "empty"
    # 'partial' is conservative: any exact verdict is acceptable


idx_sets = st.lists(
    st.integers(0, 63), min_size=1, max_size=8, unique=True
).map(lambda xs: np.array(sorted(xs)))


class TestFastPathSoundness:
    @settings(deadline=None, max_examples=60)
    @given(q_idx=idx_sets, k_idx=idx_sets)
    def test_causal(self, q_idx, k_idx):
        check_consistency(CausalMask(), q_idx, k_idx)

    @settings(deadline=None, max_examples=60)
    @given(q_idx=idx_sets, k_idx=idx_sets, window=st.integers(1, 80))
    def test_sliding_window(self, q_idx, k_idx, window):
        check_consistency(SlidingWindowMask(window), q_idx, k_idx)

    @settings(deadline=None, max_examples=40)
    @given(
        q_idx=idx_sets,
        k_idx=idx_sets,
        seed=st.integers(0, 1000),
        causal=st.booleans(),
    )
    def test_block_sparse(self, q_idx, k_idx, seed, causal):
        rng = np.random.default_rng(seed)
        bm = rng.random((8, 8)) > 0.4
        mask = BlockSparseMask(8, bm, intra_block_causal=causal)
        check_consistency(mask, q_idx, k_idx)

    def test_fastpath_catches_the_common_shard_cases(self):
        """The cases the distributed layer relies on must be *exact*, not
        merely conservative: contiguous shards under causal masking."""
        m = CausalMask()
        assert m.tile_state(np.arange(32, 40), np.arange(0, 8)) == "full"
        assert m.tile_state(np.arange(0, 8), np.arange(32, 40)) == "empty"
        assert m.tile_state(np.arange(0, 8), np.arange(0, 8)) == "partial"

    def test_window_fastpath_exact_for_contiguous_shards(self):
        m = SlidingWindowMask(8)
        assert m.tile_state(np.arange(16, 24), np.arange(16, 24)) == "partial"
        assert m.tile_state(np.arange(16, 24), np.arange(0, 8)) == "empty"
        # perfectly inside the window
        assert m.tile_state(np.array([20]), np.array([16, 17])) == "full"


class TestTilePlanClassification:
    """TilePlan.build applies tile_state per sub-tile and then checks
    every PARTIAL verdict against the tile, so its state grid is exact
    against the dense tile on any index sets — PARTIAL included."""

    @staticmethod
    def check_plan(mask, q_idx, k_idx, block_q, block_k):
        from repro.kernels import EMPTY, FULL, TilePlan

        plan = TilePlan.build(mask, q_idx, k_idx, block_q, block_k)
        for i in range(plan.n_q_blocks):
            q0, q1 = plan.q_range(i)
            for j in range(plan.n_k_blocks):
                k0, k1 = plan.k_range(j)
                exact = classify_dense(mask, q_idx[q0:q1], k_idx[k0:k1])
                state = plan.state(i, j)
                if state == FULL:
                    assert exact == "full"
                elif state == EMPTY:
                    assert exact == "empty"
                else:
                    assert exact == "partial"

    @settings(deadline=None, max_examples=40)
    @given(
        q_idx=idx_sets, k_idx=idx_sets,
        block_q=st.sampled_from([2, 3, 5]),
        block_k=st.sampled_from([2, 3, 5]),
    )
    def test_causal_plan(self, q_idx, k_idx, block_q, block_k):
        self.check_plan(CausalMask(), q_idx, k_idx, block_q, block_k)

    @settings(deadline=None, max_examples=40)
    @given(
        q_idx=idx_sets, k_idx=idx_sets, window=st.integers(1, 80),
        block_q=st.sampled_from([2, 3, 5]),
        block_k=st.sampled_from([2, 3, 5]),
    )
    def test_window_plan(self, q_idx, k_idx, window, block_q, block_k):
        self.check_plan(
            SlidingWindowMask(window), q_idx, k_idx, block_q, block_k
        )

    @settings(deadline=None, max_examples=30)
    @given(
        q_idx=idx_sets, k_idx=idx_sets, seed=st.integers(0, 1000),
        causal=st.booleans(),
        block_q=st.sampled_from([2, 3, 5]),
        block_k=st.sampled_from([2, 3, 5]),
    )
    def test_block_sparse_plan(
        self, q_idx, k_idx, seed, causal, block_q, block_k
    ):
        rng = np.random.default_rng(seed)
        bm = rng.random((8, 8)) > 0.4
        mask = BlockSparseMask(8, bm, intra_block_causal=causal)
        self.check_plan(mask, q_idx, k_idx, block_q, block_k)

    def test_contiguous_shard_plan_is_exact(self):
        """The bread-and-butter case: a contiguous causal shard pair must
        classify with zero conservatism — every tile verdict exact."""
        from repro.kernels import PARTIAL, TilePlan

        idx = np.arange(64)
        plan = TilePlan.build(CausalMask(), idx, idx, 16, 16)
        for i in range(plan.n_q_blocks):
            for j in range(plan.n_k_blocks):
                q0, q1 = plan.q_range(i)
                k0, k1 = plan.k_range(j)
                exact = classify_dense(CausalMask(), idx[q0:q1], idx[k0:k1])
                got = plan.state(i, j)
                want = {"empty": 0, "partial": PARTIAL, "full": 2}[exact]
                assert got == want, (i, j, exact, got)

"""Tests for sequence partitioners and workload-balance analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.masks import CausalMask, FullMask, sliding_window_block_mask
from repro.partition import (
    BlockwisePartitioner,
    ContiguousPartitioner,
    StripedPartitioner,
    ZigzagPartitioner,
    imbalance_ratio,
    workload_per_device,
)
from repro.partition.workload import balance_report, effective_step_work, step_workloads


ALL_PARTITIONERS = [
    ContiguousPartitioner(),
    ZigzagPartitioner(),
    StripedPartitioner(),
    BlockwisePartitioner(block_size=8),
]


class TestPartitionInvariants:
    @pytest.mark.parametrize("part", ALL_PARTITIONERS, ids=lambda p: p.name)
    @pytest.mark.parametrize("n,g", [(16, 2), (32, 4), (64, 8)])
    def test_cover_and_disjoint(self, part, n, g):
        idxs = part.indices(n, g)
        assert len(idxs) == g
        flat = np.concatenate(idxs)
        assert sorted(flat.tolist()) == list(range(n))
        for idx in idxs:
            assert len(idx) == n // g
            assert (np.diff(idx) > 0).all()  # sorted ascending

    @pytest.mark.parametrize("part", ALL_PARTITIONERS, ids=lambda p: p.name)
    def test_scatter_gather_roundtrip(self, part):
        x = np.random.default_rng(0).normal(size=(3, 32, 5))
        parts = part.scatter(x, 4, axis=-2)
        back = part.gather(parts, axis=-2)
        np.testing.assert_array_equal(back, x)

    def test_indivisible_length_rejected(self):
        with pytest.raises(ValueError):
            ContiguousPartitioner().indices(10, 4)

    def test_zigzag_needs_2g_chunks(self):
        # n=12, g=8 -> divisible by g? no -> base check fires; use n=24, g=8:
        # 24 % 16 != 0 so the zigzag-specific check fires.
        with pytest.raises(ValueError):
            ZigzagPartitioner().indices(24, 8)

    def test_zigzag_structure(self):
        idxs = ZigzagPartitioner().indices(8, 2)
        np.testing.assert_array_equal(idxs[0], [0, 1, 6, 7])
        np.testing.assert_array_equal(idxs[1], [2, 3, 4, 5])

    def test_striped_structure(self):
        idxs = StripedPartitioner().indices(8, 4)
        np.testing.assert_array_equal(idxs[1], [1, 5])

    def test_blockwise_structure(self):
        idxs = BlockwisePartitioner(block_size=4).indices(8, 2)
        np.testing.assert_array_equal(idxs[0], [0, 2, 4, 6])
        np.testing.assert_array_equal(idxs[1], [1, 3, 5, 7])

    def test_blockwise_requires_block_multiple_of_g(self):
        with pytest.raises(ValueError):
            BlockwisePartitioner(block_size=6).indices(24, 4)


class TestWorkloadBalance:
    def test_full_mask_always_balanced(self):
        for part in ALL_PARTITIONERS:
            assert imbalance_ratio(FullMask(), part, 32, 4) == pytest.approx(1.0)

    def test_contiguous_causal_imbalance(self):
        """Last device does ~2x average work under a contiguous causal split."""
        ratio = imbalance_ratio(CausalMask(), ContiguousPartitioner(), 256, 8)
        assert ratio > 1.7

    def test_zigzag_balances_causal(self):
        ratio = imbalance_ratio(CausalMask(), ZigzagPartitioner(), 256, 8)
        assert ratio == pytest.approx(1.0, abs=0.01)

    def test_striped_balances_causal(self):
        # Raw striped placement leaves a +-1-key-per-step skew that Eq. (14)'s
        # shifted-view trick removes inside the kernel; the placement itself
        # is balanced to ~3% already (vs ~2x for contiguous).
        ratio = imbalance_ratio(CausalMask(), StripedPartitioner(), 256, 8)
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_total_work_is_partition_independent(self):
        n, g = 128, 4
        totals = {
            part.name: workload_per_device(CausalMask(), part, n, g).sum()
            for part in ALL_PARTITIONERS
        }
        assert len(set(totals.values())) == 1
        assert list(totals.values())[0] == CausalMask().total_allowed(n)

    def test_blockwise_balances_swa(self):
        """Fig. 11: striping within blocks balances block-sparse masks."""
        mask = sliding_window_block_mask(seq_len=256, block_size=32, window_blocks=2)
        balanced = imbalance_ratio(mask, BlockwisePartitioner(block_size=32), 256, 4)
        naive = imbalance_ratio(mask, ContiguousPartitioner(), 256, 4)
        assert balanced < 1.05
        assert naive > 1.08
        assert naive > balanced

    def test_effective_step_work_barrier_bound(self):
        """Per-step max >= per-device mean: barriers cost extra iff imbalanced."""
        n, g = 128, 4
        eff_contig = effective_step_work(CausalMask(), ContiguousPartitioner(), n, g)
        eff_striped = effective_step_work(CausalMask(), StripedPartitioner(), n, g)
        assert eff_striped < eff_contig
        total = CausalMask().total_allowed(n)
        assert eff_striped >= total / g  # cannot beat perfect balance

    def test_step_workloads_shape(self):
        sw = step_workloads(CausalMask(), StripedPartitioner(), 64, 4)
        assert sw.shape == (4, 4)
        assert sw.sum() == CausalMask().total_allowed(64)

    def test_balance_report_speedups(self):
        """Both balanced schemes beat contiguous by > 1.5x in barrier-bounded
        work and stay within 10 % of each other (the paper's pilot finding:
        striped integrates about as well as zigzag)."""
        for n, g in ((128, 4), (1024, 8)):
            report = balance_report(
                CausalMask(),
                [ContiguousPartitioner(), ZigzagPartitioner(), StripedPartitioner()],
                n,
                g,
            )
            pairs = {name: r["effective_step_pairs"] for name, r in report.items()}
            assert report["striped"]["speedup_vs_worst"] > 1.3
            assert report["contiguous"]["speedup_vs_worst"] == pytest.approx(1.0)
            assert pairs["contiguous"] / pairs["zigzag"] > 1.5
            assert pairs["contiguous"] / pairs["striped"] > 1.5
            assert abs(pairs["zigzag"] - pairs["striped"]) / pairs["striped"] < 0.1

    @settings(deadline=None, max_examples=15)
    @given(
        g=st.sampled_from([2, 4, 8]),
        mult=st.integers(2, 6),
    )
    def test_zigzag_striped_balance_property(self, g, mult):
        n = 2 * g * mult
        for part in (ZigzagPartitioner(), StripedPartitioner()):
            work = workload_per_device(CausalMask(), part, n, g)
            # max deviation from mean at most g tokens' worth of keys
            assert work.max() - work.min() <= n

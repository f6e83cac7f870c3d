"""Edge cases and scale for the flash kernels' running-max recurrence.

The forward carries ``(m, l, O)`` per query block and the backward re-forms
``P = exp(S - lse)`` in place; both treat a query row with no visible key
on row-sized vectors only.  These tests pin exactly those rows (in one
tile, and in the whole call), logits large enough that a naive ``exp``
overflows, the hoisted dead-row guard of the backward, the row statistics
that ride the GEMMs as an extra column (``[V | 1]``, ``[Q~ | -lse]``,
``[dO | -D]``) on runs wider than one tile, and one burst pass at the
sequence length the step benchmark runs at.
"""

import numpy as np
import pytest

from repro.attention import get_method
from repro.kernels import (
    KernelWorkspace,
    TilePlan,
    attention_reference,
    attention_reference_backward,
    flash_attention_backward,
    flash_attention_forward,
    flash_backward_tiles,
)
from repro.masks import ALiBiMask, CausalMask, FullMask, MaskPattern
from repro.topology import a800_node, make_cluster


class PaddedWindowMask(MaskPattern):
    """Causal sliding window in which the queries listed in ``padded`` are
    padding and see no key at all."""

    def __init__(self, window: int, padded: np.ndarray):
        self.window = window
        self.padded = np.asarray(padded)

    def block(self, q_idx, k_idx):
        diff = q_idx[:, None] - k_idx[None, :]
        live = ~np.isin(q_idx, self.padded)
        return (diff >= 0) & (diff < self.window) & live[:, None]


def _flash(q, k, v, do, **kw):
    """Forward + backward of the tiled kernels with every floating-point
    exception armed: no ``inf - inf``, ``log 0`` or ``0 / 0`` may be formed
    on the way to a correct result."""
    with np.errstate(all="raise"):
        return _flash_quiet(q, k, v, do, **kw)


def _flash_quiet(q, k, v, do, **kw):
    o, lse = flash_attention_forward(q, k, v, **kw)
    return (o, lse, *flash_attention_backward(q, k, v, o, lse, do, **kw))


def _reference(q, k, v, do, dense):
    o, lse = attention_reference(q, k, v, mask=dense)
    return (o, lse, *attention_reference_backward(
        q, k, v, o, lse, do, mask=dense
    ))


def _close(got, want, tol):
    for name, a, b in zip(("o", "lse", "dq", "dk", "dv"), got, want):
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=name)


class TestRowsWithNoVisibleKey:
    N, BLOCK, WINDOW = 80, 16, 8
    # Two padded rows inside a live q block, and the whole last q block.
    PADDED = np.r_[20:22, 64:80]

    def _case(self):
        rng = np.random.default_rng(0)
        q, k, v, do = (rng.normal(size=(2, self.N, 8)) for _ in range(4))
        mask = PaddedWindowMask(self.WINDOW, self.PADDED)
        return q, k, v, do, mask, np.arange(self.N)

    def test_planned_and_dense_match_reference(self):
        q, k, v, do, mask, idx = self._case()
        dense = mask.dense(self.N)
        # The window is narrower than a block: in the tile left of the
        # diagonal most rows see nothing, though they do see keys elsewhere.
        tile = dense[32:48, 16:32]
        assert tile.any() and not tile.any(axis=1).all()
        want = _reference(q, k, v, do, dense)
        blocks = {"block_q": self.BLOCK, "block_k": self.BLOCK}
        got_dense = _flash(q, k, v, do, mask=dense, **blocks)
        plan = TilePlan.build(mask, idx, idx, self.BLOCK, self.BLOCK)
        got_plan = _flash(q, k, v, do, plan=plan, workspace=KernelWorkspace())
        _close(got_dense, want, 1e-12)
        _close(got_plan, want, 1e-12)
        for a, b in zip(got_dense, got_plan):
            np.testing.assert_array_equal(a, b)

    def test_padded_rows_leave_as_the_merge_identity(self):
        q, k, v, do, mask, idx = self._case()
        plan = TilePlan.build(mask, idx, idx, self.BLOCK, self.BLOCK)
        o, lse, dq, _, _ = _flash(q, k, v, do, plan=plan)
        assert np.isneginf(lse[:, self.PADDED]).all()
        assert not o[:, self.PADDED].any()
        assert not dq[:, self.PADDED].any()
        live = np.setdiff1d(idx, self.PADDED)
        assert np.isfinite(lse[:, live]).all()


def test_large_logits_do_not_overflow():
    """Scores of magnitude ~1e3: ``exp(s)`` overflows, ``exp(s - m)`` with
    the running max does not, forward or backward."""
    rng = np.random.default_rng(1)
    n = 96
    q, k = (30.0 * rng.normal(size=(2, n, 8)) for _ in range(2))
    v, do = (rng.normal(size=(2, n, 8)) for _ in range(2))
    dense = CausalMask().dense(n)
    assert np.abs(q @ np.swapaxes(k, -1, -2)).max() / np.sqrt(8) > 1e3
    want = _reference(q, k, v, do, dense)
    # Far-off keys underflow to exactly 0, which is the right answer.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        o, lse = flash_attention_forward(
            q, k, v, mask=dense, block_q=32, block_k=32
        )
        grads = flash_attention_backward(
            q, k, v, o, lse, do, mask=dense, block_q=32, block_k=32
        )
    assert all(np.isfinite(a).all() for a in (o, lse, *grads))
    # eps * |s| ~ 1e-13 of absolute error enters every exponent, and the
    # gradients carry a factor |q|, |k| ~ 30 on top.
    for a, b in zip((o, lse, *grads), want):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("planned", [False, True], ids=["dense", "planned"])
def test_backward_zeroes_rows_whose_lse_is_minus_inf(planned):
    """A caller-supplied ``lse = -inf`` row contributed nothing to the
    forward, so it gets no gradient — even with no mask to hide its keys
    (the guard is decided once per q block, outside the tile loop)."""
    rng = np.random.default_rng(2)
    n, dead = 64, np.r_[3, 40:48]
    q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
    o, lse = attention_reference(q, k, v)
    lse[:, dead] = -np.inf
    d_stat = np.sum(do * o, axis=-1)
    want = attention_reference_backward(q, k, v, o, lse, do)
    idx = np.arange(n)
    kw = (
        {"plan": TilePlan.build(FullMask(), idx, idx, 16, 16)}
        if planned else {"block_q": 16, "block_k": 16}
    )
    with np.errstate(all="raise"):
        dq, dk, dv = flash_backward_tiles(q, k, v, lse, d_stat, do, **kw)
    assert not dq[:, dead].any()
    for a, b in zip((dq, dk, dv), want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestFoldedRowStatistics:
    """``l`` is the last column of ``P [V | 1]``, ``S - lse`` is
    ``[Q~ | -lse] [K | 1]^T`` and ``dP - D`` is ``[dO | -D] [V | 1]^T``:
    the same values as the separate passes to rounding, on runs that span
    several sub-tiles, with every floating-point exception armed."""

    N, BLOCK = 96, 16

    def _plan(self, mask, **kw):
        idx = np.arange(self.N)
        plan = TilePlan.build(mask, idx, idx, self.BLOCK, self.BLOCK, **kw)
        widths = [
            k1 - k0 for i in range(plan.n_q_blocks)
            for k0, k1, _ in plan.row(i)
        ]
        assert max(widths) > self.BLOCK  # a run wider than one tile
        return plan

    @pytest.mark.parametrize("d", [8, 64], ids=["K=9", "K=65"])
    @pytest.mark.parametrize("masked", [False, True], ids=["full", "causal"])
    def test_wide_runs_match_reference(self, d, masked):
        rng = np.random.default_rng(d)
        q, k, v, do = (rng.normal(size=(2, self.N, d)) for _ in range(4))
        mask = CausalMask() if masked else FullMask()
        want = _reference(q, k, v, do, mask.dense(self.N))
        got = _flash(
            q, k, v, do, plan=self._plan(mask), workspace=KernelWorkspace()
        )
        _close(got, want, 1e-12)
        dense = _flash(
            q, k, v, do, mask=mask.dense(self.N) if masked else None,
            block_q=self.BLOCK, block_k=self.BLOCK,
        )
        for a, b in zip(got, dense):
            np.testing.assert_array_equal(a, b)

    def test_dead_rows_inside_wide_runs(self):
        """Padding rows inside merged, trimmed runs leave as ``(0, -inf)``
        with zero ``dq`` — ``l`` = 0 comes out of the GEMM exactly."""
        padded = np.r_[5:9, 40, 80:96]
        mask = PaddedWindowMask(40, padded)
        rng = np.random.default_rng(4)
        q, k, v, do = (rng.normal(size=(2, self.N, 8)) for _ in range(4))
        got = _flash(q, k, v, do, plan=self._plan(mask))
        _close(got, _reference(q, k, v, do, mask.dense(self.N)), 1e-12)
        o, lse, dq = got[:3]
        assert np.isneginf(lse[:, padded]).all()
        assert not o[:, padded].any() and not dq[:, padded].any()

    def test_large_logits_on_wide_runs(self):
        rng = np.random.default_rng(5)
        q, k = (30.0 * rng.normal(size=(2, self.N, 8)) for _ in range(2))
        v, do = (rng.normal(size=(2, self.N, 8)) for _ in range(2))
        assert np.abs(q @ np.swapaxes(k, -1, -2)).max() / np.sqrt(8) > 1e3
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _flash_quiet(q, k, v, do, plan=self._plan(CausalMask()))
        want = _reference(q, k, v, do, CausalMask().dense(self.N))
        assert all(np.isfinite(a).all() for a in got)
        _close(got, want, 1e-9)

    def test_dense_bias_rides_the_run(self):
        rng = np.random.default_rng(6)
        q, k, v, do = (rng.normal(size=(2, self.N, 8)) for _ in range(4))
        bias = rng.normal(size=(2, self.N, self.N))
        dense = CausalMask().dense(self.N)
        got = _flash(
            q, k, v, do, mask=dense, bias=bias,
            block_q=self.BLOCK, block_k=self.BLOCK,
        )
        o, lse = attention_reference(q, k, v, mask=dense, bias=bias)
        want = (o, lse, *attention_reference_backward(
            q, k, v, o, lse, do, mask=dense, bias=bias
        ))
        _close(got, want, 1e-12)

    def test_alibi_through_a_head_slice_with_gqa_expanded_heads(self):
        from repro.attention.gqa import repeat_kv

        mask = ALiBiMask(4)
        idx = np.arange(self.N)
        rng = np.random.default_rng(7)
        q, do = (rng.normal(size=(2, self.N, 8)) for _ in range(2))
        k, v = (repeat_kv(rng.normal(size=(1, self.N, 8)), 2) for _ in range(2))
        plan = self._plan(mask, batch=2).with_head_slice(slice(2, 4))
        got = _flash(q, k, v, do, plan=plan, workspace=KernelWorkspace())
        dense, bias = mask.dense(self.N), mask.bias_block(idx, idx)[2:4]
        o, lse = attention_reference(q, k, v, mask=dense, bias=bias)
        want = (o, lse, *attention_reference_backward(
            q, k, v, o, lse, do, mask=dense, bias=bias
        ))
        _close(got, want, 1e-12)


def test_burst_at_benchmark_sequence_length():
    """One burst forward + backward at seq 2048 on 2 x 4 ranks — the
    geometry of the step benchmark's ``burst_long`` (256 tokens per rank,
    2 x 2 sub-tiles of 128 per shard pair) — against dense attention."""
    rng = np.random.default_rng(3)
    n = 2048
    q, k, v, do = (rng.normal(size=(2, n, 8)) for _ in range(4))
    topo = make_cluster(8, node=a800_node(gpus_per_node=4))
    res = get_method("burst").run(topo, q, k, v, mask=CausalMask(), do=do)
    o, lse, dq, dk, dv = _reference(q, k, v, do, CausalMask().dense(n))
    np.testing.assert_allclose(res.o, o, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(res.lse, lse, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(res.dq, dq, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(res.dk, dk, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(res.dv, dv, rtol=1e-8, atol=1e-10)

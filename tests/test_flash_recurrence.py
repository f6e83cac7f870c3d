"""Edge cases and scale for the flash kernels' running-max recurrence.

The forward carries ``(m, l, O)`` per query block and the backward re-forms
``P = exp(S - lse)`` in place; both treat a query row with no visible key
on row-sized vectors only.  These tests pin exactly those rows (in one
tile, and in the whole call), logits large enough that a naive ``exp``
overflows, the hoisted dead-row guard of the backward, the row statistics
that ride the GEMMs as an extra column (``[V | 1]``, ``[Q~ | -lse]``,
``[dO | -D]``) on runs wider than one tile, and one burst pass at the
sequence length the step benchmark runs at.

A ring pass carries one :class:`~repro.kernels.SoftmaxState` per query
shard across its kernel calls and one :class:`~repro.kernels.PinnedKV` per
pinned key shard; ``TestCarriedState`` pins that continuing a state over
key shards is the single-call recurrence, including rows that meet their
first key late or never.

A state runs *bounded* — shift 0, no running max — while the
Cauchy–Schwarz bound ``max ||Q~_i|| * max ||K_j||`` of every call stays
within :data:`~repro.kernels.EXP_BUDGET`; ``TestBoundedForward`` pins the
budget's edge, the switch to the running max in the middle of a ring and
the rows it must not lose.
"""

import numpy as np
import pytest

from repro.attention import get_method
from repro.kernels import (
    EXP_BUDGET,
    KernelWorkspace,
    PinnedKV,
    SoftmaxState,
    TilePlan,
    attention_reference,
    attention_reference_backward,
    flash_attention_backward,
    flash_attention_forward,
    flash_backward_tiles,
)
from repro.masks import ALiBiMask, CausalMask, FullMask, MaskPattern
from repro.obs.metrics import get_registry
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


class TestCarriedState:
    """One ``(m, [O | l])`` continued over key shards, normalised once."""

    N, SHARDS, BLOCK = 96, 4, 16

    def _inputs(self, seed=0, heads=2, kv_heads=None, q_gain=1.0):
        rng = np.random.default_rng(seed)
        q = q_gain * rng.normal(size=(heads, self.N, 8))
        k = q_gain * rng.normal(size=(kv_heads or heads, self.N, 8))
        v = rng.normal(size=(kv_heads or heads, self.N, 8))
        return q, k, v

    def _ring_order(self, start=1):
        """Key shards as a ring delivers them to rank ``start``."""
        size = self.N // self.SHARDS
        return [
            np.arange(j * size, (j + 1) * size)
            for j in np.roll(np.arange(self.SHARDS), -start)
        ]

    def _continued(self, q, k, v, mask, shards, ws=None, **begin):
        """``(o, lse)`` of one state carried over ``shards``, armed."""
        q_idx = np.arange(self.N)
        with np.errstate(all="raise"):
            state = SoftmaxState.begin(q, v.shape[-1], **begin)
            for idx in shards:
                plan = (
                    None if mask is None else TilePlan.build(
                        mask, q_idx, idx, self.BLOCK, self.BLOCK,
                        batch=q.shape[0],
                    )
                )
                assert flash_attention_forward(
                    q, k[:, idx], v[:, idx], plan=plan, state=state,
                    block_q=self.BLOCK, block_k=self.BLOCK, workspace=ws,
                ) is None
            return state.finish()

    @pytest.mark.parametrize("mask", [None, CausalMask()], ids=["full", "causal"])
    def test_ring_order_matches_reference_and_one_call(self, mask):
        q, k, v = self._inputs()
        shards = self._ring_order()
        o, lse = self._continued(q, k, v, mask, shards, ws=KernelWorkspace())
        dense = None if mask is None else mask.dense(self.N)
        o_ref, lse_ref = attention_reference(q, k, v, mask=dense)
        np.testing.assert_allclose(o, o_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-12, atol=1e-12)
        # One call over the keys concatenated in the same order.
        order = np.concatenate(shards)
        o_one, lse_one = flash_attention_forward(
            q, k[:, order], v[:, order], block_q=self.BLOCK, block_k=self.BLOCK,
            mask=None if dense is None else dense[:, order],
        )
        np.testing.assert_allclose(o, o_one, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(lse, lse_one, rtol=1e-13, atol=1e-13)

    def test_call_without_a_state_is_one_step_of_the_same_recurrence(self):
        q, k, v = self._inputs(seed=1)
        dense = CausalMask().dense(self.N)
        kw = {"mask": dense, "block_q": self.BLOCK, "block_k": self.BLOCK}
        state = SoftmaxState.begin(q, v.shape[-1])
        flash_attention_forward(q, k, v, state=state, **kw)
        for a, b in zip(state.finish(), flash_attention_forward(q, k, v, **kw)):
            np.testing.assert_array_equal(a, b)

    def test_late_and_never_seen_rows(self):
        """Under a causal mask delivered last-shard-first, the early rows
        see nothing for the first ring steps; padded rows never do."""
        padded = np.r_[3, 50:54]
        mask = PaddedWindowMask(self.N, padded)  # causal + padding
        q, k, v = self._inputs(seed=2)
        shards = self._ring_order(start=self.SHARDS - 1)
        first = mask.block(np.arange(self.N), shards[0])
        assert not first[: self.N // 2].any()  # no key at ring step 0
        o, lse = self._continued(q, k, v, mask, shards)
        o_ref, lse_ref = attention_reference(q, k, v, mask=mask.dense(self.N))
        np.testing.assert_allclose(o, o_ref, rtol=1e-12, atol=1e-12)
        live = np.setdiff1d(np.arange(self.N), padded)
        np.testing.assert_allclose(lse[:, live], lse_ref[:, live], rtol=1e-12)
        assert np.isneginf(lse[:, padded]).all()
        assert not o[:, padded].any()

    def test_large_logits_across_shards(self):
        q, k, v = self._inputs(seed=3, q_gain=30.0)
        assert np.abs(q @ np.swapaxes(k, -1, -2)).max() / np.sqrt(8) > 1e3
        q_idx = np.arange(self.N)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            state = SoftmaxState.begin(q, 8)
            for idx in self._ring_order():
                flash_attention_forward(
                    q, k[:, idx], v[:, idx], state=state,
                    plan=TilePlan.build(
                        CausalMask(), q_idx, idx, self.BLOCK, self.BLOCK,
                        batch=2,
                    ),
                )
            o, lse = state.finish()
        o_ref, lse_ref = attention_reference(
            q, k, v, mask=CausalMask().dense(self.N)
        )
        assert np.isfinite(o).all() and np.isfinite(lse).all()
        np.testing.assert_allclose(o, o_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-9, atol=1e-9)

    def test_gqa_expanded_kv_and_explicit_scale(self):
        from repro.attention.gqa import repeat_kv

        q, k, v = self._inputs(seed=4, heads=4, kv_heads=2)
        k, v = repeat_kv(k, 2), repeat_kv(v, 2)
        o, lse = self._continued(
            q, k, v, CausalMask(), self._ring_order(2), scale=0.25
        )
        o_ref, lse_ref = attention_reference(
            q, k, v, mask=CausalMask().dense(self.N), scale=0.25
        )
        np.testing.assert_allclose(o, o_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-12, atol=1e-12)
        state = SoftmaxState.begin(q, 8, scale=0.25)
        with pytest.raises(ValueError, match="already holds the softmax scale"):
            flash_attention_forward(q, k, v, scale=0.25, state=state)

    def test_alibi_bias_through_the_plans(self):
        mask = ALiBiMask(2)
        q, k, v = self._inputs(seed=5)
        idx = np.arange(self.N)
        o, lse = self._continued(q, k, v, mask, self._ring_order())
        o_ref, lse_ref = attention_reference(
            q, k, v, mask=mask.dense(self.N), bias=mask.bias_block(idx, idx)
        )
        np.testing.assert_allclose(o, o_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lse, lse_ref, rtol=1e-12, atol=1e-12)

    def test_state_is_accounted_until_finished(self):
        from repro.obs.metrics import get_registry
        from repro.obs.mem import reset_transients

        reset_transients()
        gauge = get_registry().gauge("memory.transient_bytes")
        q = np.zeros((2, 32, 8))
        state = SoftmaxState.begin(q, 8)
        assert gauge.value() == 2 * 32 * (8 + 1 + 9) * 8
        state.finish()
        assert gauge.value() == 0
        pinned = PinnedKV(q, q)
        assert gauge.value() == 2 * (2 * 32 * 9) * 8
        pinned.release()
        assert gauge.value() == 0
        reset_transients()

    def test_pinned_kv_accumulates_in_place(self):
        """``dK``/``dV`` summed run by run into one pinned accumulator vs
        the per-call parts added out of place; ``dQ`` is untouched."""
        q, k, v = self._inputs(seed=6)
        rng = np.random.default_rng(7)
        do = rng.normal(size=q.shape)
        dense = CausalMask().dense(self.N)
        o, lse = attention_reference(q, k, v, mask=dense)
        d_stat = np.sum(do * o, axis=-1)
        keys = np.arange(self.N // 2)  # the pinned key shard
        pinned = PinnedKV(k[:, keys], v[:, keys])
        dk_sum = dv_sum = 0.0
        for rows in np.split(np.arange(self.N), self.SHARDS):  # delivered Q_j
            args = (q[:, rows], k[:, keys], v[:, keys], lse[:, rows],
                    d_stat[:, rows], do[:, rows])
            kw = {"mask": dense[np.ix_(rows, keys)], "block_q": self.BLOCK,
                  "block_k": self.BLOCK, "workspace": KernelWorkspace()}
            dq_part, dk_part, dv_part = flash_backward_tiles(*args, **kw)
            dk_sum, dv_sum = dk_sum + dk_part, dv_sum + dv_part
            dq_pin, dk_pin, dv_pin = flash_backward_tiles(
                *args, pinned=pinned, **kw
            )
            assert dk_pin is pinned.dk and dv_pin is pinned.dv
            np.testing.assert_array_equal(dq_pin, dq_part)
        pinned.release()
        np.testing.assert_allclose(pinned.dk, dk_sum, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(pinned.dv, dv_sum, rtol=1e-13, atol=1e-13)
        _, dk_ref, dv_ref = attention_reference_backward(
            q, k, v, o, lse, do, mask=dense
        )
        np.testing.assert_allclose(pinned.dk, dk_ref[:, keys], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(pinned.dv, dv_ref[:, keys], rtol=1e-12, atol=1e-12)


def _bounded_calls() -> float:
    return get_registry().counter("kernels.flash_fwd_bounded_calls").value()


class TestBoundedForward:
    """Shift 0 while every call's Cauchy–Schwarz bound is within
    ``EXP_BUDGET``, the running max from the first call that is not — each
    case against ``attention_reference`` at 1e-12 with every
    floating-point exception armed, counting the calls that ran bounded."""

    N, SHARDS, BLOCK, D = 96, 4, 16, 8

    def _shards(self, start=1):
        """Key shards in the order a ring delivers them to rank ``start``."""
        size = self.N // self.SHARDS
        return [
            np.arange(j * size, (j + 1) * size)
            for j in np.roll(np.arange(self.SHARDS), -start)
        ]

    def _aligned(self, rng, gain, n=None):
        """Rows ``gain * (e_0 + 0.01 * noise in the other axes)``: nearly
        parallel, so their logits sit within 0.1 % of the bound."""
        x = 0.01 * rng.normal(size=(2, n or self.N, self.D))
        x[..., 0] = 1.0
        return gain * x

    def _carried(self, q, k, v, calls, scale=None, armed="all"):
        """``(o, lse)`` of one state carried over ``calls`` — ``(keys,
        kernel kwargs)`` each — and how many of them ran bounded.
        ``armed="all"`` raises on every floating-point exception, otherwise
        on all but underflow."""
        errs = {"all": "raise"} if armed == "all" else {
            "over": "raise", "invalid": "raise", "divide": "raise"
        }
        before = _bounded_calls()
        with np.errstate(**errs):
            state = SoftmaxState.begin(q, v.shape[-1], scale)
            for idx, kw in calls:
                assert flash_attention_forward(
                    q, k[:, idx], v[:, idx], state=state, **kw
                ) is None
            out = state.finish()
        return out, _bounded_calls() - before

    def _plan(self, mask, idx):
        q_idx = np.arange(self.N)
        return TilePlan.build(mask, q_idx, idx, self.BLOCK, self.BLOCK, batch=2)

    @staticmethod
    def _check(got, q, k, v, mask=None, scale=None, bias=None):
        o_ref, lse_ref = attention_reference(
            q, k, v, mask=mask, scale=scale, bias=bias
        )
        np.testing.assert_allclose(got[0], o_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got[1], lse_ref, rtol=1e-12, atol=1e-12)

    def test_switch_mid_ring_keeps_what_the_bounded_shards_met(self):
        """The third shard's keys carry a component no query has: their
        bound is ~10^3 while their logits are as small as the others', so
        the two bounded shards' ``[O | l]`` weighs as much as the rest —
        and the queries that see only the last shard (causal, ring order
        1, 2, 3, 0) meet their first key after the switch."""
        rng = np.random.default_rng(10)
        q, k, v = (rng.normal(size=(2, self.N, self.D)) for _ in range(3))
        q[..., -1] = 0.0
        shards = self._shards()
        k[:, shards[2], -1] += 1000.0
        mask = CausalMask()
        calls = [(idx, {"plan": self._plan(mask, idx)}) for idx in shards]
        got, bounded = self._carried(q, k, v, calls)
        assert bounded == 2
        self._check(got, q, k, v, mask=mask.dense(self.N))

    def test_switch_mid_ring_to_logits_of_1e3(self):
        """The last shard's logits are ~10^3: the first three shards' weights
        fall to e^-990 of the new maximum and underflow to exactly 0,
        which is the right answer — underflow is the one exception not
        armed here."""
        rng = np.random.default_rng(11)
        q = self._aligned(rng, 8.0)
        k, v = (rng.normal(size=(2, self.N, self.D)) for _ in range(2))
        shards = self._shards()
        k[:, shards[-1]] = self._aligned(rng, 500.0, n=len(shards[-1]))
        s = 0.25 * q @ np.swapaxes(k, -1, -2)
        assert 990.0 < s[:, :, shards[-1]].min() and s.max() < 1010.0
        calls = [(idx, {"block_q": self.BLOCK, "block_k": self.BLOCK})
                 for idx in shards]
        got, bounded = self._carried(q, k, v, calls, scale=0.25, armed="under")
        assert bounded == 3
        self._check(got, q, k, v, scale=0.25)

    def test_a_lone_call_at_1e3_tracks_the_max(self):
        rng = np.random.default_rng(12)
        q, k = self._aligned(rng, 8.0), self._aligned(rng, 500.0)
        v = rng.normal(size=(2, self.N, self.D))
        dense = CausalMask().dense(self.N)
        idx = np.arange(self.N)
        before = _bounded_calls()
        with np.errstate(all="raise"):
            o, lse = flash_attention_forward(
                q, k, v, mask=dense, scale=0.25,
                block_q=self.BLOCK, block_k=self.BLOCK,
            )
            planned = flash_attention_forward(
                q, k, v, scale=0.25, plan=self._plan(CausalMask(), idx),
                workspace=KernelWorkspace(),
            )
        assert _bounded_calls() == before
        assert (0.25 * q @ np.swapaxes(k, -1, -2)).min() > 990.0
        self._check((o, lse), q, k, v, mask=dense, scale=0.25)
        for a, b in zip((o, lse), planned):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("over", [False, True], ids=["at", "just-over"])
    def test_a_call_at_the_budget_and_just_over_it(self, over):
        """Rows along one axis with exact norms: ``max ||Q~_i|| = 2`` and
        ``max ||K_j|| = 256`` make the bound exactly ``EXP_BUDGET`` and
        the largest logit 512, which runs bounded without overflow; keys
        one part in 2^40 longer do not run bounded."""
        assert EXP_BUDGET == 512.0
        rng = np.random.default_rng(13)
        q, k = np.zeros((2, 2, self.N, self.D))
        q[..., 0] = 8.0 * rng.uniform(0.5, 1.0, size=(2, self.N))
        k[..., 0] = 256.0 * rng.uniform(0.5, 1.0, size=(2, self.N))
        q[0, 0, 0], k[0, 0, 0] = 8.0, 256.0 * (1.0 + 2.0 ** -40 * over)
        v = rng.normal(size=(2, self.N, self.D))
        before = _bounded_calls()
        with np.errstate(all="raise"):
            got = flash_attention_forward(
                q, k, v, scale=0.25, block_q=self.BLOCK, block_k=self.BLOCK
            )
        assert _bounded_calls() - before == (0 if over else 1)
        self._check(got, q, k, v, scale=0.25)

    @pytest.mark.parametrize("switch", [None, 2], ids=["bounded", "switched"])
    def test_rows_dead_in_every_shard(self, switch):
        padded = np.r_[3, 50:54]
        mask = PaddedWindowMask(self.N, padded)
        rng = np.random.default_rng(14)
        q, k, v = (rng.normal(size=(2, self.N, self.D)) for _ in range(3))
        q[..., -1] = 0.0
        shards = self._shards(start=self.SHARDS - 1)
        if switch is not None:
            k[:, shards[switch], -1] += 1000.0
        calls = [(idx, {"plan": self._plan(mask, idx)}) for idx in shards]
        (o, lse), bounded = self._carried(q, k, v, calls)
        assert bounded == (self.SHARDS if switch is None else switch)
        assert np.isneginf(lse[:, padded]).all() and not o[:, padded].any()
        live = np.setdiff1d(np.arange(self.N), padded)
        o_ref, lse_ref = attention_reference(q, k, v, mask=mask.dense(self.N))
        np.testing.assert_allclose(o, o_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            lse[:, live], lse_ref[:, live], rtol=1e-12, atol=1e-12
        )

    def test_rows_dead_until_the_switch_get_no_shift(self):
        """A row that met no key before the switch gets ``m = -inf``, not
        the shift 0: its first logits are ~-800, and ``exp(-800 - 0)``
        would underflow it into a row that looks dead."""
        rng = np.random.default_rng(15)
        q = self._aligned(rng, 8.0)
        k = rng.normal(size=(2, self.N, self.D))
        v = rng.normal(size=(2, self.N, self.D))
        early, late = self._shards(start=0)[:2], self._shards(start=0)[2:]
        late = np.concatenate(late)
        k[:, late] = -self._aligned(rng, 400.0, n=len(late))
        rows = np.arange(self.N)
        dense = np.zeros((self.N, self.N), dtype=bool)
        dense[np.ix_(rows < 48, np.concatenate(early))] = True
        dense[np.ix_(rows >= 48, late)] = True
        calls = [
            (idx, {"mask": dense[:, idx], "block_q": self.BLOCK,
                   "block_k": self.BLOCK})
            for idx in (*early, late)
        ]
        got, bounded = self._carried(q, k, v, calls, scale=0.25)
        assert bounded == 2
        assert got[1][:, 48:].max() < -790.0
        self._check(got, q, k, v, mask=dense, scale=0.25)

    @pytest.mark.parametrize("bound", [1.0, 1000.0], ids=["bounded", "max"])
    def test_planned_equals_dense_on_partial_runs(self, bound):
        """Causal runs — full ones wider than one sub-tile, partial ones
        on the diagonal — in either mode: planned == dense bitwise, both
        at 1e-12."""
        rng = np.random.default_rng(16)
        q, k, v = (rng.normal(size=(2, self.N, self.D)) for _ in range(3))
        q[..., -1] = 0.0
        k[..., -1] += bound
        dense = CausalMask().dense(self.N)
        plan = self._plan(CausalMask(), np.arange(self.N))
        runs = [run for i in range(plan.n_q_blocks) for run in plan.row(i)]
        assert any(m is not None for _, _, m in runs)
        assert any(k1 - k0 > self.BLOCK for k0, k1, _ in runs)
        before = _bounded_calls()
        with np.errstate(all="raise"):
            planned = flash_attention_forward(
                q, k, v, plan=plan, workspace=KernelWorkspace()
            )
            got = flash_attention_forward(
                q, k, v, mask=dense, block_q=self.BLOCK, block_k=self.BLOCK
            )
        assert _bounded_calls() - before == (2 if bound == 1.0 else 0)
        self._check(got, q, k, v, mask=dense)
        for a, b in zip(got, planned):
            np.testing.assert_array_equal(a, b)

    def test_gqa_expanded_kv_runs_bounded(self):
        from repro.attention.gqa import repeat_kv

        rng = np.random.default_rng(17)
        q = rng.normal(size=(4, self.N, self.D))
        k, v = (
            repeat_kv(rng.normal(size=(2, self.N, self.D)), 2) for _ in range(2)
        )
        calls = [(idx, {"plan": TilePlan.build(
            CausalMask(), np.arange(self.N), idx, self.BLOCK, self.BLOCK,
            batch=4,
        )}) for idx in self._shards(start=2)]
        got, bounded = self._carried(q, k, v, calls)
        assert bounded == self.SHARDS
        self._check(got, q, k, v, mask=CausalMask().dense(self.N))

    def test_alibi_tracks_the_max_at_any_bound(self):
        """A bias is outside the bound, so a plan that carries one takes
        the running max however small the logits."""
        mask = ALiBiMask(2)
        rng = np.random.default_rng(18)
        q, k, v = (0.1 * rng.normal(size=(2, self.N, self.D)) for _ in range(3))
        calls = [(idx, {"plan": self._plan(mask, idx)}) for idx in self._shards()]
        got, bounded = self._carried(q, k, v, calls)
        assert bounded == 0
        idx = np.arange(self.N)
        self._check(
            got, q, k, v, mask=mask.dense(self.N),
            bias=mask.bias_block(idx, idx),
        )


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

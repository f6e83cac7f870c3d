"""Kernel backend registry: the seam between call sites and kernels.

One backend ships (``reference``); the registry exists so that tests can
substitute a fake and so that another implementation can be registered
later.  Its contract is that a backend is an *implementation* choice,
never a *semantics* choice: every registered backend must be
bitwise-indistinguishable from the kernel functions on every input they
accept (dense masks, additive bias, tile plans, ragged block edges).
These tests pin the selection plumbing (registration, named lookup, nested
``use_backend``), that a substituted backend is what call sites actually
invoke, that conformance contract for whatever is registered, and the
``backend``-labelled kernel spans feeding the per-backend report
breakdown.
"""

import numpy as np
import pytest

import repro.kernels.backend as backend_mod
from repro.kernels import (
    KernelWorkspace,
    ReferenceBackend,
    TilePlan,
    available_backends,
    counters,
    current_backend_name,
    flash_attention_backward,
    flash_attention_forward,
    get_backend,
    register_backend,
    use_backend,
)
from repro.masks import ALiBiMask, CausalMask
from repro.masks.patterns import SlidingWindowMask
from repro.obs import spans_to_chrome_json, use_tracing
from repro.obs.report import kernel_time_by_backend


class RecordingBackend(ReferenceBackend):
    """A fake: the reference kernels, plus a log of which entry points
    were called."""

    name = "fake"

    def __init__(self):
        self.calls = []

    def flash_forward(self, *args, **kw):
        self.calls.append("flash_forward")
        return super().flash_forward(*args, **kw)

    def flash_backward(self, *args, **kw):
        self.calls.append("flash_backward")
        return super().flash_backward(*args, **kw)


@pytest.fixture
def fake(monkeypatch):
    """``RecordingBackend`` registered as ``fake`` for one test (the
    registry's tables are restored afterwards)."""
    monkeypatch.setattr(backend_mod, "_factories", dict(backend_mod._factories))
    monkeypatch.setattr(backend_mod, "_instances", dict(backend_mod._instances))
    register_backend("fake", RecordingBackend)
    return get_backend("fake")


class TestRegistry:
    def test_reference_is_first_and_the_default(self, fake):
        assert available_backends() == ["reference", "fake"]
        assert current_backend_name() == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("no-such-backend")

    def test_duplicate_registration_rejected_unless_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("reference", ReferenceBackend)
        register_backend("reference", ReferenceBackend, replace=True)
        assert get_backend("reference").name == "reference"

    def test_named_lookup_does_not_change_active(self, fake):
        assert get_backend("fake") is fake
        assert current_backend_name() == "reference"

    def test_use_backend_nests_and_restores(self, fake):
        with use_backend("fake"):
            assert current_backend_name() == "fake"
            with use_backend("reference"):
                assert current_backend_name() == "reference"
            assert current_backend_name() == "fake"
        assert current_backend_name() == "reference"

    def test_substituted_backend_is_what_call_sites_invoke(self, fake):
        """``use_backend`` takes a name or an instance, and a distributed
        pass resolves its kernels through whatever is active."""
        from repro.attention.ring import ring_attention_forward
        from repro.comm import SimCommunicator
        from repro.comm.ring import global_ring_schedule
        from repro.topology import make_cluster

        topo = make_cluster(2)
        rng = np.random.default_rng(0)
        qs, ks, vs = (
            [rng.normal(size=(2, 8, 4)) for _ in range(2)] for _ in range(3)
        )
        idxs = [np.arange(8), np.arange(8, 16)]

        def ring_pass():
            return ring_attention_forward(
                SimCommunicator(topo), global_ring_schedule(topo),
                qs, ks, vs, idxs, mask=CausalMask(), block_size=4,
            )

        expected = ring_pass()
        assert fake.calls == []
        own = RecordingBackend()
        for backend, log in (("fake", fake.calls), (own, own.calls)):
            with use_backend(backend) as active:
                assert get_backend() is active
                got = ring_pass()
            # causal on 2 ranks: 3 of the 4 shard pairs are non-empty
            assert log == ["flash_forward"] * 3
            for a_parts, b_parts in zip(expected, got):
                for a, b in zip(a_parts, b_parts):
                    assert np.array_equal(a, b)
        assert get_backend().name == "reference"


def _qkvdo(rng, heads, seq, dim):
    return (rng.normal(size=(heads, seq, dim)) for _ in range(4))


class _KernelFunctions:
    """The kernel functions themselves, shaped like a backend."""

    flash_forward = staticmethod(flash_attention_forward)
    flash_backward = staticmethod(flash_attention_backward)


def _run_flash(backend, q, k, v, do, **kw):
    ws = KernelWorkspace()
    o, lse = backend.flash_forward(q, k, v, workspace=ws, **kw)
    dq, dk, dv = backend.flash_backward(q, k, v, o, lse, do, workspace=ws, **kw)
    return o, lse, dq, dk, dv


class TestBitwiseIdentity:
    """Every registered backend must reproduce the kernel functions bit
    for bit, not approximately."""

    @pytest.mark.parametrize("case", [
        {"name": "plain", "seq": 100, "heads": 3, "dim": 16},
        {"name": "dense-causal", "seq": 96, "heads": 2, "dim": 8,
         "mask": "causal"},
        {"name": "dense-window", "seq": 96, "heads": 2, "dim": 8,
         "mask": "window"},
        {"name": "alibi-bias", "seq": 80, "heads": 4, "dim": 8,
         "mask": "causal", "bias": True},
        {"name": "planned-causal", "seq": 128, "heads": 2, "dim": 16,
         "plan": "causal"},
        {"name": "ragged-tail", "seq": 70, "heads": 2, "dim": 8},
        {"name": "planned-window-ragged", "seq": 70, "heads": 2, "dim": 8,
         "plan": "window"},
    ], ids=lambda c: c["name"])
    def test_flash_matches_reference(self, case):
        rng = np.random.default_rng(11)
        s, h, d = case["seq"], case["heads"], case["dim"]
        q, k, v, do = _qkvdo(rng, h, s, d)
        kw = {"block_q": 32, "block_k": 32}
        if case.get("mask") == "causal":
            kw["mask"] = CausalMask().dense(s)
        elif case.get("mask") == "window":
            kw["mask"] = SlidingWindowMask(window=s // 4).dense(s)
        if case.get("bias"):
            idx = np.arange(s)
            kw["bias"] = ALiBiMask(n_heads=h).bias_block(idx, idx)
        if case.get("plan"):
            idx = np.arange(s)
            pattern = (
                CausalMask() if case["plan"] == "causal"
                else SlidingWindowMask(window=s // 4)
            )
            kw = {"plan": TilePlan.build(pattern, idx, idx, 32, 32)}
        ref = _run_flash(_KernelFunctions, q, k, v, do, **kw)
        for backend in available_backends():
            got = _run_flash(get_backend(backend), q, k, v, do, **kw)
            for name, a, b in zip(("o", "lse", "dq", "dk", "dv"), ref, got):
                assert np.array_equal(a, b), (
                    f"{case['name']}: {backend} {name} diverged"
                )

    def test_tile_counters_match_reference(self):
        rng = np.random.default_rng(7)
        q, k, v, do = _qkvdo(rng, 2, 128, 8)
        idx = np.arange(128)
        plan = TilePlan.build(CausalMask(), idx, idx, 32, 32)

        def counted(backend):
            counters.reset()
            _run_flash(backend, q, k, v, do, plan=plan)
            snap = counters.snapshot()
            return {k_: snap[k_] for k_ in (
                "tiles_computed", "tiles_skipped", "computed_pairs",
            )}

        expected = counted(_KernelFunctions)
        assert expected["tiles_computed"] > 0
        for backend in available_backends():
            assert counted(get_backend(backend)) == expected, backend


class TestSpanLabels:
    def test_kernel_spans_carry_backend_and_report_groups_them(self):
        rng = np.random.default_rng(3)
        q, k, v, do = _qkvdo(rng, 2, 96, 8)
        x = rng.normal(size=(64, 16))
        wg = rng.normal(size=(48, 16))
        wu = rng.normal(size=(48, 16))
        wd = rng.normal(size=(16, 48))
        with use_tracing() as tracer:
            _run_flash(get_backend(), q, k, v, do)
            get_backend().mlp_forward(x, wg, wu, wd)
            get_backend().mlp_forward(x, wg, wu, wd, chunk_size=16)
        spans = tracer.spans()
        kernel = [s for s in spans
                  if s.name.startswith(("flash.", "mlp."))]
        assert kernel, "no kernel spans recorded"
        assert all("backend" in s.attrs for s in kernel)
        payload = spans_to_chrome_json(spans)
        by_backend = kernel_time_by_backend(payload)
        assert set(by_backend) == {"reference"}
        assert by_backend["reference"]["total"] > 0.0
        assert "flash.fwd" in by_backend["reference"]
        assert "mlp.fwd" in by_backend["reference"]

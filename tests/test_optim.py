"""In-place optimizers vs the textbook expressions they replaced.

``repro.nn.optim`` updates parameters and moments with ``out=`` ufuncs on
cache-sized pieces.  The references below are the allocating formulas
transcribed literally; the in-place steps perform the same elementary
operations in the same order, so everything must match **bitwise** — for
every gradient layout autograd produces, every parameter shape, and for a
parameter whose storage is not C-contiguous (where a flat view would be a
copy and the update a silent no-op).
"""

import numpy as np
import pytest

from repro.nn import SGD, Adam, AdamW
from repro.nn import optim
from repro.nn.tensor import Tensor

STEPS = 6


def ref_sgd(data, grads, lr=1e-2, momentum=0.9):
    vel = [np.zeros_like(d) for d in data]
    for step_grads in grads:
        for i, g in enumerate(step_grads):
            if g is None:
                continue
            vel[i] = momentum * vel[i] + g
            data[i] -= lr * vel[i]
    return data, vel


def ref_adam(data, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8,
             weight_decay=None):
    m = [np.zeros_like(d) for d in data]
    v = [np.zeros_like(d) for d in data]
    for t, step_grads in enumerate(grads, start=1):
        if weight_decay is not None:
            for i, g in enumerate(step_grads):
                if g is not None:
                    data[i] -= lr * weight_decay * data[i]
        bias1 = 1.0 - b1**t
        bias2 = 1.0 - b2**t
        for i, g in enumerate(step_grads):
            if g is None:
                continue
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * (g * g)
            m_hat = m[i] / bias1
            v_hat = v[i] / bias2
            data[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return data, m + v


def _cases(rng):
    """``(initial data, per-step gradients)`` per parameter: the layouts
    and shapes the optimizers meet."""
    big = optim.PIECE_ELEMS + 4097  # two pieces, ragged tail

    def grads(make):
        return [make() for _ in range(STEPS)]

    return {
        "contiguous": (rng.normal(size=(40, 24)),
                       grads(lambda: rng.normal(size=(40, 24)))),
        # what every weight matrix receives: a transposed view
        "f_contiguous_grad": (rng.normal(size=(40, 24)),
                              grads(lambda: rng.normal(size=(24, 40)).T)),
        "sliced_grad": (rng.normal(size=(40, 24)),
                        grads(lambda: rng.normal(size=(80, 48))[::2, ::2])),
        "vector": (rng.normal(size=24), grads(lambda: rng.normal(size=24))),
        "size_one": (rng.normal(size=(1,)),
                     grads(lambda: rng.normal(size=(1,)))),
        "zero_dim": (rng.normal(size=()), grads(lambda: rng.normal(size=()))),
        "spans_pieces": (rng.normal(size=big),
                         grads(lambda: rng.normal(size=big))),
        "spans_pieces_f_grad": (
            rng.normal(size=(big // 3, 3)),
            grads(lambda: rng.normal(size=(3, big // 3)).T),
        ),
        "never_has_a_grad": (rng.normal(size=(5, 5)), [None] * STEPS),
        "grad_on_odd_steps": (
            rng.normal(size=(5, 5)),
            [rng.normal(size=(5, 5)) if s % 2 else None
             for s in range(STEPS)],
        ),
        # storage a flat view cannot alias
        "f_contiguous_param": (np.asfortranarray(rng.normal(size=(40, 24))),
                               grads(lambda: rng.normal(size=(40, 24)))),
        "sliced_param": (rng.normal(size=(80, 24))[::2],
                         grads(lambda: rng.normal(size=(24, 40)).T)),
    }


@pytest.mark.parametrize(
    "make, reference",
    [
        (lambda ps: SGD(ps, lr=1e-2, momentum=0.9), ref_sgd),
        (lambda ps: Adam(ps, lr=1e-3), ref_adam),
        (lambda ps: AdamW(ps, lr=1e-3, weight_decay=0.05),
         lambda d, g: ref_adam(d, g, weight_decay=0.05)),
    ],
    ids=["sgd_momentum", "adam", "adamw"],
)
def test_in_place_step_is_bitwise_the_textbook_step(make, reference):
    cases = _cases(np.random.default_rng(0))
    twin = _cases(np.random.default_rng(0))  # same values, for the reference
    names = list(cases)
    storage = [cases[n][0] for n in names]
    params = [Tensor(data, requires_grad=True) for data in storage]
    assert not params[names.index("sliced_param")].data.flags.c_contiguous
    opt = make(params)
    per_step = [[cases[n][1][s] for n in names] for s in range(STEPS)]
    for step_grads in per_step:
        kept = [None if g is None else g.copy() for g in step_grads]
        for p, g in zip(params, step_grads):
            p.grad = g
        opt.step()
        for p, g, before in zip(params, step_grads, kept):
            assert p.grad is g  # never replaced ...
            if g is not None:
                assert np.array_equal(g, before)  # ... and never written
    want_data, want_state = reference([twin[n][0] for n in names], per_step)
    for name, p, held, want in zip(names, params, storage, want_data):
        assert p.data is held, name  # updated where it lives
        assert np.array_equal(p.data, want), name
    if isinstance(opt, SGD):
        got_state = opt._velocity
    else:
        got_state = opt._m + opt._v
    for i, (got, want) in enumerate(zip(got_state, want_state)):
        assert np.array_equal(got, want), names[i % len(names)]


def test_plain_sgd_matches_and_keeps_no_state():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(7, 9))
    p = Tensor(data.copy(), requires_grad=True)
    opt = SGD([p], lr=0.1)
    want = data.copy()
    for _ in range(STEPS):
        p.grad = rng.normal(size=(9, 7)).T
        want -= 0.1 * p.grad
        opt.step()
    assert np.array_equal(p.data, want)
    assert opt.state_bytes() == 0 and opt.state_dict()["arrays"] == {}


def test_non_contiguous_parameter_is_updated_not_skipped():
    """``reshape(-1)`` of a strided array is a copy; an update through it
    would leave the parameter untouched without any error."""
    base = np.ones((6, 4))
    p = Tensor(base[::2], requires_grad=True)  # rows 0, 2, 4 of ``base``
    assert not p.data.flags.c_contiguous
    p.grad = np.full((3, 4), 2.0)
    SGD([p], lr=0.5).step()
    assert np.array_equal(base[::2], np.zeros((3, 4)))
    assert np.array_equal(base[1::2], np.ones((3, 4)))


def test_scratch_is_not_optimizer_state():
    rng = np.random.default_rng(2)
    params = [Tensor(rng.normal(size=s), requires_grad=True)
              for s in ((8, 8), (8,))]
    opt = Adam(params)
    expected = 2 * sum(p.data.nbytes for p in params)
    assert opt.state_bytes() == expected
    state = opt.state_dict()
    assert sorted(state["arrays"]) == ["m:0", "m:1", "v:0", "v:1"]
    assert sorted(k for k in state if k != "arrays") == [
        "beta1", "beta2", "eps", "kind", "lr", "t",
    ]
    # sized to the work: never more than a piece, never more than needed
    assert opt._scratch.shape == (2, 64)


def test_state_dict_round_trip_continues_bitwise():
    rng = np.random.default_rng(3)
    shapes = ((12, 6), (6,))
    grads = [[rng.normal(size=s[::-1]).T for s in shapes] for _ in range(4)]

    def run(opt, params, steps):
        for step_grads in steps:
            for p, g in zip(params, step_grads):
                p.grad = g
            opt.step()

    init = [rng.normal(size=s) for s in shapes]
    a = [Tensor(d.copy(), requires_grad=True) for d in init]
    opt_a = AdamW(a, lr=1e-2)
    run(opt_a, a, grads[:2])
    b = [Tensor(p.data.copy(), requires_grad=True) for p in a]
    opt_b = AdamW(b, lr=1.0)
    opt_b.load_state_dict(opt_a.state_dict())
    run(opt_a, a, grads[2:])
    run(opt_b, b, grads[2:])
    for p, q in zip(a, b):
        assert np.array_equal(p.data, q.data)
    # the loaded moments are the resumed optimizer's own buffers
    for m_a, m_b in zip(opt_a._m + opt_a._v, opt_b._m + opt_b._v):
        assert m_a is not m_b and np.array_equal(m_a, m_b)

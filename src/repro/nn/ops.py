"""Differentiable operations for the numpy autograd engine."""

from __future__ import annotations

import numpy as np

from repro.kernels.mlp import sigmoid, silu_grad
from repro.nn.function import Function
from repro.nn.tensor import Tensor, _wrap


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Add(Function):
    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return a + b

    def backward(self, g):
        sa, sb = self.shapes
        return _unbroadcast(g, sa), _unbroadcast(g, sb)


class Sub(Function):
    def forward(self, a, b):
        self.shapes = (a.shape, b.shape)
        return a - b

    def backward(self, g):
        sa, sb = self.shapes
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)


class Mul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a * b

    def backward(self, g):
        a, b = self.saved
        return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)


class Div(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a / b

    def backward(self, g):
        a, b = self.saved
        return (
            _unbroadcast(g / b, a.shape),
            _unbroadcast(-g * a / (b * b), b.shape),
        )


class MatMul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return np.matmul(a, b)

    def backward(self, g):
        a, b = self.saved
        ga = np.matmul(g, np.swapaxes(b, -1, -2))
        gb = np.matmul(np.swapaxes(a, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)


class PreNormFn(Function):
    """A node that may read its input through a folded LLaMA RMSNorm.

    ``apply(x, *weights)`` runs the node on ``x``.  ``apply(x, x, x, w,
    *weights, eps=eps)`` runs it on ``n = x / sqrt(mean(x²) + eps) * w``
    without saving ``n``: the node saves ``x`` and the ``(S, 1)`` row
    ``ms = mean(x²) + eps`` (``S·D + S`` elements, ``w`` held by
    reference, as a parameter), and its backward rebuilds ``n`` with the
    forward's expressions, runs the consumer's backward and then the
    norm's (:meth:`_norm_backward`).  So a norm followed by its only
    reader costs one saved ``(S, D)`` array, not two, and values and
    gradients are the two nodes' bits.  The folded readers are a block's
    attention node (:class:`~repro.nn.attention_fn.AttentionFn`), the
    fused FFN (:class:`~repro.nn.mlp_fn.BlockwiseMLPFn`) and the model's
    head node (:class:`~repro.nn.modules.FusedLMHeadLossFn`), which runs
    the norm's backward in its forward and saves ``x``'s gradient
    instead of ``x`` and the row (the pair's bits when the upstream
    gradient is a power of two).

    The RMSNorm expressions are written here once: :class:`RMSNormFn`
    is this node with nothing after the norm.  Its forward runs the op
    sequence of the ``Mul`` / ``Mean`` / ``Add`` / ``Pow`` / ``Mul`` /
    ``Mul`` composite it replaced (``x*x → mean → +eps → **-0.5 →
    x*inv → *w``), and :meth:`_norm_backward` evaluates each of those
    nodes' backward expressions in turn.  (Saving ``inv`` instead of
    ``ms`` costs the same bytes, but the ``Pow`` backward reads ``ms``,
    which would then cost an ``S·D`` re-reduction.)  ``x`` enters three
    times so the graph adds its gradient in the composite's order: after
    any later consumer (a residual ``add``), ``g·w·inv`` from ``Mul(x,
    inv)``, then the two halves of ``Mul(x, x)``.
    """

    def _norm_inputs(self, args, eps):
        """``(x, ms, weights)`` from ``apply``'s arrays; ``ms`` is
        ``None`` without a folded norm."""
        if eps is None:
            x, *weights = args
            self.norm_weight = ms = None
        else:
            x, _x_sq_a, _x_sq_b, self.norm_weight, *weights = args
            ms = (x * x).mean(axis=-1, keepdims=True) + eps
        return x, ms, weights

    def _save_inputs(self, args, eps):
        """:meth:`_norm_inputs`, all three saved (a node that saves
        more than its inputs calls ``save_for_backward`` itself)."""
        x, ms, weights = self._norm_inputs(args, eps)
        self.save_for_backward(x, ms, *weights)
        return x, ms, weights

    def _normed(self, x, ms):
        """What the consumer reads: ``x``, or ``x·ms^-½·w``."""
        if ms is None:
            return x
        out = x * ms**-0.5
        out *= self.norm_weight
        return out

    def _norm_backward(self, g, x, ms) -> tuple:
        """The gradients of ``x`` (one term, or the norm's three) and the
        norm weight, from the consumer's input gradient ``g``."""
        if ms is None:
            return (g,)
        # The composite's expressions, each in-place step a commutative
        # IEEE operation on the same operands (same bits, fewer buffers).
        w = self.norm_weight
        inv = ms**-0.5
        g_xn = g * w  # Mul(xn, w)
        g_w = x * inv
        g_w *= g
        g_w = _unbroadcast(g_w, w.shape)
        g_x_inv = g_xn * x  # Mul(x, inv) -> inv
        g_inv = _unbroadcast(g_x_inv, inv.shape)
        g_ms = g_inv * -0.5 * ms**-1.5  # Pow
        # Mean, then either half of Mul(x, x), over g_x_inv's buffer
        half = np.multiply(x, g_ms / (x.size / ms.size), out=g_x_inv)
        g_xn *= inv  # Mul(x, inv) -> x
        return g_xn, half, half, g_w


def pre_norm_inputs(x, norm) -> tuple[tuple, dict]:
    """``apply`` arguments of a :class:`PreNormFn` reading ``norm(x)``:
    ``norm`` is an :class:`~repro.nn.modules.RMSNorm` (its ``weight`` and
    ``eps``), or ``None`` to read ``x`` itself."""
    x = _wrap(x)
    if norm is None:
        return (x,), {}
    return (x, x, x, _wrap(norm.weight)), {"eps": norm.eps}


class Pow(Function):
    def forward(self, a, exponent: float):
        self.exponent = exponent
        self.save_for_backward(a)
        return a**exponent

    def backward(self, g):
        (a,) = self.saved
        return (g * self.exponent * a ** (self.exponent - 1),)


class Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, g):
        (out,) = self.saved
        return (g * out,)


class Log(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, g):
        (a,) = self.saved
        return (g / a,)


class Tanh(Function):
    def forward(self, a):
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, g):
        (out,) = self.saved
        return (g * (1.0 - out * out),)


class SiLU(Function):
    """x * sigmoid(x) — LLaMA's activation.

    Saves only its input: the backward recomputes the sigmoid with the
    forward's expression, so its gradient is the same bits either way.
    Both directions evaluate their expressions in place on one buffer
    (every step is a commutative IEEE operation on the same operands),
    with the SwiGLU kernels' helpers (:mod:`repro.kernels.mlp`).
    """

    def forward(self, a):
        self.save_for_backward(a)
        out = sigmoid(a)
        out *= a
        return out

    def backward(self, g):
        (a,) = self.saved
        return (silu_grad(g, a, sigmoid(a), out=None),)


class GELU(Function):
    """Tanh-approximate GELU."""

    _C = np.sqrt(2.0 / np.pi)

    def forward(self, a):
        inner = self._C * (a + 0.044715 * a**3)
        t = np.tanh(inner)
        self.save_for_backward(a, t)
        return 0.5 * a * (1.0 + t)

    def backward(self, g):
        a, t = self.saved
        d_inner = self._C * (1.0 + 3 * 0.044715 * a**2)
        grad = 0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * d_inner
        return (g * grad,)


class RMSNormFn(PreNormFn):
    """LLaMA RMSNorm ``x / sqrt(mean(x²) + eps) * w`` as one node: a
    :class:`PreNormFn` with nothing after the norm, applied as
    ``apply(x, x, x, w, eps=eps)``.

    It saves ``x`` and the ``(S, 1)`` row ``ms`` (``S·D + S`` elements)
    and is bitwise the six-node composite it replaced, forward and
    gradients.  No training forward of the model reaches it: every norm
    folds into the node that reads it (only inference,
    ``TransformerLM.logits``, calls the final norm as a module).
    """

    def forward(self, *args, eps: float = 1e-6):
        x, ms, _ = self._save_inputs(args, eps)
        return self._normed(x, ms)

    def backward(self, g):
        x, ms = self.saved
        return self._norm_backward(g, x, ms)


class Sum(Function):
    def forward(self, a, axis=None, keepdims=False):
        self.in_shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, g):
        g = np.asarray(g)
        if self.axis is not None and not self.keepdims:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            for ax in sorted(a % len(self.in_shape) for a in axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, self.in_shape).copy(),)


class Mean(Function):
    def forward(self, a, axis=None, keepdims=False):
        self.in_shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        out = a.mean(axis=axis, keepdims=keepdims)
        self.count = a.size / out.size
        return out

    def backward(self, g):
        g = np.asarray(g) / self.count
        if self.axis is not None and not self.keepdims:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            for ax in sorted(a % len(self.in_shape) for a in axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, self.in_shape).copy(),)


class Reshape(Function):
    def forward(self, a, shape):
        self.in_shape = a.shape
        return a.reshape(shape)

    def backward(self, g):
        return (g.reshape(self.in_shape),)


class Swapaxes(Function):
    def forward(self, a, ax1: int, ax2: int):
        self.axes = (ax1, ax2)
        return np.swapaxes(a, ax1, ax2)

    def backward(self, g):
        return (np.swapaxes(g, *self.axes),)


class GetItem(Function):
    def forward(self, a, key):
        self.in_shape = a.shape
        self.key = key
        return a[key]

    def backward(self, g):
        out = np.zeros(self.in_shape)
        np.add.at(out, self.key, g)
        return (out,)


class Concat(Function):
    def forward(self, *arrays, axis=0):
        self.axis = axis
        self.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, g):
        splits = np.cumsum(self.sizes)[:-1]
        return tuple(np.split(g, splits, axis=self.axis))


def _check_dropout_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")


def dropout_mask(shape, p: float, rng=None) -> np.ndarray:
    """Inverted dropout's mask: ``0`` for a dropped element, ``1/(1-p)``
    for a survivor.  Without an explicit ``rng`` it is drawn from
    :func:`repro.nn.rng.current_rng`, so a checkpoint replay under the
    same scoped seed draws the same masks."""
    _check_dropout_p(p)
    if rng is None:
        from repro.nn.rng import current_rng

        rng = current_rng()
    keep = 1.0 - p
    return (rng.random(shape) < keep) / keep


class DropoutFn(Function):
    """``a * mask`` with a :func:`dropout_mask`: the mask is kept by the
    node (it is not an activation of the graph) and read by its
    backward."""

    def forward(self, a, mask):
        self.mask = mask
        return a * mask

    def backward(self, g):
        return (g * self.mask,)


class EmbeddingLookup(Function):
    """Row gather from an embedding table (integer ids are non-diff)."""

    def forward(self, table, ids):
        self.ids = np.asarray(ids)
        self.table_shape = table.shape
        return table[self.ids]

    def backward(self, g):
        grad = np.zeros(self.table_shape)
        np.add.at(grad, self.ids, g)
        return (grad,)


# --- functional wrappers ------------------------------------------------------


def add(a, b):
    return Add.apply(_wrap(a), _wrap(b))


def sub(a, b):
    return Sub.apply(_wrap(a), _wrap(b))


def mul(a, b):
    return Mul.apply(_wrap(a), _wrap(b))


def div(a, b):
    return Div.apply(_wrap(a), _wrap(b))


def matmul(a, b):
    return MatMul.apply(_wrap(a), _wrap(b))


def pow(a, exponent: float):  # noqa: A001 - mirrors Tensor.__pow__
    return Pow.apply(_wrap(a), exponent)


def exp(a):
    return Exp.apply(_wrap(a))


def log(a):
    return Log.apply(_wrap(a))


def tanh(a):
    return Tanh.apply(_wrap(a))


def silu(a):
    return SiLU.apply(_wrap(a))


def gelu(a):
    return GELU.apply(_wrap(a))


def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors Tensor.sum
    return Sum.apply(_wrap(a), axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims=False):
    return Mean.apply(_wrap(a), axis=axis, keepdims=keepdims)


def reshape(a, shape):
    return Reshape.apply(_wrap(a), tuple(shape))


def swapaxes(a, ax1: int, ax2: int):
    return Swapaxes.apply(_wrap(a), ax1, ax2)


def getitem(a, key):
    return GetItem.apply(_wrap(a), key)


def concat(tensors, axis=0):
    return Concat.apply(*[_wrap(t) for t in tensors], axis=axis)


def embedding(table, ids):
    return EmbeddingLookup.apply(_wrap(table), np.asarray(ids))


def dropout(a, p: float = 0.1, training: bool = True, rng=None, mask=None):
    """Inverted dropout; identity when ``training`` is False or ``p == 0``.

    The mask is :func:`dropout_mask`'s (from
    :func:`repro.nn.rng.current_rng` without an explicit ``rng``, so
    dropout inside a checkpointed layer replays identically during
    recomputation), or ``mask`` when the caller drew it.
    """
    a = _wrap(a)
    if mask is None:
        if not training or p == 0.0:
            _check_dropout_p(p)
            return a
        mask = dropout_mask(a.shape, p, rng)
    return DropoutFn.apply(a, mask=mask)


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """LLaMA RMSNorm: ``x / sqrt(mean(x^2) + eps) * weight`` (one
    :class:`RMSNormFn` node)."""
    x = _wrap(x)
    return RMSNormFn.apply(x, x, x, _wrap(weight), eps=eps)

"""Optimizers for the numpy autograd engine (SGD, Adam, AdamW).

The paper's ZeRO-Offload setting (Table 5 enables it, Table 4 disables it)
is a placement choice with no numeric effect; it is modeled analytically
(``repro.perf.memory.TrainingSetup.optimizer_offload``), not here.

Every ``step`` updates parameters and moments **in place**: the textbook
formulas' elementary operations run in their written order with ``out=``
on the moment / parameter arrays and two reusable scratch buffers, one
cache-sized piece at a time (:func:`_pieces`), so a step allocates no
parameter-sized temporary and its results are bitwise those of the
allocating expressions (``tests/test_optim.py`` keeps a literal
transcription as the reference).  The scratch is working memory, not
optimizer state: it is in neither ``state_dict()`` nor ``state_bytes()``.
Gradients are only ever read — ``p.grad`` may be a transposed view that
aliases a buffer autograd still owns.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor

#: Elements per in-place update piece.  Two float64 scratch rows of this
#: size are 512 KiB: the piece's parameter, moments, gradient and scratch
#: stay cache-resident across the ~14 elementwise passes of an Adam update
#: (measured best of 4 K … 1 M on ``wide_short``'s 6.4 M parameters:
#: 0.058 s a step against 0.073 at 4 K and 0.069 at 1 M).
PIECE_ELEMS = 32768


def _pieces(
    param: np.ndarray,
    *state: np.ndarray,
    grad: np.ndarray,
    scratch: np.ndarray,
) -> Iterator[list[np.ndarray]]:
    """Aligned same-shape views ``[param, *state, grad, a, b]`` covering
    ``param``, ``a`` / ``b`` being scratch the caller may overwrite.

    Writes through the ``param`` / ``state`` views land in the originals:
    they are flat slices when every written array is C-contiguous, and the
    whole (strided) arrays with fresh scratch otherwise — ``reshape(-1)``
    of a non-contiguous array is a copy, and updating that copy would
    silently leave the parameter untouched.  A non-contiguous ``grad``
    (every weight-matrix gradient arrives as a transposed view) is read
    once into a contiguous copy; it is never written.
    """
    written = (param, *state)
    if not all(arr.flags.c_contiguous for arr in written):
        yield [*written, grad, np.empty(param.shape), np.empty(param.shape)]
        return
    flats = [arr.reshape(-1) for arr in (*written, np.ascontiguousarray(grad))]
    for start in range(0, param.size, PIECE_ELEMS):
        n = min(PIECE_ELEMS, param.size - start)
        yield [f[start:start + n] for f in flats] + [scratch[0, :n], scratch[1, :n]]


def _descend(
    data: np.ndarray, update: np.ndarray, rate: float, a: np.ndarray
) -> None:
    """``data -= rate * update`` through scratch ``a``."""
    np.multiply(update, rate, out=a)
    np.subtract(data, a, out=data)


class Optimizer:
    def __init__(self, params: list[Tensor], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        largest = max(p.data.size for p in self.params)
        self._scratch = np.empty((2, min(PIECE_ELEMS, largest)))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def state_bytes(self) -> int:
        """Bytes of optimizer state (for the memory model)."""
        return 0

    # --- checkpoint support -------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of everything a resumed run needs to continue bitwise.

        Returns a dict of scalars plus an ``"arrays"`` sub-dict of numpy
        buffers (moment estimates etc.), consumed by
        :func:`repro.nn.serialization.save_train_state`.  Like
        ``Tensor.data``, the buffers are the live ones the next ``step``
        updates in place: write or copy them before stepping again.
        """
        return {"kind": type(self).__name__, "lr": self.lr, "arrays": {}}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict` (strict)."""
        kind = state.get("kind")
        if kind != type(self).__name__:
            raise ValueError(
                f"optimizer state is for {kind!r}, not {type(self).__name__!r}"
            )
        self.lr = float(state["lr"])

    def _check_array(self, name: str, arr: np.ndarray, param: Tensor) -> np.ndarray:
        if arr.shape != param.data.shape:
            raise ValueError(
                f"optimizer state {name!r} has shape {arr.shape}, parameter "
                f"has {param.data.shape}"
            )
        return arr.copy()


class SGD(Optimizer):
    """Plain SGD with optional momentum."""

    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params] if momentum else None

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            if self._velocity is None:
                for data, g, a, _ in _pieces(
                    p.data, grad=p.grad, scratch=self._scratch
                ):
                    _descend(data, g, self.lr, a)
            else:
                for data, vel, g, a, _ in _pieces(
                    p.data, self._velocity[i],
                    grad=p.grad, scratch=self._scratch,
                ):
                    np.multiply(vel, self.momentum, out=vel)
                    np.add(vel, g, out=vel)
                    _descend(data, vel, self.lr, a)

    def state_bytes(self) -> int:
        if self._velocity is None:
            return 0
        return sum(v.nbytes for v in self._velocity)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["momentum"] = self.momentum
        if self._velocity is not None:
            state["arrays"] = {
                f"velocity:{i}": v for i, v in enumerate(self._velocity)
            }
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.momentum = float(state.get("momentum", 0.0))
        if self.momentum:
            arrays = state["arrays"]
            self._velocity = [
                self._check_array(f"velocity:{i}", arrays[f"velocity:{i}"], p)
                for i, p in enumerate(self.params)
            ]
        else:
            self._velocity = None


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            for data, m, v, g, a, b in _pieces(
                p.data, self._m[i], self._v[i],
                grad=p.grad, scratch=self._scratch,
            ):
                self._decay(data, a)
                # m = b1 * m + (1 - b1) * g
                np.multiply(m, b1, out=m)
                np.multiply(g, 1 - b1, out=a)
                np.add(m, a, out=m)
                # v = b2 * v + (1 - b2) * (g * g)
                np.multiply(v, b2, out=v)
                np.multiply(g, g, out=a)
                np.multiply(a, 1 - b2, out=a)
                np.add(v, a, out=v)
                # data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
                np.divide(m, bias1, out=a)
                np.multiply(a, self.lr, out=a)
                np.divide(v, bias2, out=b)
                np.sqrt(b, out=b)
                np.add(b, self.eps, out=b)
                np.divide(a, b, out=a)
                np.subtract(data, a, out=data)

    def _decay(self, data: np.ndarray, a: np.ndarray) -> None:
        """Weight decay applied to a piece before its update (none here)."""

    def state_bytes(self) -> int:
        return sum(m.nbytes + v.nbytes for m, v in zip(self._m, self._v))

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(t=self.t, beta1=self.beta1, beta2=self.beta2, eps=self.eps)
        arrays: dict[str, np.ndarray] = {}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            arrays[f"m:{i}"] = m
            arrays[f"v:{i}"] = v
        state["arrays"] = arrays
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.t = int(state["t"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        arrays = state["arrays"]
        self._m = [
            self._check_array(f"m:{i}", arrays[f"m:{i}"], p)
            for i, p in enumerate(self.params)
        ]
        self._v = [
            self._check_array(f"v:{i}", arrays[f"v:{i}"], p)
            for i, p in enumerate(self.params)
        ]


class AdamW(Adam):
    """Adam with decoupled weight decay."""

    def __init__(self, params, lr: float = 1e-3, weight_decay: float = 0.01, **kw):
        super().__init__(params, lr=lr, **kw)
        self.weight_decay = weight_decay

    def _decay(self, data: np.ndarray, a: np.ndarray) -> None:
        _descend(data, data, self.lr * self.weight_decay, a)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["weight_decay"] = self.weight_decay
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.weight_decay = float(state["weight_decay"])

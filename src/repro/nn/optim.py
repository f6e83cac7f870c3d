"""Optimizers for the numpy autograd engine (SGD, Adam, AdamW).

The paper's ZeRO-Offload setting (Table 5 enables it, Table 4 disables it)
is a placement choice with no numeric effect; it is modeled analytically
(``repro.perf.memory.TrainingSetup.optimizer_offload``), not here.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


class Optimizer:
    def __init__(self, params: list[Tensor], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

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
        :func:`repro.nn.serialization.save_train_state`.
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
            if self._velocity is not None:
                self._velocity[i] = self.momentum * self._velocity[i] + p.grad
                update = self._velocity[i]
            else:
                update = p.grad
            p.data -= self.lr * update

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
            g = p.grad
            self._m[i] = b1 * self._m[i] + (1 - b1) * g
            self._v[i] = b2 * self._v[i] + (1 - b2) * (g * g)
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

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

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * self.weight_decay * p.data
        super().step()

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["weight_decay"] = self.weight_decay
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.weight_decay = float(state["weight_decay"])

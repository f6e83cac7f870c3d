"""Kernel backend registry: the seam between call sites and kernels.

Every module that runs a kernel resolves a :class:`KernelBackend` through
:func:`get_backend` and calls its methods instead of importing a concrete
kernel function, so the *implementation* of the hot path can be replaced
without touching a call site.  One backend ships:

``reference``
    Thin delegation to the sequential NumPy kernels in
    :mod:`repro.kernels.flash` / :mod:`repro.kernels.mlp`.  It is the
    default, and the bitwise ground truth any other backend is
    differential-tested against.

The seam has two kinds of caller beyond the default: tests substitute a
fake with ``with use_backend(obj): ...`` (scoped; nests and restores), and
an additional implementation (e.g. a compiled tile loop) enters through
:func:`register_backend` and is then selectable by name the same way.
The contract for any registered backend is that it is an implementation
choice, never a semantics choice: bitwise-indistinguishable from
``reference`` on every input the kernels accept.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.kernels.flash import (
    flash_attention_backward,
    flash_attention_forward,
    flash_backward_tiles,
)
from repro.kernels.mlp import (
    swiglu_mlp_backward,
    swiglu_mlp_forward,
    uses_chunking,
)
from repro.obs.tracer import trace_span

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "available_backends",
    "current_backend_name",
    "get_backend",
    "register_backend",
    "use_backend",
]


class KernelBackend:
    """Interface every kernel backend implements.

    The entry points mirror the reference kernel signatures exactly.  The
    softmax family and the dense attention oracle are deliberately not
    part of the interface: they are the *definitions* backends are tested
    against, not something a backend may reinterpret.
    """

    name: str = "abstract"

    # -- flash attention ------------------------------------------------------

    def flash_forward(
        self, q, k, v, mask=None, scale=None, block_q=None, block_k=None,
        bias=None, plan=None, workspace=None,
    ):
        """Tiled attention forward; returns ``(o, lse)``."""
        raise NotImplementedError

    def flash_backward(
        self, q, k, v, o, lse, do, mask=None, scale=None, block_q=None,
        block_k=None, bias=None, plan=None, workspace=None,
    ):
        """Tiled attention backward; returns ``(dq, dk, dv)``."""
        raise NotImplementedError

    def flash_backward_tiles(
        self, q, k, v, lse, d_stat, do, mask=None, scale=None, block_q=None,
        block_k=None, bias=None, plan=None, workspace=None,
    ):
        """Backward with caller-supplied row statistics (BurstAttention
        Algorithm 2's device step); returns ``(dq, dk, dv)``."""
        raise NotImplementedError

    # -- blockwise MLP --------------------------------------------------------

    def mlp_forward(self, x, w_gate, w_up, w_down, chunk_size=None):
        """SwiGLU FFN forward, optionally chunked over the sequence."""
        raise NotImplementedError

    def mlp_backward(self, x, w_gate, w_up, w_down, dy, chunk_size=None):
        """SwiGLU FFN backward; returns ``(dx, dwg, dwu, dwd)``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class ReferenceBackend(KernelBackend):
    """The sequential NumPy kernels — the bitwise ground truth."""

    name = "reference"

    def flash_forward(self, q, k, v, **kw):
        return flash_attention_forward(q, k, v, **kw)

    def flash_backward(self, q, k, v, o, lse, do, **kw):
        return flash_attention_backward(q, k, v, o, lse, do, **kw)

    def flash_backward_tiles(self, q, k, v, lse, d_stat, do, **kw):
        return flash_backward_tiles(q, k, v, lse, d_stat, do, **kw)

    def mlp_forward(self, x, w_gate, w_up, w_down, chunk_size=None):
        with trace_span(
            "mlp.fwd", phase="compute", backend=self.name,
            chunked=uses_chunking(x, w_gate, w_down, chunk_size),
        ):
            return swiglu_mlp_forward(
                x, w_gate, w_up, w_down, chunk_size=chunk_size
            )

    def mlp_backward(self, x, w_gate, w_up, w_down, dy, chunk_size=None):
        with trace_span(
            "mlp.bwd", phase="compute", backend=self.name,
            chunked=uses_chunking(x, w_gate, w_down, chunk_size),
        ):
            return swiglu_mlp_backward(
                x, w_gate, w_up, w_down, dy, chunk_size=chunk_size
            )


# --- registry -----------------------------------------------------------------

_registry_lock = threading.Lock()
_factories: dict[str, type[KernelBackend] | "callable"] = {}
_instances: dict[str, KernelBackend] = {}
_active: KernelBackend | None = None


def register_backend(name: str, factory, *, replace: bool = False) -> None:
    """Register a backend under ``name``.

    ``factory`` is a zero-argument callable (usually the class) invoked
    lazily the first time the backend is selected.
    """
    with _registry_lock:
        if name in _factories and not replace:
            raise ValueError(f"backend {name!r} is already registered")
        _factories[name] = factory
        _instances.pop(name, None)


def available_backends() -> list[str]:
    """Registered backend names, ``reference`` first."""
    with _registry_lock:
        names = sorted(_factories)
    names.sort(key=lambda n: (n != "reference", n))
    return names


def _instantiate(name: str) -> KernelBackend:
    with _registry_lock:
        inst = _instances.get(name)
        if inst is None:
            factory = _factories.get(name)
            if factory is None:
                known = ", ".join(sorted(_factories))
                raise ValueError(
                    f"unknown kernel backend {name!r}; registered: {known}"
                )
            inst = factory()
            _instances[name] = inst
    return inst


def get_backend(name: str | None = None) -> KernelBackend:
    """The active backend (``reference`` unless a :func:`use_backend`
    scope is open), or the named one without changing the active."""
    global _active
    if name is not None:
        return _instantiate(name)
    if _active is None:
        _active = _instantiate("reference")
    return _active


def current_backend_name() -> str:
    return get_backend().name


@contextmanager
def use_backend(backend: str | KernelBackend):
    """Scoped backend selection: a registered name, or an instance (how
    tests substitute a fake).  Restores the previous backend on exit."""
    global _active
    previous = get_backend()
    _active = (
        backend if isinstance(backend, KernelBackend)
        else _instantiate(backend)
    )
    try:
        yield _active
    finally:
        _active = previous


register_backend("reference", ReferenceBackend)

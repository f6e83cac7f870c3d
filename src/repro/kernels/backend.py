"""Pluggable kernel backend registry.

Every module that used to import a concrete kernel function
(``flash_attention_forward`` & co.) now resolves a :class:`KernelBackend`
through this registry and calls its methods, so the *implementation* of
the hot path is a runtime choice:

``reference``
    The always-on baseline — thin delegation to the sequential NumPy
    kernels in :mod:`repro.kernels.flash` / :mod:`repro.kernels.mlp`.
    Everything else in the repo is differential-tested against it.
``threaded``
    A worker-pool fast path: the flash forward/backward fan their query
    blocks (and the blockwise MLP its sequence chunks) across a thread
    pool.  NumPy releases the GIL inside BLAS calls, so on a multi-core
    host the GEMMs genuinely overlap.  Bitwise-identical to ``reference``
    by construction: forward q-blocks write disjoint output slices, and
    backward ``dk``/``dv`` tiles are merged on the calling thread in
    ascending q-block order — the exact accumulation order of the
    sequential loop (IEEE addition is commutative but not associative;
    preserving the per-slice fold order is what buys bit equality).
    Each worker owns a persistent :class:`~repro.kernels.tileplan
    .KernelWorkspace`; the plan's sub-tile counts are tallied once by the
    calling thread, and the bias-tile counters workers still touch go to
    a thread-local buffer merged on task exit.

Selection::

    set_backend("threaded")             # process-wide
    with use_backend("threaded"): ...   # scoped (tests, fuzzer)
    REPRO_KERNEL_BACKEND=threaded ...   # environment default

``REPRO_KERNEL_WORKERS`` sizes the threaded pool (default 4).  Additional
backends register via :func:`register_backend` and are immediately
reachable from the fuzzer's ``--backend`` axis and the bench harness's
``backends`` suite.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from repro.kernels import softmax as _softmax_mod
from repro.kernels.attention_ref import (
    attention_reference,
    attention_reference_backward,
)
from repro.kernels.flash import (
    DEFAULT_BLOCK,
    _backward_q_block,
    _backward_tiles,
    _forward_q_block,
    _forward_tiles,
    _validate_plan,
    flash_attention_backward,
    flash_attention_forward,
    flash_backward_tiles,
)
from repro.kernels.mlp import (
    backward_chunk,
    transposed_weights,
    chunk_bounds,
    finalize_weight_grads,
    forward_chunk,
    swiglu_mlp_backward,
    swiglu_mlp_forward,
    uses_chunking,
)
from repro.kernels.softmax import NEG_INF
from repro.kernels.tileplan import KernelWorkspace, counters
from repro.obs.tracer import NOOP_SPAN, trace_span

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "ThreadedBackend",
    "available_backends",
    "current_backend_name",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable naming the default backend for the process.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"
#: Environment variable sizing the threaded backend's worker pool.
WORKERS_ENV_VAR = "REPRO_KERNEL_WORKERS"


class KernelBackend:
    """Interface every kernel backend implements.

    The attention entry points mirror the reference kernel signatures
    exactly; the softmax family and the dense attention oracle are plain
    delegations on the base class (they are the *definitions* the
    backends are tested against, not something a backend may reinterpret).
    """

    name: str = "abstract"

    # -- flash attention ------------------------------------------------------

    def flash_forward(
        self, q, k, v, mask=None, scale=None, block_q=DEFAULT_BLOCK,
        block_k=DEFAULT_BLOCK, bias=None, plan=None, workspace=None,
    ):
        """Tiled attention forward; returns ``(o, lse)``."""
        raise NotImplementedError

    def flash_backward(
        self, q, k, v, o, lse, do, mask=None, scale=None,
        block_q=DEFAULT_BLOCK, block_k=DEFAULT_BLOCK, bias=None, plan=None,
        workspace=None,
    ):
        """Tiled attention backward; returns ``(dq, dk, dv)``."""
        raise NotImplementedError

    def flash_backward_tiles(
        self, q, k, v, lse, d_stat, do, mask=None, scale=None,
        block_q=DEFAULT_BLOCK, block_k=DEFAULT_BLOCK, bias=None, plan=None,
        workspace=None,
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

    # -- softmax family (fixed definitions, shared by all backends) -----------

    def softmax(self, scores, axis=-1):
        return _softmax_mod.softmax(scores, axis=axis)

    def logsumexp(self, scores, axis=-1):
        return _softmax_mod.logsumexp(scores, axis=axis)

    def merge_lse(self, lse_a, lse_b):
        return _softmax_mod.merge_lse(lse_a, lse_b)

    def merge_states(self, o_a, lse_a, o_b, lse_b):
        return _softmax_mod.merge_states(o_a, lse_a, o_b, lse_b)

    # -- dense oracle (differential-test baseline, never overridden) ----------

    def attention_reference(self, *args, **kwargs):
        return attention_reference(*args, **kwargs)

    def attention_reference_backward(self, *args, **kwargs):
        return attention_reference_backward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class ReferenceBackend(KernelBackend):
    """The sequential NumPy kernels — the bitwise ground truth."""

    name = "reference"

    def flash_forward(self, q, k, v, **kw):
        with counters.backend_scope(self.name):
            return flash_attention_forward(q, k, v, **kw)

    def flash_backward(self, q, k, v, o, lse, do, **kw):
        with counters.backend_scope(self.name):
            return flash_attention_backward(q, k, v, o, lse, do, **kw)

    def flash_backward_tiles(self, q, k, v, lse, d_stat, do, **kw):
        with counters.backend_scope(self.name):
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


def _span_chunks(n_items: int, n_tasks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into ``n_tasks`` contiguous spans."""
    n_tasks = max(1, min(n_tasks, n_items))
    base, extra = divmod(n_items, n_tasks)
    bounds = []
    start = 0
    for t in range(n_tasks):
        end = start + base + (1 if t < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


class ThreadedBackend(KernelBackend):
    """Worker-pool fast path over the reference per-q-block kernels.

    Forward: workers write disjoint ``o``/``lse`` (and ``dq``) slices —
    scheduling-independent by construction.  Backward: workers *collect*
    their ``dk``/``dv`` tiles; the calling thread folds them in ascending
    q-block order, reproducing the sequential per-slice accumulation
    order bit for bit.  Small problems (fewer than two q-blocks, or a
    single worker) fall through to the sequential loops.
    """

    name = "threaded"

    def __init__(self, workers: int | None = None):
        if workers is None:
            workers = int(os.environ.get(WORKERS_ENV_VAR, "4"))
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._tls = threading.local()

    # -- pool / per-worker state ----------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-kernel",
                )
            return self._pool

    def _worker_workspace(self) -> KernelWorkspace:
        """Persistent per-worker scratch, reused across invocations."""
        ws = getattr(self._tls, "ws", None)
        if ws is None:
            ws = KernelWorkspace()
            self._tls.ws = ws
        return ws

    def close(self) -> None:
        """Shut the pool down (tests; harmless if never started)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    # -- flash attention ------------------------------------------------------

    def flash_forward(
        self, q, k, v, mask=None, scale=None, block_q=DEFAULT_BLOCK,
        block_k=DEFAULT_BLOCK, bias=None, plan=None, workspace=None,
    ):
        span = trace_span(
            "flash.fwd", phase="compute", backend=self.name,
            workers=self.workers,
        )
        with span, counters.backend_scope(self.name):
            if span is not NOOP_SPAN:
                span["sq"], span["sk"] = int(q.shape[-2]), int(k.shape[-2])
                span["planned"] = plan is not None
            return self._forward(
                q, k, v, mask, scale, block_q, block_k, bias, plan, workspace
            )

    def _forward(
        self, q, k, v, mask, scale, block_q, block_k, bias, plan, workspace
    ):
        if scale is None:
            scale = 1.0 / np.sqrt(q.shape[-1])
        sq, sk = q.shape[-2], k.shape[-2]
        _validate_plan(plan, sq, sk, mask, bias)
        if plan is not None:
            block_q, block_k = plan.block_q, plan.block_k
        n_blocks = -(-sq // block_q)
        if n_blocks < 2 or self.workers < 2:
            return _forward_tiles(
                q, k, v, mask, scale, block_q, block_k, bias, plan, workspace
            )
        if plan is not None:
            plan.tally()
        o = np.zeros(q.shape[:-1] + (v.shape[-1],), dtype=np.float64)
        lse = np.full(q.shape[:-1], NEG_INF, dtype=np.float64)

        def run(b0: int, b1: int) -> None:
            ws = self._worker_workspace()
            with counters.deferred():
                for qi in range(b0, b1):
                    q0 = qi * block_q
                    q1 = min(q0 + block_q, sq)
                    o_blk, lse_blk = _forward_q_block(
                        qi, q0, q1, q, k, v, mask, scale, block_k, bias,
                        plan, ws,
                    )
                    o[..., q0:q1, :] = o_blk
                    lse[..., q0:q1] = lse_blk

        pool = self._executor()
        futures = [
            pool.submit(run, b0, b1)
            for b0, b1 in _span_chunks(n_blocks, self.workers)
        ]
        for fut in futures:
            fut.result()
        return o, lse

    def flash_backward(
        self, q, k, v, o, lse, do, mask=None, scale=None,
        block_q=DEFAULT_BLOCK, block_k=DEFAULT_BLOCK, bias=None, plan=None,
        workspace=None,
    ):
        if scale is None:
            scale = 1.0 / np.sqrt(q.shape[-1])
        d_stat = np.sum(do * o, axis=-1)
        return self.flash_backward_tiles(
            q, k, v, lse, d_stat, do, mask=mask, scale=scale,
            block_q=block_q, block_k=block_k, bias=bias, plan=plan,
            workspace=workspace,
        )

    def flash_backward_tiles(
        self, q, k, v, lse, d_stat, do, mask=None, scale=None,
        block_q=DEFAULT_BLOCK, block_k=DEFAULT_BLOCK, bias=None, plan=None,
        workspace=None,
    ):
        span = trace_span(
            "flash.bwd", phase="compute", backend=self.name,
            workers=self.workers,
        )
        with span, counters.backend_scope(self.name):
            if span is not NOOP_SPAN:
                span["sq"], span["sk"] = int(q.shape[-2]), int(k.shape[-2])
                span["planned"] = plan is not None
            return self._backward_tiles_threaded(
                q, k, v, lse, d_stat, do, mask, scale, block_q, block_k,
                bias, plan, workspace,
            )

    def _backward_tiles_threaded(
        self, q, k, v, lse, d_stat, do, mask, scale, block_q, block_k,
        bias, plan, workspace,
    ):
        if scale is None:
            scale = 1.0 / np.sqrt(q.shape[-1])
        sq, sk = q.shape[-2], k.shape[-2]
        _validate_plan(plan, sq, sk, mask, bias)
        if plan is not None:
            block_q, block_k = plan.block_q, plan.block_k
        n_blocks = -(-sq // block_q)
        if n_blocks < 2 or self.workers < 2:
            return _backward_tiles(
                q, k, v, lse, d_stat, do, mask, scale, block_q, block_k,
                bias, plan, workspace,
            )
        if plan is not None:
            plan.tally()
        dq = np.zeros_like(q)
        dk = np.zeros_like(k)
        dv = np.zeros_like(v)

        def run(b0: int, b1: int) -> list:
            ws = self._worker_workspace()
            collected = []
            with counters.deferred():
                for qi in range(b0, b1):
                    q0 = qi * block_q
                    q1 = min(q0 + block_q, sq)
                    dq_blk, tiles = _backward_q_block(
                        qi, q0, q1, q, k, v, lse, d_stat, do, mask, scale,
                        block_k, bias, plan, ws,
                    )
                    dq[..., q0:q1, :] = dq_blk
                    collected.append(tiles)
            return collected

        pool = self._executor()
        futures = [
            pool.submit(run, b0, b1)
            for b0, b1 in _span_chunks(n_blocks, self.workers)
        ]
        # Merge on this thread, chunks (and q-blocks within them) in
        # ascending order: per dk/dv slice this is the sequential fold.
        for fut in futures:
            for tiles in fut.result():
                for k0, k1, dk_tile, dv_tile in tiles:
                    dv[..., k0:k1, :] += dv_tile
                    dk[..., k0:k1, :] += dk_tile
        return dq, dk, dv

    # -- blockwise MLP --------------------------------------------------------

    def mlp_forward(self, x, w_gate, w_up, w_down, chunk_size=None):
        chunked = uses_chunking(x, w_gate, w_down, chunk_size)
        with trace_span(
            "mlp.fwd", phase="compute", backend=self.name, chunked=chunked,
            workers=self.workers,
        ):
            if not chunked or self.workers < 2:
                return swiglu_mlp_forward(
                    x, w_gate, w_up, w_down, chunk_size=chunk_size
                )
            from repro.obs.mem import transient_scope

            hidden = w_gate.shape[0]
            wg_t, wu_t, wd_t = transposed_weights(w_gate, w_up, w_down)
            y = np.empty((x.shape[0], w_down.shape[0]), dtype=np.float64)
            bounds = chunk_bounds(x.shape[0], chunk_size)

            def run_fwd(c0, c1):
                # Scope runs on the worker so concurrently-live chunk
                # intermediates overlap on the transient watermark.
                with transient_scope((c1 - c0) * hidden * 5 * 8,
                                     site="mlp.chunked_fwd.chunk"):
                    forward_chunk(x, wg_t, wu_t, wd_t, c0, c1, y)

            pool = self._executor()
            futures = [pool.submit(run_fwd, c0, c1) for c0, c1 in bounds]
            for fut in futures:
                fut.result()
            return y

    def mlp_backward(self, x, w_gate, w_up, w_down, dy, chunk_size=None):
        chunked = uses_chunking(x, w_gate, w_down, chunk_size)
        with trace_span(
            "mlp.bwd", phase="compute", backend=self.name, chunked=chunked,
            workers=self.workers,
        ):
            if not chunked or self.workers < 2:
                return swiglu_mlp_backward(
                    x, w_gate, w_up, w_down, dy, chunk_size=chunk_size
                )
            from repro.obs.mem import transient_scope

            s, hidden = x.shape[0], w_gate.shape[0]
            wg_t, wu_t, _ = transposed_weights(w_gate, w_up, w_down)
            with transient_scope(3 * s * hidden * 8,
                                 site="mlp.chunked_bwd.full"):
                h_full = np.empty((s, hidden), dtype=np.float64)
                dg_full = np.empty((s, hidden), dtype=np.float64)
                du_full = np.empty((s, hidden), dtype=np.float64)
                dx = np.empty_like(x)

                def run_bwd(c0, c1):
                    with transient_scope((c1 - c0) * hidden * 8 * 8,
                                         site="mlp.chunked_bwd.chunk"):
                        backward_chunk(
                            x, w_gate, w_up, w_down, wg_t, wu_t,
                            dy, c0, c1, h_full, dg_full, du_full, dx,
                        )

                pool = self._executor()
                futures = [
                    pool.submit(run_bwd, c0, c1)
                    for c0, c1 in chunk_bounds(s, chunk_size)
                ]
                for fut in futures:
                    fut.result()
                dwg, dwu, dwd = finalize_weight_grads(
                    x, dy, h_full, dg_full, du_full
                )
            return dx, dwg, dwu, dwd


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
    """The active backend, or the named one without changing the active.

    The first unnamed lookup resolves :data:`BACKEND_ENV_VAR` (default
    ``reference``), so ``REPRO_KERNEL_BACKEND=threaded`` flips a whole
    run without touching code.
    """
    global _active
    if name is not None:
        return _instantiate(name)
    if _active is None:
        _active = _instantiate(
            os.environ.get(BACKEND_ENV_VAR, "reference")
        )
    return _active


def set_backend(backend: str | KernelBackend) -> KernelBackend:
    """Select the process-wide backend; returns the instance."""
    global _active
    if isinstance(backend, KernelBackend):
        _active = backend
    else:
        _active = _instantiate(backend)
    return _active


def current_backend_name() -> str:
    return get_backend().name


@contextmanager
def use_backend(backend: str | KernelBackend):
    """Scoped backend selection (tests, the fuzzer's ``--backend`` axis)."""
    global _active
    previous = get_backend()
    set_backend(backend)
    try:
        yield _active
    finally:
        _active = previous


register_backend("reference", ReferenceBackend)
register_backend("threaded", ThreadedBackend)

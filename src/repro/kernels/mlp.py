"""Blockwise SwiGLU MLP kernels (BPT-style sequence chunking).

Blockwise Parallel Transformer (PAPERS.md, arXiv 2305.19370) observes that
the FFN — not just attention — can be computed in sequence chunks, so the
``(S, hidden)`` intermediates (gate, sigmoid, silu product, up, their
elementwise product) never materialise at full length.  This module is the
single-device kernel for that: :func:`swiglu_mlp_forward` /
:func:`swiglu_mlp_backward` compute the LLaMA FFN

    y = (silu(x @ Wg^T) * (x @ Wu^T)) @ Wd^T

chunked over the sequence axis with ``chunk_size`` rows per chunk
(``mlp_chunk_size`` in the module/config layer; ``None`` is one dense
chunk), **bitwise-identical** to the composed five-node graph of
:mod:`repro.nn.ops` nodes (the tests' reference, ``tests/block_chain.py``;
the model never builds it) — forward values *and* all four gradients.
The backward rematerialises the per-chunk intermediates from ``x`` (the
only saved activation) instead of keeping them alive from the forward,
which is where the memory saving comes from; weight gradients
are still produced by the same three full-size GEMMs as the dense path so
their K-axis accumulation order (and hence every bit) matches.

Bitwise identity across chunk sizes relies on two empirical properties of
the BLAS backing ``np.matmul`` (pinned by probes in
``tests/test_blockwise_mlp.py``):

1. *Row stability* — with a **C-contiguous** right operand, the rows of a
   row-chunked GEMM equal the corresponding rows of the full GEMM for any
   chunk of >= 2 rows at any offset.  :func:`_rows_matmul` zero-pads any
   chunk shorter than :data:`MIN_GEMM_ROWS` rows up to that floor (zero
   rows cost one tiny GEMM row and change no result bits), which also
   covers the unstable 1-row case.

2. *View/copy agreement* — the dense reference multiplies by
   **transposed views** (``x @ swapaxes(w, 0, 1)``), and a transposed
   view takes a special small-output kernel with a different accumulation
   order whenever the full product has <= ~1200 elements.  Above that,
   the view and a contiguous copy of it produce identical bits (both pack
   the operand into the same panels).  The chunked path therefore
   multiplies by contiguous copies of the transposed weights — row-stable
   per (1) — and only engages when every full product is safely in the
   large-output regime (:data:`MIN_FULL_GEMM_OUT`).

``chunk_size >= S`` degenerates to the literal dense code path, as do
sequences shorter than :data:`MIN_GEMM_ROWS` and products small enough to
hit the small-output kernel.

The elementwise work between the GEMMs is one in-place core shared by
the dense and the chunked kernels (:func:`sigmoid`, :func:`silu_grad`,
:func:`swiglu_hidden`, :func:`swiglu_grads`): each step is the written
expression's IEEE operation on the same operands — multiplication and
addition are commutative, so ``t *= g`` is ``g * t`` — written into a
buffer whose old value nothing reads again.  The bits are those of the
allocating expressions (``tests/test_blockwise_mlp.py`` keeps a literal
transcription of them as the oracle); the dense backward peaks at six
``(S, hidden)`` buffers instead of ten.
"""

from __future__ import annotations

import numpy as np

#: Minimum GEMM row count for bitwise row-stability: chunks shorter than
#: this are zero-padded up to it (see module docstring).
MIN_GEMM_ROWS = 16

#: Minimum full-product element count (``S * hidden`` and ``S * dim``) for
#: the chunked path: below this the dense reference's transposed-view GEMMs
#: take a small-output kernel whose bits chunking cannot reproduce.  The
#: measured boundary is 1200 elements; 2048 leaves margin.
MIN_FULL_GEMM_OUT = 2048


def _rows_matmul(a_rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a_rows @ b``, bitwise-equal to the same rows of a full product."""
    m = a_rows.shape[0]
    if m >= MIN_GEMM_ROWS:
        return np.matmul(a_rows, b)
    pad = np.zeros((MIN_GEMM_ROWS, a_rows.shape[1]), dtype=a_rows.dtype)
    pad[:m] = a_rows
    return np.matmul(pad, b)[:m]


def chunk_bounds(seq_len: int, chunk_size: int) -> list[tuple[int, int]]:
    """Row ranges ``[(c0, c1), ...]`` covering the sequence axis."""
    return [
        (c0, min(c0 + chunk_size, seq_len))
        for c0 in range(0, seq_len, chunk_size)
    ]


def uses_chunking(
    x: np.ndarray,
    wg: np.ndarray,
    wd: np.ndarray,
    chunk_size: int | None,
) -> bool:
    """Whether ``(x, chunk_size)`` takes the chunked path.

    ``chunk_size >= S`` degenerates to dense by construction; ``S`` below
    :data:`MIN_GEMM_ROWS` must stay dense because the dense GEMM itself
    runs the small-M kernel whose bits chunking cannot reproduce, and any
    full product below :data:`MIN_FULL_GEMM_OUT` elements must stay dense
    because the dense transposed-view GEMM takes the small-output kernel.
    """
    if (
        chunk_size is None
        or x.ndim != 2
        or chunk_size < 1
        or x.shape[0] < MIN_GEMM_ROWS
        or chunk_size >= x.shape[0]
    ):
        return False
    s = x.shape[0]
    hidden, dim = wg.shape[0], wd.shape[0]
    return (
        s * hidden >= MIN_FULL_GEMM_OUT and s * dim >= MIN_FULL_GEMM_OUT
    )


# --- the in-place elementwise core (shared by dense and chunked kernels) ------


def sigmoid(a: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-a))`` in one fresh buffer: the in-place steps are
    the expression's operations in its order, so the bits are the same,
    without three more full-size temporaries."""
    sig = np.negative(a)
    np.exp(sig, out=sig)
    sig += 1.0
    return np.divide(1.0, sig, out=sig)


def silu_grad(
    grad: np.ndarray, a: np.ndarray, sig: np.ndarray, out: np.ndarray | None
) -> np.ndarray:
    """``grad * (sig * (1 + a * (1 - sig)))`` — the SiLU derivative at
    ``a`` (``sig = sigmoid(a)``) times ``grad`` — built in ``out`` (a
    fresh buffer when ``None``; it may alias neither ``a`` nor ``sig``)."""
    t = np.subtract(1.0, sig, out=out)
    t *= a
    t += 1.0
    t *= sig
    t *= grad
    return t


def swiglu_hidden(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``h = silu(g) * u``, written over ``u`` (``g`` is left intact)."""
    act = sigmoid(g)
    act *= g
    u *= act
    return u


def swiglu_grads(
    g: np.ndarray,
    sig: np.ndarray,
    act: np.ndarray,
    u: np.ndarray,
    dh: np.ndarray,
    dg_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(dg, du)`` from the rematerialised ``g``, ``sig``, ``act =
    g·sig``, ``u`` and ``dh = dy @ wd``: ``du = dh·act`` over ``act``,
    ``dact = dh·u`` over ``dh``, and ``dg`` built in ``dg_out`` (a free
    ``(rows, hidden)`` buffer — the dense kernel passes ``h`` once
    ``dwd`` has read it)."""
    du = np.multiply(dh, act, out=act)
    dact = np.multiply(dh, u, out=dh)
    return silu_grad(dact, g, sig, out=dg_out), du


# --- dense path (the exact op sequence of the composed autograd path) ---------


def swiglu_dense_forward(
    x: np.ndarray, wg: np.ndarray, wu: np.ndarray, wd: np.ndarray
) -> np.ndarray:
    """Dense SwiGLU forward, op-for-op the composed ``repro.nn.ops`` path."""
    h = swiglu_hidden(
        np.matmul(x, np.swapaxes(wg, 0, 1)), np.matmul(x, np.swapaxes(wu, 0, 1))
    )
    return np.matmul(h, np.swapaxes(wd, 0, 1))


def swiglu_dense_backward(
    x: np.ndarray,
    wg: np.ndarray,
    wu: np.ndarray,
    wd: np.ndarray,
    dy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense SwiGLU backward: ``(dx, dwg, dwu, dwd)``.

    Mirrors the composed graph's backward expression by expression
    (``MatMul``/``Mul``/``SiLU`` in :mod:`repro.nn.ops`), so every
    gradient is bitwise what the autograd engine produces; the
    elementwise steps run in place on six ``(S, hidden)`` buffers.
    """
    g = np.matmul(x, np.swapaxes(wg, 0, 1))
    sig = sigmoid(g)
    act = g * sig
    u = np.matmul(x, np.swapaxes(wu, 0, 1))
    h = act * u
    dh = np.matmul(dy, wd)
    dwd = np.swapaxes(np.matmul(np.swapaxes(h, -1, -2), dy), 0, 1)
    dg, du = swiglu_grads(g, sig, act, u, dh, dg_out=h)
    del g, sig, u, dh  # only dg and du are read from here on
    dx = np.matmul(dg, wg)
    dx += np.matmul(du, wu)
    dwg = np.swapaxes(np.matmul(np.swapaxes(x, -1, -2), dg), 0, 1)
    dwu = np.swapaxes(np.matmul(np.swapaxes(x, -1, -2), du), 0, 1)
    return dx, dwg, dwu, dwd


# --- chunked kernels ----------------------------------------------------------


def transposed_weights(*weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Contiguous copies of each weight's transpose for the chunked path.

    Row-chunked GEMMs against a transposed *view* are not bitwise
    row-stable (the small-output kernel); against these copies they are,
    and in the large-output regime the copies produce the same bits as
    the views the dense path uses (see module docstring).  Each copy is
    one strided pass over a weight matrix, so callers name only the
    weights their direction multiplies by: the forward all three, the
    backward ``wg`` and ``wu`` (its ``wd`` GEMM takes the original).
    """
    return tuple(
        np.ascontiguousarray(np.swapaxes(w, 0, 1)) for w in weights
    )


def forward_chunk(
    x: np.ndarray,
    wg_t: np.ndarray,
    wu_t: np.ndarray,
    wd_t: np.ndarray,
    c0: int,
    c1: int,
    y: np.ndarray,
) -> None:
    """One forward chunk: rows ``[c0, c1)`` of ``y``, written in place.

    ``wg_t``/``wu_t``/``wd_t`` are the contiguous transposed weights from
    :func:`transposed_weights`.  Touches only its own output rows.
    """
    xc = x[c0:c1]
    h = swiglu_hidden(_rows_matmul(xc, wg_t), _rows_matmul(xc, wu_t))
    y[c0:c1] = _rows_matmul(h, wd_t)


def backward_chunk(
    x: np.ndarray,
    wg: np.ndarray,
    wu: np.ndarray,
    wd: np.ndarray,
    wg_t: np.ndarray,
    wu_t: np.ndarray,
    dy: np.ndarray,
    c0: int,
    c1: int,
    h_full: np.ndarray,
    dg_full: np.ndarray,
    du_full: np.ndarray,
    dx: np.ndarray,
) -> None:
    """One backward chunk: recompute intermediates for rows ``[c0, c1)``
    and fill those rows of ``h``/``dg``/``du``/``dx`` in place (``h`` and
    ``dg`` are built in their rows of the full buffers).

    The data-gradient GEMMs (``dy @ wd``, ``dg @ wg``, ``du @ wu``)
    multiply by the original C-contiguous weights exactly as the dense
    path does; only the recomputed ``g``/``u`` need the transposed
    copies.  The full ``h``/``dg``/``du`` buffers exist only transiently
    inside :func:`swiglu_mlp_backward` so the weight gradients can be
    formed by the same single GEMMs as the dense path (K-chunked
    accumulation would change their bits); the forward keeps nothing but
    ``x`` alive.
    """
    xc = x[c0:c1]
    g = _rows_matmul(xc, wg_t)
    sig = sigmoid(g)
    act = g * sig
    u = _rows_matmul(xc, wu_t)
    np.multiply(act, u, out=h_full[c0:c1])
    dh = _rows_matmul(dy[c0:c1], wd)
    dg, du = swiglu_grads(g, sig, act, u, dh, dg_out=dg_full[c0:c1])
    du_full[c0:c1] = du
    np.add(_rows_matmul(dg, wg), _rows_matmul(du, wu), out=dx[c0:c1])


def finalize_weight_grads(
    x: np.ndarray,
    dy: np.ndarray,
    h_full: np.ndarray,
    dg_full: np.ndarray,
    du_full: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dwg, dwu, dwd)`` from the assembled full intermediates — the
    same three GEMMs (and hence the same bits) as the dense path."""
    dwd = np.swapaxes(np.matmul(np.swapaxes(h_full, -1, -2), dy), 0, 1)
    dwg = np.swapaxes(np.matmul(np.swapaxes(x, -1, -2), dg_full), 0, 1)
    dwu = np.swapaxes(np.matmul(np.swapaxes(x, -1, -2), du_full), 0, 1)
    return dwg, dwu, dwd


def swiglu_mlp_forward(
    x: np.ndarray,
    wg: np.ndarray,
    wu: np.ndarray,
    wd: np.ndarray,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Blockwise SwiGLU forward; dense when chunking doesn't apply."""
    if not uses_chunking(x, wg, wd, chunk_size):
        return swiglu_dense_forward(x, wg, wu, wd)
    from repro.obs.mem import transient_scope

    hidden = wg.shape[0]
    wg_t, wu_t, wd_t = transposed_weights(wg, wu, wd)
    y = np.empty((x.shape[0], wd.shape[0]), dtype=np.float64)
    for c0, c1 in chunk_bounds(x.shape[0], chunk_size):
        # Accounted as five (chunk, hidden) intermediates (g, sig, act,
        # u, h): a bound on the in-place chunk, which holds three.
        with transient_scope((c1 - c0) * hidden * 5 * 8,
                             site="mlp.chunked_fwd.chunk"):
            forward_chunk(x, wg_t, wu_t, wd_t, c0, c1, y)
    return y


def swiglu_mlp_backward(
    x: np.ndarray,
    wg: np.ndarray,
    wu: np.ndarray,
    wd: np.ndarray,
    dy: np.ndarray,
    chunk_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Blockwise SwiGLU backward: ``(dx, dwg, dwu, dwd)``."""
    if not uses_chunking(x, wg, wd, chunk_size):
        return swiglu_dense_backward(x, wg, wu, wd, dy)
    from repro.obs.mem import transient_scope

    s, hidden = x.shape[0], wg.shape[0]
    wg_t, wu_t = transposed_weights(wg, wu)
    # Accounted exactly as repro.perf.memory.swiglu_chunked_transient_bytes
    # models it: the three (S, hidden) assembly buffers for the whole
    # call, plus eight (chunk, hidden) intermediates per chunk (a bound:
    # the in-place chunk holds five).
    with transient_scope(3 * s * hidden * 8, site="mlp.chunked_bwd.full"):
        h_full = np.empty((s, hidden), dtype=np.float64)
        dg_full = np.empty((s, hidden), dtype=np.float64)
        du_full = np.empty((s, hidden), dtype=np.float64)
        dx = np.empty_like(x)
        for c0, c1 in chunk_bounds(s, chunk_size):
            with transient_scope((c1 - c0) * hidden * 8 * 8,
                                 site="mlp.chunked_bwd.chunk"):
                backward_chunk(
                    x, wg, wu, wd, wg_t, wu_t, dy, c0, c1,
                    h_full, dg_full, du_full, dx,
                )
        dwg, dwu, dwd = finalize_weight_grads(x, dy, h_full, dg_full, du_full)
    return dx, dwg, dwu, dwd

"""Single-device "kernels": exact numpy implementations of the primitives
a GPU would run (FlashAttention-style blockwise attention, online softmax,
fused LM-head tiles).

These are the building blocks the distributed layers compose.  Everything is
float64 and bit-exactly testable against dense references, which is what
lets the distributed rewrites (Alg. 1, Alg. 2, Alg. 3 of the paper) be
verified to numerical precision.
"""

from repro.kernels.softmax import (
    logsumexp,
    merge_lse,
    merge_states,
    softmax,
)
from repro.kernels.attention_ref import (
    attention_reference,
    attention_reference_backward,
)
from repro.kernels.flash import (
    EXP_BUDGET,
    PinnedKV,
    SoftmaxState,
    flash_attention_forward,
    flash_attention_backward,
    flash_backward_tiles,
)
from repro.kernels.tileplan import (
    EMPTY,
    FULL,
    PARTIAL,
    BiasTileCache,
    KernelWorkspace,
    TileCounters,
    TilePlan,
    allowed_pairs,
    counters,
    head_batch,
    tile_size,
)
from repro.kernels.mlp import (
    MIN_FULL_GEMM_OUT,
    MIN_GEMM_ROWS,
    chunk_bounds,
    swiglu_dense_backward,
    swiglu_dense_forward,
    swiglu_mlp_backward,
    swiglu_mlp_forward,
    transposed_weights,
    uses_chunking,
)
from repro.kernels.backend import (
    KernelBackend,
    ReferenceBackend,
    available_backends,
    current_backend_name,
    get_backend,
    register_backend,
    use_backend,
)

__all__ = [
    "logsumexp",
    "merge_lse",
    "merge_states",
    "softmax",
    "attention_reference",
    "attention_reference_backward",
    "flash_attention_forward",
    "flash_attention_backward",
    "flash_backward_tiles",
    "EXP_BUDGET",
    "PinnedKV",
    "SoftmaxState",
    "EMPTY",
    "FULL",
    "PARTIAL",
    "BiasTileCache",
    "KernelWorkspace",
    "TileCounters",
    "TilePlan",
    "allowed_pairs",
    "counters",
    "head_batch",
    "tile_size",
    "MIN_FULL_GEMM_OUT",
    "MIN_GEMM_ROWS",
    "chunk_bounds",
    "swiglu_dense_backward",
    "swiglu_dense_forward",
    "swiglu_mlp_backward",
    "swiglu_mlp_forward",
    "transposed_weights",
    "uses_chunking",
    "KernelBackend",
    "ReferenceBackend",
    "available_backends",
    "current_backend_name",
    "get_backend",
    "register_backend",
    "use_backend",
]

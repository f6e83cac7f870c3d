"""Low-precision simulation: quantize float64 arrays to the bf16 grid.

The real system trains in bf16; our numerics are float64 so algorithmic
rewrites can be verified exactly.  To check that the *algorithms* are
robust at production precision (online softmax merging, the D-statistic
rewrite, fused-loss tiling), :func:`quantize_bf16` rounds values to the
nearest representable bfloat16 (8-bit mantissa) while keeping float64
storage.
"""

from __future__ import annotations

import numpy as np


def quantize_bf16(x: np.ndarray) -> np.ndarray:
    """Round to the bfloat16 grid (round-to-nearest-even on the top 16
    bits of the float32 representation), returned as float64."""
    f32 = np.asarray(x, dtype=np.float32)
    bits = f32.view(np.uint32)
    # round-to-nearest-even on bit 16
    rounding = ((bits >> 16) & 1).astype(np.uint32) + 0x7FFF
    rounded = (bits + rounding) & np.uint32(0xFFFF0000)
    return rounded.view(np.float32).astype(np.float64)


def bf16_eps() -> float:
    """Machine epsilon of bfloat16: 7 explicit mantissa bits -> 2^-7."""
    return 2.0**-7


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise relative error with an absolute floor."""
    denom = np.maximum(np.abs(b), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


"""Index-predicate mask patterns.

Every pattern answers three questions about a (query-indices, key-indices)
tile:

* :meth:`~MaskPattern.block` — the boolean tile itself (``True`` = attend);
* :meth:`~MaskPattern.tile_state` — whether the tile is entirely allowed
  (``"full"``), entirely masked (``"empty"``), or mixed (``"partial"``),
  which lets kernels skip empty tiles and drop the mask for full ones; and
* :meth:`~MaskPattern.num_allowed` — the allowed-pair count, the unit of
  attention work used by the workload-balance analysis (Table 3 / Fig. 11).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class MaskPattern(ABC):
    """Base class for attention masks defined over global token positions."""

    @abstractmethod
    def block(self, q_idx: np.ndarray, k_idx: np.ndarray) -> np.ndarray:
        """Boolean tile of shape ``(len(q_idx), len(k_idx))``."""

    def dense(self, n: int) -> np.ndarray:
        """The full ``n x n`` mask (testing / reference use only)."""
        idx = np.arange(n)
        return self.block(idx, idx)

    def tile_state(self, q_idx: np.ndarray, k_idx: np.ndarray) -> str:
        """``"full"`` / ``"empty"`` / ``"partial"`` classification."""
        tile = self.block(q_idx, k_idx)
        if tile.all():
            return "full"
        if not tile.any():
            return "empty"
        return "partial"

    def bias_block(
        self, q_idx: np.ndarray, k_idx: np.ndarray
    ) -> np.ndarray | None:
        """Optional additive score bias for the tile (e.g. ALiBi).

        Returns an array broadcastable to ``(..., len(q), len(k))`` or
        ``None`` for bias-free patterns (the default).  Because the bias
        is a function of *global* positions, distributed shards resolve
        it correctly regardless of partitioning — same trick as the
        boolean masks.
        """
        return None

    def bias_cache_key(
        self, q_idx: np.ndarray, k_idx: np.ndarray
    ) -> tuple | None:
        """Hashable identity of the tile's bias, or ``None`` (uncacheable).

        Patterns whose bias is translation-invariant (a function of
        ``q - k`` only, like ALiBi) return a key so the kernel layer's
        :class:`~repro.kernels.tileplan.BiasTileCache` can share tiles
        across ring steps.  The default is ``None`` — never cached —
        which is always sound.
        """
        return None

    def num_allowed(self, q_idx: np.ndarray, k_idx: np.ndarray) -> int:
        """Number of allowed (query, key) pairs in the tile."""
        return int(self.block(q_idx, k_idx).sum())

    def total_allowed(self, n: int) -> int:
        """Allowed pairs over the whole ``n x n`` attention (exact)."""
        idx = np.arange(n)
        return self.num_allowed(idx, idx)


class FullMask(MaskPattern):
    """No masking: every query attends to every key."""

    def block(self, q_idx: np.ndarray, k_idx: np.ndarray) -> np.ndarray:
        return np.ones((len(q_idx), len(k_idx)), dtype=bool)

    def tile_state(self, q_idx: np.ndarray, k_idx: np.ndarray) -> str:
        return "full"

    def num_allowed(self, q_idx: np.ndarray, k_idx: np.ndarray) -> int:
        return len(q_idx) * len(k_idx)


class CausalMask(MaskPattern):
    """Autoregressive masking: position ``q`` attends to ``k <= q``."""

    def block(self, q_idx: np.ndarray, k_idx: np.ndarray) -> np.ndarray:
        return q_idx[:, None] >= k_idx[None, :]

    def tile_state(self, q_idx: np.ndarray, k_idx: np.ndarray) -> str:
        # O(1) interval test — tiles at distributed scale are huge and the
        # dependency analysis must not materialise them.
        if q_idx.min() >= k_idx.max():
            return "full"
        if q_idx.max() < k_idx.min():
            return "empty"
        return "partial"

    def total_allowed(self, n: int) -> int:
        return n * (n + 1) // 2


class SlidingWindowMask(MaskPattern):
    """Causal sliding window: attend to the last ``window`` positions.

    ``q`` attends to ``k`` iff ``0 <= q - k < window``.  This is the SWA
    pattern of Table 3 (the paper uses a 32K window over 1M tokens).
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window

    def block(self, q_idx: np.ndarray, k_idx: np.ndarray) -> np.ndarray:
        diff = q_idx[:, None] - k_idx[None, :]
        return (diff >= 0) & (diff < self.window)

    def tile_state(self, q_idx: np.ndarray, k_idx: np.ndarray) -> str:
        """O(1) conservative interval test.

        The ``full``/``empty`` verdicts below are exact; index sets whose
        pairwise differences skip the window entirely (strided shards)
        may be classified ``partial`` — safe, and
        :meth:`repro.kernels.TilePlan.build` checks every ``partial``
        verdict against the tile, once, before a kernel sees it.
        """
        diff_min = q_idx.min() - k_idx.max()
        diff_max = q_idx.max() - k_idx.min()
        if diff_min >= 0 and diff_max < self.window:
            return "full"
        if diff_max < 0 or diff_min >= self.window:
            return "empty"
        return "partial"


class DilatedMask(MaskPattern):
    """Causal dilated attention: attend to ``k <= q`` with
    ``(q - k) % dilation == 0``, optionally limited to ``window`` reachable
    positions (LongNet-style)."""

    def __init__(self, dilation: int, window: int | None = None):
        if dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {dilation}")
        self.dilation = dilation
        self.window = window

    def block(self, q_idx: np.ndarray, k_idx: np.ndarray) -> np.ndarray:
        diff = q_idx[:, None] - k_idx[None, :]
        allowed = (diff >= 0) & (diff % self.dilation == 0)
        if self.window is not None:
            allowed &= diff < self.window * self.dilation
        return allowed


class ALiBiMask(CausalMask):
    """Causal masking with ALiBi linear position bias (Press et al.).

    Head ``h`` receives bias ``-slope_h * (q - k)`` with geometric slopes
    ``2^(-8(h+1)/H)``.  Encoded as a mask-with-bias so the entire
    distributed stack (ring circulation, zigzag/striped partitions,
    selective fetch) supports ALiBi without special cases.
    """

    def __init__(self, n_heads: int):
        if n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {n_heads}")
        self.n_heads = n_heads
        self.slopes = 2.0 ** (-8.0 * (np.arange(n_heads) + 1) / n_heads)

    def bias_block(self, q_idx: np.ndarray, k_idx: np.ndarray) -> np.ndarray:
        dist = (q_idx[:, None] - k_idx[None, :]).astype(np.float64)
        return -self.slopes[:, None, None] * dist

    def bias_cache_key(
        self, q_idx: np.ndarray, k_idx: np.ndarray
    ) -> tuple | None:
        # The bias depends only on pairwise differences, so two contiguous
        # tiles with the same (q0 - k0) offset and shape share one tile —
        # this is what lets ring passes reuse ALiBi tiles across steps.
        def _contig(idx: np.ndarray) -> bool:
            if len(idx) == 0 or int(idx[-1]) - int(idx[0]) != len(idx) - 1:
                return False
            return len(idx) == 1 or bool((np.diff(idx) == 1).all())

        if _contig(q_idx) and _contig(k_idx):
            return (int(q_idx[0]) - int(k_idx[0]), len(q_idx), len(k_idx))
        return None

    def dense_bias(self, n: int) -> np.ndarray:
        """Full ``(H, n, n)`` bias tensor (testing / reference use)."""
        idx = np.arange(n)
        return self.bias_block(idx, idx)


class LocalGlobalMask(MaskPattern):
    """Causal local window plus a set of global tokens everyone attends to
    (Longformer-style): ``q`` attends to ``k`` if ``k`` is within the local
    window, or ``k < num_global`` (a global token), always causally."""

    def __init__(self, window: int, num_global: int):
        if window < 1 or num_global < 0:
            raise ValueError("window must be >= 1 and num_global >= 0")
        self.window = window
        self.num_global = num_global

    def block(self, q_idx: np.ndarray, k_idx: np.ndarray) -> np.ndarray:
        diff = q_idx[:, None] - k_idx[None, :]
        local = (diff >= 0) & (diff < self.window)
        global_k = (k_idx[None, :] < self.num_global) & (diff >= 0)
        return local | global_k

"""Partitioner interface: global-index bookkeeping for sequence shards."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Partitioner(ABC):
    """Maps token positions ``0..n-1`` onto ``g`` devices.

    Invariant: the per-device index arrays are disjoint, sorted ascending
    within each device, and jointly cover ``range(n)``.  ``scatter`` /
    ``gather`` are exact inverses along the chosen axis.
    """

    name: str = "base"

    @abstractmethod
    def indices(self, n: int, g: int) -> list[np.ndarray]:
        """Global token indices owned by each device (``g`` arrays)."""

    def _validate(self, n: int, g: int) -> None:
        if g < 1:
            raise ValueError(f"need at least one device, got g={g}")
        if n % g != 0:
            raise ValueError(
                f"sequence length {n} is not divisible by device count {g}"
            )

    def scatter(self, x: np.ndarray, g: int, axis: int = -2) -> list[np.ndarray]:
        """Split ``x`` along ``axis`` according to the partition."""
        n = x.shape[axis]
        return [np.take(x, idx, axis=axis) for idx in self.indices(n, g)]

    def gather(self, parts: list[np.ndarray], axis: int = -2) -> np.ndarray:
        """Reassemble the full array from per-device shards (inverse of
        :meth:`scatter`)."""
        g = len(parts)
        n = sum(p.shape[axis] for p in parts)
        idxs = self.indices(n, g)
        # Build a single permutation so the write is one fancy-index op.
        order = np.concatenate(idxs)
        stacked = np.concatenate(parts, axis=axis)
        inv = np.empty(n, dtype=np.int64)
        inv[order] = np.arange(n)
        return np.take(stacked, inv, axis=axis)

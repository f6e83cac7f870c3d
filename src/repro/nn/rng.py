"""Model RNG management: reproducible stochastic layers under recompute.

Dropout inside a gradient-checkpointed layer is a classic trap: the
recomputation pass re-runs the layer, and if it draws a *fresh* mask the
recomputed activations no longer match the ones the forward pass produced
— gradients are silently wrong.  Real frameworks snapshot and restore RNG
state around checkpoints; this module provides the equivalent:

* a process-global model RNG (:func:`set_seed`, :func:`draw_seed`);
* :func:`scoped_rng` — a context manager installing a generator seeded by
  a *captured* seed, which stochastic ops pick up via
  :func:`current_rng`.

A block draws one seed per forward invocation; its node draws the
dropout masks under ``scoped_rng(seed)`` in the forward and redraws them
under the same seed in its backward, so every mask is identical between
the two (as it is in a generic checkpoint replay of a body run under one
scoped seed).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

_GLOBAL = np.random.default_rng(0)
_STACK: list[np.random.Generator] = []


def set_seed(seed: int) -> None:
    """Reset the global model RNG (call at the start of a run)."""
    global _GLOBAL
    _GLOBAL = np.random.default_rng(seed)


def draw_seed() -> int:
    """Draw a fresh per-invocation seed from the global stream."""
    return int(_GLOBAL.integers(0, 2**63 - 1))


def get_rng_state() -> dict:
    """JSON-serialisable snapshot of the global model RNG stream.

    Checkpoint-restart support: a training run resumed from a snapshot must
    draw the *same* per-layer dropout seeds it would have drawn had it never
    crashed, so the global stream's bit-generator state travels with the
    train-state checkpoint (see :func:`repro.nn.serialization.save_train_state`).
    """
    return dict(_GLOBAL.bit_generator.state)


def set_rng_state(state: dict) -> None:
    """Restore the global model RNG stream from :func:`get_rng_state`."""
    global _GLOBAL
    gen = np.random.default_rng(0)
    name = type(gen.bit_generator).__name__
    if state.get("bit_generator") != name:
        raise ValueError(
            f"RNG state is for bit generator {state.get('bit_generator')!r}, "
            f"expected {name!r}"
        )
    gen.bit_generator.state = state
    _GLOBAL = gen


@contextlib.contextmanager
def scoped_rng(seed: int | None) -> Iterator[None]:
    """Install a generator seeded with ``seed`` as the current RNG.

    ``None`` is a no-op scope (stochastic ops fall back to the global
    stream — fine outside checkpoints).
    """
    if seed is None:
        yield
        return
    _STACK.append(np.random.default_rng(seed))
    try:
        yield
    finally:
        _STACK.pop()


def current_rng() -> np.random.Generator:
    """The innermost scoped generator, or the global stream."""
    return _STACK[-1] if _STACK else _GLOBAL

"""Minimal pytree utilities for bundles of numpy arrays.

Ring communication in the attention algorithms moves *bundles* of arrays
(e.g. RingAttention's ``(K, V, dK, dV)`` vs BurstAttention's
``(Q, dQ, dO, D, Lse)``).  These helpers let the communicator treat any
nesting of tuples/lists/dicts of arrays uniformly while preserving
structure on the receiving side.

Only three container types are supported on purpose — ``tuple``, ``list``
and ``dict`` (with sorted keys) — which keeps round-tripping unambiguous.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

Leaf = np.ndarray
PyTree = Any


def _spec_of(node: PyTree, leaves: list[Leaf]) -> Any:
    """Spec of ``node``, appending its array leaves to ``leaves`` in order."""
    if isinstance(node, np.ndarray):
        leaves.append(node)
        return None  # None marks a leaf slot
    if isinstance(node, tuple):
        return ("tuple", [_spec_of(x, leaves) for x in node])
    if isinstance(node, list):
        return ("list", [_spec_of(x, leaves) for x in node])
    if isinstance(node, dict):
        keys = sorted(node)
        return ("dict", keys, [_spec_of(node[k], leaves) for k in keys])
    raise TypeError(f"unsupported pytree node type: {type(node).__name__}")


def tree_flatten(tree: PyTree) -> tuple[list[Leaf], Any]:
    """Flatten ``tree`` into a list of leaves and a reconstruction spec."""
    # The recursion is a module-level function, not a closure over
    # ``leaves``: a self-referential closure is a reference cycle that
    # would keep every flattened payload alive until the cyclic GC runs.
    leaves: list[Leaf] = []
    return leaves, _spec_of(tree, leaves)


def _build(node_spec: Any, it: Iterator[Leaf]) -> PyTree:
    """The subtree ``node_spec`` describes, drawing its leaves from ``it``."""
    if node_spec is None:
        return next(it)
    kind = node_spec[0]
    if kind == "tuple":
        return tuple(_build(s, it) for s in node_spec[1])
    if kind == "list":
        return [_build(s, it) for s in node_spec[1]]
    if kind == "dict":
        _, keys, subspecs = node_spec
        return {k: _build(s, it) for k, s in zip(keys, subspecs)}
    raise TypeError(f"corrupt pytree spec: {node_spec!r}")


def tree_unflatten(spec: Any, leaves: list[Leaf]) -> PyTree:
    """Rebuild a pytree from ``spec`` and a list of leaves."""
    it = iter(leaves)
    out = _build(spec, it)
    remaining = sum(1 for _ in it)
    if remaining:
        raise ValueError(f"{remaining} unconsumed leaves while unflattening")
    return out


def tree_map(fn: Callable[[Leaf], Leaf], tree: PyTree) -> PyTree:
    """Apply ``fn`` to every array leaf, preserving structure."""
    leaves, spec = tree_flatten(tree)
    return tree_unflatten(spec, [fn(leaf) for leaf in leaves])


def tree_nbytes(tree: PyTree) -> int:
    """Total payload bytes across all leaves."""
    leaves, _ = tree_flatten(tree)
    return sum(leaf.nbytes for leaf in leaves)


def tree_nelems(tree: PyTree) -> int:
    """Total element count across all leaves."""
    leaves, _ = tree_flatten(tree)
    return sum(leaf.size for leaf in leaves)

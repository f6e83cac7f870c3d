"""Tests for the pytree helpers used by the simulated communicator."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.pytree import (
    tree_flatten,
    tree_map,
    tree_nbytes,
    tree_nelems,
    tree_unflatten,
)


def test_flatten_single_array():
    a = np.arange(6.0)
    leaves, spec = tree_flatten(a)
    assert len(leaves) == 1
    rebuilt = tree_unflatten(spec, leaves)
    np.testing.assert_array_equal(rebuilt, a)


def test_flatten_nested_structure():
    tree = {"kv": (np.zeros((2, 3)), np.ones(4)), "meta": [np.arange(2)]}
    leaves, spec = tree_flatten(tree)
    assert len(leaves) == 3
    rebuilt = tree_unflatten(spec, leaves)
    assert set(rebuilt) == {"kv", "meta"}
    np.testing.assert_array_equal(rebuilt["kv"][1], np.ones(4))


def test_dict_keys_sorted_deterministically():
    t1 = {"b": np.array([1.0]), "a": np.array([2.0])}
    leaves, _ = tree_flatten(t1)
    # 'a' first regardless of insertion order
    assert leaves[0][0] == 2.0


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        tree_flatten({"x": "not-an-array"})


def test_leftover_leaves_raise():
    a = np.zeros(3)
    _, spec = tree_flatten(a)
    with pytest.raises(ValueError):
        tree_unflatten(spec, [a, a])


def test_tree_map_copies():
    tree = (np.arange(3.0), [np.ones(2)])
    mapped = tree_map(np.copy, tree)
    mapped[0][0] = 99.0
    assert tree[0][0] == 0.0


def test_nbytes_and_nelems():
    tree = (np.zeros((2, 3)), np.zeros(4, dtype=np.float32))
    assert tree_nelems(tree) == 10
    assert tree_nbytes(tree) == 6 * 8 + 4 * 4


@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5
    )
)
def test_roundtrip_property(shapes):
    tree = tuple(np.random.default_rng(0).normal(size=s) for s in shapes)
    leaves, spec = tree_flatten(tree)
    rebuilt = tree_unflatten(spec, leaves)
    for orig, new in zip(tree, rebuilt):
        np.testing.assert_array_equal(orig, new)


def test_flatten_and_unflatten_leave_no_reference_cycle():
    """A recursive *closure* over the leaf list is a function <-> cell
    cycle that pins every payload array until the cyclic GC runs; the
    recursion takes its state as arguments instead, so a delivered bundle
    dies with its last reference."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        payload = np.zeros(8)
        alive = weakref.ref(payload)
        leaves, spec = tree_flatten({"kv": (payload, [np.ones(2)])})
        rebuilt = tree_unflatten(spec, leaves)
        tree_map(np.copy, rebuilt)
        del payload, leaves, rebuilt
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()

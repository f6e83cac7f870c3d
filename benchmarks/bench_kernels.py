"""Microbenchmarks of the numeric kernels (real runtime, regression
guard): blockwise flash attention fwd/bwd, online-softmax merge, and the
end-to-end simulated training step.

This is the repository's kernel micro-timer: it looks at one kernel in
isolation and never supports a claim about a training step — that is
``python3 -m benchmarks.step``.  Alongside pytest-benchmark's text table,
the run writes ``benchmarks/results/kernels.json`` with per-test timing
stats so the numbers are machine-readable."""

import json
import os

import numpy as np
import pytest

from repro.engine import BurstEngine, EngineConfig
from repro.kernels import (
    flash_attention_backward,
    flash_attention_forward,
    merge_states,
)
from repro.masks import CausalMask
from repro.nn import TransformerConfig
from repro.topology import a800_node, make_cluster


RNG = np.random.default_rng(0)

_JSON_PATH = os.path.join(os.path.dirname(__file__), "results", "kernels.json")
_JSON_ROWS: list = []


@pytest.fixture(autouse=True)
def _emit_kernel_json(request):
    """Mirror each benchmark's stats into ``results/kernels.json``.

    Rewritten after every test so a partial (``-k``-filtered) run still
    leaves a valid file; silently does nothing under
    ``--benchmark-disable``, where no stats exist."""
    yield
    fixture = request.node.funcargs.get("benchmark")
    stats = getattr(getattr(fixture, "stats", None), "stats", None)
    if stats is None or not getattr(stats, "data", None):
        return
    _JSON_ROWS.append({
        "name": request.node.name,
        "min_s": stats.min,
        "mean_s": stats.mean,
        "median_s": stats.median,
        "stddev_s": stats.stddev,
        "rounds": stats.rounds,
    })
    os.makedirs(os.path.dirname(_JSON_PATH), exist_ok=True)
    with open(_JSON_PATH, "w") as fh:
        json.dump(
            {"suite": "kernel-microbench", "results": _JSON_ROWS}, fh,
            indent=2,
        )
        fh.write("\n")


def _qkv(s=256, d=32, h=4):
    return (RNG.normal(size=(h, s, d)) for _ in range(3))


def test_flash_forward(benchmark):
    q, k, v = _qkv()
    mask = CausalMask().dense(256)
    o, lse = benchmark(flash_attention_forward, q, k, v, mask, None, 64, 64)
    assert np.isfinite(o).all()


def test_flash_backward(benchmark):
    q, k, v = _qkv()
    mask = CausalMask().dense(256)
    o, lse = flash_attention_forward(q, k, v, mask=mask, block_q=64, block_k=64)
    do = RNG.normal(size=o.shape)
    dq, dk, dv = benchmark(
        flash_attention_backward, q, k, v, o, lse, do, mask, None, 64, 64
    )
    assert np.isfinite(dq).all()


def test_online_merge(benchmark):
    o1 = RNG.normal(size=(4, 512, 32))
    o2 = RNG.normal(size=(4, 512, 32))
    l1 = RNG.normal(size=(4, 512))
    l2 = RNG.normal(size=(4, 512))
    o, lse = benchmark(merge_states, o1, l1, o2, l2)
    assert o.shape == (4, 512, 32)


def test_full_training_step(benchmark):
    """One complete distributed training step (BurstEngine, 8 simulated
    GPUs, all optimisations on)."""
    model = TransformerConfig(
        vocab_size=64, dim=16, n_layers=2, n_heads=4, ffn_hidden=24,
        max_seq_len=64, attn_block_size=16,
    )
    engine = BurstEngine(
        EngineConfig(model=model),
        topology=make_cluster(8, node=a800_node(gpus_per_node=4)),
    )
    ids = RNG.integers(0, 64, size=32)
    targets = np.roll(ids, -1)
    result = benchmark.pedantic(
        engine.train_step, args=(ids, targets), rounds=3, iterations=1
    )
    assert np.isfinite(result.loss)

"""Extension benchmark: grouped-query attention flips the backward-payload
trade-off.

The paper's Algorithm 2 saves 25 % of backward traffic for MHA.  With
GQA (shared KV heads), the circulating KV of Algorithm 1 shrinks by the
group factor while Algorithm 2's query-sized bundle does not — past a
group factor of 4/3, the *unoptimised* algorithm wins, and an adaptive
engine should switch (``choose_backward_algorithm``)."""

import numpy as np

from repro.attention import ring_attention_backward_kv, ring_attention_forward
from repro.attention.ring import row_stats
from repro.comm import SimCommunicator, double_ring_schedule
from repro.experiments.extensions import ext_gqa_tradeoff
from repro.partition import StripedPartitioner
from repro.topology import a800_node, make_cluster


def test_ext_gqa_tradeoff(benchmark, record_table):
    result = benchmark(ext_gqa_tradeoff)
    record_table(result)
    picks = [row[3] for row in result.rows]
    assert picks[0] == "alg2"   # MHA: the paper's setting
    assert picks[-1] == "alg1"  # MQA: KV circulation far cheaper


def test_ext_gqa_numeric_backward(benchmark):
    """Real-runtime guard on the GQA distributed kernels."""
    topo = make_cluster(4, node=a800_node(gpus_per_node=4))
    rng = np.random.default_rng(0)
    n, d, hq, hkv = 64, 8, 8, 2
    q = rng.normal(size=(hq, n, d))
    k = rng.normal(size=(hkv, n, d))
    v = rng.normal(size=(hkv, n, d))
    do = rng.normal(size=(hq, n, d))
    part = StripedPartitioner()
    idxs = part.indices(n, 4)
    comm = SimCommunicator(topo)
    sched = double_ring_schedule(topo)
    sh = lambda x: part.scatter(x, 4)
    os, lses = ring_attention_forward(comm, sched, sh(q), sh(k), sh(v), idxs,
                                      block_size=16)

    def run():
        return ring_attention_backward_kv(
            comm, sched, sh(q), sh(k), sh(v), row_stats(sh(do), os), lses,
            sh(do), idxs, block_size=16,
        )

    dqs, dks, dvs = benchmark.pedantic(run, rounds=3, iterations=1)
    assert np.isfinite(dqs[0]).all()


if __name__ == "__main__":
    print(ext_gqa_tradeoff().format())

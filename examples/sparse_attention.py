"""Sparse attention integration: sliding-window and block-sparse masks
with block-wise workload balance (Section 3.4 / Fig. 11 / Table 3).

Shows three things on real numerics:

1. distributed BurstAttention with a sliding-window mask produces exactly
   the single-device result;
2. the block-wise partition balances the sparse workload across devices
   (contiguous partitions leave devices idle);
3. skipping fully-masked tiles turns mask sparsity into real compute
   savings — measured in attention FLOPs, and projected to training
   throughput by the Table 3 model.

Run:  python examples/sparse_attention.py
"""

import numpy as np

from repro.attention import get_method
from repro.kernels import attention_reference
from repro.masks import SlidingWindowMask, sliding_window_block_mask
from repro.partition import (
    BlockwisePartitioner,
    ContiguousPartitioner,
    workload_per_device,
)
from repro.partition.workload import balance_report
from repro.topology import a800_node, make_cluster


def main() -> None:
    n, d, heads, g = 512, 16, 4, 8
    block_size = 64
    topology = make_cluster(g, node=a800_node(gpus_per_node=4))
    mask = sliding_window_block_mask(
        seq_len=n, block_size=block_size, window_blocks=4
    )
    print(f"sequence: {n} tokens, SWA mask: {block_size}-token blocks, "
          f"2-block window, {mask.block_density() * 100:.0f}% of block pairs")

    # 1. exact distributed numerics under the sparse mask
    rng = np.random.default_rng(1)
    q, k, v = (rng.normal(size=(heads, n, d)) for _ in range(3))
    method = get_method(
        "burst", partitioner=BlockwisePartitioner(block_size=block_size),
        block_size=16,
    )
    result = method.run(topology, q, k, v, mask=mask)
    o_ref, _ = attention_reference(q, k, v, mask=mask.dense(n))
    err = np.abs(result.o - o_ref).max()
    print(f"\ndistributed vs single-device max error: {err:.2e}")

    # 2. workload balance across devices
    print("\nallowed attention pairs per device:")
    for part in (ContiguousPartitioner(), BlockwisePartitioner(block_size)):
        work = workload_per_device(mask, part, n, g)
        print(f"  {part.name:10s} min={work.min():5d} max={work.max():5d} "
              f"imbalance={work.max() / work.mean():.3f}")

    report = balance_report(
        mask, [ContiguousPartitioner(), BlockwisePartitioner(block_size)], n, g
    )
    speedup = report["blockwise"]["speedup_vs_worst"]
    print(f"\nbarrier-bounded speedup of block-wise balance: {speedup:.2f}x")

    # 3. projected training throughput (Table 3 model)
    from repro.engine import EngineConfig
    from repro.models import LLAMA_14B
    from repro.perf import EndToEndModel, TrainingSetup

    # burst, sequence-level checkpointing, fused head (the engine defaults)
    config = EngineConfig(model=LLAMA_14B, method="burst")
    topo8 = make_cluster(8)
    dense, swa = (
        EndToEndModel().step(TrainingSetup(
            config, topo8, 262144, optimizer_offload=True, sparsity=sparsity))
        for sparsity in (1.0, 2 * 32768 / 262144)
    )
    print(f"\nprojected 14B training on 8 x A800 at 256K tokens:")
    print(f"  causal attention: {dense.tgs:7.1f} tokens/s/GPU")
    print(f"  32K-window SWA:   {swa.tgs:7.1f} tokens/s/GPU "
          f"({swa.tgs / dense.tgs:.2f}x)")


if __name__ == "__main__":
    main()

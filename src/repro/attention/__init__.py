"""Distributed attention implementations.

All five systems compared in the paper are implemented with exact numerics
over the simulated cluster:

* :mod:`repro.attention.ring` — :func:`ring_pass`, the one executed
  circulation loop (any :class:`~repro.comm.RingSchedule`, either ring
  mode), and two of its instances: the shared ring forward pass
  (online-softmax accumulation) and the **Algorithm 1** backward pass that
  circulates ``(K, V, dK, dV)`` (RingAttention / Megatron-CP /
  LoongTrain-DoubleRing).
* :mod:`repro.attention.burst` — the third instance, the **Algorithm 2**
  backward pass that circulates ``(Q, dQ, dO, D, Lse)`` instead,
  BurstAttention's communication-optimised rewrite (3Nd + 2N vs 4Nd per
  GPU).
* :mod:`repro.attention.gqa` — grouped-query attention: dense oracles,
  ``repeat_kv`` / ``fold_kv_grad`` (what the ring passes apply when K/V
  shards carry fewer heads) and the Alg. 1 / Alg. 2 payload trade-off.
* :mod:`repro.attention.ulysses` — DeepSpeed-Ulysses head parallelism via
  all-to-all.
* :mod:`repro.attention.usp` — LoongTrain's hybrid head+context (USP)
  parallelism on a 2-D process grid.
* :mod:`repro.attention.methods` — a uniform :class:`DistributedAttention`
  facade and registry used by the engine, tests, and benchmarks.
"""

from repro.attention.ring import (
    ring_pass,
    ring_attention_forward,
    ring_attention_backward_kv,
)
from repro.attention.burst import burst_attention_backward
from repro.attention.methods import (
    DistributedAttention,
    BurstAttentionMethod,
    RingAttentionMethod,
    DoubleRingMethod,
    UlyssesMethod,
    USPMethod,
    get_method,
    METHOD_REGISTRY,
)

__all__ = [
    "ring_pass",
    "ring_attention_forward",
    "ring_attention_backward_kv",
    "burst_attention_backward",
    "DistributedAttention",
    "BurstAttentionMethod",
    "RingAttentionMethod",
    "DoubleRingMethod",
    "UlyssesMethod",
    "USPMethod",
    "get_method",
    "METHOD_REGISTRY",
]

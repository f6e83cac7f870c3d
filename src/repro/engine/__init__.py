"""BurstEngine: the end-to-end distributed training engine.

Ties everything together: a :class:`~repro.nn.TransformerLM` whose
attention layers run one of the distributed methods over the simulated
cluster (all KV/Q/gradient movement through the traffic-logged
communicator), gradient checkpointing policies, the fused LM head + loss,
FSDP-style sharding accounting, and an Adam training loop.

Feature flags on :class:`EngineConfig` map one-to-one onto the rows of the
paper's ablation (Table 2).
"""

from repro.engine.distributed_attention import (
    DistributedAttentionFn,
    DistributedCausalSelfAttention,
)
from repro.engine.engine import BurstEngine, EngineConfig, StepResult
from repro.engine.fsdp import fsdp_step_traffic, log_fsdp_traffic
from repro.engine.trainer import TrainRecord, Trainer

__all__ = [
    "DistributedAttentionFn",
    "DistributedCausalSelfAttention",
    "BurstEngine",
    "EngineConfig",
    "StepResult",
    "fsdp_step_traffic",
    "log_fsdp_traffic",
    "TrainRecord",
    "Trainer",
]

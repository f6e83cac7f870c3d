"""DES task-graph builders for attention passes and end-to-end steps."""

from repro.perf.schedules.attention import (
    AttentionWorkload,
    attention_pass_time,
    degraded_attention_pass_time,
)
from repro.perf.schedules.end_to_end import (
    EndToEndModel,
    EndToEndResult,
    end_to_end_step,
)

__all__ = [
    "AttentionWorkload",
    "attention_pass_time",
    "degraded_attention_pass_time",
    "EndToEndModel",
    "EndToEndResult",
    "end_to_end_step",
]

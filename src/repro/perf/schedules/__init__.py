"""DES task-graph builders for attention passes, end-to-end steps and
pipeline schedules (:mod:`repro.perf.schedules.pipeline`)."""

from repro.perf.schedules.attention import (
    AttentionWorkload,
    attention_pass_time,
)
from repro.perf.schedules.end_to_end import (
    EndToEndModel,
    EndToEndResult,
)

__all__ = [
    "AttentionWorkload",
    "attention_pass_time",
    "EndToEndModel",
    "EndToEndResult",
]

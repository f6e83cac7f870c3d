"""Performance models: discrete-event simulation, cost formulas, memory.

Wall-clock results in the paper depend on three ingredients, each modelled
in its own module:

* :mod:`repro.perf.des` — a generic discrete-event simulator with
  unit-capacity resources (a GPU's compute stream, its NVLink channel, its
  NIC).  Method-specific task graphs express *what can overlap what*.
* :mod:`repro.perf.cost` — analytic costs: link transfer times (Table 1's
  formulas), matmul times from FLOPs at calibrated efficiency.
* :mod:`repro.perf.memory` — per-GPU peak memory: FSDP-sharded states,
  activations under each checkpoint policy, LM-head logits by head mode.

:mod:`repro.perf.schedules` builds the per-method attention task graphs and
the end-to-end training-step model that Figures 12–14 and Tables 2, 4, 5
are generated from; :mod:`repro.perf.criticalpath` summarises those graphs
for the observed-vs-predicted gates of :mod:`repro.obs`, which also draws
them (:func:`repro.obs.export.sims_to_chrome_json`).
:mod:`repro.perf.tensor_parallel` and :mod:`repro.perf.schedules.pipeline`
price the two axes the paper does not build on (``ext-tp`` / ``ext-pp``).
"""

from repro.perf.des import Resource, Simulator, Task
from repro.perf.cost import (
    CommCost,
    table1_comm_times,
    attention_step_sizes,
    degraded_topology,
    matmul_time,
    causal_tile_counts,
    sliding_window_tile_counts,
    block_sparse_tile_counts,
)
from repro.perf.memory import MemoryModel, MemoryBreakdown, TrainingSetup
from repro.perf.schedules.attention import (
    METHOD_DES_FLAGS,
    attention_pass_sim,
    attention_pass_time,
)
from repro.perf.schedules.end_to_end import (
    EndToEndModel,
    EndToEndResult,
)
from repro.perf.criticalpath import (
    closed_form_pass_comm,
    summarize_sim,
)

__all__ = [
    "METHOD_DES_FLAGS",
    "attention_pass_sim",
    "closed_form_pass_comm",
    "summarize_sim",
    "Resource",
    "Simulator",
    "Task",
    "CommCost",
    "table1_comm_times",
    "attention_step_sizes",
    "degraded_topology",
    "matmul_time",
    "causal_tile_counts",
    "sliding_window_tile_counts",
    "block_sparse_tile_counts",
    "MemoryModel",
    "MemoryBreakdown",
    "TrainingSetup",
    "attention_pass_time",
    "EndToEndModel",
    "EndToEndResult",
]

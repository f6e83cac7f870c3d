"""Paper-experiment harness: one function per table / figure.

Every entry regenerates the rows of one element of the paper's evaluation
section (or one extension analysis) from the repository's models (DES
schedules, cost formulas, memory model).  ``run_all()`` produces the full
set, ``python -m repro.experiments <id>`` prints one, and ``CLAIMS`` holds
the paper's values and the bounds the model's cells must meet.
"""

from repro.experiments.claims import CLAIMS, check_claim
from repro.experiments.common import (
    BASELINE_CONFIGS,
    ExperimentResult,
    METHOD_LABELS,
)
from repro.experiments.figures import (
    fig02_attention_share,
    fig07_checkpoint_memory,
    fig08_logits_memory,
)
from repro.experiments.attention_bench import fig14_attention_perf, tab01_comm_time
from repro.experiments.end_to_end_bench import fig12_end_to_end, fig13_peak_memory
from repro.experiments.ablation import tab02_ablation, tab02_split_sweep, tab03_sparse
from repro.experiments.scaling import tab04_internode, tab05_intranode
from repro.experiments.extensions import (
    EXTENSION_EXPERIMENTS,
    ext_gqa_tradeoff,
    ext_selective_comm,
    ext_tp_scaling,
)

EXPERIMENTS = {
    "fig02": fig02_attention_share,
    "tab01": tab01_comm_time,
    "fig07": fig07_checkpoint_memory,
    "fig08": fig08_logits_memory,
    "fig12": fig12_end_to_end,
    "fig13": fig13_peak_memory,
    "fig14": fig14_attention_perf,
    "tab02": tab02_ablation,
    "tab02-split": tab02_split_sweep,
    "tab03": tab03_sparse,
    "tab04": tab04_internode,
    "tab05": tab05_intranode,
}

#: Paper experiments plus the extension analyses (CLI accepts both).
ALL_EXPERIMENTS = {**EXPERIMENTS, **EXTENSION_EXPERIMENTS}


def run_all() -> dict[str, ExperimentResult]:
    """Regenerate every table, figure and extension; results keyed by id."""
    return {key: fn() for key, fn in ALL_EXPERIMENTS.items()}


__all__ = [
    "BASELINE_CONFIGS",
    "CLAIMS",
    "check_claim",
    "ExperimentResult",
    "METHOD_LABELS",
    "EXPERIMENTS",
    "ALL_EXPERIMENTS",
    "EXTENSION_EXPERIMENTS",
    "run_all",
    "ext_gqa_tradeoff",
    "ext_selective_comm",
    "ext_tp_scaling",
    "fig02_attention_share",
    "tab01_comm_time",
    "fig07_checkpoint_memory",
    "fig08_logits_memory",
    "fig12_end_to_end",
    "fig13_peak_memory",
    "fig14_attention_perf",
    "tab02_ablation",
    "tab02_split_sweep",
    "tab03_sparse",
    "tab04_internode",
    "tab05_intranode",
]

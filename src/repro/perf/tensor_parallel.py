"""Why tensor parallelism alone cannot reach 1M tokens.

TP shards weights; activations stay full-sequence on every rank.  Two
consequences, quantified here for the paper's models:

* per-layer communication is ``4 * S * h`` bytes all-reduced (2 sub-blocks
  x fwd+bwd), growing linearly with sequence length and not amortised by
  any sharding;
* per-rank activation memory grows with the *full* ``S`` — at 1M tokens a
  14B model needs hundreds of GB per GPU for activations alone, no matter
  how many TP ranks are added.

This is the quantitative version of the paper's motivation for building
on context parallelism (the ``ext-tp`` experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.modules import TransformerConfig
from repro.perf.memory import FULL_ACTIVATION_FACTOR, BYTES_BF16, GB


def tp_layer_comm_bytes(seq_len: int, hidden: int,
                        bytes_per_elem: int = BYTES_BF16) -> float:
    """All-reduced bytes per transformer layer per training step.

    Two all-reduces forward (attention out, MLP out) + two backward
    (input grads), each of an ``S x h`` activation.
    """
    return 4.0 * seq_len * hidden * bytes_per_elem


@dataclass(frozen=True)
class TPScalingRow:
    seq_len: int
    comm_gb_per_layer: float
    activation_gb_per_gpu: float
    fits_80gb: bool


def tp_scaling_analysis(
    model: TransformerConfig,
    seq_lens: list[int],
    tp_degree: int = 8,
    checkpointing: bool = True,
) -> list[TPScalingRow]:
    """Sweep sequence lengths for pure-TP training of ``model``.

    Activation accounting mirrors :mod:`repro.perf.memory` but without
    sequence sharding: with full gradient checkpointing each layer stores
    its full-``S`` input; the transient working set is one layer's full
    activations (divided by the TP degree only for the sharded FFN/head
    parts — conservatively we shard half the factor).
    """
    rows = []
    for s in seq_lens:
        comm = tp_layer_comm_bytes(s, model.dim) / GB
        stored_factor = 1.0 if checkpointing else FULL_ACTIVATION_FACTOR
        stored = model.n_layers * stored_factor * s * model.dim * BYTES_BF16
        transient = (
            FULL_ACTIVATION_FACTOR / 2 * (1 + 1 / tp_degree)
            * s * model.dim * BYTES_BF16
        )
        act_gb = (stored + transient) / GB
        rows.append(
            TPScalingRow(
                seq_len=s,
                comm_gb_per_layer=comm,
                activation_gb_per_gpu=act_gb,
                fits_80gb=act_gb < 80.0,
            )
        )
    return rows

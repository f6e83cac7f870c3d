"""BurstEngine reproduction.

A faithful, fully-tested reproduction of *BurstEngine: an Efficient
Distributed Framework for Training Transformers on Extremely Long Sequences
of over 1M Tokens* (SC 2025) built on a simulated multi-node GPU cluster:

* exact numerics for every distributed attention algorithm (RingAttention,
  BurstAttention, DoubleRing, DeepSpeed-Ulysses, USP) verified against dense
  references;
* a traffic-accounting SPMD communicator whose logs reproduce the paper's
  communication-volume formulas;
* a discrete-event performance simulator that regenerates every table and
  figure of the paper's evaluation.

See :mod:`repro.engine` for the end-to-end training entry point and
:mod:`repro.experiments` for the paper's experiment harness.
"""

__version__ = "1.0.0"

# Top-level convenience re-exports (the full API lives in the subpackages;
# see docs/api.md).
from repro.attention import get_method  # noqa: E402
from repro.engine import BurstEngine, EngineConfig, Trainer  # noqa: E402
from repro.masks import CausalMask, SlidingWindowMask  # noqa: E402
from repro.models import LLAMA_7B, LLAMA_14B  # noqa: E402
from repro.nn import TransformerConfig, TransformerLM  # noqa: E402
from repro.perf import EndToEndModel, TrainingSetup  # noqa: E402
from repro.topology import make_cluster  # noqa: E402

__all__ = [
    "get_method",
    "BurstEngine",
    "EngineConfig",
    "Trainer",
    "CausalMask",
    "SlidingWindowMask",
    "LLAMA_7B",
    "LLAMA_14B",
    "TransformerConfig",
    "TransformerLM",
    "EndToEndModel",
    "TrainingSetup",
    "make_cluster",
]

"""The BurstEngine training engine.

:class:`BurstEngine` assembles the full system of the paper on the
simulated cluster:

* a :class:`~repro.nn.TransformerLM` whose attention layers execute one of
  the distributed methods (``burst`` by default) through the traffic-logged
  communicator;
* a gradient checkpointing policy (sequence-level selective by default);
* a fused LM head + loss (Algorithm 3 by default);
* FSDP traffic accounting and an Adam optimizer.

Every knob corresponds to a row of the paper's ablation (Table 2), so the
ablation benchmark literally toggles :class:`EngineConfig` fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.attention import get_method
from repro.attention.methods import DistributedAttention, USPMethod
from repro.attention.usp import default_ulysses_degree
from repro.comm import SimCommunicator
from repro.engine.distributed_attention import DistributedCausalSelfAttention
from repro.engine.fsdp import FSDPTraffic, log_fsdp_traffic
from repro.nn import (
    Adam, CheckpointPolicy, Tensor, TransformerConfig, TransformerLM,
)
from repro.nn.checkpoint import CheckpointMode
from repro.nn.memory import get_tracker, reset_tracker
from repro.nn.schedule import clip_grad_norm
from repro.topology import ClusterTopology


@dataclass
class EngineConfig:
    """Everything needed to stand up a training run.

    The ablation flags (Table 2) map as follows:

    * backward communication optimisation -> ``method="burst"`` vs
      ``"loongtrain-double"`` (Alg. 2 vs Alg. 1 on the same topology-aware
      ring);
    * topology-aware ring -> ``method="burst"`` vs ``"megatron-cp"``;
    * fused LM head + loss -> ``head_impl="fused"`` vs ``"naive"``;
    * sequence-level selective checkpointing vs selective++ vs full ->
      ``checkpoint``.
    """

    model: TransformerConfig = field(default_factory=TransformerConfig)
    method: str = "burst"
    method_kwargs: dict = field(default_factory=dict)
    checkpoint: CheckpointPolicy = field(
        default_factory=lambda: CheckpointPolicy(CheckpointMode.SEQUENCE_LEVEL, 0.5)
    )
    head_impl: str = "fused"
    fsdp: bool = True
    lr: float = 1e-3

    def resolved_model(self) -> TransformerConfig:
        return replace(self.model, checkpoint=self.checkpoint, head_impl=self.head_impl)


@dataclass
class StepResult:
    """Outcome of one training step."""

    loss: float
    step_comm_bytes: int
    step_comm_elems: int
    fsdp: FSDPTraffic | None
    peak_activation_bytes: int
    recompute_flops: float


class BurstEngine:
    """End-to-end distributed long-context training on the sim cluster."""

    def __init__(
        self,
        config: EngineConfig,
        topology: ClusterTopology | None = None,
        comm: SimCommunicator | None = None,
    ):
        self.config = config
        # The run's world: the topology, or a custom communicator's
        # (fault-injecting, resilient, …), which the engine adopts so the
        # two can never disagree.  The config carries no GPU count.
        if comm is None:
            if topology is None:
                raise TypeError(
                    "BurstEngine needs its world: pass topology= (e.g. "
                    "make_cluster(8)) or comm="
                )
            comm = SimCommunicator(topology)
        elif topology is not None and topology is not comm.topology:
            raise ValueError(
                "pass either topology or comm; the provided comm is "
                "bound to a different topology"
            )
        self.topology, self.comm = comm.topology, comm
        kwargs = config.method_kwargs
        if config.method == "usp" and "ulysses_degree" not in kwargs:
            # The pricer's degree rule, so every priced USP config builds.
            kwargs = {**kwargs, "ulysses_degree": default_ulysses_degree(
                config.model.n_heads, self.topology.world_size,
                self.topology.gpus_per_node)}
        self.method: DistributedAttention = get_method(config.method, **kwargs)
        self._validate()

        model_cfg = config.resolved_model()

        def attn_factory(dim, n_heads, rng, mask, block_size, n_kv_heads=None):
            return DistributedCausalSelfAttention(
                dim, n_heads, rng, method=self.method, comm=self.comm,
                mask=mask, block_size=block_size, n_kv_heads=n_kv_heads,
            )

        self.model = TransformerLM(model_cfg, attn_factory=attn_factory)
        if config.head_impl == "vocab-parallel":
            from repro.engine.distributed_head import VocabParallelHeadLossFn

            self.model.head_node = VocabParallelHeadLossFn
            self.model.head_kwargs = {"comm": self.comm}
        self.optimizer = Adam(self.model.parameters(), lr=config.lr)
        self.step_count = 0

    def _validate(self) -> None:
        g = self.topology.world_size
        s = self.config.model.max_seq_len
        heads = self.config.model.n_heads
        kv_heads = self.config.model.n_kv_heads or heads
        if self.config.method == "selective":
            # Its backward reads the forward's shards, but it neither
            # rebuilds that context (supports_context_rebuild /
            # make_context) nor keeps a head-layout one as Ulysses / USP
            # do, so the attention node could not save it.
            raise ValueError(
                "method 'selective' cannot train under the engine: it "
                "declares no backward context rebuild "
                "(supports_context_rebuild / make_context)"
            )
        if isinstance(self.method, USPMethod):
            # Head-parallel methods (Ulysses is USP with u = G): the grid
            # must fit the world, the heads must split over its degree.
            u = self.method.grid(g).ulysses_degree
            if heads % u != 0:
                raise ValueError(
                    f"head parallelism infeasible: {heads} heads not "
                    f"divisible by ulysses degree {u}"
                )
            if kv_heads != heads:
                raise ValueError(
                    "head parallelism requires equal query/KV head counts; "
                    f"got {heads} vs {kv_heads} (GQA is a ring-family "
                    "feature)"
                )
        if s % g != 0:
            raise ValueError(
                f"max_seq_len {s} must be divisible by world size {g}"
            )
        if (
            self.config.head_impl == "vocab-parallel"
            and self.config.model.vocab_size % g != 0
        ):
            raise ValueError(
                f"vocab-parallel head needs vocab_size divisible by {g}"
            )

    @property
    def param_bytes(self) -> int:
        return sum(p.nbytes for p in self.model.parameters())

    def replayed_parameters(self) -> list[Tensor]:
        """The parameters FSDP re-gathers for a checkpointing backward:
        every block's own (its norms, projections and FFN) under a
        checkpointing policy (``CheckpointPolicy.replays``), whose node
        rebuilds norm rows, q/k/v and attention rows from them, nothing
        under ``none``.  The convention holds for ``selective_pp`` too,
        although its node rebuilds no attention rows on a ring-family
        method.

        Nothing outside the blocks is read again: the embeddings' backward
        is a scatter-add, and the head node forms its gradients and the
        final norm's folded into it in its forward (Alg. 3).
        """
        return [
            p for block in self.model.blocks if block.policy.replays
            for p in block.parameters()
        ]

    def train_step(self, ids: np.ndarray, targets: np.ndarray) -> StepResult:
        """One full training step: forward, backward, FSDP traffic,
        optimizer update.  Returns loss and per-step accounting."""
        if len(ids) % self.topology.world_size != 0:
            raise ValueError(
                f"sequence length {len(ids)} not divisible by world size "
                f"{self.topology.world_size}"
            )
        mark = len(self.comm.log.records)
        loss, _, fsdp = self._step(self.step_count, [(ids, targets)])

        new_records = self.comm.log.records[mark:]
        tracker = get_tracker()
        return StepResult(
            loss=loss,
            step_comm_bytes=sum(r.nbytes for r in new_records),
            step_comm_elems=sum(r.nelems for r in new_records),
            fsdp=fsdp,
            peak_activation_bytes=tracker.peak_saved_bytes,
            recompute_flops=tracker.recompute_flops,
        )

    def _step(
        self,
        step: int,
        micro_batches: list[tuple[np.ndarray, np.ndarray]],
        clip_norm: float | None = None,
    ) -> tuple[float, float, FSDPTraffic | None]:
        """The one executed training step — :meth:`train_step` and
        :meth:`repro.engine.Trainer.fit` both drive it.

        Backpropagates every ``(ids, targets)`` micro-batch scaled by
        ``1/k``, clips the accumulated gradients to ``clip_norm`` (global
        norm) if given, logs the FSDP traffic and applies the optimizer
        update.  Returns ``(mean loss, gradient norm, fsdp)``; the norm is
        NaN without clipping.
        """
        from repro.obs.mem import memory_scope
        from repro.obs.tracer import trace_span

        # Step-boundary notification for the communicator's stages
        # (rank-fault injectors, failure detectors): lets faults target
        # "step s" and failures be attributed to the step they aborted.
        self.comm.on_step_start(step)
        reset_tracker()
        with trace_span("train.step", phase="step", step=step), \
                memory_scope(method=self.config.method, step=step):
            self.optimizer.zero_grad()
            loss_value = 0.0
            for ids, targets in micro_batches:
                loss = self.model(ids, targets)
                loss_value += loss.item() / len(micro_batches)
                loss.backward(np.asarray(1.0 / len(micro_batches)))
            grad_norm = (
                clip_grad_norm(self.model.parameters(), clip_norm)
                if clip_norm is not None
                else float("nan")
            )
            fsdp = None
            if self.config.fsdp:
                # Per micro-batch the forward's gather and the
                # checkpointing backward's re-gather; the gradients'
                # reduce-scatter.
                fsdp = log_fsdp_traffic(
                    self.comm, self.param_bytes, replayed_bytes=sum(
                        p.nbytes for p in self.replayed_parameters()),
                    micro_batches=len(micro_batches),
                )
            self.optimizer.step()
            self.step_count += 1
        return loss_value, grad_norm, fsdp

    def train(self, ids: np.ndarray, targets: np.ndarray, steps: int) -> list[float]:
        """Run ``steps`` updates on one batch; returns the loss curve."""
        return [self.train_step(ids, targets).loss for _ in range(steps)]

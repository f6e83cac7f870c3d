"""One attention node per layer, held to the chain of nodes it replaced.

A layer's attention half — ``norm1 → q/k/v → RoPE → attend → merge →
wo`` — is one :class:`~repro.nn.attention_fn.AttentionFn` node (the
engine's :class:`~repro.engine.DistributedAttentionFn` on the cluster).
Trained beside the literal transcription of the old chain
(``tests/attention_chain.py``, inside the old block chain of
``tests/block_chain.py``), every method that trains, under every
checkpoint policy and both ring modes, gives the same loss bits, the
same parameter and gradient bits (gradient layouts included), the same
traffic and the same recompute count, though the chain replays its
layers and the node rebuilds only the attention rows it did not keep.
Only the saved bytes move, per saved layer: by the ``q``/``k``/``v`` and
second ``o`` a ring-family layer no longer keeps (the second ``o`` alone
on Ulysses / USP, whose context it was), by what the chain's FFN saved
beyond its weights, which the block's one node rebuilds
(``tests.block_chain.chain_ffn_saved_elems``), and by the weights and
``norm1``'s row, which the node does not register (:func:`_unregistered`).

Also here: a forward under ``no_grad`` (inference) leaves no handle
live.
"""

import inspect

import numpy as np
import pytest

from repro.attention import METHOD_REGISTRY, get_method
from repro.comm import SimCommunicator
from repro.engine import BurstEngine, DistributedCausalSelfAttention, EngineConfig
from repro.masks import ALiBiMask, sliding_window_block_mask
from repro.nn import (
    CausalSelfAttention,
    CheckpointPolicy,
    RMSNorm,
    Tensor,
    TransformerConfig,
    TransformerLM,
    no_grad,
)
from repro.nn.memory import get_tracker, reset_tracker
from repro.topology import a800_node, make_cluster

from tests.attention_chain import chain_forward
from tests.block_chain import SplitPeaks, chain_ffn_saved_elems, install_chain

POLICIES = ("none", "full", "selective_pp", "sequence_level")
#: Every registered method except ``selective``, which the engine rejects.
TRAINS = sorted(set(METHOD_REGISTRY) - {"selective"})
RING_MODES = ("unidirectional", "bidirectional")


def _takes_ring_mode(method: str) -> bool:
    return "ring_mode" in inspect.signature(METHOD_REGISTRY[method].__init__).parameters


def _cells():
    for method in TRAINS:
        modes = RING_MODES if _takes_ring_mode(method) else (None,)
        for mode in modes:
            for policy in POLICIES:
                yield method, mode, policy


def _snapshot(model, losses):
    params = [
        (name, p.data.tobytes(), None if p.grad is None else
         (p.grad.tobytes(), p.grad.strides))
        for name, p in model.named_parameters()
    ]
    return {"losses": [float(v).hex() for v in losses], "params": params}


def _train_engine(config, topology, steps, monkeypatch, chain):
    with monkeypatch.context() as m:
        if chain:
            install_chain(m)
        peaks = SplitPeaks(m)
        engine = BurstEngine(config, topology=topology)
        ids = np.random.default_rng(1).integers(
            0, config.model.vocab_size, config.model.max_seq_len)
        results = [engine.train_step(ids, np.roll(ids, -1)) for _ in range(steps)]
    out = _snapshot(engine.model, [r.loss for r in results])
    out["traffic"] = list(engine.comm.log.records)
    out["recompute_flops"] = [r.recompute_flops for r in results]
    out["peaks"] = peaks.forward[-1], peaks.replay[-1]
    return out


TOY = dict(vocab_size=61, dim=32, n_layers=2, n_heads=4, ffn_hidden=24,
           max_seq_len=64, seed=5)
TOY_TOPO = make_cluster(4, node=a800_node(gpus_per_node=2))


def _unregistered(s, d, kv, hidden):
    """What the node holds but does not register, per saved layer:
    ``norm1``'s ``(S, 1)`` row (rebuilt) and the attention and FFN
    weights (parameters, held by reference)."""
    return s + 2 * d * d + 2 * d * kv + 3 * d * hidden


def _assert_same_but_saved_bytes(chain, node, policy, n_layers, s, d, kv,
                                 rebuilds, chunked=False,
                                 hidden=TOY["ffn_hidden"]):
    """Everything equal but the saved bytes, which move per saved layer
    by q, k, v and a second o (a context-rebuilding method; the second o
    alone for a context-keeping one), by what the chain's FFN saves
    beyond its weights (fused in every replay and a chunked model,
    composed otherwise) and by :func:`_unregistered`: at the forward's
    peak without a recomputed front, at the deepest rebuild's with one —
    where the node rebuilds its front rows beside its kept back rows and
    the chain replayed the whole layer.  Selective++ on a
    context-rebuilding method rebuilds no rows."""
    assert node["losses"] == chain["losses"]
    assert [p[0] for p in node["params"]] == [p[0] for p in chain["params"]]
    for want, got in zip(chain["params"], node["params"]):
        assert want == got, want[0]
    assert node["traffic"] == chain["traffic"]
    assert node["recompute_flops"] == chain["recompute_flops"]
    per_layer = (2 * s * d + 2 * s * kv if rebuilds else s * d) + (
        chain_ffn_saved_elems(s, d, hidden, chunked or policy != "none")
        + _unregistered(s, d, kv, hidden))
    moved = _saved_layers(policy, n_layers) * per_layer * 8
    (chain_fwd, chain_replay), (node_fwd, node_replay) = (
        chain["peaks"], node["peaks"])
    if policy == "none":
        assert chain_fwd - node_fwd == moved
        assert chain_replay == node_replay == 0
    else:
        assert chain_fwd == node_fwd
        if rebuilds and policy == "selective_pp":
            assert node_replay == 0
        else:
            assert chain_replay - node_replay == moved


def _saved_layers(policy: str, n_layers: int) -> int:
    """Layers whose whole body the chain saves at the step's peak: all of
    them without a replay, the deepest replayed one otherwise."""
    return n_layers if policy == "none" else 1


class TestEngineNodeIsTheChain:
    @pytest.mark.parametrize(
        "method,ring_mode,policy", list(_cells()),
        ids=["-".join(filter(None, c)) for c in _cells()],
    )
    def test_every_method_policy_and_ring_mode(
        self, method, ring_mode, policy, monkeypatch
    ):
        kwargs = {"usp": {"ulysses_degree": 2}}.get(method, {})
        if ring_mode is not None:
            kwargs["ring_mode"] = ring_mode
        config = EngineConfig(
            model=TransformerConfig(**TOY), method=method, method_kwargs=kwargs,
            checkpoint=CheckpointPolicy.parse(policy),
        )
        runs = [_train_engine(config, TOY_TOPO, 2, monkeypatch, chain)
                for chain in (True, False)]
        _assert_same_but_saved_bytes(
            *runs, policy, 2, 64, 32, 32,
            METHOD_REGISTRY[method].supports_context_rebuild,
        )

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("variant", ["gqa", "rope", "swa", "alibi", "chunked"])
    def test_model_variants_on_the_ring(self, variant, policy, monkeypatch):
        extra = {
            "gqa": dict(n_kv_heads=2),
            "rope": dict(position_encoding="rope"),
            "swa": dict(mask=sliding_window_block_mask(64, 8, window_blocks=2)),
            "alibi": dict(mask=ALiBiMask(4)),
            "chunked": dict(mlp_chunk_size=8, n_kv_heads=1),
        }[variant]
        config = EngineConfig(
            model=TransformerConfig(**{**TOY, **extra}), method="burst",
            method_kwargs={"ring_mode": "bidirectional"},
            checkpoint=CheckpointPolicy.parse(policy),
        )
        runs = [_train_engine(config, TOY_TOPO, 2, monkeypatch, chain)
                for chain in (True, False)]
        kv = 32 // 4 * extra.get("n_kv_heads", 4)
        _assert_same_but_saved_bytes(
            *runs, policy, 2, 64, 32, kv, True, chunked=variant == "chunked")

    @pytest.mark.parametrize("shape", ["burst_long", "wide_short"])
    def test_benchmark_shapes(self, shape, monkeypatch):
        """The step benchmark's two ring shapes at full length, one step:
        8 ranks × seq 2048 × dim 64, and 2 ranks × seq 512 × dim 256."""
        if shape == "burst_long":
            model = dict(vocab_size=128, dim=64, n_layers=2, n_heads=8,
                         ffn_hidden=128, max_seq_len=2048, attn_block_size=64)
            topo = make_cluster(8, node=a800_node(gpus_per_node=4))
        else:
            model = dict(vocab_size=4096, dim=256, n_layers=4, n_heads=4,
                         ffn_hidden=1024, max_seq_len=512, attn_block_size=64,
                         mlp_chunk_size=64)
            topo = make_cluster(2, node=a800_node(gpus_per_node=2))
        config = EngineConfig(
            model=TransformerConfig(**model), method="burst",
            checkpoint=CheckpointPolicy.parse("sequence_level"),
        )
        runs = [_train_engine(config, topo, 1, monkeypatch, chain)
                for chain in (True, False)]
        s, d = model["max_seq_len"], model["dim"]
        _assert_same_but_saved_bytes(*runs, "sequence_level",
                                     model["n_layers"], s, d, d, True,
                                     hidden=model["ffn_hidden"])


class TestLocalNodeIsTheChain:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("variant", ["mha", "gqa-rope", "alibi"])
    def test_single_device_model(self, variant, policy, monkeypatch):
        extra = {
            "mha": {},
            "gqa-rope": dict(n_kv_heads=2, position_encoding="rope"),
            "alibi": dict(mask=ALiBiMask(4)),
        }[variant]
        config = TransformerConfig(**{**TOY, **extra}, attn_block_size=16,
                                   checkpoint=CheckpointPolicy.parse(policy))
        ids = np.random.default_rng(2).integers(0, 61, 64)
        runs = []
        for chain in (True, False):
            with monkeypatch.context() as m:
                if chain:
                    install_chain(m)
                peaks = SplitPeaks(m)
                model = TransformerLM(config)
                reset_tracker()
                loss = model(ids, np.roll(ids, -1))
                loss.backward()
            run = _snapshot(model, [loss.item()])
            run.update(traffic=[], recompute_flops=get_tracker().recompute_flops,
                       peaks=(peaks.forward[-1], peaks.replay[-1]))
            runs.append(run)
        kv = 32 // 4 * extra.get("n_kv_heads", 4)
        _assert_same_but_saved_bytes(*runs, policy, 2, 64, 32, kv, True)

    @pytest.mark.parametrize("method", ["burst", "ulysses"])
    def test_irregular_length_runs_the_local_kernels(self, method, monkeypatch):
        """A length the ranks cannot share evenly takes the local path of
        the engine's node, forward and backward."""
        grads = []
        for chain in (True, False):
            with monkeypatch.context() as m:
                if chain:
                    m.setattr(CausalSelfAttention, "forward", chain_forward)
                attn = DistributedCausalSelfAttention(
                    32, 4, np.random.default_rng(3), get_method(method),
                    SimCommunicator(TOY_TOPO),
                )
                x = Tensor(np.random.default_rng(4).normal(size=(62, 32)),
                           requires_grad=True)
                out = attn(x, norm=RMSNorm(32))
                out.backward(np.ones(out.shape))
            grads.append([out.data.tobytes(), x.grad.tobytes()]
                         + [p.grad.tobytes() for p in attn.parameters()])
        assert grads[0] == grads[1]


class TestInferenceLeavesNoCache:
    """A forward under ``no_grad`` registers nothing, so nothing is left
    live.  (The layer replay's output cache, which a ``no_grad`` forward
    once filled and then overwrote without releasing — three ``logits``
    calls on two layers left 2 → 4 → 6 live handles — is gone: the node
    keeps its rows itself.)"""

    @pytest.mark.parametrize("policy", ["selective_pp", "sequence_level"])
    def test_no_grad_logits(self, policy):
        model = TransformerLM(TransformerConfig(
            n_layers=2, checkpoint=CheckpointPolicy.parse(policy)))
        ids = np.arange(48) % 256
        reset_tracker()
        for _ in range(3):
            with no_grad():
                model.logits(ids)
            assert get_tracker().live_handles == 0

    def test_generate_and_then_train(self):
        model = TransformerLM(TransformerConfig(
            n_layers=2, checkpoint=CheckpointPolicy.parse("sequence_level")))
        reset_tracker()
        model.generate(np.arange(8), max_new_tokens=3)
        assert get_tracker().live_handles == 0
        ids = np.arange(32)
        model(ids, np.roll(ids, -1)).backward()
        assert get_tracker().live_handles == 0

    def test_engine_eval_under_no_grad(self):
        config = EngineConfig(model=TransformerConfig(**TOY), method="burst")
        engine = BurstEngine(config, topology=TOY_TOPO)
        ids = np.arange(64) % 61
        engine.train_step(ids, np.roll(ids, -1))
        with no_grad():
            engine.model(ids, np.roll(ids, -1))
        assert get_tracker().live_handles == 0


def test_selective_is_the_one_method_that_does_not_train():
    with pytest.raises(ValueError, match="cannot train"):
        BurstEngine(EngineConfig(model=TransformerConfig(**TOY),
                                 method="selective"), topology=TOY_TOPO)

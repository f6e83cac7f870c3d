"""One node per block, held to the chain of nodes it replaced.

Every block — under every checkpoint policy, chunked or dense — is one
autograd node: ``norm1 → q/k/v → RoPE → attend → merge → wo → +x → norm2
→ SwiGLU → +h``, the attention node
(:class:`~repro.nn.attention_fn.AttentionFn`, the engine's
:class:`~repro.engine.DistributedAttentionFn`) with the block's tail
folded in, which owns the layer's recompute.  Trained beside the literal
transcription of the old block chain and its layer replay
(``tests/block_chain.py``, with the attention chain of
``tests/attention_chain.py`` inside: the old replay is one mechanism with
the old attention node's output cache), every method that trains, under
every checkpoint policy and both ring modes, with dropout, chunked or
dense, gives the same loss bits, the same parameter and gradient bits
(gradient layouts included), the same traffic and the same recompute
count; only the saved bytes move, by
``tests.test_attention_node._assert_same_but_saved_bytes``'s terms: what
the chain's attention and FFN nodes saved that the block's node rebuilds
(``chain_ffn_saved_elems`` among them) and the weights and row it does
not register.
"""

import numpy as np
import pytest

from repro.engine import BurstEngine, EngineConfig
from repro.masks import ALiBiMask, sliding_window_block_mask
from repro.nn import (
    CheckpointPolicy,
    Tensor,
    TransformerConfig,
    TransformerLM,
)
from repro.nn.memory import get_tracker, reset_tracker
from repro.nn.modules import TransformerBlock
from repro.nn.rng import set_seed
from repro.obs import use_memory_timeline
from repro.perf.memory import node_kept_elems
from repro.topology import a800_node, make_cluster

from repro.attention import METHOD_REGISTRY
from tests.block_chain import SplitPeaks, install_chain
from tests.test_attention_node import (
    POLICIES,
    TOY,
    TOY_TOPO,
    _assert_same_but_saved_bytes,
    _cells,
    _snapshot,
)


def _train(make, steps, monkeypatch, chain):
    """``steps`` training steps of ``make()``'s engine or model, with the
    old block chain installed when ``chain``."""
    with monkeypatch.context() as m:
        if chain:
            install_chain(m)
        peaks = SplitPeaks(m)
        set_seed(0)  # the same dropout masks in both runs
        engine = make()
        if isinstance(engine, BurstEngine):
            cfg = engine.config.model
            ids = np.random.default_rng(1).integers(
                0, cfg.vocab_size, cfg.max_seq_len)
            results = [engine.train_step(ids, np.roll(ids, -1))
                       for _ in range(steps)]
            model, losses = engine.model, [r.loss for r in results]
            traffic = list(engine.comm.log.records)
            flops = [r.recompute_flops for r in results]
        else:
            model, losses, flops = engine, [], []
            ids = np.random.default_rng(2).integers(
                0, model.config.vocab_size, model.config.max_seq_len)
            for _ in range(steps):
                model.zero_grad()
                reset_tracker()
                loss = model(ids, np.roll(ids, -1))
                loss.backward()
                losses.append(loss.item())
                flops.append(get_tracker().recompute_flops)
            traffic = []
    out = _snapshot(model, losses)
    out.update(traffic=traffic, recompute_flops=flops,
               peaks=(peaks.forward[-1], peaks.replay[-1]))
    return out


def _assert_same_but_h(chain, node, policy, n_layers, s, d, fused, kv=32,
                       method="burst", hidden=TOY["ffn_hidden"]):
    _assert_same_but_saved_bytes(
        chain, node, policy, n_layers, s, d, kv,
        METHOD_REGISTRY[method].supports_context_rebuild, chunked=fused,
        hidden=hidden)


def _engine(model, method="burst", policy="none", topology=TOY_TOPO, **kw):
    config = EngineConfig(model=TransformerConfig(**model), method=method,
                          checkpoint=CheckpointPolicy.parse(policy), **kw)
    return lambda: BurstEngine(config, topology=topology)


class TestEngineBlockIsTheChain:
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
        make = _engine(TOY, method, policy, method_kwargs=kwargs)
        runs = [_train(make, 2, monkeypatch, chain) for chain in (True, False)]
        _assert_same_but_h(*runs, policy, 2, 64, 32, fused=False,
                           method=method)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "variant", ["gqa", "rope", "swa", "alibi", "dropout", "chunked"])
    def test_model_variants(self, variant, policy, monkeypatch):
        extra = {
            "gqa": dict(n_kv_heads=2),
            "rope": dict(position_encoding="rope"),
            "swa": dict(mask=sliding_window_block_mask(64, 8, window_blocks=2)),
            "alibi": dict(mask=ALiBiMask(4)),
            "dropout": dict(dropout_p=0.2, mlp_chunk_size=16),
            "chunked": dict(mlp_chunk_size=8, n_kv_heads=1),
        }[variant]
        make = _engine({**TOY, **extra}, "burst", policy,
                       method_kwargs={"ring_mode": "bidirectional"})
        runs = [_train(make, 2, monkeypatch, chain) for chain in (True, False)]
        _assert_same_but_h(*runs, policy, 2, 64, 32,
                           fused="mlp_chunk_size" in extra,
                           kv=8 * extra.get("n_kv_heads", 4))

    @pytest.mark.parametrize("method", ["burst", "ulysses"])
    def test_dropout_with_a_composed_ffn(self, method, monkeypatch):
        """An unchunked block with dropout against the chain whose first
        pass (and whose ``none`` step) runs the composed FFN: the node's
        dense kernels give its bits, and the replay draws the masks the
        first pass drew."""
        for policy in POLICIES:
            make = _engine({**TOY, "dropout_p": 0.3}, method, policy)
            runs = [_train(make, 2, monkeypatch, chain)
                    for chain in (True, False)]
            _assert_same_but_h(*runs, policy, 2, 64, 32, fused=False,
                               method=method)

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
        make = _engine(model, "burst", "sequence_level", topology=topo)
        runs = [_train(make, 1, monkeypatch, chain) for chain in (True, False)]
        _assert_same_but_h(*runs, "sequence_level", model["n_layers"],
                           model["max_seq_len"], model["dim"], fused=True,
                           kv=model["dim"], hidden=model["ffn_hidden"])


class TestLocalBlockIsTheChain:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("variant", ["mha", "gqa-rope-dropout", "chunked"])
    def test_single_device_model(self, variant, policy, monkeypatch):
        extra = {
            "mha": {},
            "gqa-rope-dropout": dict(n_kv_heads=2, position_encoding="rope",
                                     dropout_p=0.2),
            "chunked": dict(mlp_chunk_size=16, mask=ALiBiMask(4)),
        }[variant]
        config = TransformerConfig(**{**TOY, **extra}, attn_block_size=16,
                                   checkpoint=CheckpointPolicy.parse(policy))
        runs = [_train(lambda: TransformerLM(config), 2, monkeypatch, chain)
                for chain in (True, False)]
        _assert_same_but_h(*runs, policy, 2, 64, 32,
                           fused="mlp_chunk_size" in extra,
                           kv=8 * extra.get("n_kv_heads", 4))


class TestOneHandlePerBlock:
    @pytest.mark.parametrize("engine", [False, True], ids=["local", "engine"])
    def test_a_fused_block_registers_one_handle_of_the_closed_form(
        self, engine
    ):
        """Without a recomputed front the folded node keeps ``x``, the
        merged ``o`` and ``lse`` under one handle — no weights (parameters,
        held by reference) and no row (rebuilt)."""
        s, d, hidden, heads = 64, 32, 48, 4
        config = TransformerConfig(dim=d, n_heads=heads, ffn_hidden=hidden,
                                   n_layers=1, mlp_chunk_size=16)
        model = (BurstEngine(EngineConfig(model=config,
                                          checkpoint=CheckpointPolicy()),
                             topology=make_cluster(4)).model
                 if engine else TransformerLM(config))
        block = model.blocks[0]
        x = Tensor(np.random.default_rng(0).normal(size=(s, d)),
                   requires_grad=True)
        reset_tracker()
        with use_memory_timeline() as timeline:
            out = block(x)
        allocs = [(e.site, e.delta) for e in timeline.events()
                  if e.series == "saved" and e.kind == "alloc"]
        node = "DistributedAttentionFn" if engine else "AttentionFn"
        kept, _ = node_kept_elems(s, d, heads, CheckpointPolicy())
        assert kept == 2 * s * d + heads * s
        assert allocs == [(node, kept * 8)]
        assert get_tracker().live_handles == 1
        out.backward(np.ones((s, d)))
        assert get_tracker().live_handles == 0

    def test_parameter_names_and_order_are_unchanged(self):
        block = TransformerBlock(32, 4, 48, np.random.default_rng(0),
                                 mlp_chunk_size=16)
        assert [n for n, _ in block.named_parameters()] == [
            "norm1.weight", "attn.wq.weight", "attn.wk.weight",
            "attn.wv.weight", "attn.wo.weight", "norm2.weight",
            "ffn.gate.weight", "ffn.up.weight", "ffn.down.weight",
        ]

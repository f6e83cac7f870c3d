"""Each autograd node saves what its backward reads, once.

* ``ops.rms_norm`` is one :class:`~repro.nn.ops.RMSNormFn` node saving
  ``x`` and an ``(S, 1)`` row; it is held bitwise to the literal
  six-node composite it replaced, forward and both gradients, including
  the residual ``add`` that also consumes ``x`` in every block.
* :class:`~repro.nn.ops.SiLU` saves only its input and is held bitwise to
  the sigmoid-saving node it replaced (the model no longer builds it; the
  tests' composed FFN reference does).
* A layer's attention half is one node
  (:class:`~repro.nn.attention_fn.AttentionFn`, the engine's
  ``DistributedAttentionFn``) registering one handle: ``x`` once and,
  without a recomputed front, the merged output ``wo`` reads, plus
  ``lse`` for a method that rebuilds q, k and v in its backward, or the
  head-layout context a Ulysses / USP forward built — released wherever
  the node's handle is, including when nothing needs a gradient.  The
  norm's row is rebuilt and the weights, parameters, are not registered.  It is
  held bitwise to the three ``Linear`` projections, head splits, RoPE,
  attention, merge and ``wo`` it replaced.
* A block's two RMSNorms fold into the nodes reading their outputs (the
  attention node and the fused FFN, :class:`~repro.nn.ops.PreNormFn`):
  each node saves the norm's input (the fused FFN also one ``(S, 1)``
  row), never the normed copy, and is held bitwise to the literal
  ``RMSNormFn`` → node pair.  In a block the fused FFN and ``norm2`` fold
  further, into the attention node, which then saves no more.
* The model's final norm folds into the LM-head node
  (:class:`~repro.nn.modules.FusedLMHeadLossFn`, the engine's
  ``VocabParallelHeadLossFn``), which saves the gradients it produced in
  its forward — ``x``'s, the head weight's and the norm weight's — and is
  held to the ``RMSNormFn`` → head chain of ``tests/head_chain.py``: bit
  for bit at a power-of-two upstream gradient, within a declared drift
  otherwise.  A training step's measured peak is
  ``predict_step_peak_saved_bytes``'s, to the byte.
"""

import numpy as np
import pytest

from repro.attention import get_method
from repro.comm import SimCommunicator
from repro.engine import BurstEngine, DistributedCausalSelfAttention, EngineConfig
from repro.engine.distributed_head import VocabParallelHeadLossFn
from repro.nn import CausalSelfAttention, RMSNorm, Tensor, ops
from repro.nn.attention_fn import flash_attention
from repro.nn.function import Function
from repro.nn.memory import get_tracker, reset_tracker
from repro.nn.mlp_fn import blockwise_mlp
from repro.nn.modules import (
    FusedLMHeadLossFn,
    TransformerBlock,
    TransformerConfig,
    TransformerLM,
)
from repro.nn.rope import apply_rope
from repro.obs import use_memory_timeline
from repro.nn.checkpoint import CheckpointPolicy
from repro.perf.memory import (
    node_kept_elems,
    predict_step_peak_saved_bytes,
    swiglu_fused_saved_bytes,
)
from repro.topology import make_cluster
from tests.head_chain import chain_head_loss

SHAPES = [(2048, 64), (512, 256)]


def composite_rms_norm(x, w, eps=1e-6):
    """``ops.rms_norm`` as it was: six nodes, transcribed literally."""
    variance = ops.mean(ops.mul(x, x), axis=-1, keepdims=True)
    inv = ops.pow(ops.add(variance, eps), -0.5)
    return ops.mul(ops.mul(x, inv), w)


class SigmoidSavingSiLU(Function):
    """``ops.SiLU`` as it was: saves its input and its sigmoid."""

    def forward(self, a):
        sig = 1.0 / (1.0 + np.exp(-a))
        self.save_for_backward(a, sig)
        return a * sig

    def backward(self, g):
        a, sig = self.saved
        return (g * (sig * (1.0 + a * (1.0 - sig))),)


def _inputs(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * 3.0
    w = 1.0 + 0.1 * rng.normal(size=shape[-1])
    return x, w, rng


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestRMSNormMatchesTheComposite:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_norm_alone(self, shape):
        x_np, w_np, rng = _inputs(shape, 0)
        g = rng.normal(size=shape)
        results = []
        for norm in (composite_rms_norm, ops.rms_norm):
            x = Tensor(x_np, requires_grad=True)
            w = Tensor(w_np, requires_grad=True)
            out = norm(x, w)
            out.backward(g)
            results.append((out.data, x.grad, w.grad))
        for want, got in zip(*results):
            _assert_bitwise(want, got)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_residual_add_also_reads_x(self, shape):
        """A block's ``h = x + f(norm(x))``: the residual's gradient
        reaches ``x`` first, then the norm's three terms in the
        composite's order.  ``x`` is an intermediate here, as in the
        model, and the norm's output feeds a GEMM."""
        x_np, w_np, rng = _inputs(shape, 1)
        proj = rng.normal(size=(shape[-1], shape[-1])) / np.sqrt(shape[-1])
        g = rng.normal(size=shape)
        results = []
        for norm in (composite_rms_norm, ops.rms_norm):
            leaf = Tensor(x_np, requires_grad=True)
            w = Tensor(w_np, requires_grad=True)
            x = ops.mul(leaf, 1.0)
            h = ops.add(x, ops.matmul(norm(x, w), Tensor(proj)))
            h.backward(g)
            results.append((h.data, leaf.grad, w.grad))
        for want, got in zip(*results):
            _assert_bitwise(want, got)

    def test_one_node_saves_x_and_one_row(self):
        s, d = 64, 16
        x_np, w_np, _ = _inputs((s, d), 2)
        reset_tracker()
        with use_memory_timeline() as timeline:
            out = ops.rms_norm(Tensor(x_np, requires_grad=True),
                               Tensor(w_np, requires_grad=True))
        allocs = [(e.site, e.delta) for e in timeline.events()
                  if e.kind == "alloc"]
        assert allocs == [("RMSNormFn", (s * d + s) * 8)]
        out.sum().backward()
        assert get_tracker().current_saved_bytes == 0


class TestSiLUSavesItsInput:
    def test_bitwise_equal_to_the_sigmoid_saving_node(self):
        a_np, _, rng = _inputs((512, 256), 3)
        g = rng.normal(size=a_np.shape)
        results = []
        for silu in (SigmoidSavingSiLU.apply, ops.silu):
            a = Tensor(a_np, requires_grad=True)
            out = silu(a)
            out.backward(g)
            results.append((out.data, a.grad))
        for want, got in zip(*results):
            _assert_bitwise(want, got)

    def test_registers_its_input_only(self):
        s, hidden = 64, 32
        reset_tracker()
        with use_memory_timeline() as timeline:
            ops.silu(Tensor(np.ones((s, hidden)), requires_grad=True))
        allocs = [(e.site, e.delta) for e in timeline.events()
                  if e.kind == "alloc"]
        assert allocs == [("SiLU", s * hidden * 8)]


H, S, DH, WORLD = 4, 64, 8, 4
METHODS = {
    "ulysses": {},
    "usp": {"ulysses_degree": 2},
    "burst": {},
}


def _distributed_layer(name, comm):
    return DistributedCausalSelfAttention(
        H * DH, H, np.random.default_rng(4), get_method(name, **METHODS[name]),
        comm,
    )


def _layer_input(requires_grad):
    rng = np.random.default_rng(5)
    return Tensor(rng.normal(size=(S, H * DH)), requires_grad=requires_grad)


def _layer_saved_elems(s, d, h, kv=None, rebuilds_context=True):
    """One attention node's elements without a recomputed front."""
    return node_kept_elems(s, d, h, CheckpointPolicy(), kv_dim=kv,
                           rebuilds_context=rebuilds_context)[0]


class TestAttentionNodeSavesOnce:
    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_one_handle_of_the_node_size(self, name):
        """Every method's layer registers one handle under its node's
        site: ``x`` and the merged ``o``, plus ``lse`` for a ring-family
        method or the head-layout context for Ulysses / USP."""
        comm = SimCommunicator(make_cluster(WORLD))
        attn = _distributed_layer(name, comm)
        x = _layer_input(requires_grad=True)
        reset_tracker()
        with use_memory_timeline() as timeline:
            out = attn(x, norm=RMSNorm(H * DH))
        allocs = [(e.site, e.delta) for e in timeline.events()
                  if e.series == "saved" and e.kind == "alloc"]
        rebuilds = attn.method.supports_context_rebuild
        assert allocs == [(
            "DistributedAttentionFn",
            _layer_saved_elems(S, H * DH, H, rebuilds_context=rebuilds) * 8,
        )]
        assert get_tracker().live_handles == 1
        out.backward(np.ones(out.shape))
        assert get_tracker().current_saved_bytes == 0
        assert get_tracker().live_handles == 0
        assert x.grad is not None
        assert all(p.grad is not None for p in attn.parameters())

    @pytest.mark.parametrize("name", ["ulysses", "usp"])
    def test_no_handle_left_when_nothing_needs_a_gradient(self, name):
        """``Function.apply`` releases only the node's own handle when the
        output needs no gradient, so a context registered beside it would
        stay live."""
        comm = SimCommunicator(make_cluster(WORLD))
        attn = _distributed_layer(name, comm)
        for linear in (attn.wq, attn.wk, attn.wv, attn.wo):
            linear.weight.requires_grad = False
        reset_tracker()
        out = attn(_layer_input(requires_grad=False))
        assert not out.requires_grad
        assert get_tracker().current_saved_bytes == 0
        assert get_tracker().live_handles == 0

    @pytest.mark.parametrize("name", ["ulysses", "usp"])
    def test_context_gradients_match_the_ring(self, name):
        """The context path and a ring-family method (which rebuilds q, k
        and v) agree on every gradient."""
        grads = {}
        for label in (name, "burst"):
            attn = _distributed_layer(label, SimCommunicator(make_cluster(WORLD)))
            x = _layer_input(requires_grad=True)
            out = attn(x, norm=RMSNorm(H * DH))
            out.backward(np.ones(out.shape))
            grads[label] = [x.grad] + [p.grad for p in attn.parameters()]
        for want, got in zip(grads["burst"], grads[name]):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def three_linear_projections(x, wq, wk, wv, head_dim):
    """The q, k, v projections as they were: three ``Linear`` matmuls, each
    split into heads by a reshape and a swapaxes, transcribed literally."""
    s = x.shape[0]

    def heads(w):
        y = ops.matmul(x, ops.swapaxes(w, 0, 1))
        return ops.swapaxes(ops.reshape(y, (s, w.shape[0] // head_dim, head_dim)), 0, 1)

    return heads(wq), heads(wk), heads(wv)


def linear_chain(attn, x):
    """The attention layer as the chain of ``Linear`` / head-split / RoPE
    / attention / merge nodes it was, on ``attn``'s weights."""
    s = x.shape[0]
    q, k, v = three_linear_projections(
        x, attn.wq.weight, attn.wk.weight, attn.wv.weight, attn.head_dim)
    if attn.rope:
        q, k = apply_rope(q), apply_rope(k)
    o = flash_attention(q, k, v, mask=attn.mask)
    return attn.wo(ops.reshape(ops.swapaxes(o, 0, 1), (s, -1)))


class TestQKVProjectionSavesXOnce:
    # (S, D, heads, KV heads): the benchmark shapes, plus grouped-query
    CASES = [(2048, 64, 8, 8), (512, 256, 4, 4), (256, 64, 8, 2)]

    @pytest.mark.parametrize("rope", [False, True], ids=["plain", "rope"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: "x".join(map(str, c)))
    def test_bitwise_equal_to_the_three_linears(self, case, rope):
        """In the model's graph — a norm before, RoPE and attention inside
        — outputs and every gradient are the old nodes' bits, so ``x``'s
        three terms are added in the graph's order."""
        s, d, h, h_kv = case
        x_np, w_np, rng = _inputs((s, d), 5)
        attn = CausalSelfAttention(d, h, rng, n_kv_heads=h_kv, rope=rope)
        g = rng.normal(size=(s, d))
        results = []
        for layer in (linear_chain, CausalSelfAttention.forward):
            for p in attn.parameters():
                p.grad = None
            leaf = Tensor(x_np, requires_grad=True)
            w = Tensor(w_np, requires_grad=True)
            out = layer(attn, ops.rms_norm(leaf, w))
            out.backward(g)
            results.append([out.data, leaf.grad, w.grad]
                           + [p.grad for p in attn.parameters()])
        for want, got in zip(*results):
            _assert_bitwise(want, got)

    def test_one_handle_saves_x_once(self):
        """Without a norm: ``x``, the merged ``o`` and ``lse`` — no q, k
        or v, and no weights (parameters, held by reference)."""
        s, d, h, h_kv = 64, 16, 4, 2
        x_np, _, rng = _inputs((s, d), 6)
        attn = CausalSelfAttention(d, h, rng, n_kv_heads=h_kv)
        x = Tensor(x_np, requires_grad=True)
        reset_tracker()
        with use_memory_timeline() as timeline:
            out = attn(x)
        allocs = [(e.site, e.delta) for e in timeline.events()
                  if e.series == "saved" and e.kind == "alloc"]
        elems = 2 * s * d + h * s
        assert allocs == [("AttentionFn", elems * 8)]
        out.sum().backward()
        assert get_tracker().current_saved_bytes == 0
        assert get_tracker().live_handles == 0

    def test_a_layer_saves_the_closed_form(self):
        """A whole attention layer behind its norm registers one handle of
        ``node_kept_elems``'s keep-set; the norm's row is rebuilt."""
        s, d, h, h_kv = 64, 16, 4, 2
        attn = CausalSelfAttention(d, h, np.random.default_rng(0), n_kv_heads=h_kv)
        x = Tensor(np.random.default_rng(1).normal(size=(s, d)), requires_grad=True)
        kv = h_kv * (d // h)
        reset_tracker()
        with use_memory_timeline() as timeline:
            attn(x, norm=RMSNorm(d))
        allocs = [(e.site, e.delta) for e in timeline.events()
                  if e.series == "saved" and e.kind == "alloc"]
        assert allocs == [("AttentionFn", _layer_saved_elems(s, d, h, kv) * 8)]


def _timeline_allocs(timeline):
    return [(e.site, e.delta) for e in timeline.events()
            if e.series == "saved" and e.kind == "alloc"]


class TestNormFoldsIntoItsReader:
    """``norm1`` folded into the q/k/v node and ``norm2`` into the fused
    FFN are the literal ``RMSNormFn`` → node pairs, bit for bit: values,
    every weight's gradient and ``x``'s, whose residual term arrives
    first and the norm's three terms after it, in the composite's order.
    ``x`` is an intermediate, as in the model."""

    # (S, D, heads, KV heads): the benchmark shapes, plus grouped-query
    QKV_CASES = [(2048, 64, 8, 8), (512, 256, 4, 4), (256, 64, 8, 2)]
    # (S, D, hidden): the benchmark shapes
    FFN_CASES = [(2048, 64, 128), (512, 256, 1024)]

    @staticmethod
    def _norm(d, rng):
        norm = RMSNorm(d)
        norm.weight.data = 1.0 + 0.1 * rng.normal(size=d)
        return norm

    @pytest.mark.parametrize("rope", [False, True], ids=["plain", "rope"])
    @pytest.mark.parametrize("case", QKV_CASES, ids=lambda c: "x".join(map(str, c)))
    def test_qkv_node_is_the_norm_then_the_node(self, case, rope):
        s, d, h, h_kv = case
        rng = np.random.default_rng(8)
        x_np = rng.normal(size=(s, d)) * 3.0
        attn = CausalSelfAttention(d, h, rng, n_kv_heads=h_kv, rope=rope)
        g = rng.normal(size=(s, d))
        norm = self._norm(d, rng)
        results = []
        for fold in (False, True):
            for p in [norm.weight, *attn.parameters()]:
                p.grad = None
            leaf = Tensor(x_np, requires_grad=True)
            x = ops.mul(leaf, 1.0)
            y = attn(x, norm=norm) if fold else attn(norm(x))
            out = ops.add(x, y)
            out.backward(g)
            results.append([out.data, leaf.grad, norm.weight.grad]
                           + [p.grad for p in attn.parameters()])
        for want, got in zip(*results):
            _assert_bitwise(want, got)

    @pytest.mark.parametrize("chunk", [None, 64], ids=["dense", "chunked"])
    @pytest.mark.parametrize("case", FFN_CASES, ids=lambda c: "x".join(map(str, c)))
    def test_ffn_node_is_the_norm_then_the_node(self, case, chunk):
        s, d, hidden = case
        rng = np.random.default_rng(9)
        x_np = rng.normal(size=(s, d)) * 3.0
        ws_np = [rng.normal(size=shape) / np.sqrt(shape[1])
                 for shape in ((hidden, d), (hidden, d), (d, hidden))]
        g = rng.normal(size=(s, d))
        norm = self._norm(d, rng)
        results = []
        for fold in (False, True):
            norm.weight.grad = None
            leaf = Tensor(x_np, requires_grad=True)
            ws = [Tensor(a, requires_grad=True) for a in ws_np]
            h = ops.mul(leaf, 1.0)
            if fold:
                y = blockwise_mlp(h, *ws, chunk_size=chunk, norm=norm)
            else:
                y = blockwise_mlp(norm(h), *ws, chunk_size=chunk)
            out = ops.add(h, y)
            out.backward(g)
            results.append([out.data, leaf.grad, norm.weight.grad]
                           + [t.grad for t in ws])
        for want, got in zip(*results):
            _assert_bitwise(want, got)

    def test_each_fused_node_is_one_handle_without_the_normed_copy(self):
        s, d, h, h_kv, hidden = 64, 16, 4, 2, 32
        rng = np.random.default_rng(10)
        norm = self._norm(d, rng)
        x = Tensor(rng.normal(size=(s, d)), requires_grad=True)
        attn = CausalSelfAttention(d, h, rng, n_kv_heads=h_kv)
        ffn = [Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((hidden, d), (hidden, d), (d, hidden))]
        block = TransformerBlock(d, h, hidden, rng, n_kv_heads=h_kv,
                                 mlp_chunk_size=16)
        reset_tracker()
        with use_memory_timeline() as timeline:
            a = attn(x, norm=norm)
            y = blockwise_mlp(x, *ffn, chunk_size=16, norm=norm)
            z = block(x)
        fused_ffn = swiglu_fused_saved_bytes(s, d, hidden) + s * 8
        layer = _layer_saved_elems(s, d, h, h_kv * (d // h)) * 8
        assert _timeline_allocs(timeline) == [
            ("AttentionFn", layer),
            ("BlockwiseMLPFn", fused_ffn),
            # the block's one node: the FFN adds nothing
            ("AttentionFn", layer),
        ]
        assert get_tracker().live_handles == 3
        loss = ops.add(a.sum(), ops.add(y.sum(), z.sum()))
        loss.backward()
        assert get_tracker().current_saved_bytes == 0
        assert get_tracker().live_handles == 0

    @pytest.mark.parametrize("chunk", [None, 16], ids=["dense", "fused"])
    def test_a_block_registers_no_standalone_norm_before_a_fused_node(self, chunk):
        """Un-checkpointed, the attention's norm is folded in, and the FFN,
        dense or chunked, folds into the attention node with its norm: no
        ``RMSNormFn`` registers."""
        s, d = 64, 16
        block = TransformerBlock(d, 2, 32, np.random.default_rng(0),
                                 mlp_chunk_size=chunk)
        x = Tensor(np.random.default_rng(1).normal(size=(s, d)),
                   requires_grad=True)
        reset_tracker()
        with use_memory_timeline() as timeline:
            block(x)
        assert [site for site, _ in _timeline_allocs(timeline)] == [
            "AttentionFn"]

    def test_parameter_names_and_order_are_unchanged(self):
        """The norms stay the block's own modules, reached once each."""
        block = [
            "norm1.weight", "attn.wq.weight", "attn.wk.weight",
            "attn.wv.weight", "attn.wo.weight", "norm2.weight",
            "ffn.gate.weight", "ffn.up.weight", "ffn.down.weight",
        ]
        model = TransformerLM(TransformerConfig(n_layers=2))
        assert [n for n, _ in model.named_parameters()] == [
            "tok_emb.weight", "pos_emb.weight",
            *(f"blocks.{i}.{n}" for i in range(2) for n in block),
            "final_norm.weight", "lm_head.weight",
        ]
        params = model.parameters()
        assert len({id(p) for p in params}) == len(params)


HEAD_IMPLS = ["naive", "tiled-recompute", "fused", "vocab-parallel"]
#: The bytes each head implementation keeps resident besides the node's
#: gradients, at (S, V): full logits, the lse rows, nothing.
RESIDENT = {"naive": lambda s, v: s * v * 8, "tiled-recompute": lambda s, v: s * 8,
            "fused": lambda s, v: 0, "vocab-parallel": lambda s, v: 0}


def _head_apply(impl, x, norm, w, targets, comm):
    """The folded head node on ``x`` — the engine's for vocab-parallel."""
    inputs, kwargs = ops.pre_norm_inputs(x, norm)
    if impl == "vocab-parallel":
        node, kwargs = VocabParallelHeadLossFn, {**kwargs, "comm": comm}
    else:
        node, kwargs = FusedLMHeadLossFn, {**kwargs, "impl": impl}
    return node.apply(*inputs, w, targets=targets, **kwargs)


class TestFinalNormFoldsIntoTheHead:
    """The head node reads the last block's output through ``final_norm``
    and runs the norm's backward in its forward; its backward only
    scales the saved gradients by the upstream ``g``.  Against the
    ``RMSNormFn`` → head chain, which scaled ``dH`` before the norm's
    backward, that is the same bits when ``g`` is a power of two (the
    engine's ``1/k`` for 1, 2 or 4 micro-batches)."""

    S, D, V = 256, 64, 128  # burst_long's smoke shapes

    def _run(self, impl, g, fold):
        rng = np.random.default_rng(11)
        x_np = rng.normal(size=(self.S, self.D)) * 3.0
        norm = RMSNorm(self.D)
        norm.weight.data = 1.0 + 0.1 * rng.normal(size=self.D)
        w = Tensor(rng.normal(size=(self.V, self.D)) / 8, requires_grad=True)
        targets = rng.integers(0, self.V, size=self.S)
        comm = SimCommunicator(make_cluster(4))
        x = Tensor(x_np, requires_grad=True)
        if fold:
            loss = _head_apply(impl, x, norm, w, targets, comm)
        else:
            loss = chain_head_loss(x, norm, w, targets, impl=impl, comm=comm)
        loss.backward(np.asarray(g))
        return [loss.data, x.grad, norm.weight.grad, w.grad]

    @pytest.mark.parametrize("g", [1.0, 0.5, 0.25], ids=["g1", "g1/2", "g1/4"])
    @pytest.mark.parametrize("impl", HEAD_IMPLS)
    def test_the_head_node_is_the_norm_then_the_head(self, impl, g):
        """Loss, ``x``'s gradient, ``final_norm.weight``'s and
        ``lm_head.weight``'s: the chain's bits."""
        for want, got in zip(self._run(impl, g, False), self._run(impl, g, True)):
            _assert_bitwise(want, got)

    @pytest.mark.parametrize("impl", HEAD_IMPLS)
    def test_three_micro_batches_drift_within_rounding(self, impl):
        """At ``g = 1/3`` the norm's two gradients round differently
        (scaled after the norm's backward, not before it).  Max relative
        drift, ``max|Δ| / max|chain|``, measured at these shapes: ``x``
        2.9e-16, ``final_norm.weight`` 1.0e-15 (9.6e-16 vocab-parallel);
        the loss and ``lm_head.weight``'s gradient stay bitwise."""
        chain, fold = self._run(impl, 1 / 3, False), self._run(impl, 1 / 3, True)
        for i in (0, 3):
            _assert_bitwise(chain[i], fold[i])
        drift = [float(np.abs(a - b).max() / np.abs(a).max())
                 for a, b in zip(chain[1:3], fold[1:3])]
        assert 0 < drift[0] <= 2 * np.finfo(float).eps
        assert 0 < drift[1] <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("impl", ["naive", "tiled-recompute", "fused"])
    def test_a_training_forward_registers_no_norm_node(self, impl):
        """The head node registers ``(S·D + V·D + D)·8`` bytes and its
        implementation's resident footprint; no ``RMSNormFn`` registers."""
        cfg = TransformerConfig(vocab_size=48, dim=16, n_layers=2, n_heads=2,
                                ffn_hidden=32, max_seq_len=32, head_impl=impl)
        model = TransformerLM(cfg)
        ids = np.arange(32) % 48
        reset_tracker()
        with use_memory_timeline() as timeline:
            loss = model(ids, np.roll(ids, -1))
        s, d, v = 32, 16, 48
        assert _timeline_allocs(timeline) == [
            ("AttentionFn", _layer_saved_elems(s, d, 2) * 8),
            ("AttentionFn", _layer_saved_elems(s, d, 2) * 8),
            ("FusedLMHeadLossFn", (s * d + v * d + d) * 8),
            ("head.resident", RESIDENT[impl](s, v)),
        ]
        loss.backward()
        assert get_tracker().current_saved_bytes == 0
        assert get_tracker().live_handles == 0

    @pytest.mark.parametrize("method", ["burst", "ulysses"])
    @pytest.mark.parametrize(
        "checkpoint", ["none", "full", "selective_pp", "sequence_level"])
    @pytest.mark.parametrize("impl", HEAD_IMPLS)
    def test_closed_form_is_the_measured_peak(self, impl, checkpoint, method):
        """A training step's tracker peak is the closed form's, delta 0,
        with the keyword signature the step benchmark calls it with."""
        cfg = TransformerConfig(vocab_size=64, dim=32, n_layers=2, n_heads=4,
                                ffn_hidden=64, max_seq_len=64)
        engine = BurstEngine(
            EngineConfig(model=cfg, method=method, head_impl=impl,
                         checkpoint=CheckpointPolicy.parse(checkpoint)),
            topology=make_cluster(4),
        )
        ids = np.arange(64) % 64
        measured = engine.train_step(ids, np.roll(ids, -1)).peak_activation_bytes
        predicted = predict_step_peak_saved_bytes(
            seq_len=64, dim=32, n_layers=2, n_heads=4, ffn_hidden=64,
            vocab=64, checkpoint=checkpoint, split_fraction=0.5,
            head_impl=impl, fused_mlp=False,
            rebuilds_context=engine.method.supports_context_rebuild,
        )["peak_saved_bytes"]
        assert measured == predicted

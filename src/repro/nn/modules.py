"""Transformer modules on the numpy autograd engine.

A small LLaMA-architecture stack (RMSNorm, SwiGLU FFN, multi-head causal
attention, tied token/position embeddings optional) sized for tests and
examples.  Each block is one autograd node that honours a
:class:`~repro.nn.checkpoint.CheckpointPolicy` by what it keeps for its
backward (:mod:`repro.nn.attention_fn`), and the LM head runs any of the
three head implementations of :mod:`repro.lmhead` as a fused autograd
node.

Activations carry no batch axis — one sequence per step, shapes ``(S, D)``
— which is exactly the long-context regime the paper targets (a 1M-token
sequence *is* the batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.lmhead import HEAD_IMPLEMENTATIONS
from repro.masks import CausalMask, MaskPattern
from repro.nn import ops
from repro.nn.attention_fn import AttentionFn, FFNTail
from repro.nn.checkpoint import CheckpointPolicy
from repro.nn.memory import get_tracker
from repro.nn.mlp_fn import blockwise_mlp
from repro.nn.rng import draw_seed
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.obs.mem import memory_scope


class Module:
    """Minimal module base: parameter discovery, grad reset, train/eval."""

    training: bool = True

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """This module and every descendant."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self) -> "Module":
        """Enable training behaviour (dropout active) recursively."""
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        """Disable stochastic layers recursively."""
        for m in self.modules():
            m.training = False
        return self

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}")

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _init(rng: np.random.Generator, *shape: int, scale: float | None = None) -> np.ndarray:
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    scale = scale if scale is not None else 1.0 / np.sqrt(fan_in)
    return rng.normal(0.0, scale, size=shape)


class Linear(Module):
    """``y = x W^T`` (no bias, LLaMA-style)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = Tensor(
            _init(rng, out_features, in_features), requires_grad=True, name="weight"
        )

    def forward(self, x: Tensor) -> Tensor:
        return ops.matmul(x, ops.swapaxes(self.weight, 0, 1))


class Embedding(Module):
    """Token-id -> vector lookup."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        self.weight = Tensor(
            _init(rng, num_embeddings, dim, scale=0.02),
            requires_grad=True,
            name="embedding",
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        return ops.embedding(self.weight, ids)


class RMSNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-6):
        self.weight = Tensor(np.ones(dim), requires_grad=True, name="rms_weight")
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return ops.rms_norm(x, self.weight, eps=self.eps)


def _check_mlp_chunk_size(mlp_chunk_size: int | None) -> None:
    """``ValueError`` unless ``mlp_chunk_size`` is ``None`` or >= 1: the
    kernels take any other value for the dense path, so a typo would
    train silently unchunked."""
    if mlp_chunk_size is not None and mlp_chunk_size < 1:
        raise ValueError(
            f"mlp_chunk_size must be >= 1 or None, got {mlp_chunk_size}"
        )


class SwiGLU(Module):
    """LLaMA FFN: ``down(silu(gate(x)) * up(x))``.

    The whole FFN is one fused :class:`~repro.nn.mlp_fn.BlockwiseMLPFn`
    node through the active kernel backend: only ``x`` is saved for
    backward and the ``(S, hidden)`` intermediates are rematerialised in
    sequence chunks of ``mlp_chunk_size`` rows (``None``: one dense
    chunk).  Every chunk size gives the bits of the composed five-node
    graph (``tests/test_blockwise_mlp.py`` holds each to them).

    ``forward(x, norm=rms_norm_module)`` computes ``ffn(norm(x))`` with
    the norm folded in (:class:`~repro.nn.ops.PreNormFn`: the node saves
    ``x`` and one ``(S, 1)`` row instead of the normed input).

    Inside a :class:`TransformerBlock` the FFN is not called: the block
    folds it, with ``norm2`` and both residuals, into its attention node
    (:class:`~repro.nn.attention_fn.FFNTail`).
    """

    def __init__(
        self,
        dim: int,
        hidden: int,
        rng: np.random.Generator,
        mlp_chunk_size: int | None = None,
    ):
        _check_mlp_chunk_size(mlp_chunk_size)
        self.gate = Linear(dim, hidden, rng)
        self.up = Linear(dim, hidden, rng)
        self.down = Linear(hidden, dim, rng)
        self.mlp_chunk_size = mlp_chunk_size

    def forward(self, x: Tensor, norm: RMSNorm | None = None) -> Tensor:
        return blockwise_mlp(
            x, self.gate.weight, self.up.weight, self.down.weight,
            chunk_size=self.mlp_chunk_size, norm=norm,
        )


class CausalSelfAttention(Module):
    """Multi-head attention over ``(S, D)`` activations.

    The mask defaults to causal but accepts any
    :class:`~repro.masks.MaskPattern` (the sparse-attention integration).
    The whole layer — q/k/v projections, RoPE, the attention product, the
    head merge and ``wo`` — is one autograd node, :attr:`node`
    (:class:`~repro.nn.attention_fn.AttentionFn`), which keeps ``x`` and
    the :attr:`policy`'s rows of the merged output and its ``lse`` and
    rebuilds q, k, v and the other rows in its backward.
    ``forward(x, norm=rms_norm_module)`` attends over ``norm(x)`` with the
    norm folded into that node, which rebuilds the norm's ``(S, 1)`` row
    in its backward and keeps no normed copy.  ``forward(x, norm=…,
    tail=FFNTail(…))`` folds the rest of a block into the same node: the
    residual, ``norm2`` and the fused FFN (their parameters become the
    node's inputs after ``wo``'s).
    The engine's subclass swaps in its own node.
    """

    #: The autograd node a forward builds.
    node = AttentionFn

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng: np.random.Generator,
        mask: MaskPattern | None = None,
        block_size: int | None = None,
        n_kv_heads: int | None = None,
        rope: bool = False,
        rope_theta: float = 10_000.0,
    ):
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {n_heads}")
        if rope and (dim // n_heads) % 2 != 0:
            raise ValueError("RoPE needs an even head dimension")
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.rope = rope
        self.rope_theta = rope_theta
        self.n_heads = n_heads
        self.n_kv_heads = n_kv_heads if n_kv_heads is not None else n_heads
        if self.n_kv_heads < 1 or n_heads % self.n_kv_heads != 0:
            raise ValueError(
                f"{n_heads} heads not divisible by {self.n_kv_heads} KV heads"
            )
        self.head_dim = dim // n_heads
        kv_dim = self.n_kv_heads * self.head_dim
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, kv_dim, rng)
        self.wv = Linear(dim, kv_dim, rng)
        self.wo = Linear(dim, dim, rng)
        self.mask = mask if mask is not None else CausalMask()
        self.block_size = block_size
        self.policy: CheckpointPolicy = CheckpointPolicy()

    def forward(
        self, x: Tensor, norm: RMSNorm | None = None,
        tail: FFNTail | None = None,
    ) -> Tensor:
        # RoPE rotates by *global* position before any sequence sharding,
        # so a distributed attention product needs no position plumbing.
        inputs, kwargs = ops.pre_norm_inputs(x, norm)
        return self.node.apply(
            *inputs, self.wq.weight, self.wk.weight, self.wv.weight,
            self.wo.weight, *(() if tail is None else tail.weights),
            layer=self, tail=tail, **kwargs,
        )


class TransformerBlock(Module):
    """Pre-norm block: ``h = x + attn(norm(x)); y = h + ffn(norm(h))``.

    Every block is **one autograd node**: ``norm1 → q/k/v → RoPE →
    attend → merge → wo → +x → norm2 → SwiGLU → +h``.  The block hands its
    attention an :class:`~repro.nn.attention_fn.FFNTail` (``norm2``, the
    FFN, the dropout rate and seed) and the attention node folds it in.

    ``policy`` is data on that node: it keeps ``x`` and the policy's back
    rows of ``(O, lse)`` (a head-parallel product: its context under
    ``none``, only ``x`` otherwise), and its backward rebuilds the rest —
    ``norm1``'s row, ``q``, ``k``, ``v``, the attention rows it did not
    keep, ``h = x + o·Woᵀ``, ``norm2``'s row and the FFN's intermediates
    — with the forward's expressions.  No block is checkpointed or re-run:
    no layer keeps ``q``, ``k``, ``v``, ``h``, a normed copy or an FFN
    intermediate under any policy.

    Dropout masks are drawn by the node from one seed the block draws per
    forward, in the order the two dropouts apply them; the node keeps the
    seed and redraws the same masks in its backward.
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        ffn_hidden: int,
        rng: np.random.Generator,
        mask: MaskPattern | None = None,
        policy: CheckpointPolicy | None = None,
        attn_block_size: int | None = None,
        attn_factory=None,
        n_kv_heads: int | None = None,
        rope: bool = False,
        rope_theta: float = 10_000.0,
        dropout_p: float = 0.0,
        mlp_chunk_size: int | None = None,
    ):
        if not 0.0 <= dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
        self.dropout_p = dropout_p
        self.norm1 = RMSNorm(dim)
        if attn_factory is None:
            self.attn = CausalSelfAttention(
                dim, n_heads, rng, mask=mask, block_size=attn_block_size,
                n_kv_heads=n_kv_heads,
            )
        else:
            self.attn = attn_factory(
                dim, n_heads, rng, mask, attn_block_size, n_kv_heads
            )
        if rope:
            if (dim // n_heads) % 2 != 0:
                raise ValueError("RoPE needs an even head dimension")
            self.attn.rope = True
            self.attn.rope_theta = rope_theta
        self.norm2 = RMSNorm(dim)
        self.ffn = SwiGLU(dim, ffn_hidden, rng, mlp_chunk_size=mlp_chunk_size)
        self.layer_index: int | None = None  # set by TransformerLM
        self.set_policy(policy or CheckpointPolicy())

    def set_policy(self, policy: CheckpointPolicy) -> None:
        self.policy = policy
        self.attn.policy = policy

    def _body(self, x: Tensor, seed: int | None = None) -> Tensor:
        dropout = None if seed is None else (self.dropout_p, seed)
        return self.attn(x, norm=self.norm1,
                         tail=FFNTail(self.norm2, self.ffn, dropout))

    def forward(self, x: Tensor) -> Tensor:
        # One seed per forward: the node draws both dropout masks from it
        # and redraws them in its backward.
        seed = draw_seed() if (self.dropout_p > 0 and self.training) else None
        with memory_scope(layer=self.layer_index):
            return self._body(x, seed)


class FusedLMHeadLossFn(ops.PreNormFn):
    """The final RMSNorm, the LM head and the loss as one autograd node.

    Applied as ``apply(x, x, x, final_norm.weight, lm_head.weight,
    targets=…, eps=…, impl=…)`` on the last block's output ``x``.  Every
    head implementation produces ``(loss, dH, dW)`` in its forward
    (:meth:`_head`), so the node runs it on ``n = norm(x)`` and, still in
    the forward, turns ``dH`` into ``x``'s gradient and the norm weight's
    with the norm's backward (:meth:`~repro.nn.ops.PreNormFn._norm_backward`),
    adding ``x``'s three terms in the order the graph added them.  It
    saves those gradients — ``dx`` (S·D), ``dW`` (V·D) and the norm
    weight's (D) — not the norm's input and row, and its backward only
    scales them by the upstream gradient: bitwise the ``RMSNormFn`` →
    head pair it replaced when that gradient is a power of two (one
    scalar multiply commutes exactly with the norm's backward then), and
    within rounding otherwise.

    The implementation's *resident* footprint (full logits for naive,
    Lse for tiled, nothing for fused) is registered with the tracker so
    measured peaks reflect the head choice — the Fig. 8 / Table 2 effect.
    """

    def forward(self, *args, targets=None, eps: float, **kw):
        x, ms, (w,) = self._norm_inputs(args, eps)
        loss, dn, dw, resident = self._head(self._normed(x, ms), w, targets, **kw)
        dx, half, _, dw_norm = self._norm_backward(dn, x, ms)
        dx += half
        dx += half
        self.save_for_backward(dx, dw_norm, dw)
        # Registering under no_grad would leak the handle: eval passes
        # never run backward, so nothing would ever release it.
        self._resident = None
        if is_grad_enabled():
            self._resident = get_tracker().register(resident, site="head.resident")
        return np.asarray(loss)

    def _head(self, n, w, targets, impl="fused", **kw):
        """``(loss, dH, dW, resident bytes)`` of the head on ``n``."""
        res = HEAD_IMPLEMENTATIONS[impl](n, w, targets, **kw)
        return res.loss, res.dh, res.dw, res.stats.peak_resident_bytes

    def backward(self, grad_out):
        dx, dw_norm, dw = self.saved
        g = float(grad_out)
        return g * dx, None, None, g * dw_norm, g * dw

    def release_saved(self) -> None:
        # Runs right after backward (and on graph drop), covering every
        # path the base class covers — including requires_grad=False
        # outputs released immediately by apply().
        if self._resident is not None:
            get_tracker().release(self._resident)
            self._resident = None
        super().release_saved()


@dataclass
class TransformerConfig:
    """Architecture + training-policy configuration for the test model."""

    vocab_size: int = 256
    dim: int = 32
    n_layers: int = 2
    n_heads: int = 4
    n_kv_heads: int | None = None  # GQA: fewer KV heads than query heads
    position_encoding: str = "learned"  # "learned" | "rope"
    rope_theta: float = 10_000.0
    dropout_p: float = 0.0
    ffn_hidden: int = 64
    max_seq_len: int = 256
    head_impl: str = "fused"
    checkpoint: CheckpointPolicy = field(default_factory=CheckpointPolicy)
    mask: MaskPattern | None = None  # defaults to causal
    #: Optional per-layer mask schedule (e.g. alternating sliding-window /
    #: global layers, Gemma-style).  Length must equal ``n_layers``;
    #: overrides ``mask`` when set.
    layer_masks: list | None = None
    #: Tile edge of the flash kernels; ``None`` derives it from the head
    #: count (:func:`repro.kernels.tile_size`).
    attn_block_size: int | None = None
    #: Rows per sequence chunk in which the fused FFN rematerialises its
    #: SwiGLU intermediates (``None`` = one dense chunk).
    mlp_chunk_size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_mlp_chunk_size(self.mlp_chunk_size)
        # "vocab-parallel" is the engine's own head node
        # (repro.engine.distributed_head), which it swaps in.
        heads = (*HEAD_IMPLEMENTATIONS, "vocab-parallel")
        if self.head_impl not in heads:
            raise ValueError(
                f"unknown head_impl {self.head_impl!r}; choices: "
                f"{', '.join(heads)}"
            )


class TransformerLM(Module):
    """Tiny LLaMA-style language model for end-to-end training tests.

    ``forward(ids, targets)`` returns the scalar loss Tensor: the final
    norm, the LM head and the loss are one node, :attr:`head_node`
    (:class:`FusedLMHeadLossFn`), which reads the last block's output
    with ``final_norm`` folded in; the head implementation string picks
    naive / tiled-recompute / fused cost behaviour while the numerics are
    identical.  Only :meth:`logits` (inference) calls ``final_norm``.
    """

    #: The final-norm + head + loss node a training forward builds; the
    #: engine swaps in its vocab-parallel node.
    head_node = FusedLMHeadLossFn

    def __init__(self, config: TransformerConfig, attn_factory=None):
        self.config = config
        #: What :attr:`head_node` is applied with besides ``targets`` and
        #: ``eps``.
        self.head_kwargs = {"impl": config.head_impl}
        if config.layer_masks is not None and len(config.layer_masks) != config.n_layers:
            raise ValueError(
                f"layer_masks has {len(config.layer_masks)} entries for "
                f"{config.n_layers} layers"
            )
        rng = np.random.default_rng(config.seed)
        self.tok_emb = Embedding(config.vocab_size, config.dim, rng)
        self.pos_emb = None
        if config.position_encoding == "rope":
            # Positions enter by rotation, so there is no table; its draws
            # are still taken, leaving every later weight where it was.
            _init(rng, config.max_seq_len, config.dim)
        else:
            self.pos_emb = Embedding(config.max_seq_len, config.dim, rng)

        # One default mask for every layer: tile plans are memoised on the
        # mask instance, so layers that share it share their plans.
        shared_mask = config.mask if config.mask is not None else CausalMask()

        def mask_for(layer: int):
            if config.layer_masks is not None:
                return config.layer_masks[layer]
            return shared_mask

        self.blocks = [
            TransformerBlock(
                config.dim, config.n_heads, config.ffn_hidden, rng,
                mask=mask_for(i), policy=config.checkpoint,
                attn_block_size=config.attn_block_size,
                attn_factory=attn_factory,
                n_kv_heads=config.n_kv_heads,
                rope=(config.position_encoding == "rope"),
                rope_theta=config.rope_theta,
                dropout_p=config.dropout_p,
                mlp_chunk_size=config.mlp_chunk_size,
            )
            for i in range(config.n_layers)
        ]
        for i, block in enumerate(self.blocks):
            block.layer_index = i
        self.final_norm = RMSNorm(config.dim)
        self.lm_head = Linear(config.dim, config.vocab_size, rng)

    def set_policy(self, policy: CheckpointPolicy) -> None:
        self.config.checkpoint = policy
        for block in self.blocks:
            block.set_policy(policy)

    def hidden_states(self, ids: np.ndarray) -> Tensor:
        """The last block's output, before ``final_norm``."""
        s = len(ids)
        if s > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {s} exceeds max_seq_len {self.config.max_seq_len}"
            )
        if self.config.position_encoding == "rope":
            x = self.tok_emb(ids)  # positions enter via RoPE in attention
        else:
            x = ops.add(self.tok_emb(ids), self.pos_emb(np.arange(s)))
        for i, block in enumerate(self.blocks):
            with memory_scope(layer=i):
                x = block(x)
        return x

    def forward(self, ids: np.ndarray, targets: np.ndarray) -> Tensor:
        inputs, kwargs = ops.pre_norm_inputs(self.hidden_states(ids),
                                             self.final_norm)
        return self.head_node.apply(
            *inputs, self.lm_head.weight, targets=np.asarray(targets),
            **kwargs, **self.head_kwargs,
        )

    def logits(self, ids: np.ndarray) -> Tensor:
        """Full logits (inference / tests only — the Fig. 8 memory wall)."""
        return self.lm_head(self.final_norm(self.hidden_states(ids)))

    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        temperature: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Autoregressive decoding (greedy at ``temperature == 0``).

        Re-runs the full forward each step — fine for tests and demos;
        this repository optimises training, not inference.
        """
        from repro.nn.tensor import no_grad

        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if temperature < 0:
            raise ValueError("temperature must be >= 0")
        if rng is None:
            rng = np.random.default_rng(0)
        ids = np.asarray(prompt, dtype=np.int64).copy()
        for _ in range(max_new_tokens):
            if len(ids) >= self.config.max_seq_len:
                break
            with no_grad():
                row = self.logits(ids).data[-1]
            if temperature == 0.0:
                nxt = int(row.argmax())
            else:
                z = row / temperature
                p = np.exp(z - z.max())
                p /= p.sum()
                nxt = int(rng.choice(len(p), p=p))
            ids = np.append(ids, nxt)
        return ids

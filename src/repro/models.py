"""The paper's evaluation models as :class:`TransformerConfig` values.

The experiments use LLaMA-architecture Transformers at two scales:

* **7B** — 32 layers, 32 heads, 4096 hidden, 32K vocab;
* **14B** — 40 layers, 40 heads, 5120 hidden, 120K vocab.

These are the configuration the engine runs, at sizes it never
instantiates: the analytic FLOPs and memory models read their shapes (the
numeric engine uses tiny configs).  :func:`n_params` counts exactly what
:class:`TransformerLM` would allocate.
"""

from __future__ import annotations

from repro.nn.modules import TransformerConfig


def _llama(n_layers: int, n_heads: int, dim: int, vocab: int, ffn: int,
           n_kv_heads: int | None = None) -> TransformerConfig:
    return TransformerConfig(
        vocab_size=vocab, dim=dim, n_layers=n_layers, n_heads=n_heads,
        n_kv_heads=n_kv_heads, position_encoding="rope", ffn_hidden=ffn,
    )


#: LLaMA SwiGLU widths: 2/3 * 4h rounded up to a multiple of 256.
LLAMA_7B = _llama(32, 32, 4096, 32_000, 11_008)
LLAMA_14B = _llama(40, 40, 5120, 120_000, 13_824)

#: LLaMA-3-70B-style GQA model (64 query heads sharing 8 KV heads) — used
#: by the GQA extension analyses, not by the paper's own experiments.
LLAMA_70B_GQA = _llama(80, 64, 8192, 128_256, 28_672, n_kv_heads=8)

#: Vocabulary comparison for Fig. 8 (LLaMA-1/2 32K vs LLaMA-3 128K).
LLAMA2_VOCAB = 32_000
LLAMA3_VOCAB = 128_256

#: Name -> configuration; experiment titles read their labels from here.
PAPER_MODELS = {"7B": LLAMA_7B, "14B": LLAMA_14B, "70B-gqa": LLAMA_70B_GQA}


def model_name(config: TransformerConfig) -> str:
    """The paper's label of ``config`` (``"7B"``, ``"14B"``, ...), or its
    parameter count in billions for a configuration the table lacks."""
    for name, known in PAPER_MODELS.items():
        if known == config:
            return name
    return f"{n_params(config) / 1e9:.1f}B"


def kv_ratio(config: TransformerConfig) -> float:
    """KV width relative to query width (1.0 for MHA)."""
    return (config.n_kv_heads or config.n_heads) / config.n_heads


def block_matmul_params(config: TransformerConfig) -> int:
    """One block's projection weights: Wq, Wo, the GQA-narrow Wk, Wv, and
    the FFN's gate, up and down."""
    h = config.dim
    kv_dim = h // config.n_heads * (config.n_kv_heads or config.n_heads)
    return 2 * h * h + 2 * h * kv_dim + 3 * h * config.ffn_hidden


def n_params(config: TransformerConfig) -> int:
    """Parameter count: embeddings (and a learned position table) +
    per-layer attention/FFN/norms + final norm + head."""
    h = config.dim
    per_layer = block_matmul_params(config) + 2 * h  # + two RMSNorms
    positions = 0 if config.position_encoding == "rope" else config.max_seq_len * h
    embeddings = config.vocab_size * h
    head = config.vocab_size * h
    return config.n_layers * per_layer + embeddings + positions + head + h


def _attention_flops_per_token(config: TransformerConfig, seq_len: int) -> float:
    # QK^T and PV: forward 2 matmuls + backward 4, halved for causal.
    return config.n_layers * 12.0 * config.dim * seq_len * 0.5


def flops_per_token(config: TransformerConfig, seq_len: int) -> float:
    """Causal training FLOPs per token (fwd + bwd) at sequence length
    ``seq_len``: the standard ``6 * params`` over the matmul parameters
    (blocks and head) plus the attention term."""
    dense = config.n_layers * block_matmul_params(config) + config.vocab_size * config.dim
    return 6.0 * dense + _attention_flops_per_token(config, seq_len)


def attention_fraction(config: TransformerConfig, seq_len: int) -> float:
    """Share of training time spent in attention matmuls (Fig. 2)."""
    return _attention_flops_per_token(config, seq_len) / flops_per_token(config, seq_len)

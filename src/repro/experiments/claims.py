"""The paper's claims as one table: each row reads cells of the
:class:`ExperimentResult` that ``python -m repro.experiments`` prints with
default arguments, and holds the bound they must meet, the paper's value
(of the cells, or of what the bound tests per matched row; None for a shape
claim) and, where the model deviates from the paper, an attribution
(``"attributed: ..."`` or ``"not explained: ..."``)."""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable

from repro.experiments.common import METHOD_LABELS
from repro.models import LLAMA2_VOCAB, LLAMA3_VOCAB


@dataclass(frozen=True)
class Claim:
    #: ``<experiment id>:<claim>``.
    id: str
    #: ``(*row_key, column)`` each; the key's ``fnmatch`` patterns match a
    #: row's leading cells, and the bound checks each matched row's values.
    cells: tuple[tuple[str, ...], ...]
    bound: Callable[..., bool]
    paper: float | tuple[float | None, ...] | None = None
    deviation: str | None = None

    @property
    def exp(self) -> str:
        return self.id.partition(":")[0]


def at(rows, columns) -> tuple[tuple[str, ...], ...]:
    """``rows`` x ``columns``; a row key of several cells is a tuple."""
    rows = [rows] if isinstance(rows, (str, tuple)) else rows
    columns = [columns] if isinstance(columns, str) else columns
    return tuple((*(r if isinstance(r, tuple) else (r,)), c) for r in rows for c in columns)


def _value(cell: object) -> float | str:
    try:
        return float(str(cell).rstrip("x%"))
    except ValueError:
        return str(cell)


def check_claim(claim: Claim, result) -> tuple[list[tuple], bool]:
    """The values ``claim`` reads, a tuple per matched row, and if all meet its bound."""
    values = list(zip(*(
        [_value(row[result.headers.index(column)]) for row in result.rows
         if all(fnmatchcase(str(c), k) for c, k in zip(row, key))]
        for *key, column in claim.cells), strict=True))
    if not values:
        raise ValueError(f"{claim.id} matches no row of [{result.exp_id}]")
    try:
        return values, all(claim.bound(*v) for v in values)
    except TypeError:
        return values, False


def near(value, target, rel) -> bool:
    return abs(value - target) < rel * abs(target)


def falling(*values) -> bool:
    return list(values) == sorted(values, reverse=True)


STACK = ["base*", "+ backward*", "+ topology*", "+ fused*", "+ sequence*", "selective*"]
NODES, CPS, M14 = ["2", "4", "8"], ["1", "2", "4", "8"], "14B/32GPU/1M"
TAB02_TGS = (83.79, 87.48, 95.06, 94.81, 108.82, 117.83)
TAB04_MFU, TAB05_MFU = (53.1, 53.2, 52.7), (47.34, 48.85, 50.55, 51.90)
TAB05_TGS = (1201.14, 928.24, 639.43, 393.44)
MFU_LOW = "not explained: no term of the model accounts for the gap"

CLAIMS: tuple[Claim, ...] = (
    Claim("fig02:crosses-half-by-128k", at(["32K", "128K"], "attention_%"),
          lambda at32k, at128k: at32k < 50 < at128k),
    Claim("fig02:rises-past-90", at(["8K", "32K", "128K", "512K", "1024K"], "attention_%"),
          lambda *share: list(share) == sorted(share) and share[-1] > 90),
    Claim("tab01:burst-cheapest", at("*", ["BurstAttention", "DoubleRing", "RingAttention"]),
          lambda burst, double, ring: burst < double < ring),
    Claim("fig07:policies-ordered", at(
        "*", ["full_ckpt", "sequence_level", "selective_pp", "no_ckpt"]),
        lambda full, seq, spp, none: full < seq < spp < none),
    Claim("fig07:seq-level-halves-overhead", at(
        "1024K", ["full_ckpt", "sequence_level", "selective_pp"]),
        lambda full, seq, spp: near(seq - full, (spp - full) / 2, 0.02)),
    Claim("fig08:llama3-4x-llama2-past-250gb", at(
        "1024K", ["llama-3 (128K vocab)", "llama-1/2 (32K vocab)"]),
        lambda gb3, gb2: near(gb3 / gb2, LLAMA3_VOCAB / LLAMA2_VOCAB, 0.01) and gb3 > 250),
    Claim("fig12:burst-wins-every-cell", at([("*", m) for m in METHOD_LABELS.values()], "TGS"),
          lambda *tgs: all(tgs[-1] > t for t in tgs[:-1] if isinstance(t, float))),
    Claim("fig12:megatron-oom", at(("*", "Megatron-CP"), "TGS"), lambda tgs: tgs == "OOM"),
    Claim("fig12:ulysses-oom-at-14b-only", at(
        [(M14, "DeepSpeed-Ulysses"), ("7B/32GPU/2M", "DeepSpeed-Ulysses")], "TGS"),
        lambda at14b, at7b: at14b == "OOM" and at7b > 0),
    Claim("fig12:headline-speedup", at([(M14, "BurstEngine"), (M14, "LoongTrain-USP")], "TGS"),
          lambda burst, usp: 1.10 < burst / usp < 1.35, paper=1.15),
    Claim("fig13:burst-fits", at(("*", "BurstEngine"), "mem_GB"), lambda gb: gb < 80),
    Claim("fig13:burst-flat-at-14b", at(
        [("14B/64GPU/2M", "BurstEngine"), (M14, "BurstEngine")], "mem_GB"),
        lambda gb64, gb32: abs(gb64 - gb32) < 0.2 * gb32),
    Claim("fig13:saving-pct", at([("*", "BurstEngine"), ("*", "*(selective++)")], "mem_GB"),
          lambda burst, tuned: 10 < 100 * (1 - burst / tuned) < 45,
          paper=(26.4, 24.2, None, None)),
    Claim("fig14:burst-fastest", at("*", ["Burst", "Megatron-CP", "DoubleRing", "USP"]),
          lambda burst, *others: all(burst <= t for t in others if isinstance(t, float))),
    Claim("fig14:order-at-1m", at("1024K", ["Megatron-CP", "Burst", "USP", "DoubleRing"]),
          lambda megatron, burst, usp, double: megatron == "OOM" and burst < usp < double),
    Claim("fig14:usp-gap-at-1m", at("1024K", ["USP", "Burst"]),
          lambda usp, burst: 1.0 < usp / burst < 1.1, paper=1.05),
    Claim("fig14:doublering-gap-at-1m", at("1024K", ["DoubleRing", "Burst"]),
          lambda double, burst: 1.0 < double / burst < 1.1, paper=1.33,
          deviation="not explained: the model's gap shrinks with length, the "
          "serialized gradient drain falling behind the quadratic compute"),
    Claim("tab02:tgs-rises", at(STACK, "TGS"), lambda *tgs: all(
        b >= a * 0.995 for a, b in zip(tgs[:4], tgs[1:5])) and tgs[0] * 1.25 < tgs[4] < tgs[5],
        paper=TAB02_TGS),
    Claim("tab02:fused-head-memory-only", at(["+ fused*", "+ topology*"], ["TGS", "mem_GB"]),
          lambda tgs, gb, unfused_tgs, unfused_gb: gb < unfused_gb
          and abs(tgs - unfused_tgs) / unfused_tgs < 0.01,
          paper=(TAB02_TGS[3], 41.45, TAB02_TGS[2], 48.97)),
    Claim("tab02:selective-pp-heavier", at(["+ sequence*", "selective*"], "mem_GB"),
          lambda seq, spp: seq < spp, paper=(45.93, 53.91)),
    Claim("tab02:topology-aware-gain", at(["+ topology*", "+ backward*"], "TGS"),
          lambda topo, flat: near(topo, flat, 0.005), paper=TAB02_TGS[2] / TAB02_TGS[1],
          deviation="attributed: at 1M every pass is compute-bound, and the one exposed "
          "hop, the backward's return hop, crosses nodes on either ring"),
    Claim("tab02-split:tgs-and-mem-fall", at(
        ["0.125", "0.250", "0.500", "0.750", "0.875"], ["TGS", "mem_GB"]),
        lambda *v: falling(*v[::2]) and falling(*v[1::2])),
    Claim("tab03:speedups", at(["Causal*", "SWA*"], "speedup"),
          lambda causal, swa: 1.5 < causal < 2.2 and 3.0 < swa < 5.5, paper=(1.72, 3.68)),
    Claim("tab03:balance-raises-tgs", at(["Attention*", "Causal*", "SWA*"], "TGS"),
          lambda masked, causal, swa: masked < causal < swa, paper=(227.58, 393.44, 837.79)),
    Claim("tab04:mfu-flat-above-40", at(NODES, "MFU_%"),
          lambda *mfu: max(mfu) - min(mfu) < 2.0 and min(mfu) > 40),
    Claim("tab04:tgs-halves", at(NODES, "TGS"), lambda *tgs: all(
        near(a / b, 2, 0.1) for a, b in zip(tgs, tgs[1:])), paper=(223.25, 118.36, 60.49)),
    Claim("tab04:mem-falls", at(NODES, "mem_GB"), falling, paper=(63.13, 53.96, 50.96)),
    Claim("tab04:mfu-under-paper", at(NODES, "MFU_%"), lambda *mfu: all(
        3 <= p - m <= 7 for m, p in zip(mfu, TAB04_MFU, strict=True)),
        paper=TAB04_MFU, deviation=MFU_LOW),
    Claim("tab05:mfu-rises-past-45", at(CPS, "MFU_%"),
          lambda *mfu: list(mfu) == sorted(mfu) and mfu[-1] > 45),
    Claim("tab05:fits", at("*", "mem_GB"), lambda gb: gb < 80),
    Claim("tab05:tgs-near-paper", at(CPS, "TGS"), lambda *tgs: all(
        near(t, p, 0.25) for t, p in zip(tgs, TAB05_TGS, strict=True)), paper=TAB05_TGS),
    Claim("tab05:memory-falls", at(CPS, "mem_GB"), falling, paper=(57.7, 55.2, 55.6, 53.6),
          deviation="not explained: the paper's column is flat"),
    Claim("tab05:mfu-under-paper", at(CPS, "MFU_%"), lambda *mfu: all(
        3 <= p - m <= 7 for m, p in zip(mfu, TAB05_MFU, strict=True)),
        paper=TAB05_MFU, deviation=MFU_LOW),
    Claim("ext-gqa:mha-alg2-mqa-alg1", at(["64/64", "64/1"], "adaptive pick"),
          lambda mha, mqa: (mha, mqa) == ("alg2", "alg1")),
    Claim("ext-selective:savings-fall-from-85", at(["32K", "128K", "512K", "1024K"], "saved"),
          lambda *saved: falling(*saved) and saved[0] > 85),
    Claim("ext-tp:oom-before-1m", at(["64K", "1024K"], "80GB"),
          lambda short, long: (short, long) == ("ok", "OOM")),
    Claim("ext-pp:one-microbatch", at(("*", "1"), ["stages", "efficiency"]),
          lambda stages, pct: near(pct / 100, 1 / stages, 0.05)),
)


def paper(claim_id: str) -> float | tuple[float | None, ...]:
    """The paper's value a row holds; notes quote the paper through this."""
    return next(claim.paper for claim in CLAIMS if claim.id == claim_id)

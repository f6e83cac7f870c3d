"""Per-layer metrics of the traced run, one function per source.

``_s`` metrics are the median over the probed steps of a layer's *self*
seconds in one step; every other span-derived metric is a count per step
that must repeat exactly.  A metric whose probe point did not resolve is
``None``.
"""

from __future__ import annotations

import statistics
from collections import Counter

from benchmarks.step.probe import (
    COLLECTIVES, ROOT, Span, has_ancestor, per_step, self_times,
)

_CKPT = "nn.ckpt_backward"
_BACKWARD = "nn.backward"
_FWD_SHARDS = "attention.forward_shards"
_COMM = tuple(f"comm.{op}" for op in COLLECTIVES)

#: metric -> the span names whose self seconds it sums.
_SELF_SECONDS = {
    "kernels.flash_fwd_s": ("kernels.flash_forward",),
    "kernels.flash_bwd_s": ("kernels.flash_backward", "kernels.flash_backward_tiles"),
    "kernels.mlp_fwd_s": ("kernels.mlp_forward",),
    "kernels.mlp_bwd_s": ("kernels.mlp_backward",),
    "kernels.tileplan_build_s": ("kernels.tileplan_build",),
    "attention.fwd_self_s": (_FWD_SHARDS,),
    "attention.bwd_self_s": ("attention.backward_shards",),
    "comm.host_s": _COMM,
    "nn.model_fwd_self_s": ("nn.model_forward",),
    "nn.backward_self_s": (_BACKWARD,),
    "nn.ckpt_replay_self_s": (_CKPT,),
    "nn.optimizer_s": ("nn.optimizer_step",),
    "nn.zero_grad_s": ("nn.zero_grad",),
    "engine.fsdp_log_s": ("engine.log_fsdp",),
    "engine.unattributed_s": (ROOT,),
}
#: metric -> the span names whose calls it counts.
_CALLS = {
    "kernels.flash_fwd_calls": _SELF_SECONDS["kernels.flash_fwd_s"],
    "kernels.flash_bwd_calls": _SELF_SECONDS["kernels.flash_bwd_s"],
    "kernels.mlp_calls": ("kernels.mlp_forward", "kernels.mlp_backward"),
    "kernels.tileplan_builds": _SELF_SECONDS["kernels.tileplan_build_s"],
    "attention.fwd_passes": (_FWD_SHARDS,),
    "attention.bwd_passes": ("attention.backward_shards",),
    "comm.calls": _COMM,
    "comm.ring_shift_calls": ("comm.ring_shift",),
    "comm.all_to_all_calls": ("comm.all_to_all",),
}
#: metrics that need the span tree, not just names -> the points they need.
_EXTRA = {
    "attention.recompute_fwd_passes": (_FWD_SHARDS, _CKPT),
    "attention.recompute_fwd_incl_s": (_FWD_SHARDS, _CKPT),
    "nn.ckpt_replay_incl_s": (_CKPT, _BACKWARD),
}
_HEAD_PREFIX = "lmhead."  # head spans are named after the registry's keys


def span_metrics(
    spans: list[Span], missing: list[str]
) -> tuple[dict[str, float | None], list[str]]:
    """Metrics derived from probe spans, and the violations found: a step
    whose self times do not sum to its root wall, or a count that differs
    between steps."""
    selfs = self_times(spans)
    heads = tuple(sorted(
        {n for n in missing if n.startswith(_HEAD_PREFIX)}
        | {s.name for s in spans if s.name.startswith(_HEAD_PREFIX)}
    ))
    violations: list[str] = []
    steps: list[tuple[Counter, Counter, Counter]] = []
    for step, indices in sorted(per_step(spans).items()):
        self_s, calls, extra = Counter(), Counter(), Counter()
        for i in indices:
            span = spans[i]
            self_s[span.name] += selfs[i]
            calls[span.name] += 1
            if span.name == _FWD_SHARDS and has_ancestor(spans, i, _CKPT):
                extra["attention.recompute_fwd_passes"] += 1
                extra["attention.recompute_fwd_incl_s"] += span.duration
            elif span.name == _CKPT:
                extra["nn.ckpt_replay_incl_s"] += span.duration
            elif span.name == _BACKWARD and span.parent >= 0 \
                    and spans[span.parent].name == _CKPT:
                # Checkpoint.backward = replay forward + backward through the
                # replayed sub-graph; only the former is the replay's cost.
                extra["nn.ckpt_replay_incl_s"] -= span.duration
        roots = [i for i in indices if spans[i].name == ROOT]
        wall = sum(spans[i].duration for i in roots)
        total = sum(self_s.values())
        if len(roots) != 1 or abs(total - wall) > 1e-6 * wall:
            violations.append(
                f"step {step}: layer self times sum to {total!r}, "
                f"root wall is {wall!r} ({len(roots)} root spans)"
            )
        steps.append((self_s, calls, extra))

    # metric -> (one value per step, the probe points it needs)
    series: dict[str, tuple[list[float], tuple[str, ...]]] = {}
    for metric, names in {**_SELF_SECONDS, "lmhead.loss_s": heads}.items():
        series[metric] = ([sum(s[n] for n in names) for s, _, _ in steps], names)
    for metric, names in {**_CALLS, "lmhead.calls": heads}.items():
        series[metric] = ([sum(c[n] for n in names) for _, c, _ in steps], names)
    for metric, names in _EXTRA.items():
        series[metric] = ([e[metric] for _, _, e in steps], names)

    out: dict[str, float | None] = {}
    for metric, (values, names) in series.items():
        if any(n in missing for n in names):
            out[metric] = None
        elif metric.endswith("_s"):
            out[metric] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                violations.append(f"{metric} differs between steps: {values}")
            out[metric] = values[0]
    return out, violations


def traffic_metrics(records) -> dict[str, int]:
    """Simulated bytes of one step's ``TrafficLog`` records, by slice."""
    out = dict.fromkeys(
        ("comm.attn_bytes", "comm.fsdp_bytes", "comm.inter_node_bytes",
         "comm.rev_channel_bytes"), 0)
    for r in records:
        if r.phase.startswith("attn"):
            out["comm.attn_bytes"] += r.nbytes
        elif r.phase == "fsdp":
            out["comm.fsdp_bytes"] += r.nbytes
        if r.link.value == "inter":
            out["comm.inter_node_bytes"] += r.nbytes
        if r.channel == "rev":
            out["comm.rev_channel_bytes"] += r.nbytes
    return out


def tile_metrics(before: dict, after: dict) -> dict[str, float]:
    """One step's tile work from two ``repro.kernels.counters`` snapshots."""
    computed = after["tiles_computed"] - before["tiles_computed"]
    skipped = after["tiles_skipped"] - before["tiles_skipped"]
    total = computed + skipped
    return {
        "kernels.tiles_computed": computed,
        "kernels.tiles_skipped": skipped,
        "kernels.tile_skip_frac": skipped / total if total else 0.0,
    }

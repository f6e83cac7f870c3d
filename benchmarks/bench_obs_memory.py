#!/usr/bin/env python
"""Overhead + gate benchmark for the memory observability layer.

Runs one quickstart training step per checkpoint policy three ways —
uninstrumented, with a :class:`~repro.obs.mem.MemoryTimeline` installed,
and with a timeline plus a (non-breaching) :class:`MemoryBudget` — and
reports the tracking overhead on the step wall clock.  The hard gates
double as a smoke test (a broken one exits non-zero):

* observed peak saved bytes equals
  :func:`repro.perf.memory.predict_step_peak_saved_bytes` byte-for-byte,
* the leak report is empty on both series (the saved activations and
  the kernel scratch drain by step end),
* the tracked/untracked wall ratio stays under the committed ceiling —
  the timeline fast path is two module-global reads, so instrumentation
  must stay invisible next to the numpy kernels.

``--out BENCH_obs_memory.json`` writes the committed artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.engine import BurstEngine, EngineConfig
from repro.engine.trainer import Trainer
from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy
from repro.nn.memory import get_tracker
from repro.nn.modules import TransformerConfig
from repro.obs import MemoryBudget, use_memory_budget, use_memory_timeline
from repro.obs.mem import TRANSIENT, leak_report
from repro.perf.memory import predict_step_peak_saved_bytes
from repro.topology import a800_node, make_cluster

POLICIES = ("sequence_level", "full")
OVERHEAD_CEILING = 2.0  # tracked / untracked step wall, best-of


def _build(policy: str, seq: int) -> tuple[BurstEngine, tuple]:
    config = EngineConfig(
        model=TransformerConfig(
            vocab_size=128, dim=32, n_layers=2, n_heads=4, ffn_hidden=64,
            max_seq_len=seq, attn_block_size=32,
        ),
        method="burst",
        checkpoint=CheckpointPolicy(CheckpointMode(policy), 0.5),
        head_impl="fused",
    )
    engine = BurstEngine(config, make_cluster(8, node=a800_node(gpus_per_node=4)))
    rng = np.random.default_rng(0)
    return engine, (rng.integers(0, 128, seq), rng.integers(0, 128, seq))


def _step_wall(policy: str, seq: int, repeat: int, instrument) -> float:
    best = float("inf")
    for _ in range(max(repeat, 1)):
        engine, batch = _build(policy, seq)
        trainer = Trainer(engine=engine)
        t0 = time.perf_counter()
        instrument(trainer, batch)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seq", type=int, default=128)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default=None,
                        help="write the BENCH json artifact here")
    parser.add_argument("--smoke", action="store_true",
                        help="mark the artifact as a smoke (not tuned) run")
    args = parser.parse_args(argv)

    def plain(trainer, batch):
        trainer.fit([batch], steps=1)

    def tracked(trainer, batch):
        with use_memory_timeline():
            trainer.fit([batch], steps=1)

    def budgeted(trainer, batch):
        with use_memory_timeline():
            with use_memory_budget(MemoryBudget(limit_bytes=1 << 40)):
                trainer.fit([batch], steps=1)

    failed = False
    results = []
    print(f"{'policy':<16} {'plain_s':>8} {'tracked_s':>10} {'budget_s':>9} "
          f"{'ratio':>6}  gates")
    for policy in POLICIES:
        plain_s = _step_wall(policy, args.seq, args.repeat, plain)
        tracked_s = _step_wall(policy, args.seq, args.repeat, tracked)
        budget_s = _step_wall(policy, args.seq, args.repeat, budgeted)

        # gate run: observed peak + leak report off a fresh tracked step
        engine, batch = _build(policy, args.seq)
        with use_memory_timeline() as timeline:
            Trainer(engine=engine).fit([batch], steps=1)
            events = timeline.events()
        observed = get_tracker().peak_saved_bytes
        predicted = predict_step_peak_saved_bytes(
            seq_len=args.seq, dim=32, n_layers=2, n_heads=4, ffn_hidden=64,
            vocab=128, checkpoint=policy, head_impl="fused",
        )["peak_saved_bytes"]
        leaks = leak_report(events) + leak_report(events, TRANSIENT)
        ratio = tracked_s / plain_s
        ok = observed == predicted and not leaks and ratio < OVERHEAD_CEILING
        failed = failed or not ok
        gates = (
            f"peak={'OK' if observed == predicted else 'DRIFT'} "
            f"leaks={'OK' if not leaks else len(leaks)} "
            f"overhead={'OK' if ratio < OVERHEAD_CEILING else 'FAIL'}"
        )
        print(f"{policy:<16} {plain_s:>8.3f} {tracked_s:>10.3f} "
              f"{budget_s:>9.3f} {ratio:>6.2f}  {gates}")
        results.append({
            "name": f"burst/{policy}",
            "params": {"seq": args.seq, "dim": 32, "n_layers": 2,
                       "n_heads": 4, "ffn_hidden": 64, "policy": policy},
            "plain_s": plain_s,
            "tracked_s": tracked_s,
            "budgeted_s": budget_s,
            "overhead_ratio": ratio,
            "observed_peak_bytes": observed,
            "predicted_peak_bytes": predicted,
            "timeline_events": len(events),
            "leaks": len(leaks),
            "cpu_count": os.cpu_count(),
        })

    if args.out:
        doc = {
            "suite": "obs_memory",
            "smoke": bool(args.smoke),
            "gates": (
                "every run exits 1 unless each result has observed_peak_bytes"
                " == predicted_peak_bytes, leaks == 0 and overhead_ratio < "
                f"{OVERHEAD_CEILING}; no other field is gated, and the "
                "committed values are not compared against"
            ),
            "schema": {
                "plain_s": "best step wall, no instrumentation (s; "
                           "informational)",
                "tracked_s": "best step wall with a MemoryTimeline (s; "
                             "informational)",
                "budgeted_s": "best step wall with timeline + budget (s; "
                              "informational)",
                "overhead_ratio": "tracked_s / plain_s; gated < "
                                  f"{OVERHEAD_CEILING}",
                "observed_peak_bytes": "MemoryTracker.peak_saved_bytes",
                "predicted_peak_bytes": "perf.memory closed form; gated ==",
                "timeline_events": "MemEvents recorded for the step "
                                   "(informational)",
                "leaks": "unreleased saved and transient handles at step "
                         "end; gated 0",
            },
            "results": results,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

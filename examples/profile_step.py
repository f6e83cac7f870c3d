"""Profile a real training step: where did the time and the bytes go?

Runs one BurstEngine step on the simulated cluster through the
:class:`~repro.engine.Trainer` with span tracing on and a step-metrics
file, then prints the :mod:`repro.obs` report of that step — span time by
phase, kernel time by backend, ring transitions by logical phase, and the
communication volume by link class and by phase — and keeps the observed
execution as a Chrome trace next to the metrics.

Run:  python examples/profile_step.py
"""

import os

import numpy as np

from repro.engine import BurstEngine, EngineConfig, Trainer
from repro.nn import TransformerConfig
from repro.obs import spans_to_chrome_json, use_tracing
from repro.obs.report import load_metrics, render_report
from repro.topology import a800_node, make_cluster


def main() -> None:
    topology = make_cluster(8, node=a800_node(gpus_per_node=4))
    engine = BurstEngine(
        EngineConfig(
            model=TransformerConfig(
                vocab_size=128, dim=32, n_layers=3, n_heads=4,
                ffn_hidden=64, max_seq_len=128, attn_block_size=32,
            ),
        ),
        topology=topology,
    )
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 128, size=64)

    out_dir = os.path.join(os.path.dirname(__file__), "traces")
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "profile_step.metrics.jsonl")
    trace_path = os.path.join(out_dir, "profile_step.observed.json")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)  # the trainer appends one line per step
    with use_tracing() as tracer:
        Trainer(engine=engine, metrics_path=metrics_path).fit(
            [(ids, np.roll(ids, -1))], steps=1
        )
    trace = spans_to_chrome_json(
        tracer.spans(), trace_path,
        metadata={"method": engine.config.method,
                  "world_size": topology.world_size,
                  "gpus_per_node": topology.gpus_per_node},
    )
    print(f"cluster: {topology.describe()}\n")
    print(render_report(trace, load_metrics(metrics_path)))
    print(f"\nwrote {trace_path} ({len(tracer.spans())} spans; open in "
          "https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()

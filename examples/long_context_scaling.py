"""Long-context scaling study: which system trains a 14B model on 1M+
token sequences fastest, and what fits in memory?

Uses the performance model (DES overlap schedules + analytic memory) to
sweep methods x sequence lengths on a 4-node A800 cluster — the workflow
a practitioner would run before committing to a parallelism strategy.

Run:  python examples/long_context_scaling.py
"""

from dataclasses import replace

from repro.experiments import BASELINE_CONFIGS, METHOD_LABELS
from repro.models import LLAMA_14B, model_name, n_params
from repro.perf import EndToEndModel, TrainingSetup
from repro.topology import make_cluster
from repro.utils import format_table


SEQ_LENS = [262144, 524288, 1048576, 2097152]
METHODS = ["megatron-cp", "ulysses", "loongtrain-double", "usp", "burst"]


def main() -> None:
    topology = make_cluster(32)
    print(f"cluster: {topology.describe()}")
    print(f"model:   {model_name(LLAMA_14B)} "
          f"({n_params(LLAMA_14B) / 1e9:.1f}B params)\n")

    rows = []
    for seq in SEQ_LENS:
        for method in METHODS:
            config = replace(BASELINE_CONFIGS[method], model=LLAMA_14B)
            try:
                r = EndToEndModel().step(TrainingSetup(config, topology, seq))
            except ValueError as exc:
                rows.append([f"{seq // 1024}K", METHOD_LABELS[method],
                             "infeasible", "-", "-", str(exc)[:40]])
                continue
            status = "OOM" if r.oom else ""
            rows.append([
                f"{seq // 1024}K", METHOD_LABELS[method],
                f"{r.tgs:.1f}", f"{r.mfu * 100:.1f}",
                f"{r.memory.total_gb:.1f}", status,
            ])
    print(format_table(
        ["seq", "method", "TGS", "MFU%", "mem GB", ""], rows
    ))

    print("\nwhere the time goes at 1M tokens (BurstEngine):")
    burst = replace(BASELINE_CONFIGS["burst"], model=LLAMA_14B)
    r = EndToEndModel().step(TrainingSetup(burst, topology, 1048576))
    for part, seconds in sorted(r.breakdown.items(), key=lambda kv: -kv[1]):
        share = seconds / r.step_time * 100
        print(f"  {part:15s} {seconds:7.2f}s  {share:5.1f}%")
    print(f"  {'total step':15s} {r.step_time:7.2f}s")


if __name__ == "__main__":
    main()

"""Visualising communication-computation overlap (Fig. 5).

Builds the DES task graphs behind the attention timing model for
BurstAttention's delayed-gradient scheme vs LoongTrain's serialized
gradient drain — the same graphs ``attention_pass_time`` prices — prints
the timelines, and exports Chrome traces you can open at chrome://tracing
or https://ui.perfetto.dev — plus an *observed* trace of a real burst
backward pass on the simulated cluster, so the predicted and executed ring
schedules sit side by side in the viewer (the DES rows load as pid 1, the
observed rows as pid 2).

Run:  python examples/overlap_trace.py
"""

import os

import numpy as np

from repro.attention import get_method
from repro.comm import SimCommunicator
from repro.obs import spans_to_chrome_json, use_tracing
from repro.obs.export import sims_to_chrome_json
from repro.perf import attention_pass_sim
from repro.perf.des import Simulator
from repro.perf.schedules.attention import AttentionWorkload
from repro.topology import a800_node, make_cluster


def build(method: str) -> Simulator:
    """One backward pass of ``method`` at a size where comm and compute
    are comparable (64K tokens, hidden 4096, 2 x 4 GPUs)."""
    topology = make_cluster(8, node=a800_node(gpus_per_node=4))
    workload = AttentionWorkload(seq_len=65536, hidden=4096, n_heads=32)
    return attention_pass_sim(method, topology, workload, backward=True)


def show(label: str, sim: Simulator) -> None:
    print(f"\n{label}: makespan {sim.makespan * 1e3:.2f} ms")
    for task in sim.timeline():
        res = task.resources[0] if task.resources else "-"
        bar_start = int(task.start * 4e3)
        bar_len = max(1, int(task.duration * 4e3))
        print(f"  {task.name:16s} [{res:7s}] "
              + " " * bar_start + "#" * bar_len)


def observed(out_dir: str) -> None:
    """Execute the same burst fwd+bwd pass for real and export its spans."""
    topology = make_cluster(8, node=a800_node(gpus_per_node=4))
    method = get_method("burst")
    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((4, 128, 16)) for _ in range(3))
    do = rng.standard_normal((4, 128, 16))
    with use_tracing() as tracer:
        method.run(topology, q, k, v, do=do,
                   comm=SimCommunicator(topology))
    path = os.path.join(out_dir, "burst.observed.json")
    spans_to_chrome_json(tracer.spans(), path, metadata={"method": "burst"})
    print(f"wrote {path} ({len(tracer.spans())} observed spans — load next "
          "to the DES traces to compare rings)")


def main() -> None:
    overlapped = build("burst")
    serialized = build("loongtrain-double")
    show("BurstAttention (delayed double buffer)", overlapped)
    show("DoubleRing (serialized gradient drain)", serialized)

    out_dir = os.path.join(os.path.dirname(__file__), "traces")
    os.makedirs(out_dir, exist_ok=True)
    for name, sim in (("burst", overlapped), ("doublering", serialized)):
        path = os.path.join(out_dir, f"{name}.json")
        sims_to_chrome_json(sim, path)
        print(f"\nwrote {path} (open in chrome://tracing)")
    observed(out_dir)


if __name__ == "__main__":
    main()

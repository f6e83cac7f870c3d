"""Figure 7: total stored-activation memory of checkpointing strategies
vs sequence length.  Paper shape: all linear in S; sequence-level stores
half of selective++'s overhead above full checkpointing."""

from repro.experiments import fig07_checkpoint_memory


def test_fig07_ckpt_memory(benchmark, record_table):
    result = benchmark(fig07_checkpoint_memory)
    record_table(result)
    for row in result.rows:
        full, seq, spp, none = (float(v) for v in row[1:])
        assert full < seq < spp < none


def test_fig07_split_fraction_sweep(benchmark, record_table):
    """Ablation: the DESIGN.md-called-out split-point sweep — cached
    fraction scales linearly between full (split 1.0) and selective++
    (split 0.0)."""
    from repro.engine import EngineConfig
    from repro.models import LLAMA_7B
    from repro.nn.checkpoint import CheckpointMode, CheckpointPolicy
    from repro.perf.memory import MemoryModel, TrainingSetup
    from repro.topology import make_cluster

    def sweep():
        topo = make_cluster(32)
        return {
            frac: MemoryModel().activation_bytes(TrainingSetup(
                EngineConfig(model=LLAMA_7B, checkpoint=CheckpointPolicy(
                    CheckpointMode.SEQUENCE_LEVEL, frac)),
                topo, 262144,
            ))
            for frac in (0.25, 0.5, 0.75)
        }

    curves = benchmark(sweep)
    assert curves[0.25] > curves[0.5] > curves[0.75]


if __name__ == "__main__":
    print(fig07_checkpoint_memory().format())

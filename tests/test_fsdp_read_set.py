"""FSDP's second all-gather carries exactly what a recomputing backward
reads.

A step all-gathers every parameter for the forward, re-gathers the
parameters of the layers whose backward recomputes, and reduce-scatters
every gradient.  The re-gathered set is declared once,
``BurstEngine.replayed_parameters``; these tests hold it to the executed
one: the parameter ``Tensor`` inputs of every node whose backward runs its
recompute (``AttentionFn._recompute``) are recorded, and the recorded set
must be the declared set, with the bytes the step hands
``log_fsdp_traffic`` as its unpadded re-gather.  Nothing outside the
blocks is read again: the embeddings' backward is a scatter-add, the LM
head forms its gradients in its forward, and the final norm's node holds
its weight by reference.  Selective++ recomputes no rows on a ring-family
method, yet keeps its re-gather: ``CheckpointPolicy.replays`` is the
pricing convention, kept for every checkpointing policy.
"""

import numpy as np
import pytest

import repro.engine.engine as engine_module
from repro.engine import BurstEngine, EngineConfig
from repro.nn import CheckpointPolicy, Tensor, TransformerConfig
from repro.nn.attention_fn import AttentionFn
from repro.nn.function import Function
from repro.topology import a800_node, make_cluster


def _record_step(monkeypatch, engine, ids, targets):
    """Run one ``train_step``; return the parameters of the nodes whose
    backward recomputed, the ``replayed_bytes`` the step logged, and the
    result."""
    params = {id(p): p for p in engine.model.parameters()}
    inputs, read, logged = {}, {}, []
    apply = Function.__dict__["apply"].__func__
    recompute = AttentionFn._recompute

    def recording_apply(cls, *args, **kwargs):
        out = apply(cls, *args, **kwargs)
        if out._ctx is not None:
            inputs[id(out._ctx[0])] = [a for a in args if isinstance(a, Tensor)
                                       and id(a) in params]
        return out

    def recording_recompute(node, *args):
        read.update((id(a), a) for a in inputs[id(node)])
        return recompute(node, *args)

    log = engine_module.log_fsdp_traffic

    def recording_log(comm, param_bytes, **kwargs):
        logged.append(kwargs["replayed_bytes"])
        return log(comm, param_bytes, **kwargs)

    monkeypatch.setattr(Function, "apply", classmethod(recording_apply))
    monkeypatch.setattr(AttentionFn, "_recompute", recording_recompute)
    monkeypatch.setattr(engine_module, "log_fsdp_traffic", recording_log)
    result = engine.train_step(ids, targets)
    monkeypatch.undo()
    (replayed_bytes,) = logged
    return list(read.values()), replayed_bytes, result


def _assert_regathers_what_the_replay_reads(monkeypatch, engine, ids, targets,
                                            recomputes=True):
    read, replayed_bytes, result = _record_step(monkeypatch, engine, ids, targets)
    declared = engine.replayed_parameters()
    assert {id(p) for p in read} == (
        {id(p) for p in declared} if recomputes else set())
    assert sum(p.nbytes for p in declared) == replayed_bytes
    assert 0 < replayed_bytes < engine.param_bytes
    # what the re-gather pass logs is that set, padded to whole elements
    g = engine.topology.world_size
    shard = -(-replayed_bytes // (8 * g))
    regather = [r for r in engine.comm.log.records
                if r.tag == "fsdp-ring" and r.nelems == shard]
    assert len(regather) == g * (g - 1)
    assert result.fsdp.allgather_bytes == (
        result.fsdp.reduce_scatter_bytes + (g - 1) * shard * 8)


@pytest.mark.parametrize(
    "name", ["burst_long", "swa_bidir", "ulysses_full", "wide_short"])
def test_workload_regathers_what_its_replay_reads(monkeypatch, name):
    from benchmarks.step.workloads import WORKLOADS, make_batch

    spec = WORKLOADS[name]
    config = spec.config(spec.smoke_seq_len)
    engine = BurstEngine(config, topology=spec.topology())
    _assert_regathers_what_the_replay_reads(
        monkeypatch, engine, *make_batch(config, seed=3))


TOPO = make_cluster(4, node=a800_node(gpus_per_node=2))
IDS = np.random.default_rng(3).integers(0, 40, size=32)


def _engine(policy, method="burst"):
    return BurstEngine(
        EngineConfig(
            model=TransformerConfig(
                vocab_size=40, dim=16, n_layers=2, n_heads=4, ffn_hidden=24,
                max_seq_len=32, attn_block_size=8),
            method=method, checkpoint=CheckpointPolicy.parse(policy, 0.5)),
        topology=TOPO,
    )


@pytest.mark.parametrize("method", ["burst", "ulysses"])
@pytest.mark.parametrize("policy", ["full", "selective_pp", "sequence_level"])
def test_each_replaying_policy_regathers_the_blocks(monkeypatch, policy, method):
    engine = _engine(policy, method)
    # selective++ keeps every row on a ring-family method: nothing to
    # recompute, the re-gather kept by convention
    _assert_regathers_what_the_replay_reads(
        monkeypatch, engine, IDS, np.roll(IDS, -1),
        recomputes=(policy, method) != ("selective_pp", "burst"))
    block_params = [p for block in engine.model.blocks
                    for p in block.parameters()]
    assert [id(p) for p in engine.replayed_parameters()] == [
        id(p) for p in block_params]


def test_none_replays_nothing_and_regathers_nothing(monkeypatch):
    engine = _engine("none")
    read, replayed_bytes, result = _record_step(
        monkeypatch, engine, IDS, np.roll(IDS, -1))
    assert read == [] and replayed_bytes == 0
    assert engine.replayed_parameters() == []
    # one gather for the forward, one reduce-scatter: the same shard twice
    g = TOPO.world_size
    shard = -(-engine.param_bytes // (8 * g))
    records = [r for r in engine.comm.log.records if r.tag == "fsdp-ring"]
    assert {r.nelems for r in records} == {shard}
    assert len(records) == 2 * g * (g - 1)
    assert result.fsdp.allgather_bytes == result.fsdp.reduce_scatter_bytes

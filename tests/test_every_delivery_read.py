"""Every delivered byte is read: perturbing any one leaf that one rank
receives in one delivery changes the result.

The sweep below drives a test-local fault communicator over every
``(call, rank, leaf)`` a ring-family run delivers — every transition of
both streams and the return hop — and perturbs exactly that leaf.  A leaf
whose perturbation leaves every output bit unchanged was shipped but never
read: that is what a return hop carrying a whole backward bundle home
looks like, when the owner reads only the carried accumulators.

The head-parallel executor (Ulysses, and USP under either ring leg) is
swept the same way: every leaf of its four all-to-alls — ``q, k, v`` in,
``o`` out, ``dO`` and ``D`` in, ``dq, dk, dv`` out — and of its ring hops.
An ``lse`` shipped back to sequence layout, which a training step never
reads, is what this catches there.
"""

import numpy as np
import pytest

from repro.attention import get_method
from repro.comm.ring import RING_METHODS, RING_MODES
from repro.engine import BurstEngine, EngineConfig
from repro.masks import CausalMask
from repro.nn import CheckpointPolicy, TransformerConfig
from repro.testing import FaultInjectingCommunicator
from repro.topology import a800_node, make_cluster
from repro.utils.pytree import tree_flatten, tree_unflatten


def topo(nodes, gpn):
    return make_cluster(nodes * gpn, node=a800_node(gpus_per_node=gpn))


TOPOLOGIES = [topo(1, 4), topo(2, 3)]
TOPO_IDS = ["1x4", "2x3"]
#: (query heads, KV heads): MHA and a GQA group of 2.
HEADS = [(2, 2), (4, 2)]
HEAD_IDS = ["mha", "gqa"]
#: The head-parallel executor: Ulysses (USP at ``u = G``, a one-position
#: ring) and USP at ``u = 2`` with each ring-leg backward.
HEAD_PARALLEL = [
    ("ulysses", {}),
    ("usp", {"ulysses_degree": 2}),
    ("usp", {"ulysses_degree": 2, "use_burst_backward": True}),
]
HEAD_PARALLEL_IDS = ["ulysses", "usp2-alg1", "usp2-alg2"]
RELAYOUT_TAGS = {"usp-qkv", "usp-out", "usp-dout", "usp-grads"}


class PerturbLeafComm(FaultInjectingCommunicator):
    """Adds noise to leaf ``leaf`` of what ``rank`` receives in the
    ``at_call``-th matched delivery.  With ``leaf=None`` it damages
    nothing and takes the census instead: ``census[k - 1]`` is the
    ``k``-th matched delivery's tag and the ``(rank, leaves)`` of every
    rank it reached."""

    fault_name = "perturb-leaf"

    def __init__(self, topology, *, rank=None, leaf=None, **kw):
        super().__init__(topology, **kw)
        self.rank, self.leaf = rank, leaf
        self.census = []

    def _damage(self, call, out, prev):
        if self.leaf is None:
            received = sorted({dst for _, dst, _, _ in call.hops})
            self.census.append((call.tag, [
                (r, len(tree_flatten(out[r])[0])) for r in received
            ]))
            return out
        leaves, spec = tree_flatten(out[self.rank])
        leaves = list(leaves)
        a = leaves[self.leaf]
        leaves[self.leaf] = a + 0.25 * (1 + np.arange(a.size) % 3).reshape(
            a.shape
        )
        out[self.rank] = tree_unflatten(spec, leaves)
        return out


def targets(run, topology, **filters):
    """Every ``(call, tag, rank, leaf)`` the run's matched deliveries
    reach."""
    census = PerturbLeafComm(topology, at_call=None, **filters)
    run(census)
    return [
        (k, tag, rank, leaf)
        for k, (tag, received) in enumerate(census.census, start=1)
        for rank, leaves in received
        for leaf in range(leaves)
    ]


def unread(run, topology, fingerprint, **filters):
    """The targets whose perturbation changes no bit of ``fingerprint``."""
    clean = fingerprint(run(PerturbLeafComm(topology, at_call=None,
                                            **filters)))
    missed = []
    for k, tag, rank, leaf in targets(run, topology, **filters):
        comm = PerturbLeafComm(
            topology, at_call=k, rank=rank, leaf=leaf, **filters
        )
        out = fingerprint(run(comm))
        assert comm.injections == 1
        if all(np.array_equal(a, b) for a, b in zip(clean, out)):
            missed.append(f"{tag!r} call {k}: rank {rank} leaf {leaf}")
    return missed


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPO_IDS)
@pytest.mark.parametrize("heads", HEADS, ids=HEAD_IDS)
@pytest.mark.parametrize("ring_mode", RING_MODES)
@pytest.mark.parametrize("method", RING_METHODS)
def test_method_reads_every_delivered_leaf(method, ring_mode, heads,
                                           topology):
    """``method.run`` under a dense mask: each perturbed leaf moves some
    element of ``o``, ``lse``, ``dq``, ``dk`` or ``dv``."""
    g = topology.world_size
    n_q, n_kv = heads
    n, d = 2 * g, 2
    rng = np.random.default_rng(3)
    q, do = (rng.normal(size=(n_q, n, d)) for _ in range(2))
    k, v = (rng.normal(size=(n_kv, n, d)) for _ in range(2))
    m = get_method(method, block_size=2, ring_mode=ring_mode)

    def run(comm):
        return m.run(topology, q, k, v, mask=None, do=do, comm=comm)

    def fingerprint(res):
        return res.o, res.lse, res.dq, res.dk, res.dv

    assert unread(run, topology, fingerprint) == []


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPO_IDS)
@pytest.mark.parametrize("heads", HEADS, ids=HEAD_IDS)
@pytest.mark.parametrize("ring_mode", RING_MODES)
@pytest.mark.parametrize("method", RING_METHODS)
def test_train_step_reads_every_delivered_attention_leaf(method, ring_mode,
                                                         heads, topology):
    """One ring-family ``train_step`` (causal mask, one layer): each
    perturbed attention leaf moves the loss or some gradient."""
    g = topology.world_size
    n_q, n_kv = heads
    config = EngineConfig(
        model=TransformerConfig(
            vocab_size=16, dim=4 * n_q, n_layers=1, n_heads=n_q,
            n_kv_heads=n_kv, ffn_hidden=8, max_seq_len=2 * g,
        ),
        method=method, method_kwargs={"ring_mode": ring_mode},
        checkpoint=CheckpointPolicy(), fsdp=False,
    )
    ids = np.arange(2 * g) % 16

    def run(comm):
        engine = BurstEngine(config, comm=comm)
        loss = engine.train_step(ids, np.roll(ids, -1)).loss
        return [loss] + [p.grad for p in engine.model.parameters()]

    assert unread(run, topology, lambda step: step, phase="attn") == []


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPO_IDS)
@pytest.mark.parametrize("method,kwargs", HEAD_PARALLEL, ids=HEAD_PARALLEL_IDS)
def test_head_parallel_method_reads_every_delivered_leaf(method, kwargs,
                                                         topology):
    """``method.run`` on the head-parallel executor, causal mask: each
    perturbed leaf — of every all-to-all, ``D`` included, and every ring
    hop — moves some element of ``o``, ``lse``, ``dq``, ``dk`` or
    ``dv``."""
    g = topology.world_size
    n, d = 2 * g, 2
    rng = np.random.default_rng(3)
    q, k, v, do = (rng.normal(size=(g, n, d)) for _ in range(4))
    m = get_method(method, block_size=2, **kwargs)

    def run(comm):
        return m.run(topology, q, k, v, mask=CausalMask(), do=do, comm=comm)

    def fingerprint(res):
        return res.o, res.lse, res.dq, res.dk, res.dv

    assert {t[1] for t in targets(run, topology)} >= RELAYOUT_TAGS
    assert unread(run, topology, fingerprint) == []


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPO_IDS)
@pytest.mark.parametrize("method,kwargs", HEAD_PARALLEL, ids=HEAD_PARALLEL_IDS)
def test_head_parallel_train_step_reads_every_delivered_attention_leaf(
    method, kwargs, topology
):
    """One head-parallel ``train_step`` (causal mask, one layer, ``G``
    heads): each perturbed attention leaf moves the loss or some
    gradient.  The engine reads no sequence-layout ``lse``, so none may
    be shipped."""
    g = topology.world_size
    config = EngineConfig(
        model=TransformerConfig(
            vocab_size=16, dim=2 * g, n_layers=1, n_heads=g, ffn_hidden=8,
            max_seq_len=2 * g,
        ),
        method=method, method_kwargs=kwargs,
        checkpoint=CheckpointPolicy(), fsdp=False,
    )
    ids = np.arange(2 * g) % 16

    def run(comm):
        engine = BurstEngine(config, comm=comm)
        loss = engine.train_step(ids, np.roll(ids, -1)).loss
        return [loss] + [p.grad for p in engine.model.parameters()]

    assert {t[1] for t in targets(run, topology, phase="attn")} >= RELAYOUT_TAGS
    assert unread(run, topology, lambda step: step, phase="attn") == []

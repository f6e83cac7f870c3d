"""Acceptance tests for the bidirectional ring mode.

The contract under test: ``ring_mode="bidirectional"`` changes *only* the
transport — the compute loop, visit order, online-softmax merge order, and
gradient accumulation order are untouched — so its outputs are **bitwise
identical** to the unidirectional path for every ring-family method, mask,
and head layout.  Alongside the end-to-end pins, this file unit-tests the
schedule primitives the mode is built from (the reverse seed permutation,
the forward/reverse split, :class:`BidirectionalFlow` delivery timing) and
the differential-test plumbing (``FuzzCase.ring_mode`` round-trip and
validation).
"""

import numpy as np
import pytest

from repro.attention import (
    burst_attention_backward,
    get_method,
    ring_attention_backward_kv,
    ring_pass,
)
from repro.attention.gqa import backward_comm_elems
from repro.attention.verify import verify_method
from repro.comm import SimCommunicator
from repro.comm.ring import (
    RING_MODES,
    BidirectionalFlow,
    bidirectional_split,
    backward_bundle,
    check_ring_mode,
    double_ring_schedule,
    global_ring_schedule,
)
from repro.masks import ALiBiMask, CausalMask
from repro.topology import a800_node, make_cluster


def topo(nodes, gpn):
    return make_cluster(nodes * gpn, node=a800_node(gpus_per_node=gpn))


RING_METHODS = ["megatron-cp", "loongtrain-double", "burst"]
TOPOLOGIES = [topo(1, 4), topo(2, 4), topo(2, 3), topo(3, 3)]
ARRAYS = ("o", "lse", "dq", "dk", "dv")


def run_mode(method_name, topology, mode, *, mask, n_heads=2, n_kv_heads=None,
             seq_mult=8, head_dim=4, seed=0):
    g = topology.world_size
    n = seq_mult * g
    h_kv = n_kv_heads if n_kv_heads is not None else n_heads
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n_heads, n, head_dim))
    k = rng.normal(size=(h_kv, n, head_dim))
    v = rng.normal(size=(h_kv, n, head_dim))
    do = rng.normal(size=(n_heads, n, head_dim))
    method = get_method(method_name, block_size=8, ring_mode=mode)
    comm = SimCommunicator(topology)
    return method.run(topology, q, k, v, mask=mask, do=do, comm=comm)


class TestBitwiseIdentity:
    """The acceptance criterion, asserted with ``==`` — no tolerance."""

    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: f"{t.num_nodes}x{t.gpus_per_node}")
    @pytest.mark.parametrize("method", RING_METHODS)
    @pytest.mark.parametrize("mask_name", ["causal", "alibi", "full"])
    def test_modes_bitwise_identical(self, method, mask_name, topology):
        mask = {"causal": CausalMask(), "alibi": ALiBiMask(2),
                "full": None}[mask_name]
        uni = run_mode(method, topology, "unidirectional", mask=mask)
        bidir = run_mode(method, topology, "bidirectional", mask=mask)
        for name in ARRAYS:
            a, b = getattr(uni, name), getattr(bidir, name)
            assert np.array_equal(a, b), f"{name} diverged under {mask_name}"

    @pytest.mark.parametrize("method", RING_METHODS)
    @pytest.mark.parametrize("heads", [(4, 2), (4, 1), (6, 3), (8, 2)])
    def test_gqa_bitwise_identical(self, method, heads):
        n_heads, n_kv_heads = heads
        topology = topo(2, 2)
        uni = run_mode(method, topology, "unidirectional", mask=CausalMask(),
                       n_heads=n_heads, n_kv_heads=n_kv_heads)
        bidir = run_mode(method, topology, "bidirectional", mask=CausalMask(),
                         n_heads=n_heads, n_kv_heads=n_kv_heads)
        for name in ARRAYS:
            assert np.array_equal(getattr(uni, name), getattr(bidir, name))
        # Both modes move exactly the paper's closed form — a KV-head-sized
        # Alg. 1 bundle, a query-sized Alg. 2 bundle (run_mode: N = 8G,
        # d = 4) — minus the read-only slots the return hop leaves out.
        algorithm = "alg2" if method == "burst" else "alg1"
        g = topology.world_size
        expected = backward_comm_elems(
            algorithm, 8 * g, 4, n_heads, n_kv_heads
        ) - backward_bundle(algorithm).elems(
            8, n_heads, n_kv_heads, 4, "read-only"
        )
        for run in (uni, bidir):
            sent = run.comm.log.per_rank_send_elems(phase="attn-bwd")
            assert set(sent.values()) == {expected}

    @pytest.mark.parametrize("method", RING_METHODS)
    def test_bidirectional_matches_dense_reference(self, method):
        report = verify_method(
            method, topology=topo(2, 2), seq_len=32, n_heads=4,
            ring_mode="bidirectional",
        )
        assert report.passed, report.summary()


class TestSchedulePrimitives:
    @pytest.mark.parametrize("topology", TOPOLOGIES,
                             ids=lambda t: f"{t.num_nodes}x{t.gpus_per_node}")
    @pytest.mark.parametrize("make", [global_ring_schedule,
                                      double_ring_schedule])
    def test_reverse_seed_is_inverse_of_return(self, make, topology):
        sched = make(topology)
        perm = sched.return_permutation()
        inv = sched.reverse_seed_permutation()
        g = topology.world_size
        assert sorted(inv) == list(range(g))
        assert [perm[inv[r]] for r in range(g)] == list(range(g))

    def test_bidirectional_split_halves_the_chain(self):
        for s in range(2, 16):
            fwd, rev = bidirectional_split(s)
            assert fwd + rev == s - 1  # all non-home placements served
            assert 0 <= fwd - rev <= 1  # forward serves the odd one out

    @pytest.mark.parametrize("make", [global_ring_schedule,
                                      double_ring_schedule])
    def test_flow_delivers_on_time_and_in_visit_order(self, make):
        """Reverse delivery for compute step t equals the forward stream's
        placement at step t: same origins, earlier arrival."""
        topology = topo(2, 3)
        sched = make(topology)
        g = topology.world_size
        comm = SimCommunicator(topology)
        bufs = [np.array([float(r)]) for r in range(g)]
        flow = BidirectionalFlow(comm, sched, bufs, phase="p", tag="t")
        origins = sched.origins()
        fwd = list(bufs)
        for t in range(sched.num_steps - 1):
            fwd = sched.apply(comm, fwd, t, phase="p")
            flow.poststep(t)
            ro = flow.delivered(t + 1)
            if t + 1 > flow.forward_transitions:
                assert ro is not None
                for r in range(g):
                    assert ro[r][0] == float(origins[t + 1][r])
                    assert ro[r][0] == fwd[r][0]
            else:
                assert ro is None

    @pytest.mark.parametrize("carried", [(), (1,)], ids=["read-only", "carry"])
    @pytest.mark.parametrize("mode", RING_MODES)
    @pytest.mark.parametrize(
        "topology", [topo(2, 4), topo(1, 8), topo(2, 3), topo(1, 1)],
        ids=lambda t: f"{t.num_nodes}x{t.gpus_per_node}",
    )
    def test_ring_pass_circulation_contract(self, topology, mode, carried):
        """``ring_pass`` with an integer tile, no kernel: every rank meets
        every origin once in ``schedule.origins()`` order, the carried slot
        comes home as the sum of its increments, and the transfers are the
        schedule's — nothing empty, nothing extra."""
        sched = double_ring_schedule(topology)
        g = topology.world_size
        comm = SimCommunicator(topology)
        met = [[] for _ in range(g)]

        def tile(r, j, bundle):
            assert bundle[0][0] == j  # it really is rank j's bundle
            met[r].append(j)
            return (np.array([100 * r + j + 1]),) if carried else ()

        bundles = [
            (np.array([r]), np.zeros(1, dtype=np.int64)) if carried
            else (np.array([r]),)
            for r in range(g)
        ]
        home = ring_pass(comm, sched, bundles, carried, tile,
                         phase="p", tag="t", ring_mode=mode)

        origins = sched.origins()
        for r in range(g):
            assert met[r] == [origins[t][r] for t in range(g)]
            assert sorted(met[r]) == list(range(g))
        if carried:
            for j in range(g):
                assert home[j][0][0] == sum(100 * r + j + 1 for r in range(g))
        else:
            assert home == [()] * g

        records = comm.log.records
        assert all(rec.nbytes > 0 for rec in records)
        away = sum(r != dst for r, dst in enumerate(sched.return_permutation()))
        fwd, rev = bidirectional_split(g)
        one_way = mode == "unidirectional"
        count = lambda tag, channel: sum(
            rec.tag == tag and rec.channel == channel for rec in records
        )
        # The forward stream runs all G-1 transitions unless the reverse
        # stream takes over and nothing is carried; the seed move of the
        # reverse stream and the return hop skip ranks already in place.
        assert count("t", "fwd") == (g - 1 if one_way or carried else fwd) * g
        assert count("t", "rev") == (
            0 if one_way or rev == 0 else away + (rev - 1) * g
        )
        assert count("t-return", "fwd") == (away if carried else 0)
        assert len(records) == (
            count("t", "fwd") + count("t", "rev") + count("t-return", "fwd")
        )

    @pytest.mark.parametrize(
        "backward", [ring_attention_backward_kv, burst_attention_backward]
    )
    def test_backward_rejects_short_schedule_before_sending(self, backward):
        topology = topo(2, 4)
        comm = SimCommunicator(topology)
        sched = global_ring_schedule(topo(1, 4))  # 4 steps for 8 ranks
        x = [np.zeros((1, 2, 2)) for _ in range(topology.world_size)]
        lse = [np.zeros((1, 2)) for _ in x]
        idxs = [np.arange(2 * r, 2 * r + 2) for r in range(len(x))]
        with pytest.raises(ValueError, match="covers 4 steps but world size is 8"):
            backward(comm, sched, x, x, x, lse, lse, x, idxs)
        assert comm.log.records == []

    def test_reverse_traffic_lands_on_rev_channel(self):
        topology = topo(2, 3)
        sched = global_ring_schedule(topology)
        comm = SimCommunicator(topology)
        bufs = [np.ones(2) for _ in range(topology.world_size)]
        flow = BidirectionalFlow(comm, sched, bufs, phase="p")
        for t in range(sched.num_steps - 1):
            flow.poststep(t)
        by_channel = comm.log.per_channel_elems(phase="p")
        assert by_channel.get("rev", 0) > 0
        assert by_channel.get("fwd", 0) == 0

    def test_check_ring_mode(self):
        assert check_ring_mode("unidirectional") == "unidirectional"
        assert check_ring_mode("bidirectional") == "bidirectional"
        with pytest.raises(ValueError, match="unknown ring_mode"):
            check_ring_mode("diagonal")
        with pytest.raises(ValueError, match="unknown ring_mode"):
            get_method("burst", ring_mode="diagonal")

    def test_non_ring_method_rejects_ring_mode(self):
        with pytest.raises(TypeError):
            get_method("ulysses", ring_mode="bidirectional")


def fuzz_case(**overrides):
    from repro.testing.differential import FuzzCase

    base = dict(method="burst", mask="causal", nodes=2, gpn=2, seq_len=32,
                head_dim=4, n_heads=4)
    base.update(overrides)
    return FuzzCase(**base)


class TestFuzzerAxis:
    def test_ring_mode_spec_round_trip(self):
        from repro.testing.differential import FuzzCase

        case = fuzz_case(ring_mode="bidirectional")
        parsed = FuzzCase.parse(case.spec())
        assert parsed.ring_mode == "bidirectional"
        assert parsed == case

    def test_default_mode_omitted_from_spec(self):
        from repro.testing.differential import FuzzCase

        case = fuzz_case()
        assert "ring_mode" not in case.spec()
        assert FuzzCase.parse(case.spec()).ring_mode == "unidirectional"

    def test_validate_rejects_bad_combinations(self):
        with pytest.raises(ValueError):
            fuzz_case(ring_mode="sideways").validate()
        with pytest.raises(ValueError):
            fuzz_case(method="ulysses", ring_mode="bidirectional").validate()

    def test_shrinker_reduces_to_unidirectional(self):
        """A failure that persists regardless of mode shrinks to the
        simpler unidirectional repro."""
        from repro.testing.differential import shrink_case

        case = fuzz_case(ring_mode="bidirectional")
        shrunk = shrink_case(case, fails=lambda c: True)
        assert shrunk.ring_mode == "unidirectional"

    def test_registry_exports_modes(self):
        assert RING_MODES == ("unidirectional", "bidirectional")


class TestBenchGate:
    """``benchmarks/bench_bidir_ring.py --check`` holds a run to the
    committed ``BENCH_bidir_ring.json`` and leaves it as it was when the
    run fails; ``--smoke`` runs the committed 4×4 rows at their sizes and
    writes its own ``BENCH_bidir_ring_smoke.json``."""

    @staticmethod
    def _baseline(tmp_path, off_by_one: bool):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_bidir_ring.json"
        doc = json.loads(path.read_text())
        if off_by_one:
            row = next(r for r in doc["results"] if r["name"] == "burst@4x4")
            row["fwd_elems"] += 1
        out = tmp_path / "BENCH_bidir_ring.json"
        out.write_text(json.dumps(doc, indent=2) + "\n")
        return out

    @staticmethod
    def _check(tmp_path) -> int:
        from benchmarks.bench_bidir_ring import main

        return main(["--smoke", "--repeats", "1", "--check",
                     "--out", str(tmp_path)])

    def test_smoke_check_holds_the_committed_rows(self, tmp_path):
        from benchmarks.bench_bidir_ring import _cases

        self._baseline(tmp_path, off_by_one=True)
        assert self._check(tmp_path) == 1
        smoke = {c["name"]: c["seq"] for c in _cases(smoke=True)}
        full = {c["name"]: c["seq"] for c in _cases(smoke=False)}
        assert smoke == {k: v for k, v in full.items() if k in smoke}

    def test_failed_check_leaves_the_baseline(self, tmp_path):
        path = self._baseline(tmp_path, off_by_one=True)
        before = path.read_bytes()
        assert self._check(tmp_path) == 1
        assert self._check(tmp_path) == 1
        assert path.read_bytes() == before

    def test_smoke_check_passes_on_the_committed_file(self, tmp_path):
        path = self._baseline(tmp_path, off_by_one=False)
        before = path.read_bytes()
        assert self._check(tmp_path) == 0
        assert path.read_bytes() == before
        assert (tmp_path / "BENCH_bidir_ring_smoke.json").exists()

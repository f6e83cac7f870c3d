"""Meta-tests for the correctness harness itself.

The harness is only trustworthy if (a) every fault class it can inject is
*detected* by the verifier for *every* registered method, (b) the fuzzer
finds and shrinks injected failures to replayable repros, and (c) the
golden fixtures flag numeric drift.  These tests prove all three.
"""

import numpy as np
import pytest

from repro.attention import METHOD_REGISTRY
from repro.attention.verify import (
    DTYPE_TOLERANCES,
    resolve_tolerance,
    verify_method,
)
from repro.comm import SimCommunicator
from repro.testing import (
    FAULT_REGISTRY,
    FuzzCase,
    check_case,
    check_golden,
    fuzz,
    make_fault,
    sample_case,
    save_golden,
    shrink_case,
)
from repro.topology import a800_node, make_cluster


TOPO = make_cluster(4, node=a800_node(gpus_per_node=2))
PROBLEM = dict(topology=TOPO, seq_len=32, n_heads=4, head_dim=4)


def run_verify(comm):
    return verify_method("burst", comm=comm, **PROBLEM)


class TestEveryFaultDetectedForEveryMethod:
    """The acceptance matrix: method × fault, all detected."""

    @pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
    @pytest.mark.parametrize("fault", sorted(FAULT_REGISTRY))
    def test_fault_detected(self, method, fault):
        comm = make_fault(fault, TOPO)
        try:
            report = verify_method(method, comm=comm, **PROBLEM)
            detected = not report.passed
        except Exception:
            detected = True  # a crash is also a detection
        assert comm.injections >= 1, "fault never fired — nothing was tested"
        assert detected, f"{fault} went unnoticed for {method}"

    @pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
    def test_clean_comm_passes(self, method):
        """No false positives: an honest communicator verifies clean."""
        report = verify_method(method, comm=SimCommunicator(TOPO), **PROBLEM)
        assert report.passed, report.summary()

    def test_a_comm_on_another_topology_is_rejected(self):
        """The run's world is the communicator's; a different topology
        beside it is an error, not silently dropped."""
        comm = SimCommunicator(make_cluster(4))
        with pytest.raises(ValueError, match="different topology"):
            verify_method("burst", comm=comm, **PROBLEM)


class TestFaultTargeting:
    def test_backward_only_corruption_spares_forward(self):
        """Phase targeting: corrupting the first attn-bwd transfer leaves
        the output bit-clean but poisons gradients."""
        comm = make_fault("corrupt", TOPO, phase="attn-bwd")
        report = run_verify(comm)
        assert report.errors["o"] < 1e-12
        assert report.errors["dq"] > 1e-6

    def test_tag_targeting_hits_gradient_return(self):
        """Algorithm 2 returns dQ via the final exchange; dropping only
        that message must leave o/lse clean and dq wrong."""
        comm = make_fault("drop", TOPO, op="exchange", tag="return")
        report = run_verify(comm)
        assert report.errors["o"] < 1e-12
        assert report.errors["lse"] < 1e-12
        assert report.errors["dq"] > 1e-6

    def test_at_call_counts_matching_calls_only(self):
        """With a phase filter, at_call indexes within that phase."""
        comm = make_fault("corrupt", TOPO, phase="attn-bwd", at_call=2)
        run_verify(comm)
        assert comm.injections == 1
        assert comm.calls_matched > 2

    def test_every_matching_call_mode(self):
        comm = make_fault("corrupt", TOPO, at_call=None, phase="attn-fwd")
        report = run_verify(comm)
        assert comm.injections == comm.calls_matched >= 2
        assert not report.passed

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            make_fault("bitflip", TOPO)

    def test_fault_describe_names_filters(self):
        comm = make_fault("stale", TOPO, phase="attn-bwd", tag="kv")
        assert "stale" in comm.describe()
        assert "attn-bwd" in comm.describe()


#: What every fault's constructor accepts, down its ``**kw`` chain, with
#: the defaults; message faults take no ``at_step``, rank faults no
#: ``channel``.
_MESSAGE_KW = {"phase": None, "tag": None, "op": None, "channel": None,
               "at_call": 1, "victim": 0, "log": None}
_RANK_KW = {"rank": 0, "phase": None, "tag": None, "op": None,
            "at_call": 1, "at_step": None, "log": None}
_MESSAGE_SIG = (
    "(topology: 'ClusterTopology', *, phase: 'str | None' = None, "
    "tag: 'str | None' = None, op: 'str | None' = None, "
    "channel: 'str | None' = None, at_call: 'int | None' = 1, "
    "victim: 'int' = 0, log=None)"
)
_RANK_SIG = (
    "(topology: 'ClusterTopology', *, rank: 'int' = 0, "
    "phase: 'str | None' = None, tag: 'str | None' = None, "
    "op: 'str | None' = None, at_call: 'int | None' = 1, "
    "at_step: 'int | None' = None, log=None)"
)
FAULT_PINS = {
    # name: (signature, keywords, describe() by default,
    #        describe() with every filter set)
    "corrupt": ("(topology, noise: 'float' = 0.001, **kw)",
                {"noise": 0.001, **_MESSAGE_KW}, "corrupt(at_call=1)",
                "corrupt(phase='attn-bwd', tag='kv', op='ring_shift', "
                "channel='rev', at_call=3)"),
    "drop": (_MESSAGE_SIG, _MESSAGE_KW, "drop(at_call=1)",
             "drop(phase='attn-bwd', tag='kv', op='ring_shift', "
             "channel='rev', at_call=3)"),
    "misroute": (_MESSAGE_SIG, _MESSAGE_KW, "misroute(at_call=1)",
                 "misroute(phase='attn-bwd', tag='kv', op='ring_shift', "
                 "channel='rev', at_call=3)"),
    "stale": (_MESSAGE_SIG, _MESSAGE_KW, "stale(at_call=1)",
              "stale(phase='attn-bwd', tag='kv', op='ring_shift', "
              "channel='rev', at_call=3)"),
    "duplicate": (_MESSAGE_SIG, _MESSAGE_KW, "duplicate(at_call=1)",
                  "duplicate(phase='attn-bwd', tag='kv', op='ring_shift', "
                  "channel='rev', at_call=3)"),
    "crash": (_RANK_SIG, _RANK_KW, "crash(rank=0, at_call=1)",
              "crash(rank=2, phase='p', tag='t', op='all_gather', "
              "at_call=3, at_step=1)"),
    "hang": (_RANK_SIG, _RANK_KW, "hang(rank=0, at_call=1)",
             "hang(rank=2, phase='p', tag='t', op='all_gather', "
             "at_call=3, at_step=1)"),
    "straggler": ("(topology, slowdown_factor: 'float' = 4.0, **kw)",
                  {"slowdown_factor": 4.0, **_RANK_KW},
                  "straggler(rank=0, at_call=1, slowdown=4)",
                  "straggler(rank=2, phase='p', tag='t', op='all_gather', "
                  "at_call=3, at_step=1, slowdown=4)"),
}


def _keywords(cls) -> dict:
    """The keywords ``cls(topology, ...)`` accepts, following each
    ``**kw`` up the MRO to the constructor that names the rest."""
    import inspect

    out = {}
    for klass in cls.__mro__:
        if "__init__" not in vars(klass):
            continue
        params = list(inspect.signature(klass.__init__).parameters.values())
        for p in params[2:]:
            if p.kind is not p.VAR_KEYWORD:
                out.setdefault(p.name, p.default)
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            return out
    raise AssertionError(f"{cls.__name__} forwards **kw to no constructor")


class TestEveryFaultKeepsItsConstructorAndString:
    """The eight faults share one base, and each still takes exactly the
    keywords it took and prints exactly the ``describe()`` it printed
    when the message and rank families were separate classes."""

    def test_the_pins_cover_both_registries(self):
        from repro.testing import RANK_FAULT_REGISTRY

        assert set(FAULT_PINS) == set(FAULT_REGISTRY) | set(RANK_FAULT_REGISTRY)
        assert not set(FAULT_REGISTRY) & set(RANK_FAULT_REGISTRY)

    @pytest.mark.parametrize("name", sorted(FAULT_PINS))
    def test_signature_and_describe(self, name):
        import inspect

        from repro.testing import RANK_FAULT_REGISTRY

        cls = {**FAULT_REGISTRY, **RANK_FAULT_REGISTRY}[name]
        sig, keywords, plain, filtered = FAULT_PINS[name]
        assert str(inspect.signature(cls)) == sig
        assert _keywords(cls) == keywords
        assert type(make_fault(name, TOPO)) is cls
        assert make_fault(name, TOPO).describe() == plain
        if name in FAULT_REGISTRY:
            kw = dict(phase="attn-bwd", tag="kv", op="ring_shift",
                      channel="rev", at_call=3)
        else:
            kw = dict(rank=2, phase="p", tag="t", op="all_gather",
                      at_call=3, at_step=1)
        assert make_fault(name, TOPO, **kw).describe() == filtered
        with pytest.raises(TypeError):
            make_fault(name, TOPO, **(
                {"at_step": 1} if name in FAULT_REGISTRY else {"channel": "rev"}
            ))


class TestToleranceModel:
    def test_per_dtype_resolution(self):
        for dtype, tol in DTYPE_TOLERANCES.items():
            assert resolve_tolerance(dtype) == tol
        assert resolve_tolerance("float64", 1e-30) == 1e-30

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            resolve_tolerance("float16")
        with pytest.raises(ValueError, match="unknown dtype"):
            verify_method("burst", dtype="float16", **PROBLEM)

    @pytest.mark.parametrize("dtype", sorted(DTYPE_TOLERANCES))
    def test_all_dtypes_verify_clean(self, dtype):
        report = verify_method("burst", dtype=dtype, **PROBLEM)
        assert report.passed, report.summary()
        assert report.dtype == dtype

    def test_gqa_problem_verifies(self):
        report = verify_method("burst", n_kv_heads=2, **PROBLEM)
        assert report.passed, report.summary()

    def test_gqa_rejects_indivisible_ratio(self):
        with pytest.raises(ValueError, match="not divisible"):
            verify_method("burst", n_kv_heads=3, **PROBLEM)


class TestFuzzCaseRoundTrip:
    def test_spec_parse_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            case = sample_case(rng)
            assert FuzzCase.parse(case.spec()) == case

    def test_sampled_cases_are_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            sample_case(rng).validate()  # must not raise

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="unknown case key"):
            FuzzCase.parse("method=burst,bogus=1")
        with pytest.raises(ValueError, match="malformed"):
            FuzzCase.parse("method")

    def test_validate_rejects_illegal_configs(self):
        base = dict(mask="causal", nodes=1, gpn=2, seq_len=8, head_dim=2,
                    n_heads=2)
        with pytest.raises(ValueError, match="not divisible by 2\\*G"):
            FuzzCase(method="burst", **{**base, "seq_len": 6}).validate()
        with pytest.raises(ValueError, match="ulysses needs"):
            FuzzCase(method="ulysses", **{**base, "n_heads": 3}).validate()
        with pytest.raises(ValueError, match="does not support GQA"):
            FuzzCase(method="ulysses", n_kv_heads=1,
                     **{**base, "n_heads": 2}).validate()


class TestFuzzer:
    def test_clean_sweep_passes(self):
        result = fuzz(seed=0, budget=8, smoke=True)
        assert result.passed
        assert result.cases_run == 8

    @pytest.mark.parametrize("fault", sorted(FAULT_REGISTRY))
    def test_injected_fault_produces_shrunk_repro(self, fault):
        result = fuzz(seed=0, budget=3, fault=fault, smoke=True,
                      max_failures=1)
        assert not result.passed
        failure = result.failures[0]
        # the shrunk case still fails and is no bigger than the original
        assert not check_case(failure.shrunk, fault=fault)[0]
        assert failure.shrunk.world_size <= failure.case.world_size
        assert failure.shrunk.seq_len <= failure.case.seq_len
        # the repro line replays exactly
        assert failure.repro().startswith("python -m repro.testing.fuzz")
        spec = failure.repro().split('"')[1]
        assert FuzzCase.parse(spec) == failure.shrunk

    def test_shrink_reaches_minimal_world(self):
        """An always-failing predicate shrinks any case to the floor."""
        rng = np.random.default_rng(3)
        case = sample_case(rng)
        shrunk = shrink_case(case, lambda c: True)
        assert shrunk.world_size <= 4
        assert shrunk.seq_len == 2 * shrunk.world_size
        assert shrunk.head_dim == 2
        assert shrunk.dtype == "float64"

    def test_shrink_respects_predicate(self):
        """Shrinking never crosses into passing territory: a predicate that
        only fails on swa keeps the mask."""
        case = FuzzCase(method="burst", mask="swa", nodes=2, gpn=2,
                        seq_len=40, head_dim=8, n_heads=4)
        shrunk = shrink_case(case, lambda c: c.mask == "swa")
        assert shrunk.mask == "swa"
        assert shrunk.seq_len < case.seq_len


class TestGoldenFixtures:
    @pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
    def test_checked_in_fixture_matches(self, method):
        report = check_golden(method)
        assert report.passed, report.summary()

    def test_missing_fixture_fails_loudly(self, tmp_path):
        report = check_golden("burst", directory=tmp_path)
        assert report.missing and not report.passed
        assert "--update" in report.summary()

    def test_tampered_fixture_detected(self, tmp_path):
        path = save_golden("burst", directory=tmp_path)
        assert check_golden("burst", directory=tmp_path).passed
        with np.load(path) as data:
            arrays = {k: data[k].copy() for k in data.files}
        arrays["dq"][0, 0, 0] += 1e-6  # numeric drift far above tolerance
        np.savez_compressed(path, **arrays)
        report = check_golden("burst", directory=tmp_path)
        assert not report.passed
        assert report.errors["dq"] > 0
        assert report.errors["o"] == 0.0

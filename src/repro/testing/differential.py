"""Seeded differential fuzzer: random valid configurations vs the dense
reference, with failing-case shrinking.

Every distributed method must agree with dense attention on *any* legal
problem — not just the one random problem per (method, mask) the default
verifier checks.  The fuzzer sweeps the configuration space BurstAttention
and DISTFLASHATTN validate over: uneven sequence lengths (odd multiples of
the shard size), non-power-of-two world sizes (6, 9, 12 GPUs), GQA group
ratios, ``ulysses_degree`` splits, and reduced input precision.

A failing case is *shrunk* — each dimension is greedily simplified while
the failure persists — and reported as a one-line repro::

    python -m repro.testing.fuzz --case "method=burst,mask=causal,nodes=1,gpn=2,seq_len=8,head_dim=2,n_heads=1,block_size=8,dtype=float64,seed=0"

which replays exactly that configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.attention import METHOD_REGISTRY
from repro.attention.verify import MASKS, verify_method
from repro.comm import FailureDetector, RankFailure
from repro.comm.ring import RING_METHODS, check_ring_mode
from repro.testing.faults import FAULT_REGISTRY, RANK_FAULT_REGISTRY, make_fault
from repro.topology import a800_node, make_cluster

#: (nodes, gpus_per_node) pool — includes non-power-of-two world sizes.
TOPO_POOL = [
    (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3),
]
SMOKE_TOPO_POOL = [(1, 2), (1, 3), (2, 2)]

DTYPE_POOL = ["float64", "float64", "float64", "float32", "bfloat16"]


@dataclass(frozen=True)
class FuzzCase:
    """One fully-specified verification problem (hashable, shrinkable)."""

    method: str
    mask: str
    nodes: int
    gpn: int
    seq_len: int
    head_dim: int
    n_heads: int
    n_kv_heads: int | None = None
    ulysses_degree: int | None = None
    block_size: int = 8
    dtype: str = "float64"
    seed: int = 0
    ring_mode: str = "unidirectional"
    #: rank-scoped fault injected under a FailureDetector: ``crash`` and
    #: ``hang`` cases pass iff a RankFailure is raised (detection, not
    #: deadlock); ``straggler`` cases pass iff the run is tolerated and
    #: still verifies.  ``None`` = healthy run.
    rank_failure: str | None = None

    @property
    def world_size(self) -> int:
        return self.nodes * self.gpn

    def method_kwargs(self) -> dict:
        kw = {}
        if self.method == "usp" and self.ulysses_degree is not None:
            kw["ulysses_degree"] = self.ulysses_degree
        if self.ring_mode != "unidirectional":
            kw["ring_mode"] = self.ring_mode
        return kw

    # --- repro round-trip ---------------------------------------------------

    def spec(self) -> str:
        """Canonical ``key=value,...`` encoding of this case."""
        parts = [
            f"method={self.method}", f"mask={self.mask}",
            f"nodes={self.nodes}", f"gpn={self.gpn}",
            f"seq_len={self.seq_len}", f"head_dim={self.head_dim}",
            f"n_heads={self.n_heads}",
        ]
        if self.n_kv_heads is not None:
            parts.append(f"n_kv_heads={self.n_kv_heads}")
        if self.ulysses_degree is not None:
            parts.append(f"ulysses_degree={self.ulysses_degree}")
        parts += [
            f"block_size={self.block_size}", f"dtype={self.dtype}",
            f"seed={self.seed}",
        ]
        if self.ring_mode != "unidirectional":
            parts.append(f"ring_mode={self.ring_mode}")
        if self.rank_failure is not None:
            parts.append(f"rank_failure={self.rank_failure}")
        return ",".join(parts)

    def repro_command(self, fault: str | None = None) -> str:
        cmd = f'python -m repro.testing.fuzz --case "{self.spec()}"'
        if fault:
            cmd += f" --fault {fault}"
        return cmd

    @classmethod
    def parse(cls, spec: str) -> "FuzzCase":
        """Inverse of :meth:`spec`."""
        kw: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, _, value = item.partition("=")
            if not _:
                raise ValueError(f"malformed case item {item!r}")
            key = key.strip()
            value = value.strip()
            if key in ("method", "mask", "dtype", "ring_mode",
                       "rank_failure"):
                kw[key] = value
            elif key in ("nodes", "gpn", "seq_len", "head_dim", "n_heads",
                         "n_kv_heads", "ulysses_degree", "block_size", "seed"):
                kw[key] = int(value)
            else:
                raise ValueError(f"unknown case key {key!r}")
        return cls(**kw)

    def validate(self) -> None:
        """Raise if the configuration is not a legal problem."""
        if self.method not in METHOD_REGISTRY:
            raise ValueError(f"unknown method {self.method!r}")
        if self.mask not in MASKS:
            raise ValueError(f"unknown mask {self.mask!r}")
        g = self.world_size
        if self.seq_len % (2 * g) != 0:
            raise ValueError(
                f"seq_len {self.seq_len} not divisible by 2*G = {2 * g}"
            )
        if self.method == "ulysses" and self.n_heads % g != 0:
            raise ValueError(f"ulysses needs n_heads % {g} == 0")
        if self.method == "usp":
            u = self.ulysses_degree or 1
            if g % u != 0 or self.n_heads % u != 0:
                raise ValueError(f"usp degree {u} infeasible for G={g}, "
                                 f"H={self.n_heads}")
        if self.n_kv_heads is not None:
            if self.method not in RING_METHODS:
                raise ValueError(f"{self.method} does not support GQA")
            if self.n_heads % self.n_kv_heads != 0:
                raise ValueError("n_heads not divisible by n_kv_heads")
        if (check_ring_mode(self.ring_mode) != "unidirectional"
                and self.method not in RING_METHODS):
            raise ValueError(
                f"{self.method} does not take a ring_mode; only "
                f"{', '.join(RING_METHODS)} do"
            )
        if (self.rank_failure is not None
                and self.rank_failure not in RANK_FAULT_REGISTRY):
            raise ValueError(
                f"unknown rank_failure {self.rank_failure!r}; expected one "
                f"of {', '.join(sorted(RANK_FAULT_REGISTRY))}"
            )


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def sample_case(rng: np.random.Generator, smoke: bool = False) -> FuzzCase:
    """Draw one random *valid* configuration."""
    pool = SMOKE_TOPO_POOL if smoke else TOPO_POOL
    nodes, gpn = pool[rng.integers(len(pool))]
    g = nodes * gpn
    method = sorted(METHOD_REGISTRY)[rng.integers(len(METHOD_REGISTRY))]
    mask = sorted(MASKS)[rng.integers(len(MASKS))]
    # Uneven sequence lengths: odd multiples of the minimal legal shard.
    mult = int(rng.integers(1, 3 if smoke else 6))
    seq_len = 2 * g * mult
    head_dim = int(rng.choice([2, 3, 4, 8]))
    n_kv_heads = None
    ulysses_degree = None
    if method == "ulysses":
        n_heads = g * int(rng.integers(1, 3))
    elif method == "usp":
        divs = _divisors(g)
        ulysses_degree = int(divs[rng.integers(len(divs))])
        n_heads = ulysses_degree * int(rng.integers(1, 3))
    else:
        n_heads = int(rng.choice([1, 2, 3, 4]))
        if method in RING_METHODS and n_heads > 1 and rng.random() < 0.5:
            kv_divs = [d for d in _divisors(n_heads) if d < n_heads]
            n_kv_heads = int(kv_divs[rng.integers(len(kv_divs))])
    block_size = int(rng.choice([4, 8, 16]))
    dtype = "float64" if smoke else DTYPE_POOL[rng.integers(len(DTYPE_POOL))]
    ring_mode = "unidirectional"
    if method in RING_METHODS and rng.random() < 1 / 3:
        ring_mode = "bidirectional"
    rank_failure = None
    if rng.random() < 1 / 6:
        kinds = sorted(RANK_FAULT_REGISTRY)
        rank_failure = kinds[rng.integers(len(kinds))]
    return FuzzCase(
        method=method, mask=mask, nodes=nodes, gpn=gpn, seq_len=seq_len,
        head_dim=head_dim, n_heads=n_heads, n_kv_heads=n_kv_heads,
        ulysses_degree=ulysses_degree, block_size=block_size, dtype=dtype,
        seed=int(rng.integers(0, 2**16)), ring_mode=ring_mode,
        rank_failure=rank_failure,
    )


def check_case(
    case: FuzzCase, fault: str | None = None, **fault_kwargs
) -> tuple[bool, str]:
    """Run one case through the verifier; returns ``(passed, detail)``.

    ``fault`` names a :data:`~repro.testing.faults.FAULT_REGISTRY` entry to
    inject (targeting the first transfer by default).  A raised exception
    counts as a failure — a fuzzer must never hide crashes.

    With ``case.rank_failure`` set, the case runs over a
    :class:`~repro.comm.FailureDetector` wrapping the matching rank-fault
    injector (victim rank 0, first call): ``crash`` / ``hang`` cases pass
    iff detection raises :class:`~repro.comm.RankFailure` — a silent
    completion means the detector missed a dead rank — while ``straggler``
    cases must be *tolerated* (lease extensions, no failure) and still
    verify bitwise.
    """
    case.validate()
    if fault is not None and case.rank_failure is not None:
        raise ValueError(
            "fault and rank_failure are separate axes; inject one at a time"
        )
    if fault is not None and fault not in FAULT_REGISTRY:
        # A rank fault without a detector changes no numerics: the
        # sabotaged sweep would pass instead of failing.
        raise ValueError(
            f"fault must be one of {', '.join(sorted(FAULT_REGISTRY))}; "
            "rank faults ride the rank_failure axis"
        )
    topo = make_cluster(case.world_size, node=a800_node(gpus_per_node=case.gpn))
    comm = None
    if fault is not None:
        comm = make_fault(fault, topo, **fault_kwargs)
    elif case.rank_failure is not None:
        comm = FailureDetector(
            make_fault(case.rank_failure, topo, rank=0, at_call=1)
        )
    expect_detection = case.rank_failure in ("crash", "hang")
    try:
        report = verify_method(
            case.method,
            topology=topo,
            seq_len=case.seq_len,
            head_dim=case.head_dim,
            n_heads=case.n_heads,
            n_kv_heads=case.n_kv_heads,
            mask=case.mask,
            seed=case.seed,
            dtype=case.dtype,
            comm=comm,
            block_size=case.block_size,
            **case.method_kwargs(),
        )
    except RankFailure as exc:
        if expect_detection:
            return True, f"detected: {exc}"
        return False, f"raised {type(exc).__name__}: {exc}"
    except Exception as exc:  # crashes are failures, not noise
        return False, f"raised {type(exc).__name__}: {exc}"
    if expect_detection:
        return False, (
            f"rank_failure={case.rank_failure} went undetected "
            "(run completed silently)"
        )
    return report.passed, report.summary()


def shrink_case(case: FuzzCase, fails, max_evals: int = 60) -> FuzzCase:
    """Greedy shrinking: simplify one field at a time while ``fails(case)``
    stays true.  ``fails`` is a predicate (True = still failing)."""

    def candidates(c: FuzzCase):
        g = c.world_size
        # smaller topology (re-fit dependent fields to stay valid)
        for nodes, gpn in [(1, 2), (1, 3), (2, 2), (1, 4)]:
            if (nodes, gpn) == (c.nodes, c.gpn) or nodes * gpn >= g:
                continue
            g2 = nodes * gpn
            cand = replace(
                c, nodes=nodes, gpn=gpn, seq_len=2 * g2,
                n_heads=g2 if c.method == "ulysses" else min(c.n_heads, 2),
                n_kv_heads=None,
                ulysses_degree=1 if c.method == "usp" else None,
            )
            yield cand
        # shorter sequence
        if c.seq_len > 2 * g:
            yield replace(c, seq_len=2 * g)
        # simpler mask / dtype / seed
        if c.mask != "full":
            yield replace(c, mask="full")
        if c.dtype != "float64":
            yield replace(c, dtype="float64")
        if c.seed != 0:
            yield replace(c, seed=0)
        # narrower heads
        if c.n_kv_heads is not None:
            yield replace(c, n_kv_heads=None)
        min_heads = (
            g if c.method == "ulysses"
            else (c.ulysses_degree or 1) if c.method == "usp" else 1
        )
        if c.n_heads > min_heads:
            yield replace(c, n_heads=min_heads, n_kv_heads=None)
        if c.method == "usp" and (c.ulysses_degree or 1) > 1:
            yield replace(c, ulysses_degree=1, n_heads=min(c.n_heads, 2))
        if c.ring_mode != "unidirectional":
            yield replace(c, ring_mode="unidirectional")
        if c.rank_failure is not None:
            yield replace(c, rank_failure=None)
        if c.head_dim > 2:
            yield replace(c, head_dim=2)
        if c.block_size != 8:
            yield replace(c, block_size=8)

    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for cand in candidates(case):
            try:
                cand.validate()
            except ValueError:
                continue
            evals += 1
            if evals > max_evals:
                break
            if fails(cand):
                case = cand
                improved = True
                break
    return case


@dataclass
class FuzzFailure:
    """One failing configuration plus its shrunk repro."""

    case: FuzzCase
    shrunk: FuzzCase
    detail: str
    fault: str | None = None

    def repro(self) -> str:
        return self.shrunk.repro_command(fault=self.fault)


@dataclass
class FuzzResult:
    """Outcome of a fuzzing run."""

    cases_run: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} cases, {len(self.failures)} failure(s)"
        ]
        for f in self.failures:
            lines.append(f"  FAIL {f.detail}")
            lines.append(f"       repro: {f.repro()}")
        return "\n".join(lines)


def fuzz(
    seed: int = 0,
    budget: int = 50,
    fault: str | None = None,
    smoke: bool = False,
    max_failures: int = 3,
    on_case=None,
    rank_fault: str | None = None,
) -> FuzzResult:
    """Run up to ``budget`` random cases; shrink and record failures.

    ``fault`` injects the named fault into *every* case — the expected
    outcome is then a failure with a minimal repro, which is how the
    harness proves the fuzzer actually detects sabotage.  ``rank_fault``
    similarly forces ``rank_failure`` onto every case — crash / hang runs
    must then *detect* (pass), so an all-green run is a detector smoke
    across random configurations.  The two axes are mutually exclusive;
    under ``fault``, randomly-sampled ``rank_failure`` values are stripped
    so the message-fault path is measured in isolation.  ``on_case`` is an
    optional callback ``(index, case, passed)`` for progress reporting.
    """
    if fault is not None and rank_fault is not None:
        raise ValueError("fault and rank_fault are mutually exclusive")
    rng = np.random.default_rng(seed)
    result = FuzzResult()
    for i in range(budget):
        case = sample_case(rng, smoke=smoke)
        if rank_fault is not None:
            case = replace(case, rank_failure=rank_fault)
        elif fault is not None and case.rank_failure is not None:
            case = replace(case, rank_failure=None)
        passed, detail = check_case(case, fault=fault)
        result.cases_run += 1
        if on_case is not None:
            on_case(i, case, passed)
        if passed:
            continue
        shrunk = shrink_case(
            case, lambda c: not check_case(c, fault=fault)[0]
        )
        _, shrunk_detail = check_case(shrunk, fault=fault)
        result.failures.append(
            FuzzFailure(case=case, shrunk=shrunk, detail=shrunk_detail,
                        fault=fault)
        )
        if len(result.failures) >= max_failures:
            break
    return result

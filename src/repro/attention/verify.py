"""Verification utilities: check any distributed attention method against
the dense reference on a random problem.

Public API used by tests, CI, and downstream users adding new methods::

    from repro.attention.verify import verify_method
    from repro.topology import make_cluster
    report = verify_method("burst", topology=make_cluster(8), seq_len=128,
                           mask="causal")
    assert report.passed, report.summary()

Also runnable directly::

    python -m repro.attention.verify [method ...]

The function doubles as the oracle of the :mod:`repro.testing` harness: the
differential fuzzer feeds it random (method, mask, topology, dtype)
configurations, and the fault-injection meta-tests pass a sabotaged
communicator through ``comm=`` and assert the report catches the damage.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro.attention import METHOD_REGISTRY, get_method
from repro.attention.usp import default_ulysses_degree
from repro.comm import SimCommunicator
from repro.kernels import attention_reference, attention_reference_backward
from repro.masks import CausalMask, FullMask, MaskPattern, SlidingWindowMask
from repro.topology import ClusterTopology, a800_node, make_cluster
from repro.utils.lowprec import quantize_bf16


MASKS = {
    "full": lambda n: FullMask(),
    "causal": lambda n: CausalMask(),
    "swa": lambda n: SlidingWindowMask(max(2, n // 3)),
}

#: Max-abs-error budget per input dtype.  The simulated methods accumulate
#: in float64 regardless, so the tolerance reflects the rounding of the
#: *inputs* (and of any reference math carried out at input precision):
#: float64 problems agree to ~1e-13, float32 inputs to ~1e-4, and inputs
#: rounded to the bfloat16 grid to ~1e-2.
DTYPE_TOLERANCES = {
    "float64": 1e-8,
    "float32": 1e-3,
    "bfloat16": 5e-2,
}


def resolve_tolerance(dtype: str, tolerance: float | None = None) -> float:
    """Tolerance for ``dtype``, unless an explicit override is given."""
    if tolerance is not None:
        return tolerance
    if dtype not in DTYPE_TOLERANCES:
        raise ValueError(
            f"unknown dtype {dtype!r}; options: {sorted(DTYPE_TOLERANCES)}"
        )
    return DTYPE_TOLERANCES[dtype]


def _cast_inputs(arrays: list[np.ndarray], dtype: str) -> list[np.ndarray]:
    if dtype == "float64":
        return arrays
    if dtype == "float32":
        return [a.astype(np.float32) for a in arrays]
    if dtype == "bfloat16":
        return [quantize_bf16(a) for a in arrays]
    raise ValueError(
        f"unknown dtype {dtype!r}; options: {sorted(DTYPE_TOLERANCES)}"
    )


@dataclass
class VerificationReport:
    """Max absolute errors of one method vs the dense reference."""

    method: str
    mask: str
    errors: dict[str, float] = field(default_factory=dict)
    tolerance: float = 1e-8
    dtype: str = "float64"

    @property
    def passed(self) -> bool:
        return all(e <= self.tolerance for e in self.errors.values())

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v:.2e}" for k, v in self.errors.items())
        return f"[{status}] {self.method} ({self.mask}, {self.dtype}): {parts}"


def verify_method(
    method_name: str,
    topology: ClusterTopology | None = None,
    seq_len: int = 64,
    head_dim: int = 8,
    n_heads: int = 8,
    mask: str = "causal",
    seed: int = 0,
    tolerance: float | None = None,
    n_kv_heads: int | None = None,
    dtype: str = "float64",
    comm: SimCommunicator | None = None,
    block_size: int | None = None,
    **method_kwargs,
) -> VerificationReport:
    """Run one method forward+backward and compare against dense math.

    Parameters beyond the original problem shape:

    topology:
        The cluster the method runs on; defaults to two 4-GPU A800 nodes.
    n_kv_heads:
        When set, K/V are generated with this many heads (GQA); the dense
        reference repeats them per query group and folds the KV gradients
        back.  Supported by the ring-family methods.
    dtype:
        ``"float64"`` (default), ``"float32"``, or ``"bfloat16"`` (inputs
        rounded to the bf16 grid).  ``tolerance=None`` resolves per dtype
        via :data:`DTYPE_TOLERANCES`.
    comm:
        Optional communicator to run the method through — the hook the
        fault-injection harness (:mod:`repro.testing.faults`) uses.  The
        run adopts its topology; a ``topology`` passed beside it must be
        that same one.
    """
    if mask not in MASKS:
        raise ValueError(f"unknown mask {mask!r}; options: {sorted(MASKS)}")
    tolerance = resolve_tolerance(dtype, tolerance)
    if comm is not None:
        if topology is not None and topology is not comm.topology:
            raise ValueError(
                "pass either topology or comm; the provided comm is bound "
                "to a different topology"
            )
        topology = comm.topology
    elif topology is None:
        topology = make_cluster(8, node=a800_node(gpus_per_node=4))
    rng = np.random.default_rng(seed)
    if n_kv_heads is not None and (
        n_kv_heads < 1 or n_heads % n_kv_heads != 0
    ):
        raise ValueError(
            f"{n_heads} query heads not divisible by {n_kv_heads} KV heads"
        )
    groups = 1 if n_kv_heads is None else n_heads // n_kv_heads
    kv_heads = n_kv_heads if n_kv_heads is not None else n_heads
    q = rng.normal(size=(n_heads, seq_len, head_dim))
    k = rng.normal(size=(kv_heads, seq_len, head_dim))
    v = rng.normal(size=(kv_heads, seq_len, head_dim))
    do = rng.normal(size=(n_heads, seq_len, head_dim))
    q, k, v, do = _cast_inputs([q, k, v, do], dtype)
    pattern: MaskPattern = MASKS[mask](seq_len)

    if method_name == "usp" and "ulysses_degree" not in method_kwargs:
        method_kwargs["ulysses_degree"] = default_ulysses_degree(
            n_heads, topology.world_size, topology.gpus_per_node)
    if block_size is None:
        block_size = max(8, seq_len // 8)
    method = get_method(method_name, block_size=block_size, **method_kwargs)
    res = method.run(topology, q, k, v, mask=pattern, do=do, comm=comm)

    from repro.attention.gqa import fold_kv_grad, repeat_kv

    dense = pattern.dense(seq_len)
    k_full, v_full = repeat_kv(k, groups), repeat_kv(v, groups)
    o_ref, lse_ref = attention_reference(q, k_full, v_full, mask=dense)
    dq_ref, dk_ref, dv_ref = attention_reference_backward(
        q, k_full, v_full, o_ref, lse_ref, do, mask=dense
    )
    dk_ref = fold_kv_grad(dk_ref, groups)
    dv_ref = fold_kv_grad(dv_ref, groups)
    report = VerificationReport(method=method_name, mask=mask,
                                tolerance=tolerance, dtype=dtype)
    report.errors = {
        "o": float(np.abs(res.o - o_ref).max()),
        "lse": float(np.abs(res.lse - lse_ref).max()),
        "dq": float(np.abs(res.dq - dq_ref).max()),
        "dk": float(np.abs(res.dk - dk_ref).max()),
        "dv": float(np.abs(res.dv - dv_ref).max()),
    }
    return report


def verify_all(
    methods: list[str] | None = None, masks: list[str] | None = None
) -> list[VerificationReport]:
    """Verify every (method, mask) combination; returns all reports."""
    reports = []
    for name in methods or sorted(METHOD_REGISTRY):
        for mask in masks or sorted(MASKS):
            reports.append(verify_method(name, mask=mask))
    return reports


def main(argv: list[str]) -> int:
    reports = verify_all(methods=argv or None)
    for report in reports:
        print(report.summary())
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Golden-file regression fixtures: pinned npz outputs per method.

The dense-reference comparison catches a method diverging from the
reference — but a refactor that changes *both* (a new kernel used by the
method and the oracle alike, a partitioner tweak applied everywhere)
slips straight through.  Golden files break that symmetry: the exact
forward/backward outputs of every registered method on one fixed problem
are checked into ``tests/golden/*.npz``, so any numeric drift from the
state pinned at recording time is caught no matter which side moved.

Regenerate deliberately (and review the diff!) after an intentional
numeric change::

    python -m repro.testing.golden --update [method ...]

Comparison uses a tight-but-not-bitwise tolerance (``1e-9`` relative)
so BLAS reduction-order differences across platforms don't trip it while
real algorithmic drift does.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.attention import METHOD_REGISTRY, get_method
from repro.masks import CausalMask
from repro.topology import a800_node, make_cluster

#: One canonical problem per method.  Small enough that all six fixtures
#: total a few hundred KB; shaped so every method's constraints hold
#: (ulysses needs H % G == 0, usp a degree dividing both).
_BASE = dict(topology=make_cluster(4, node=a800_node(gpus_per_node=2)),
             seq_len=32, head_dim=4, n_heads=4, seed=2024, block_size=8)
GOLDEN_CASES: dict[str, dict] = {
    name: dict(_BASE) for name in METHOD_REGISTRY
}
GOLDEN_CASES["usp"]["method_kwargs"] = {"ulysses_degree": 2}
#: Cases may carry an explicit "method" key when the fixture name is not a
#: registry name — e.g. the same method pinned under a non-default mode.
#: Bidirectional burst is bitwise-identical to "burst" by design; a
#: separate fixture pins that equivalence against future transport drift.
GOLDEN_CASES["burst-bidir"] = dict(
    _BASE, method="burst", method_kwargs={"ring_mode": "bidirectional"}
)
#: An optional "n_kv_heads" draws K/V with that many heads (GQA): the ring
#: forward + Alg. 2 on KV-head-sized shards, and Alg. 1 on two streams.
GOLDEN_CASES["burst-gqa"] = dict(_BASE, method="burst", n_kv_heads=2)
GOLDEN_CASES["megatron-cp-gqa-bidir"] = dict(
    _BASE, method="megatron-cp", n_kv_heads=2,
    method_kwargs={"ring_mode": "bidirectional"},
)

RTOL = 1e-9
ATOL = 1e-11

ARRAYS = ("o", "lse", "dq", "dk", "dv")


def default_golden_dir() -> Path:
    """``tests/golden`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def compute_golden(method_name: str) -> dict[str, np.ndarray]:
    """Run the method on its canonical problem; returns the five outputs."""
    case = GOLDEN_CASES[method_name]
    rng = np.random.default_rng(case["seed"])
    shape = (case["n_heads"], case["seq_len"], case["head_dim"])
    kv_shape = (case.get("n_kv_heads", case["n_heads"]),) + shape[1:]
    q, k, v, do = (
        rng.normal(size=s) for s in (shape, kv_shape, kv_shape, shape)
    )
    method = get_method(
        case.get("method", method_name), block_size=case["block_size"],
        **case.get("method_kwargs", {}),
    )
    res = method.run(case["topology"], q, k, v, mask=CausalMask(), do=do)
    return {name: np.asarray(getattr(res, name)) for name in ARRAYS}


def golden_path(method_name: str, directory: Path | None = None) -> Path:
    directory = directory or default_golden_dir()
    return Path(directory) / f"{method_name}.npz"


def save_golden(method_name: str, directory: Path | None = None) -> Path:
    """Record (or re-record) the fixture for one method."""
    path = golden_path(method_name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **compute_golden(method_name))
    return path


@dataclass
class GoldenReport:
    """Comparison of current outputs against the pinned fixture."""

    method: str
    path: str
    errors: dict[str, float] = field(default_factory=dict)
    missing: bool = False

    @property
    def passed(self) -> bool:
        if self.missing:
            return False
        return all(e == 0.0 for e in self.errors.values())

    def summary(self) -> str:
        if self.missing:
            return (f"[FAIL] golden {self.method}: fixture {self.path} "
                    f"missing — run python -m repro.testing.golden --update")
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(
            f"{k}={'ok' if v == 0.0 else f'{v:.2e} over tolerance'}"
            for k, v in self.errors.items()
        )
        return f"[{status}] golden {self.method}: {parts}"


def check_golden(
    method_name: str,
    directory: Path | None = None,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> GoldenReport:
    """Compare the method's current outputs with its checked-in fixture.

    ``errors`` holds, per array, the max excess over the ``atol + rtol·|ref|``
    envelope (0.0 = within tolerance), so a failure message quantifies the
    drift rather than just flagging it.
    """
    path = golden_path(method_name, directory)
    report = GoldenReport(method=method_name, path=str(path))
    if not path.exists():
        report.missing = True
        return report
    current = compute_golden(method_name)
    with np.load(path) as pinned:
        for name in ARRAYS:
            ref = pinned[name]
            cur = current[name]
            if cur.shape != ref.shape:
                report.errors[name] = float("inf")
                continue
            excess = np.abs(cur - ref) - (atol + rtol * np.abs(ref))
            report.errors[name] = float(max(excess.max(), 0.0))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.golden",
        description="Check or regenerate golden-file fixtures.",
    )
    parser.add_argument("methods", nargs="*",
                        help="methods to process (default: all registered)")
    parser.add_argument("--update", action="store_true",
                        help="re-record fixtures instead of checking")
    parser.add_argument("--dir", type=Path, default=None,
                        help="fixture directory (default tests/golden)")
    args = parser.parse_args(argv)
    methods = args.methods or sorted(GOLDEN_CASES)

    if args.update:
        for name in methods:
            path = save_golden(name, args.dir)
            print(f"recorded {path}")
        return 0
    reports = [check_golden(name, args.dir) for name in methods]
    for report in reports:
        print(report.summary())
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

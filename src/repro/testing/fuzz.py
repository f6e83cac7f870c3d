"""Differential-fuzzer CLI.

Usage::

    python -m repro.testing.fuzz --seed 0 --budget 50        # sweep; exit 0/1
    python -m repro.testing.fuzz --smoke                     # small fast sweep
    python -m repro.testing.fuzz --fault corrupt --budget 5  # must exit 1 with
                                                             # a shrunk repro
    python -m repro.testing.fuzz --case "method=burst,mask=causal,nodes=1,\
gpn=2,seq_len=8,head_dim=2,n_heads=1,block_size=8,dtype=float64,seed=0"

Exit code 0 when every case matches the dense reference, 1 when any case
fails (each failure is printed with a minimal shrunk repro command).
"""

from __future__ import annotations

import argparse
import sys

from repro.testing.differential import FuzzCase, check_case, fuzz
from repro.testing.faults import FAULT_REGISTRY, RANK_FAULT_REGISTRY


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential fuzzer: random method/mask/topology "
                    "configurations vs the dense attention reference.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed for the sweep (default 0)")
    parser.add_argument("--budget", type=int, default=50,
                        help="number of random cases to run (default 50)")
    parser.add_argument("--smoke", action="store_true",
                        help="restrict to small configurations (CI smoke)")
    parser.add_argument("--fault", choices=sorted(FAULT_REGISTRY),
                        help="inject this fault into every case; the run "
                             "must then fail with a repro")
    parser.add_argument("--rank-fault", choices=sorted(RANK_FAULT_REGISTRY),
                        help="inject this rank-scoped fault (under a "
                             "FailureDetector) into every case; crash/hang "
                             "must be detected for the run to pass")
    parser.add_argument("--case", metavar="SPEC",
                        help="run exactly one 'key=value,...' case instead "
                             "of sweeping")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress output")
    args = parser.parse_args(argv)

    if args.case is not None:
        case = FuzzCase.parse(args.case)
        passed, detail = check_case(case, fault=args.fault)
        print(detail)
        return 0 if passed else 1

    def progress(i, case, passed):
        if not args.quiet:
            marker = "." if passed else "F"
            print(f"[{i + 1:3d}/{args.budget}] {marker} {case.spec()}")

    result = fuzz(seed=args.seed, budget=args.budget, fault=args.fault,
                  smoke=args.smoke, on_case=progress,
                  rank_fault=args.rank_fault)
    print(result.summary())
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Reproduce the paper in one command.

Regenerates every table and figure of the evaluation section (plus the
extension analyses), checks every row of the paper's claims table against
them, verifies all five distributed attention methods against the dense
reference, and writes a self-contained markdown report.  Exits non-zero
when a method or a claim fails.

Run:  python examples/reproduce_paper.py  [output.md]
"""

import sys
import time

from repro.attention.verify import verify_all
from repro.experiments import CLAIMS, check_claim, run_all


def _verdict_line(claim, values, ok) -> str:
    """``ok``/``FAIL``, the row id, the cells it read (``;`` between
    matched rows), the paper's value and the row's attribution."""
    line = f"{'ok  ' if ok else 'FAIL'} {claim.id}: " + "; ".join(
        " ".join(map(str, row)) for row in values)
    if claim.paper is not None:
        paper = claim.paper if isinstance(claim.paper, tuple) else (claim.paper,)
        line += " (paper " + " ".join(
            "-" if p is None else f"{p:.4g}" for p in paper) + ")"
    return line + (f" [{claim.deviation}]" if claim.deviation else "")


def main(out_path: str = "REPRODUCTION.md") -> None:
    t0 = time.time()

    print("verifying distributed attention methods against dense reference...")
    reports = verify_all()
    for report in reports:
        print(" ", report.summary())
    all_pass = all(r.passed for r in reports)

    print("\nregenerating every paper table and figure (+ extensions)...")
    results = run_all()

    print("checking the paper's claims...")
    verdicts = [(claim, *check_claim(claim, results[claim.exp])) for claim in CLAIMS]
    claims_pass = all(ok for _, _, ok in verdicts)
    claim_lines = [_verdict_line(*verdict) for verdict in verdicts]

    lines = [
        "# Reproduction report",
        "",
        f"Generated by `examples/reproduce_paper.py` in "
        f"{time.time() - t0:.1f}s.",
        "",
        "## Method verification (vs dense reference)",
        "",
        "```",
        *[r.summary() for r in reports],
        "```",
        "",
        "## Paper claims (bound met by the model's cells)",
        "",
        "```",
        *claim_lines,
        "```",
        "",
        "## Tables and figures",
        "",
    ]
    for key, result in results.items():
        lines += ["```", result.format(), "```", ""]
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines))

    for key, result in results.items():
        print()
        print(result.format())
    print()
    for line in claim_lines:
        print(line)
    print(f"\nreport written to {out_path}")
    if not all_pass:
        raise SystemExit("verification FAILED — see report")
    if not claims_pass:
        raise SystemExit("a paper claim FAILED — see report")


if __name__ == "__main__":
    main(*sys.argv[1:])

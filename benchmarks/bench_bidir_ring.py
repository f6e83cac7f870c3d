#!/usr/bin/env python
"""Bidirectional-ring benchmark with a JSON regression gate.

For each (method, topology) case this runs one forward+backward attention
pass under both ring modes and records:

* ``max_abs_diff`` — must be exactly 0.0: bidirectional is bitwise
  identical to unidirectional by construction (same compute and merge
  order; only transport changes).
* ``fwd_elems`` / ``rev_elems`` — per-rank per-direction TrafficLog
  element counts of the bidirectional run.  Deterministic; gated exactly
  against both the committed baseline and the closed forms in
  :func:`repro.perf.cost.bidirectional_direction_bytes`.
* ``des_uni_s`` / ``des_bidir_s`` / ``des_speedup`` — the DES-modeled
  pass times on the modeled A800 cluster.  Deterministic analytic floats;
  the speedup is gated against the baseline with ``--tolerance``.
* ``uni_s`` / ``bidir_s`` — host wall clock (informational only; numpy
  time on the runner says nothing about link occupancy).

Writes ``BENCH_bidir_ring.json`` at the repo root; ``--check`` fails on
any gate violation against the committed file, and then leaves that file
as it was.  ``--smoke`` runs the committed 4×4 rows alone, at the same
sizes, so CI's smoke check holds them to the committed counts; it writes
``BENCH_bidir_ring_smoke.json`` and never touches the committed file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.attention.methods import get_method
from repro.masks import CausalMask
from repro.perf.cost import bidirectional_direction_bytes
from repro.perf.schedules.attention import AttentionWorkload, attention_pass_time
from repro.topology import a800_node, make_cluster


def repo_root() -> Path:
    return Path(__file__).resolve().parents[1]


def _cases(smoke: bool) -> list[dict]:
    methods = ["megatron-cp", "loongtrain-double", "burst"]
    topos = [(4, 4), (8, 4)] if not smoke else [(4, 4)]
    tokens_per_rank = 32
    out = []
    for gpus, gpn in topos:
        for method in methods:
            out.append({
                "name": f"{method}@{gpus}x{gpn}",
                "method": method,
                "gpus": gpus,
                "gpus_per_node": gpn,
                "seq": tokens_per_rank * gpus,
                "heads": 2,
                "head_dim": 8,
            })
    return out


def _run_case(case: dict, repeats: int) -> dict:
    g, gpn = case["gpus"], case["gpus_per_node"]
    n, h, d = case["seq"], case["heads"], case["head_dim"]
    topo = make_cluster(g, node=a800_node(gpus_per_node=gpn))
    rng = np.random.default_rng(7)
    q = rng.standard_normal((h, n, d))
    k = rng.standard_normal((h, n, d))
    v = rng.standard_normal((h, n, d))
    do = rng.standard_normal((h, n, d))
    mask = CausalMask()

    results = {}
    times = {}
    traffic = {}
    for mode in ("unidirectional", "bidirectional"):
        method = get_method(case["method"], block_size=8, ring_mode=mode)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = method.run(topo, q, k, v, mask=mask, do=do)
            best = min(best, time.perf_counter() - t0)
        results[mode] = res
        times[mode] = best
        traffic[mode] = res.traffic

    max_diff = 0.0
    for arr in ("o", "lse", "dq", "dk", "dv"):
        a = getattr(results["unidirectional"], arr)
        b = getattr(results["bidirectional"], arr)
        max_diff = max(max_diff, float(np.max(np.abs(a - b))))

    log = traffic["bidirectional"]
    per_dir = {
        ch: log.per_rank_send_elems(channel=ch) for ch in ("fwd", "rev")
    }
    fwd_elems = sum(per_dir["fwd"].values())
    rev_elems = sum(per_dir["rev"].values())

    # Exact closed-form cross-check: per-rank per-direction per-phase.
    hidden = h * d
    bwd_key = "bwd_alg2" if case["method"] == "burst" else "bwd_alg1"
    pred = bidirectional_direction_bytes(
        n, hidden, g, bytes_per_elem=1, n_heads=h
    )
    cost_match = True
    for phase, key in (("attn-fwd", "fwd"), ("attn-bwd", bwd_key)):
        for ch in ("fwd", "rev"):
            per_rank = log.per_rank_send_elems(phase=phase, channel=ch)
            want = pred[key][ch]
            if any(per_rank.get(r, 0) != want for r in range(g)):
                cost_match = False

    wl = AttentionWorkload(seq_len=131072, hidden=4096, n_heads=32)
    des = {}
    for mode in ("unidirectional", "bidirectional"):
        des[mode] = sum(
            attention_pass_time(
                case["method"], topo, wl, backward=backward, ring_mode=mode
            )
            for backward in (False, True)
        )

    return {
        "name": case["name"],
        "params": {k: case[k] for k in
                   ("method", "gpus", "gpus_per_node", "seq", "heads",
                    "head_dim")},
        "max_abs_diff": max_diff,
        "fwd_elems": fwd_elems,
        "rev_elems": rev_elems,
        "cost_match": cost_match,
        "uni_s": times["unidirectional"],
        "bidir_s": times["bidirectional"],
        "des_uni_s": des["unidirectional"],
        "des_bidir_s": des["bidirectional"],
        "des_speedup": des["unidirectional"] / des["bidirectional"],
    }


#: What ``--check`` holds a run to; the payload header repeats it.
GATES = (
    "only --check gates, and it exits 1 unless each result has "
    "max_abs_diff == 0, cost_match, rev_elems > 0 and des_speedup >= 1, "
    "and, against the committed file, equal fwd_elems / rev_elems and "
    "des_speedup >= committed / --tolerance; the wall-clock fields are "
    "not gated"
)


def check_results(
    results: list[dict], baseline: list[dict] | None, tolerance: float
) -> list[str]:
    """Return regression messages (empty = pass)."""
    problems = []
    for rec in results:
        if rec["max_abs_diff"] != 0.0:
            problems.append(
                f"{rec['name']}: bidirectional deviates from unidirectional "
                f"by {rec['max_abs_diff']:.3e} (must be bitwise identical)"
            )
        if not rec["cost_match"]:
            problems.append(
                f"{rec['name']}: per-direction traffic does not match the "
                "closed forms in repro.perf.cost"
            )
        if rec["rev_elems"] <= 0:
            problems.append(
                f"{rec['name']}: no reverse-channel traffic recorded"
            )
        if rec["des_speedup"] < 1.0:
            problems.append(
                f"{rec['name']}: DES models bidirectional slower than "
                f"unidirectional ({rec['des_speedup']:.3f}x)"
            )
    if baseline is None:
        return problems
    base_by_name = {r["name"]: r for r in baseline}
    for rec in results:
        base = base_by_name.get(rec["name"])
        if base is None:
            continue
        if base.get("params") != rec.get("params"):
            problems.append(
                f"{rec['name']}: params {rec.get('params')} differ from the "
                f"committed row's {base.get('params')} (not comparable)"
            )
            continue
        for key in ("fwd_elems", "rev_elems"):
            if rec[key] != base[key]:
                problems.append(
                    f"{rec['name']}: {key} changed {base[key]} -> {rec[key]} "
                    "(deterministic count)"
                )
        floor = base["des_speedup"] / tolerance
        if rec["des_speedup"] < floor:
            problems.append(
                f"{rec['name']}: DES speedup regressed "
                f"{base['des_speedup']:.3f}x -> {rec['des_speedup']:.3f}x "
                f"(floor {floor:.3f}x at tolerance {tolerance}x)"
            )
    return problems


def _payload(results: list[dict], smoke: bool) -> dict:
    return {
        "suite": "bidir_ring",
        "smoke": smoke,
        "gates": GATES,
        "schema": {
            "max_abs_diff": "max |uni - bidir| over o/lse/dq/dk/dv (must be 0)",
            "fwd_elems": "total forward-stream elements sent (bidirectional)",
            "rev_elems": "total reverse-stream elements sent (bidirectional)",
            "cost_match": "per-rank per-direction counts == closed forms",
            "uni_s": "best host wall-clock, unidirectional (informational)",
            "bidir_s": "best host wall-clock, bidirectional (informational)",
            "des_uni_s": "DES-modeled fwd+bwd pass time, unidirectional (s)",
            "des_bidir_s": "DES-modeled fwd+bwd pass time, bidirectional (s)",
            "des_speedup": "des_uni_s / des_bidir_s",
        },
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/bench_bidir_ring.py",
        description="bidirectional-ring bench with a JSON regression gate",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="the 4x4 rows only, for CI")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed baseline")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed DES-speedup regression factor")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: repo root)")
    args = parser.parse_args(argv)

    out_dir = args.out or repo_root()
    out_dir.mkdir(parents=True, exist_ok=True)
    baseline_path = out_dir / "BENCH_bidir_ring.json"
    path = out_dir / (
        "BENCH_bidir_ring_smoke.json" if args.smoke else baseline_path.name
    )
    baseline = None
    if args.check and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text()).get("results")

    results = [_run_case(c, args.repeats) for c in _cases(args.smoke)]
    problems = check_results(results, baseline, args.tolerance) if args.check else []
    if not problems:
        path.write_text(json.dumps(_payload(results, args.smoke), indent=2) + "\n")

    for rec in results:
        print(
            f"[bidir] {rec['name']:<26} maxdiff {rec['max_abs_diff']:.1e}"
            f"  fwd {rec['fwd_elems']:>8} rev {rec['rev_elems']:>8}"
            f"  des {rec['des_uni_s']*1e3:7.2f}ms -> {rec['des_bidir_s']*1e3:7.2f}ms"
            f"  ({rec['des_speedup']:4.2f}x)"
        )
    if problems:
        print("\nREGRESSIONS:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        print(f"left {path} as it was", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line of the step benchmark.

* ``--workload W --seed N --seconds S --trace 0|1`` is one run, the form
  the benchmark driver calls: it prints the run's metrics and ends with
  one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
* With no ``--workload`` it is the whole benchmark: three untraced runs of
  every workload, interleaved, and one traced run each, as child processes
  one at a time; samples are pooled over the rounds, every declared metric
  is printed with its unit and one result JSON is written.
* ``--compare A.json B.json`` judges two such results against the bounds
  in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

from benchmarks.step import PINNED_THREAD_VARS, compare, worker
from benchmarks.step.stats import high_percentile, quartiles

SCHEMA = "step-bench/v1"
#: Untraced runs of every workload in the whole benchmark (one under ``--smoke``).
ROUNDS = 3
#: No child of the whole benchmark may run longer than the driver allows a run.
_CHILD_TIMEOUT_S = 180


def load_spec() -> dict:
    with open(os.path.join(worker.REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.step", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0, help="seed of the token batch")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short sequences, one round, the minimum number of steps")
    parser.add_argument("--check", action=argparse.BooleanOptionalAction, default=True,
                        help="fail on a correctness violation")
    parser.add_argument("--out", default=os.path.join(worker.RESULTS_DIR, "result.json"),
                        help="result JSON of the whole benchmark")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    return args


def main(argv: list[str] | None, process_start: float) -> int:
    spec = load_spec()
    args = parse(argv, spec)
    if args.compare:
        return compare.main(*args.compare, spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec, process_start)


# --- one run ------------------------------------------------------------------


def environment() -> dict:
    import numpy

    from repro.kernels import current_backend_name

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in PINNED_THREAD_VARS},
        "kernel_backend": current_backend_name(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=worker.REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def detail_path(workload: str, trace: int) -> str:
    return os.path.join(worker.RESULTS_DIR, f"{workload}.trace{trace}.json")


def run_one(args: argparse.Namespace, spec: dict, process_start: float) -> int:
    os.makedirs(worker.RESULTS_DIR, exist_ok=True)
    detail = worker.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, process_start,
    )
    detail["env"] = environment()
    with open(detail_path(args.workload, args.trace), "w") as fh:
        json.dump(detail, fh, indent=1)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(f"{args.workload}: seed {args.seed}, seq {detail['seq_len']}, "
          f"{len(detail['samples']['step_s'])} untraced timed steps, host at "
          f"{detail['samples']['speed']:.3f} of reference speed")
    print_metrics(declared, detail["metrics"], detail.get("bases", {}))
    correct = report_violations(args.workload, detail["violations"]) or not args.check
    failed = min(detail["attempted"], detail["failed"] + len(detail["violations"]))
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": failed,
        "metrics": {
            m["name"]: {"value": _number(detail["metrics"][m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if correct else 1


def _number(value: float | None) -> float:
    """The driver's result line wants a number for every metric: one whose
    probe point is gone reads 0 there, and ``probe.missing_points`` counts
    it; so does the loss of a failed step, which ``failed`` counts."""
    return 0.0 if value is None or not math.isfinite(value) else value


def print_metrics(declared: list[dict], values: dict, bases: dict) -> None:
    for m in declared:
        value = values[m["name"]]
        shown = "null" if value is None else (
            str(value) if isinstance(value, int) else f"{value:.6g}")
        base = f"  ({bases[m['name']]})" if m["name"] in bases else ""
        print(f"  {m['name']:<36} {shown:>14} {m['unit']}{base}")


def report_violations(workload: str, violations: list[str]) -> bool:
    """Print the violations; true when there are none."""
    for v in violations:
        print(f"VIOLATION {workload}: {v}", file=sys.stderr)
    return not violations


# --- the whole benchmark --------------------------------------------------------


def run_child(args: argparse.Namespace, workload: str, trace: int) -> dict | None:
    """One run as a child process: its detail record, or ``None`` when it
    ended without one (it crashed or overran), which the caller reports."""
    path = detail_path(workload, trace)
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, "-m", "benchmarks.step", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--no-check"]
    if args.smoke:
        cmd.append("--smoke")
    try:
        code = subprocess.run(cmd, cwd=worker.REPO_ROOT, stdout=subprocess.DEVNULL,
                              timeout=_CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = f"none: killed after {_CHILD_TIMEOUT_S} s"
    if code != 0 or not os.path.exists(path):
        print(f"{workload}: run (trace {trace}) ended with exit code {code}", file=sys.stderr)
        return None
    with open(path) as fh:
        return json.load(fh)


def run_all(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    n_rounds = 1 if args.smoke else ROUNDS
    rounds: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    lost = dict.fromkeys(names, 0)
    for r in range(n_rounds):
        # Interleaved, so a noisy period on the host is spread over all of them.
        for name in names:
            detail = run_child(args, name, trace=0)
            if detail is None:
                lost[name] += 1
                continue
            rounds[name].append(detail)
            print(f"round {r + 1}/{n_rounds} {name}: "
                  f"{len(detail['samples']['step_s'])} timed steps, "
                  f"p25 {detail['metrics']['step_s_p25']:.4f} s", flush=True)
    for name in names:
        detail = run_child(args, name, trace=1)
        if detail is None:
            lost[name] += 1
            continue
        traced[name] = detail
        print(f"traced {name}: {len(detail['samples']['probed_step_s'])} probed steps",
              flush=True)

    result = {
        "schema": SCHEMA,
        "env": {**environment(), "seed": args.seed, "rounds": n_rounds,
                "seconds": args.seconds, "smoke": args.smoke},
        "workloads": {},
    }
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        if lost[name]:
            # Nothing to pool: the workload has no result, only the failure.
            entry = {"violations": [f"{lost[name]} runs ended without a result"]}
        else:
            entry = pool(spec, rounds[name], traced[name])
            print(f"\n{name} (seq {entry['seq_len']}; {entry['timed_steps']} pooled timed "
                  f"steps over {n_rounds} rounds; {w['why']})")
            for kind in ("end_to_end", "per_layer"):
                values = {metric: e["value"] for metric, e in entry[kind].items()}
                print_metrics(spec[kind], values, entry["bases"])
        entry["why"] = w["why"]
        result["workloads"][name] = entry
        ok &= report_violations(name, entry["violations"])
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nresult written to {args.out}")
    return 0 if ok or not args.check else 1


def pool(spec: dict, rounds: list[dict], traced: dict) -> dict:
    """One workload's result: samples pooled over the untraced rounds, the
    per-layer metrics of the traced run, and the cross-run checks."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seq_len = rounds[0]["seq_len"]
    steps = [s for d in rounds for s in d["samples"]["step_s"]]
    p25 = quartiles(steps)[0]
    violations = [v for d in rounds + [traced] for v in d["violations"]]
    exact = {}
    for metric in ("comm_bytes_per_step", "peak_saved_bytes"):
        values = {d["metrics"][metric] for d in rounds}
        if len(values) != 1:
            violations.append(f"{metric} differs between rounds: {sorted(values)}")
        exact[metric] = rounds[0]["metrics"][metric]
    for d in rounds[1:] + [traced]:
        n = min(len(d["losses"]), len(rounds[0]["losses"]))
        if d["losses"][:n] != rounds[0]["losses"][:n]:
            violations.append(
                f"loss sequence of the {'traced' if d['trace'] else 'untraced'} run "
                f"differs from round 1 within the first {n} steps")

    setups = [d["metrics"]["setup_s"] for d in rounds]
    rss = [d["metrics"]["host_peak_rss_mb"] for d in rounds]
    sampled = {
        "step_s_p25": (p25, steps),
        "tokens_per_s": (seq_len / p25, [seq_len / s for s in steps]),
        "setup_s": (statistics.median(setups), setups),
        "host_peak_rss_mb": (max(rss), rss),
        **{metric: (value, [value]) for metric, value in exact.items()},
    }
    per_layer = dict(traced["metrics"])
    bases = dict(traced["bases"])
    hi, percentile = high_percentile(steps)
    per_layer["engine.step_s_p50"] = statistics.median(steps)
    per_layer["engine.step_s_hi"] = hi
    bases["engine.step_s_hi"] = f"p{percentile:.0f} of {len(steps)} pooled untraced steps"
    return {
        "seq_len": seq_len,
        "timed_steps": len(steps),
        "end_to_end": {
            name: {"value": value, "unit": units[name], "samples": samples}
            for name, (value, samples) in sampled.items()
        },
        "per_layer": {
            name: {"value": value, "unit": units[name]} for name, value in per_layer.items()
        },
        "bases": bases,
        "losses": rounds[0]["losses"],
        "attempted": sum(d["attempted"] for d in rounds + [traced]),
        "failed": sum(d["failed"] for d in rounds + [traced]),
        "violations": violations,
    }

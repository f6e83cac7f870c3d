"""``--compare A.json B.json``: judge result B against result A.

One row per workload and end-to-end metric, with the bounds of
``BENCHMARK.json``:

* ``regression`` — B is worse than A by more than the metric's bound;
* ``unresolved`` — B is within the bound, but the samples behind either
  value spread (inter-quartile range over median) wider than the bound, so
  a change of that size could not have been seen;
* ``ok`` — B is within the bound and both sides are steadier than it.
"""

from __future__ import annotations

import json

from benchmarks.step.stats import relative_iqr


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)`` for one metric's two result entries."""
    delta = worsening(a["value"], b["value"], better)
    spread = max(relative_iqr(a["samples"]), relative_iqr(b["samples"]))
    if delta > bound:
        return "regression", delta, spread
    return ("unresolved" if spread > bound else "ok"), delta, spread


def main(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    regressions = 0
    print(f"{'workload':<14}{'metric':<22}{'A':>14}{'B':>14}{'worse by':>10}"
          f"{'spread':>9}{'bound':>8}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            ea = a["workloads"][w["name"]]["end_to_end"][m["name"]]
            eb = b["workloads"][w["name"]]["end_to_end"][m["name"]]
            name, delta, spread = verdict(ea, eb, m["better"], m["bound"])
            regressions += name == "regression"
            print(f"{w['name']:<14}{m['name']:<22}{ea['value']:>14.6g}{eb['value']:>14.6g}"
                  f"{delta:>+10.2%}{spread:>9.2%}{m['bound']:>8.2%}  {name}")
    print(f"{regressions} regressions (A = {path_a}, B = {path_b}; "
          "'worse by' is a share of A)")
    return 1 if regressions else 0

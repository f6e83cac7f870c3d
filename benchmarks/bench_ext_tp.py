"""Extension benchmark: why the paper builds on context parallelism, not
tensor parallelism.

Pure TP shards weights, not sequence: activations stay full-length on
every rank and per-layer all-reduce volume grows with S x h.  The sweep
shows a 14B model OOMing long before 1M tokens regardless of TP degree —
the quantitative version of the paper's motivation."""

from repro.experiments.extensions import ext_tp_scaling


def test_ext_tp_scaling(benchmark, record_table):
    result = benchmark(ext_tp_scaling)
    record_table(result)
    fits = [row[3] for row in result.rows]
    assert fits[0] == "ok" and fits[-1] == "OOM"


if __name__ == "__main__":
    print(ext_tp_scaling().format())

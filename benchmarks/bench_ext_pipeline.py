"""Extension benchmark: pipeline parallelism at long context.

One 1M-token sequence is a single microbatch; the pipeline bubble
``(P-1)/(M+P-1)`` then idles all but ``1/P`` of the cluster.  The table
(DES-simulated 1F1B) quantifies why layer sharding cannot replace
sequence sharding for the paper's workload."""

from repro.experiments.extensions import ext_pp_bubble


def test_ext_pp_bubble(benchmark, record_table):
    result = benchmark(ext_pp_bubble)
    record_table(result)
    # M=1 rows: efficiency ~ 1/P
    for row in result.rows:
        p, m = row[0], row[1]
        eff = float(row[3].rstrip("%")) / 100
        if m == 1:
            assert eff == __import__("pytest").approx(1 / p, rel=0.05)


if __name__ == "__main__":
    print(ext_pp_bubble().format())

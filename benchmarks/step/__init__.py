"""The repository's benchmark: whole ``BurstEngine.train_step`` calls.

``python3 -m benchmarks.step`` runs four named workloads on the simulated
cluster, prints every end-to-end and per-layer metric declared in the
root ``BENCHMARK.json`` with its unit, checks that the outputs are
correct, and writes one result JSON.  ``README.md`` next to this file
says what each workload and metric is for and how to read the numbers.
"""

#: Set to "1" before NumPy is imported, and recorded in every result.
PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

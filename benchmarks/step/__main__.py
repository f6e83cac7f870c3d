"""``python3 -m benchmarks.step``: pin the host environment, then run the CLI."""

import os
import sys
from time import perf_counter

from benchmarks.step import PINNED_THREAD_VARS

_PROCESS_START = perf_counter()  # setup_s counts from here, imports included

# BLAS threads are pinned before NumPy is imported: unpinned, step medians
# drifted 27 % between identical runs on the 2-core host; pinned, 4 %, and no
# slower.  The kernel backend variables are cleared so that the repository's
# default backend is what is measured.
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"
for _var in ("REPRO_KERNEL_BACKEND", "REPRO_KERNEL_WORKERS"):
    os.environ.pop(_var, None)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from benchmarks.step.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(None, _PROCESS_START))

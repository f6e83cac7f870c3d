"""The reference kernel that host seconds are scaled by.

The benchmark host is shared: for minutes at a time every step runs 30-50 %
slower, with user CPU time tracking wall time and no steal or page-fault
signal to correct by.  Raw seconds of ten identical runs then spread wider
than any useful bound.  So every run times, before each timed train step, a
fixed piece of work that no change to the program can touch — a Python
loop over attention-tile-sized NumPy calls, the instruction mix of the
steps themselves — and reports seconds *at reference speed*::

    reported = host seconds * NOMINAL_S / (lower quartile of the reference's
               host seconds in the same process)

On a quiet benchmark host the factor is 1; during a slow phase it shrinks
the numbers back to what the quiet host would have shown.  A memory-bound
or pure-Python reference did not track the steps (see README.md); this one
cut the spread of the lower quartile over 18-second windows from 6-11 % to
3-4 %.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

import numpy as np

from benchmarks.step.stats import quartiles

#: Lower-quartile seconds of :func:`run_once` on the quiet 2-core benchmark
#: host.  It only fixes the scale, so that reported seconds read like host
#: seconds there; changing it rescales every timing of every workload alike.
NOMINAL_S = 0.110

_TILES = 600
_RNG = np.random.default_rng(0)
_Q, _K, _V = (_RNG.standard_normal((8, 64, 8)) for _ in range(3))


def run_once() -> float:
    """Host seconds of the fixed reference work."""
    start = perf_counter()
    for _ in range(_TILES):
        scores = _Q @ _K.transpose(0, 2, 1)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        _ = (weights @ _V) / weights.sum(axis=-1, keepdims=True)
    return perf_counter() - start


def speed_factor(reference_seconds: Sequence[float]) -> float:
    """What host seconds are multiplied by to read at reference speed."""
    return NOMINAL_S / quartiles(reference_seconds)[0]

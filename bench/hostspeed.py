"""Host speed, measured with a fixed loop run next to the program.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within a minute (section "Noise" of README.md), for the program and
for any other code alike.  So the benchmark times a fixed loop before
every item and before every set-up sample, and reports each time scaled
to a fixed nominal speed: the time the item would have taken on a host
where the loop takes ``NOMINAL_LOOP_S``.  A change that makes the program
10 % faster makes the scaled times 10 % shorter; the loop itself is
benchmark code that no program change touches.  The plain wall times are
reported next to the scaled ones.

The loop is one dense SVD through numpy's LAPACK.  Its time followed the
items of both bounded workloads, the LAPACK-bound ``certify-dense`` and
the pure-Python ``verify-fields``; a loop of Python dict and float work
followed only the second, and over-corrected the first.
"""

from __future__ import annotations

import functools
import statistics
import time

# About the median loop time, with one BLAS thread, on the 2-core Xeon
# virtual machine the benchmark was built on.  Fixed: changing it
# rescales every timing metric.
NOMINAL_LOOP_S = 0.0055

# An item is scaled by the median of the loops run within this many
# items of it: one loop is too short to be steady, a minute of them
# too long to follow the drift.
WINDOW = 5

SIZE = 160


@functools.cache
def _matrix():
    import numpy
    return numpy.random.default_rng(0).standard_normal((SIZE, SIZE))


def loop_seconds():
    """One timed run of the calibration loop.  numpy is imported on first
    use, so that the caller can pin the BLAS thread count before."""
    import numpy
    matrix = _matrix()
    start = time.perf_counter()
    numpy.linalg.svd(matrix)
    return time.perf_counter() - start


def scale(seconds, loops, window=WINDOW):
    """``seconds[i]`` at nominal host speed, given the loop time
    ``loops[i]`` measured just before it."""
    out = []
    for i, value in enumerate(seconds):
        near = loops[max(0, i - window):i + window + 1]
        out.append(value * NOMINAL_LOOP_S / statistics.median(near))
    return out

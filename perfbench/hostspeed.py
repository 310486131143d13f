"""How fast the host runs right now, from fixed reference computations.

The benchmark shares a few cores of a host whose speed drifts by a fifth or
more, over spells from a fraction of a second to minutes.  The drift shows
no steal time (process CPU time tracks wall time): whatever else runs on
the machine slows the cores themselves, so no median inside one run
averages it away.  Each CPU-bound timing is therefore divided by the host's
slowdown while it was taken: the time of a pass of a reference computation
next to the timed work, over that reference's time on a quiet host.  A
reported time is then in seconds of that quiet host.

A reference is numpy alone -- a matrix product, an element-wise maximum, a
second product and a sum -- so no change to the program moves it:

- ``SEARCH`` is a float64 pass of about 55 ms on a quiet host, run before
  and after each search and each set-up.  Over 40 pairs
  of searches on a 2-core host it cut the spread of single-search rates
  from 0.12 to 0.08 (search-train) and from 0.18 to 0.09 (search-gated),
  where a pure-Python loop did not help.
- ``PREDICT`` is a sub-millisecond float32 pass, run between blocks of the
  predict probe's requests.  Sixteen probe interpreters one after another
  spread their p50 by 0.26 and their p99 by 0.22 as measured, 0.18 and 0.20
  divided by one slowdown per interpreter, and 0.06 and 0.07 divided by the
  slowdown around each block of 50 requests.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

import numpy as np

T = TypeVar("T")


class Reference:
    """One reference computation and its time on a quiet host."""

    def __init__(self, rows: int, inner: int, cols: int, dtype: type, repeats: int, quiet_s: float):
        rng = np.random.default_rng(0)
        self.left = rng.standard_normal((rows, inner)).astype(dtype)
        self.right = rng.standard_normal((inner, cols)).astype(dtype)
        self.projection = rng.standard_normal((cols, rows)).astype(dtype)
        self.repeats = repeats
        self.quiet_s = quiet_s
        # The first pass in a process pays for page faults and BLAS start-up.
        self.seconds()

    def seconds(self) -> float:
        """Wall time of one pass."""
        start = time.perf_counter()
        for _ in range(self.repeats):
            hidden = np.maximum(self.left @ self.right, 0.0)
            (hidden @ self.projection).sum(axis=0)
        return time.perf_counter() - start

    def slowdown(self, before: float, after: float) -> float:
        """The host's slowdown between two passes that took ``before`` and ``after``."""
        return (before + after) / (2 * self.quiet_s)

    def on_host(self, work: Callable[[], T]) -> Tuple[T, float]:
        """Run ``work`` between two passes: (its value, the host's slowdown)."""
        before = self.seconds()
        value = work()
        return value, self.slowdown(before, self.seconds())


# Quiet-host times measured on a 2-core x86-64 VM (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31, one BLAS thread).
SEARCH = Reference(256, 288, 64, np.float64, repeats=200, quiet_s=0.055)
PREDICT = Reference(64, 144, 32, np.float32, repeats=100, quiet_s=0.0012)

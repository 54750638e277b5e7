"""A fixed reference computation that measures the machine's current speed.

The machine the benchmark was built on is shared, and its speed drifts by
up to a factor of two: within seconds and, between phases, over minutes.
Process CPU time drifts with the wall clock, so it does not help.  The
benchmark therefore times this fixed computation, which calls no tcpfluid
code, after every sample it takes for REF_SHARE of the sample's length,
and scales every time of the run to the reference speed:

    scaled = wall * NOMINAL_S / median(reference times of the run)

One factor per run, from the median of all its reference times, follows
the slow phases; a factor per sample from its neighbouring reference times
would also follow the fast swings, but each 0.15 s reference time samples
them too briefly, and such factors spread more.  For the same reason the
reference runs for a share of each sample rather than once: one run after
a 6 s solve is noisier than the solve.

The computation mixes the kinds of work the workloads do: an interpreted
Python loop, small numpy calls on 10^4-entry arrays (argmin, gather,
bincount) and memory-bound sorts of a 4 MB array.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

# a typical reference time on the build machine; scaled times are seconds
# at that speed
NOMINAL_S = 0.15
REF_SHARE = 0.15


class Reference:
    """Times the reference computation; its times give the run's scale."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.random(10_000)
        self._idx = rng.integers(0, 10_000, 3000)
        self._big = rng.random(500_000)
        self.times: list[float] = []
        self._run()  # the first call pays numpy's first-call set-up

    def _run(self) -> float:
        t0 = perf_counter()
        s = 0
        for i in range(400_000):
            s += i * i % 7
        small, idx = self._small, self._idx
        for _ in range(1500):
            j = np.argmin(small)
            np.bincount(idx, weights=small[idx], minlength=small.size)
            small[j] += 0.0
        for _ in range(15):
            np.sort(self._big)
            self._big.sum()
        return perf_counter() - t0

    def follow(self, elapsed: float) -> None:
        """Run after a sample of `elapsed` s: once, then until REF_SHARE of it."""
        spent = 0.0
        while True:
            self.times.append(self._run())
            spent += self.times[-1]
            if spent >= REF_SHARE * elapsed:
                return

    def factor(self) -> float:
        """Factor that turns this run's wall times into reference seconds."""
        return NOMINAL_S / median(self.times)

"""Host-speed calibration: timings scaled to a reference speed.

The benchmark shares its host with other work, and the host's speed drifts by
up to 2x, in CPU time as well as in wall time, over phases that last from
under a second to minutes. No statistic over a run of under a minute filters
that out.

So every timed operation is bracketed by runs of a fixed calibration kernel
that uses numpy and the interpreter the way the solvers do, and never touches
parssm. An operation's time is multiplied by ``REF_S / k``, where ``k`` is the
mean of the kernel times just before and just after it. The result is the
operation's time in seconds at the reference speed, the speed at which the
kernel takes ``REF_S``. A change to parssm moves it as much as it moves wall
time; host drift mostly does not. On the development VM the wall-time
medians of 50 s runs spread 0.2-0.33 (IQR / median) between runs, and the
scaled ones 0.01-0.085 (METRICS.md has the final figures). Wider windows of
samples did no better than the two neighbours: the speed also swings within
a second, and the samples next to an operation track it best. With the first
half of the kernel alone, s5-merit (T=1000) spread about twice as much. Raw
wall times are printed next to the scaled ones in each run's details.

What this cannot separate from host drift is a change that slows the kernel
itself from inside the process, such as a busy background thread.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 4.0e-3  # kernel time at the reference speed

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((8, 8)) / 4
_B = _rng.standard_normal((256, 8))
_P = _rng.permuted(np.tile(np.arange(5), (1000, 1)), axis=1)
_X = _rng.standard_normal((1000, 5))


def kernel() -> float:
    """Two halves of about equal time. Small matvecs, elementwise ops and
    scalar glue in a Python loop, as in a rollout or a short-horizon solve;
    then gathers, prefix sums and strided updates over a 1000 x 5 array, as
    in a long-horizon solve."""
    x, acc = np.ones(8), 0.0
    for _ in range(200):
        x = np.tanh(_A @ x + 0.1)
        acc += 0.5 * float(x[0]) + float((_B * x).sum())
    y = _X
    for _ in range(25):
        z = np.take_along_axis(y, _P, axis=1)
        y = np.cumsum(y, axis=0) * 1e-3 + z
        y[1::2] += 0.5 * y[::2]
    return acc + float(y.sum())


class Clock:
    """Calibration samples in time order.

    ``tick()`` runs the kernel once and returns its index, the anchor of the
    operation timed right after it. Once the next ``tick()`` has run,
    ``scale(seconds, anchor)`` gives that operation's time at the reference
    speed.
    """

    def __init__(self):
        self.samples: list[float] = []

    def tick(self) -> int:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, seconds: float, anchor: int) -> float:
        before, after = self.samples[anchor], self.samples[anchor + 1]
        return seconds * 2.0 * REF_S / (before + after)

"""Machine speed, measured with a fixed reference kernel around and during timed blocks.

The benchmark runs on shared virtual machines whose speed for identical
work drifts by up to 2x, in phases of seconds to minutes, with no CPU
steal showing: process CPU time drifts as much as wall time. A raw wall
time then mostly measures the phase the machine was in. So the run
samples a reference kernel, in the same thread, just before and just
after each timed block and, from a timer signal, every ``TICK_S`` during
it. The block's wall time, less the time its tick samples took, is
scaled by ``NOMINAL_S / mean(samples)``: the result is the block's time
at the speed where the kernel takes its ``NOMINAL_S``. The kernel is part of
the benchmark and never changes with hystfit, so a change to hystfit
moves the scaled time in full, while a change of machine phase mostly
cancels out. The raw wall times are printed beside the scaled ones.

The machine's phases do not slow all code alike: interpreter-bound code
swings more than arithmetic on long arrays. So there are two kernels,
and each workload uses the one that resembles its own work. ``mixed``
makes calls on small arrays, formats and parses floats as the CSV files
do, and does vector arithmetic on 100k samples; it suits the chunked
evaluation and the CSV-bound CLI calls. ``vector`` does arithmetic on
5,000-sample arrays and an 11-parameter normal-equation solve, as a
Levenberg-Marquardt fit does; on fits, the ``mixed`` kernel made the
spread worse than raw wall time. A sample repeats its kernel for at
least ``SAMPLE_S`` (``TICK_SAMPLE_S`` for a tick) and takes the mean,
because single runs of the kernel scatter by a factor of 1.5 from one
to the next. Samples at block ends alone do not do: a fit or a CLI call
can last several seconds, and the machine changes phase within it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# kernel time that defines the reference speed
NOMINAL_S = {"mixed": 0.007, "vector": 0.0008}
SAMPLE_S = 0.1  # kernel time of a sample at either end of a block
TICK_S = 0.25  # interval of the samples during a block
TICK_SAMPLE_S = 0.02  # kernel time of one of those


class Meter:
    """Kernel samples and block timing; ``ticks=False`` leaves out the in-block samples."""

    def __init__(self, kernel="mixed", ticks=True):
        self.nominal_s = NOMINAL_S[kernel]
        self._kernel = getattr(self, f"_{kernel}")
        self.ticks = ticks
        self.paused_s = 0.0  # wall time spent in tick samples
        rng = np.random.default_rng(12345)
        self._small = rng.normal(size=50)
        self._floats = rng.normal(size=3_000).tolist()
        self._big = rng.normal(size=100_000)
        self._mid = rng.normal(size=5_000)
        self._jac = rng.normal(size=(5_000, 11))
        self.samples = []  # mean kernel seconds of each sample
        self._kernel()  # the first call pays for lazy numpy set-up

    def _mixed(self):
        acc = 0.0
        x = self._small
        for i in range(600):
            y = np.minimum(np.maximum(x, acc), acc + 1.0)
            acc = 0.5 * acc + float(y[i % 50]) * 1e-3
        text = ",".join(map(repr, self._floats))
        acc += sum(float(s) for s in text.split(","))
        z = np.tanh(self._big * 0.5)
        return acc + float(np.cumsum(z)[-1]) + float(np.sort(z)[0])

    def _vector(self):
        x, jac = self._mid, self._jac
        acc = 0.0
        for _ in range(20):
            e = np.tanh(x * 0.3) + np.exp(-x * x) - x
            acc += float(e @ e)
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + np.diag(np.diag(jtj)), jac.T @ x)
        return acc + float(step[0])

    def _sample(self, seconds):
        """Add the mean kernel time over at least ``seconds`` of repeats."""
        n, start = 0, perf_counter()
        while True:
            self._kernel()
            n += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                break
        self.samples.append(elapsed / n)

    def _tick(self, signum, frame):
        start = perf_counter()
        self._sample(TICK_SAMPLE_S)
        self.paused_s += perf_counter() - start

    def clock(self):
        """Wall clock, in seconds, that stands still while a tick sample runs."""
        return perf_counter() - self.paused_s

    def begin(self, ticks=True):
        """Start a timed block; pass the result to ``end``."""
        self._sample(SAMPLE_S)
        first = len(self.samples) - 1
        if ticks and self.ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return first, self.clock()

    def end(self, begun):
        """(seconds, scale) of a block: wall time less tick samples, and the
        factor from it to the time at the reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        first, start = begun
        seconds = self.clock() - start
        self._sample(SAMPLE_S)
        return seconds, self.nominal_s / statistics.fmean(self.samples[first:])

"""Machine-speed samples, and wall time normalised to the reference speed.

The benchmark runs on a few vCPUs of a shared host. The speed of a vCPU
there changes from one second to the next and from one minute to the next,
by up to 2x, and a single-threaded run cannot avoid it. So each stretch of
timed work is followed by a speed sample: a fixed piece of interpreter and
numpy work (`reference_work`) that takes REFERENCE_S at the reference
machine's full speed. The stretch's normalised time is its wall time times
REFERENCE_S over the sample's time: what the stretch would have taken at
full speed.

While a meter runs, SIGALRM takes a sample every SAMPLE_EVERY_S between
bytecodes of the main thread, so a long operation is cut into short
stretches that each have a sample of their own. The time of the samples
is left out of the stretches. perf_counter is CLOCK_MONOTONIC on Linux, so
the stamps of a child process and of its parent can be mixed.
"""

from __future__ import annotations

import json
import math
import signal
from time import perf_counter
from typing import List, Sequence, Tuple

import numpy as np

# Fastest time of reference_work on the reference machine (see README.md).
REFERENCE_S = 4.3e-3
SAMPLE_EVERY_S = 0.2

Sample = Tuple[float, float]  # perf_counter at its start and at its end


def reference_work() -> float:
    """Dict and float work in the interpreter, then small numpy calls."""
    d: dict = {}
    acc = 0.0
    for i in range(20000):
        k = i % 97
        d[k] = d.get(k, 0.0) + i * 0.5
        acc += math.sqrt(i)
    a = np.arange(1000.0)
    for _ in range(300):
        a = np.minimum(a * 1.0001, 900.0)
    return acc + float(a[-1])


class Meter:
    def __init__(self):
        self.samples: List[Sample] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer signal that lands inside a sample
            return
        self._busy = True
        t = perf_counter()
        reference_work()
        self.samples.append((t, perf_counter()))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def timed(self, fn):
        """Run fn and take a sample right after it. Returns fn's result
        and the (wall, normalised) time of the call, samples left out."""
        t0 = perf_counter()
        out = fn()
        t1 = perf_counter()
        self.sample()
        return out, normalised(t0, t1, self.samples)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.samples, fh)


def normalised(t0: float, t1: float, samples: Sequence[Sample]) -> Tuple[float, float]:
    """Wall time of [t0, t1] without the samples taken inside it, and that
    time normalised stretch by stretch: each stretch up to a sample is
    scaled by REFERENCE_S over that sample's time. The last stretch uses
    the first sample that starts at or after t1."""
    inner = [s for s in samples if t0 <= s[0] and s[1] <= t1]
    closing = next(s for s in samples if s[0] >= t1)
    starts = [t0] + [end for _, end in inner]
    ends = [start for start, _ in inner] + [t1]
    wall = norm = 0.0
    for a, b, (s, e) in zip(starts, ends, inner + [closing]):
        wall += b - a
        norm += (b - a) * REFERENCE_S / (e - s)
    return wall, norm

"""A fixed calibration computation that tracks how fast the machine runs.

The host this benchmark is tuned on drifts by tens of per cent within a
minute. Timing this kernel between operations gives the machine's current
speed, so round times can be scaled to a reference speed.
"""

from __future__ import annotations

import threading
import time

import numpy as np

# Kernel time, in seconds, that defines the reference speed. The kernel
# took 17-25 ms on the 2-vCPU Xeon host the README's figures come from, so
# reference seconds there are up to about 1.4 times real ones.
REFERENCE_S = 0.025
_X = np.linspace(-1.0, 1.0, 4000).reshape(1000, 4)


def kernel() -> float:
    """Small-array numpy work and a pure-Python loop, in proportions like
    the program's: a broadcast distance tensor, a sort, a fold and a sum."""
    acc = 0.0
    for i in range(28):
        y = _X * (1 + i % 5)
        d = ((y[:, None, :] - _X[None, :10, :]) ** 2).sum(axis=-1)
        acc += float(np.sort(d, axis=1)[:, 0].sum())
        acc += sum(j * j for j in range(300))
        z = np.where(y > 0.5, 2.0 - y, y)
        acc += float(np.clip(z, -1.0, 1.0).mean())
    return acc


def sample(calls: int = 3) -> float:
    """Median seconds of `calls` back-to-back kernel calls."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


class SpeedProbe:
    """Samples the kernel between and inside operations.

    The worker polls between operations; the benchmark's objective and
    fitness wrappers poll inside them (main thread only, since a sample
    taken while worker threads hold the interpreter lock would measure the
    lock). A poll samples only when the last sample is `every_s` old.
    An operation's speed is the mean of the samples in its window: the one
    before it, those inside it and the one after it.
    """

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.last_at = None
        self.last = None
        self.window = []
        self.spans = []  # (start, end) of each sample since the window opened

    def poll(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or self.last_at is None or now - self.last_at >= self.every_s:
            self.last = sample(1)
            self.last_at = time.perf_counter()
            self.window.append(self.last)
            self.spans.append((now, self.last_at))

    def poll_inside(self) -> None:
        if threading.current_thread() is threading.main_thread():
            self.poll()

    def open_window(self) -> None:
        self.window = [self.last]
        self.spans = []

    def spent(self, until: float = float("inf")) -> float:
        """Seconds spent sampling since the window opened, up to `until`."""
        return sum(end - start for start, end in self.spans if end <= until)

    def speed(self) -> float:
        """Mean kernel seconds over the current window."""
        return sum(self.window) / len(self.window)

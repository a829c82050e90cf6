"""Latency percentiles, speed calibration and per-layer summaries.

Shared by the runner and the child; kept free of package imports so the
tests can exercise it on synthetic data.

Timings are reported at a reference speed. On a shared machine the speed
of one core drifts by up to a factor of two within seconds, and every
interpreted workload drifts with it. So the benchmark times a fixed
pure-Python kernel next to each measurement and scales the measurement by
``REF_KERNEL_S / kernel time``: between items for short measurements, and
from a sampling thread for calls that last seconds. A change to the package
speeds up the measurement but not the kernel, so the scaled numbers still
move with the package; raw wall-clock figures are printed alongside.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Optional, Sequence

KERNEL_N = 16000
REF_KERNEL_S = 0.005  # time of kernel(KERNEL_N) at the reference speed

TAIL_PERCENTILES = (99, 95, 90, 75, 50)
MIN_BEYOND = 10  # a reported tail needs at least this many samples above it


def tail_percentile(n: int) -> Optional[int]:
    """Highest of TAIL_PERCENTILES with at least MIN_BEYOND of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) >= MIN_BEYOND * 100:
            return p
    return None


def percentile(samples: Sequence[float], p: int) -> float:
    """The p-th percentile by linear interpolation between order statistics."""
    if not samples:
        raise ValueError("no samples")
    if len(samples) == 1:
        return float(samples[0])
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def self_times(names: Sequence[str], name_ids, parents, starts, ends) -> dict[str, dict]:
    """Calls and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; children of one parent never overlap in a single thread, so
    this equals the duration minus the time its children cover. Recursive
    spans (a name nested in itself) count once per call and never count a
    child's time twice. ``parents[i]`` is the index of span i's parent, or
    -1 for a root; spans are stored in opening order, so parents come first.
    """
    n = len(name_ids)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[str, dict] = {}
    for i in range(n):
        entry = out.setdefault(names[name_ids[i]], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (ends[i] - starts[i]) - child[i]
    return out


def ratio(num: float, den: float) -> float:
    """num / den, with 0 for an empty denominator (the layer was not used)."""
    return num / den if den else 0.0


def kernel(n: int = KERNEL_N) -> int:
    """Fixed interpreter work: tuple keys, dict updates, integer bit ops."""
    d: dict = {}
    acc = 0
    for i in range(n):
        key = ((i * 7) % 101, i & 15)
        d[key] = d.get(key, 0) ^ (i << 3)
        acc += len(d) + (i & 0xFF)
    return acc


def kernel_time() -> float:
    """Median of three timed kernel runs, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(raw_s: float, kernel_before: float, kernel_after: float) -> float:
    """A duration rescaled to the reference speed, using the kernel times
    measured just before and just after it."""
    return raw_s * REF_KERNEL_S / ((kernel_before + kernel_after) / 2)


class SpeedSampler(threading.Thread):
    """Times a short kernel every ``interval`` seconds while a long call runs.

    The kernel's thread CPU time excludes waiting for the interpreter lock,
    so each sample measures how fast the core executes at that moment. The
    call's own time is its wall time minus the CPU time the samples took.
    """

    def __init__(self, interval: float = 0.1, n: int = KERNEL_N // 4):
        super().__init__(daemon=True)
        self.interval, self.n = interval, n
        self.samples: list[float] = []  # kernel(KERNEL_N) equivalents, seconds
        self.cpu_s = 0.0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            t0 = time.thread_time()
            kernel(self.n)
            spent = time.thread_time() - t0
            self.cpu_s += spent
            self.samples.append(spent * KERNEL_N / self.n)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def scaled(self, wall_s: float, kernel_before: float, kernel_after: float) -> float:
        """The call's time at the reference speed; the mean kernel time is
        the time-weighted slowness over the call."""
        ks = self.samples + [kernel_before, kernel_after]
        return (wall_s - self.cpu_s) * REF_KERNEL_S / statistics.mean(ks)

"""Shared measurement helpers: percentiles, peak memory, the run window."""

from __future__ import annotations

import math
import time

#: A percentile that lands on a failed op has no latency; it is reported
#: as this many milliseconds so that it misses any latency limit.
FAILED_LATENCY_MS = 1e9


def percentile(samples: list[float], q: float) -> float:
    """The Harrell–Davis estimate of the q-quantile (0 < q < 1).

    It weights every order statistic by the Beta((n+1)q, (n+1)(1−q))
    mass of its rank interval, so the estimate moves smoothly when a
    sample mixes op types of very different cost, where a single order
    statistic jumps between types from run to run.  Failed ops are
    ``inf``; if they carry weight the result is ``FAILED_LATENCY_MS``.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    total, previous = 0.0, 0.0
    for i, value in enumerate(ordered, 1):
        current = _beta_cdf(i / n, a, b)
        weight = current - previous
        previous = current
        if weight <= 1e-12:
            continue
        if math.isinf(value):
            return FAILED_LATENCY_MS
        total += weight * value
    return total


def mix_median(groups: list[list[float]]) -> float:
    """The median of an op mix, estimated one op type at a time.

    ``groups`` holds the latency samples of each op type.  Each type's
    median is estimated on its own with :func:`percentile`; the result is
    the median of these estimates, each weighted by its type's share of
    the samples (the mean of the two middle ones when the halves split
    exactly between two types).  When the middle of the pooled sample
    falls inside one type's latencies, a pooled estimate still weights
    the neighbouring types, whose few samples move it from run to run;
    this estimate follows the middle type alone.  It is a continuous
    function of the per-type medians, so it does not jump when two types
    swap places.
    """
    ranked = sorted((percentile(values, 0.5), len(values)) for values in groups if values)
    if not ranked:
        return 0.0
    total = sum(count for _, count in ranked)
    i, seen = 0, ranked[0][1]
    while 2 * seen < total:
        i += 1
        seen += ranked[i][1]
    if 2 * seen == total:
        return (ranked[i][0] + ranked[i + 1][0]) / 2
    return ranked[i][0]


def _beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(x, a, b) / a
    return 1.0 - front * _beta_fraction(1.0 - x, b, a) / b


def _beta_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 300):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return result


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Window:
    """A closed-loop timed window of a fixed number of whole rounds.

    Every run of a workload does the same work, so its timings do not
    depend on how many rounds happened to fit in a time limit.  A window
    still stops after ``cap_seconds`` so that a much slower program
    cannot overrun the run.  Work done between rounds through
    :meth:`paused` (counter snapshots, answer checks) is excluded from
    the elapsed time.
    """

    def __init__(self, rounds: int, cap_seconds: float) -> None:
        self.target = rounds
        self.cap_seconds = cap_seconds
        self.rounds = 0
        self._paused = 0.0
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused

    def next_round(self) -> bool:
        """Count a finished round; true while another one should run."""
        self.rounds += 1
        return self.rounds < self.target and self.elapsed() < self.cap_seconds

    def paused(self, action):
        started = time.perf_counter()
        try:
            return action()
        finally:
            self._paused += time.perf_counter() - started

"""Order statistics used by the benchmark report, and the host-speed probe."""

from __future__ import annotations

import statistics
import time

TAIL_BEYOND = 10

# The host-speed probe: a fixed pure-Python loop, timed before each op on
# the same CPU. On a shared host the speed of a CPU drifts by tens of
# percent over seconds to minutes; the probe drifts with the ops (see
# README.md).
PROBE_LOOPS = 500_000
# Probe time that a host factor of 1 stands for: about the loop's time on
# the 2-vCPU machine that the README's numbers come from.
PROBE_REF_S = 0.040


def probe() -> float:
    """Seconds taken by the fixed probe loop."""
    t = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return time.perf_counter() - t


def host_factor(probes) -> float:
    """How fast the host ran relative to PROBE_REF_S; above 1 is faster.

    It uses the mean probe time: the host switches between faster and
    slower spells, and the mean weighs them by how long they last.
    Multiplying a time by it (or dividing a rate) gives its value at the
    reference speed."""
    return PROBE_REF_S / statistics.fmean(probes)


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile that still has TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count). The percentile is the
    nearest-rank one of the returned sample: with n sorted samples, the
    sample at 1-based rank n - TAIL_BEYOND is the 100 * (n - 10) / n
    percentile and has exactly ten samples after it. With ten samples or
    fewer no percentile qualifies, and the maximum is returned as the 100th.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return float(xs[-1]), 100.0, n
    rank = n - TAIL_BEYOND
    return float(xs[rank - 1]), 100.0 * rank / n, n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def at_reference_speed(timings: dict, host: float) -> dict:
    """Times multiplied by the host factor, and rates (names ending in
    ``_per_s``) divided by it."""
    return {name: value / host if name.endswith("_per_s") else value * host
            for name, value in timings.items()}

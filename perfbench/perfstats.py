"""The benchmark's arithmetic: throughput, the crowd set-up subtraction,
percentiles, spreads and ratios. Pure functions, tested in
test_perfbench.py."""

import math
import statistics

MB = 1024.0 * 1024.0


def throughput(phone_h, host_seconds):
    """Simulated phone-hours per host second."""
    if host_seconds <= 0:
        raise ValueError(f"run phase of {host_seconds} s is not positive")
    return phone_h / host_seconds


def run_phase(call_s, setup_s):
    """A crowd run's run phase: the whole run_d2d_crowd call minus the
    set-up (a zero-duration call). A phase that is not positive means
    the set-up estimate is wrong, not that the run was free."""
    phase = call_s - setup_s
    if phase <= 0:
        raise ValueError(
            f"call of {call_s} s is not longer than its set-up of {setup_s} s")
    return phase


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it. Returns (value, sample count)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def imbalance(values):
    """max / mean (1.0 = perfectly balanced)."""
    if not values:
        raise ValueError("imbalance of no samples")
    mean = sum(values) / len(values)
    if mean == 0:
        raise ValueError("imbalance of all-zero samples")
    return max(values) / mean


def ratio(numerator, denominator):
    """numerator / denominator, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def paired_overhead(traced, untraced):
    """Median over matched pairs of (traced - untraced) / untraced."""
    if len(traced) != len(untraced) or not traced:
        raise ValueError("overhead needs matched, non-empty pairs")
    return median([(t - u) / u for t, u in zip(traced, untraced)])

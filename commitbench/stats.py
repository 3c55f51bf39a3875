"""Order statistics of the samples one benchmark run takes."""

from __future__ import annotations

import math


def percentile(values, q):
    """The *q*-th percentile (0..100) of *values*, linearly interpolated.

    Same definition as NumPy's default: position ``(n - 1) * q / 100`` in
    the sorted sample, interpolating between its two neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be within 0..100, got %r" % (q,))
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def samples_beyond(count, q):
    """How many of *count* samples lie strictly above the *q*-th percentile rank."""
    if count <= 0:
        return 0
    return count - 1 - math.floor((count - 1) * q / 100.0)


def median(values):
    return percentile(values, 50)

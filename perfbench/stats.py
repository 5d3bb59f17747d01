"""Percentiles that refuse to report a tail the sample cannot support."""

from __future__ import annotations

import math

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class NotEnoughSamples(ValueError):
    """The sample is too small for the percentile asked for."""


def samples_needed(p: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample size whose ``p``-th percentile has ``min_beyond`` above it."""
    n = 1
    while n - math.ceil(p / 100 * n) < min_beyond:
        n += 1
    return n


def percentile(values, p: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``p``-th percentile of ``values``.

    Raises :class:`NotEnoughSamples` unless at least ``min_beyond``
    samples lie beyond the returned one.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(p / 100 * n)
    if n == 0 or n - rank < min_beyond:
        raise NotEnoughSamples(
            f"p{p:g} needs {samples_needed(p, min_beyond)} samples "
            f"({min_beyond} beyond it), have {n}"
        )
    return ordered[max(rank, 1) - 1]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there is no base."""
    return numerator / denominator if denominator else 0.0

"""Numerical core: histogram mean intensity, sample statistics, CI half-width.

All results are double-precision. ``sample_std`` is Bessel-corrected
(denominator n-1); ``ci_halfwidth`` is the +/- width of the mean's
confidence interval, z*s/sqrt(n).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["mean_intensity", "sample_mean", "sample_std", "ci_halfwidth"]

_INTENSITIES = np.arange(256, dtype=np.int64)


def mean_intensity(hist) -> float:
    """Intensity-weighted mean of a 256-bin histogram.

    Equals the arithmetic mean of the pixels the histogram was built from.
    Raises ValueError if all bins are zero.
    """
    bins = np.asarray(hist)
    if bins.shape != (256,):
        raise ValueError(f"histogram must have exactly 256 bins, got shape {bins.shape}")
    if np.any(bins < 0):
        raise ValueError("histogram counts must be non-negative")
    counts = bins.astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty histogram: all bins are zero")
    return int(np.dot(_INTENSITIES, counts)) / total


def _as_floats(values: Sequence[float]) -> list[float]:
    xs = [float(v) for v in values]
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"sample values must be finite, got {x!r}")
    return xs


def sample_mean(values: Sequence[float]) -> float:
    """Arithmetic mean of the samples. Raises ValueError on an empty set."""
    xs = _as_floats(values)
    if not xs:
        raise ValueError("empty sample set")
    return sum(xs) / len(xs)


def sample_std(values: Sequence[float]) -> float:
    """Bessel-corrected standard deviation; zero iff all samples are equal.

    Raises ValueError with fewer than two samples.
    """
    xs = _as_floats(values)
    if len(xs) < 2:
        raise ValueError(f"need at least 2 samples for a standard deviation, got {len(xs)}")
    mean = sample_mean(xs)
    return math.sqrt(sum((x - mean) ** 2 for x in xs) / (len(xs) - 1))


def ci_halfwidth(std: float, n: int, z: float) -> float:
    """Half-width z*std/sqrt(n) of the confidence interval about the mean."""
    if std < 0 or not math.isfinite(std):
        raise ValueError(f"std must be finite and non-negative, got {std!r}")
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n}")
    if z <= 0 or not math.isfinite(z):
        raise ValueError(f"z must be finite and positive, got {z!r}")
    return z * std / math.sqrt(n)

"""Numerical core: histogram mean intensity and sample statistics.

All results are double-precision. ``sample_std`` is Bessel-corrected
(denominator n-1).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["mean_intensity", "sample_mean", "sample_std"]

_INTENSITIES = np.arange(256, dtype=np.int64)
# With every bin at most this, neither the total nor the weighted sum passes int64.
_MAX_COUNT = np.iinfo(np.int64).max // int(_INTENSITIES.sum())


def mean_intensity(hist) -> float:
    """Intensity-weighted mean of a 256-bin histogram of integer counts.

    Equals the arithmetic mean of the pixels the histogram was built from.
    Raises ValueError if the counts are not integers, are negative, could
    overflow int64 (a bin above ``_MAX_COUNT``) or are all zero.
    """
    bins = np.asarray(hist)
    if bins.shape != (256,):
        raise ValueError(f"histogram must have exactly 256 bins, got shape {bins.shape}")
    if not np.issubdtype(bins.dtype, np.integer):
        raise ValueError(f"histogram counts must be integers, got dtype {bins.dtype}")
    if np.any(bins < 0):
        raise ValueError("histogram counts must be non-negative")
    top = int(bins.max())
    if top > _MAX_COUNT:
        raise ValueError(f"histogram count {top} exceeds {_MAX_COUNT}, so its sums could overflow int64")
    counts = bins.astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty histogram: all bins are zero")
    return int(np.dot(_INTENSITIES, counts)) / total


def _as_floats(values: Sequence[float]) -> list[float]:
    try:
        xs = [float(v) for v in values]
    except OverflowError:  # float() of an int beyond float range
        raise ValueError("sample values must be finite, got an int beyond float range") from None
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

"""Histogram mean and sample statistics: known values, rejections and shift/scale properties.

Acceptance criterion 2 checks all three against independent oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import rejects
from traysight.imaging import GrayImage, histogram
from traysight.stats import mean_intensity, sample_mean, sample_std

bounded_floats = st.floats(min_value=0.0, max_value=200.0, allow_nan=False, width=64)
SAFE_COUNT = (2**63 - 1) // sum(range(256))  # the largest bin count whose sums cannot pass int64


class TestMeanIntensity:
    def test_single_bin_mass(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[100] = 50
        assert mean_intensity(bins) == 100.0
        assert type(mean_intensity(bins)) is float

    def test_symmetric_extremes(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[0] = 1
        bins[255] = 1
        assert mean_intensity(bins) == 127.5

    test_empty_histogram_rejected = rejects("empty", lambda: mean_intensity(np.zeros(256, dtype=np.int64)))
    test_wrong_shape_rejected = rejects("exactly 256 bins", lambda: mean_intensity(np.ones(255, dtype=np.int64)))
    test_negative_count_rejected = rejects(
        "non-negative", lambda: mean_intensity(np.where(np.arange(256) == 3, -1, 0))
    )
    test_non_integer_counts_rejected = rejects(
        "integers", lambda: mean_intensity([0.5] + [0] * 254 + [1]), lambda: mean_intensity([np.nan] * 256)
    )
    test_overflowing_counts_rejected = rejects(
        "exceeds 282578800148737, so", lambda: mean_intensity([1] + [0] * 254 + [2**56]),
        lambda: mean_intensity([SAFE_COUNT + 1] * 256),
    )

    def test_largest_safe_counts_exact(self):
        assert mean_intensity([SAFE_COUNT] * 256) == 127.5

    def test_uint64_counts_summed_exactly(self):
        # uint64 against the int64 intensities would promote np.dot to float64.
        bins = np.ones(256, dtype=np.uint64)
        bins[255] = SAFE_COUNT
        exact = (sum(range(255)) + 255 * SAFE_COUNT) / (255 + SAFE_COUNT)
        assert mean_intensity(bins) == mean_intensity(bins.astype(np.int64)) == exact

    def test_equals_pixel_mean_of_image(self):
        # The cross-module link: histogram mean == arithmetic pixel mean, exactly.
        rng = np.random.default_rng(17)
        for _ in range(10):
            img = GrayImage(rng.integers(0, 256, size=(12, 19)))
            assert mean_intensity(histogram(img)) == float(np.mean(img.pixels))


class TestSampleMean:
    def test_singleton(self):
        assert sample_mean([5]) == 5.0

    def test_small_set(self):
        assert sample_mean([1, 2, 3, 4]) == 2.5

    def test_float32_samples_summed_in_double(self):
        # In float32, 2**24 + 1 rounds back to 2**24.
        assert sample_mean([np.float32(2**24), np.float32(1), np.float32(1)]) == (2**24 + 2) / 3

    test_empty_rejected = rejects("empty", lambda: sample_mean([]))
    test_non_finite_rejected = rejects(
        "finite",
        lambda: sample_mean([1.0, float("nan")]),
        lambda: sample_mean([1.0, 10**400]),
        lambda: sample_std([1.0, 10**400]),
    )

    @given(st.lists(bounded_floats, min_size=1, max_size=40), st.floats(-25, 25, allow_nan=False))
    def test_shift_moves_mean_by_constant(self, xs, c):
        shifted = [x + c for x in xs]
        assert sample_mean(shifted) == pytest.approx(sample_mean(xs) + c, abs=1e-9)


class TestSampleStd:
    def test_constant_samples(self):
        assert sample_std([3, 3, 3]) == 0.0

    def test_two_point_case(self):
        assert sample_std([1, 3]) == pytest.approx(math.sqrt(2), abs=1e-12)

    test_insufficient_samples_rejected = rejects("at least 2", lambda: sample_std([4.0]))

    @given(st.lists(bounded_floats, min_size=2, max_size=40), st.floats(-25, 25, allow_nan=False))
    def test_shift_invariance(self, xs, c):
        assert sample_std([x + c for x in xs]) == pytest.approx(sample_std(xs), abs=1e-7)

    @given(st.lists(bounded_floats, min_size=2, max_size=40), st.floats(0, 8, allow_nan=False))
    def test_scales_linearly(self, xs, k):
        assert sample_std([k * x for x in xs]) == pytest.approx(
            k * sample_std(xs), rel=1e-9, abs=1e-7
        )
